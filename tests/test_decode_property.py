"""Property test of the decode walk as the chromosome validator.

Generated instances and random chromosomes, each with at most one
corruption, go through `decode_schedule`.  It must raise EncodingError
exactly when the independent check below finds the chromosome invalid,
and otherwise return the plain earliest-start schedule computed over the
canonical topological order.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashplan.errors import EncodingError
from crashplan.evaluate import Chromosome, DecodedSchedule, decode_schedule
from crashplan.instance import generate_instance, topological_order
from crashplan.moga import random_chromosome

#: corruption -> words one of which the EncodingError message must contain
CORRUPTIONS = {
    "none": (),
    "swap": ("precedence",),
    "repeat": ("permutation", "precedence"),
    "mode_zero": ("mode",),
    "mode_past_end": ("mode",),
    "duration": ("duration",),
    "dummy": ("dummy",),
    "short": ("lengths",),
}


@lru_cache(maxsize=None)
def instance(seed, n, max_modes, density):
    return generate_instance(seed, n, max_modes, density)


def is_valid(inst, chrom):
    """Structural validity from the activity records alone."""
    n = inst.n
    if not (len(chrom.order) == len(chrom.modes) == len(chrom.durations) == n):
        return False
    if sorted(chrom.order) != list(range(1, n + 1)):
        return False
    pos = {a: p for p, a in enumerate(chrom.order)}
    if any(pos[act.id] > pos[h] for act in inst.activities
           for h in act.successors):
        return False
    for act, m, d in zip(inst.activities, chrom.modes, chrom.durations):
        if not (1 <= m <= len(act.modes)):
            return False
        mode = act.modes[m - 1]
        if act.is_dummy:
            if d != 0:
                return False
        elif not (mode.crash_duration <= d <= mode.normal_duration):
            return False
    return True


def reference_schedule(inst, chrom):
    """Forward pass over the canonical topological order."""
    preds = {act.id: [] for act in inst.activities}
    for act in inst.activities:
        for h in act.successors:
            preds[h].append(act.id)
    finish = {}
    start = {}
    for i in topological_order(inst):
        start[i] = max((finish[p] for p in preds[i]), default=0)
        finish[i] = start[i] + chrom.durations[i - 1]
    ids = range(1, inst.n + 1)
    return DecodedSchedule(tuple(start[i] for i in ids),
                           tuple(finish[i] for i in ids), finish[inst.n])


@st.composite
def cases(draw):
    inst = instance(draw(st.integers(0, 30)), draw(st.integers(3, 9)),
                    draw(st.integers(1, 3)), draw(st.sampled_from([0.2, 0.5, 0.9])))
    chrom = random_chromosome(
        inst, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(sorted(CORRUPTIONS)))
    order, modes, durations = (list(s) for s in chrom)
    n = inst.n
    if kind == "swap":  # real neighbours, so unrelated pairs stay valid
        p = draw(st.integers(1, max(1, n - 3)))
        order[p], order[p + 1] = order[p + 1], order[p]
    elif kind == "repeat":
        p, q = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        order[p] = order[q]
    elif kind in ("mode_zero", "mode_past_end"):
        k = draw(st.integers(0, n - 1))
        modes[k] = 0 if kind == "mode_zero" else len(inst.activities[k].modes) + 1
    elif kind == "duration":
        k = draw(st.integers(1, n - 2))  # activities 1 and n are the dummies
        lo, hi = inst.duration_bounds[k][modes[k] - 1]
        durations[k] = draw(st.sampled_from([lo - 1, hi + 1]))
    elif kind == "dummy":
        k = draw(st.sampled_from([0, n - 1]))
        durations[k] = draw(st.integers(1, 5))
    elif kind == "short":
        strings = (order, modes, durations)
        strings[draw(st.integers(0, 2))].pop()
    return inst, kind, Chromosome(tuple(order), tuple(modes), tuple(durations))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cases())
def test_decode_validates_exactly_and_matches_forward_pass(case):
    inst, kind, chrom = case
    if is_valid(inst, chrom):
        assert decode_schedule(inst, chrom) == reference_schedule(inst, chrom)
    else:
        assert kind != "none"
        with pytest.raises(EncodingError) as info:
            decode_schedule(inst, chrom)
        assert any(word in str(info.value) for word in CORRUPTIONS[kind])
