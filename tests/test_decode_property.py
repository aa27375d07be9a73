"""Property tests of the decode walk as the chromosome validator.

Generated instances and random chromosomes, each with at most one
corruption, go through `decode_schedule`.  It must raise EncodingError
exactly when the independent check below finds the chromosome invalid,
and otherwise return the plain earliest-start schedule computed over the
canonical topological order.

`check_feasibility` trusts that walk for precedence and duration windows,
so a second test holds every decoded schedule to those constraints and
`evaluate`'s feasibility report to the three constraint groups computed
here from the activity records.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashplan.errors import EncodingError
from crashplan.evaluate import (Chromosome, DecodedSchedule, FeasibilityReport,
                                compute_payments, decode_schedule, evaluate)
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


def instance_and_chromosome(draw):
    """A generated instance and a random valid chromosome on it."""
    inst = instance(draw(st.integers(0, 30)), draw(st.integers(3, 9)),
                    draw(st.integers(1, 3)), draw(st.sampled_from([0.2, 0.5, 0.9])))
    chrom = random_chromosome(
        inst, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return inst, chrom


@st.composite
def cases(draw):
    inst, chrom = instance_and_chromosome(draw)
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


@st.composite
def feasibility_cases(draw):
    """A valid chromosome on an instance whose deadline and initial capital
    are drawn around the chromosome's own makespan and budget need, so each
    constraint group both holds and fails."""
    inst, chrom = instance_and_chromosome(draw)
    makespan = reference_schedule(inst, chrom).makespan
    inst = replace(inst, deadline=max(0, makespan + draw(st.integers(-2, 2))),
                   initial_capital=inst.initial_capital
                   * draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    return inst, chrom


def expected_report(inst, chrom, literal_eq15):
    """The three constraint groups from the activity records."""
    sched = reference_schedule(inst, chrom)
    used = {r: 0 for r, _ in inst.resource_capacity}
    for act, m in zip(inst.activities, chrom.modes):
        for r, units in act.modes[m - 1].demands:
            used[r] += units
    resource_ok = all(used[r] <= cap for r, cap in inst.resource_capacity)
    rate = 1.0 + inst.interest_rate
    cost = 0.0
    for act, m, d, f in zip(inst.activities, chrom.modes, chrom.durations,
                            sched.finish):
        if not act.is_dummy:
            mode = act.modes[m - 1]
            cost += (mode.normal_cost + mode.cost_slope
                     * (mode.normal_duration - d)) / rate ** f
    cost += inst.overhead * sched.makespan / rate ** sched.makespan
    plan = compute_payments(inst, sched)
    paid = 0.0
    for ev in plan.events:
        t = sched.start[ev.activity - 1] if literal_eq15 else ev.time
        paid += ev.amount / rate ** t
    available = inst.initial_capital + plan.prepayment + paid
    return FeasibilityReport(resource_ok, sched.makespan <= inst.deadline,
                             cost <= available + 1e-9)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(feasibility_cases(), st.booleans())
def test_feasibility_report_matches_constraint_groups(case, literal_eq15):
    inst, chrom = case
    sched = decode_schedule(inst, chrom)
    for act in inst.activities:
        k = act.id - 1
        mode = act.modes[chrom.modes[k] - 1]
        assert mode.crash_duration <= sched.finish[k] - sched.start[k] \
            <= mode.normal_duration
        for h in act.successors:
            assert sched.finish[k] <= sched.start[h - 1]
    _, report = evaluate(inst, chrom, literal_eq15=literal_eq15)
    assert report == expected_report(inst, chrom, literal_eq15)
