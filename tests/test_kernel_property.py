"""Property tests of the scoring pass and the hill climb's neighbourhood path.

`evaluate` is the decode walk plus one scoring pass, and
`evaluate_variant` re-times only the descendants of a changed activity.
Both must give exactly what the stage-by-stage reference path gives:
compute_payments, npv_cost, productivity and check_feasibility.  Floats
are compared by their hex form, so equal means bit for bit.

The instances are those of test_decode_property.py, reshaped towards the
edges of the model: ids that are not in topological order, zero-width and
zero-duration modes, a single mode, J = 1 and J = n, gamma just below
theta, and initial capitals around the budget need.  They hold one to
three resources, listed in resource_capacity in name order or not and
sometimes with one resource left out of one mode's demands: the scoring
pass reads demand rows aligned to resource_capacity, and the reference
sums demands by resource name.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crashplan.evaluate import (ObjectiveVector, check_feasibility,
                                compute_payments, decode_schedule, evaluate,
                                evaluate_variant, npv_cost, productivity)
from crashplan.instance import generate_instance, validate_instance
from crashplan.moga import random_chromosome, replace_gene

from conftest import relabel, replace_mode

WINDOWS = ("as generated", "zero-width", "zero-duration", "from zero")


@lru_cache(maxsize=None)
def generated(seed, n, max_modes, density, n_resources):
    return generate_instance(seed, n, max_modes, density,
                             n_resources=n_resources)


def reshape_windows(inst, act_id, how):
    """Every mode of the activity gets the duration window `how` names."""
    for m_idx, mode in enumerate(inst.activities[act_id - 1].modes, start=1):
        crash, normal = {
            "as generated": (mode.crash_duration, mode.normal_duration),
            "zero-width": (mode.normal_duration, mode.normal_duration),
            "zero-duration": (0, 0),
            "from zero": (0, mode.normal_duration),
        }[how]
        inst = replace_mode(inst, act_id, m_idx, crash_duration=crash,
                            normal_duration=normal)
    return inst


@st.composite
def cases(draw):
    """A valid instance near the edges of the model and a random valid
    chromosome on it."""
    inst = generated(draw(st.integers(0, 30)), draw(st.integers(3, 9)),
                     draw(st.integers(1, 3)),
                     draw(st.sampled_from([0.2, 0.5, 0.9])),
                     draw(st.integers(1, 3)))
    n = inst.n
    if draw(st.booleans()):
        reals = draw(st.permutations(range(2, n)))
        inst = relabel(inst, (1, *reals, n))
    for act_id in range(2, n):
        inst = reshape_windows(inst, act_id, draw(st.sampled_from(WINDOWS)))
    if draw(st.booleans()):
        inst = replace(inst, resource_capacity=tuple(
            draw(st.permutations(inst.resource_capacity))))
    if draw(st.booleans()):
        act_id = draw(st.integers(2, n - 1))
        m_idx = draw(st.integers(1, len(inst.activities[act_id - 1].modes)))
        demands = inst.activities[act_id - 1].modes[m_idx - 1].demands
        dropped = draw(st.integers(0, len(demands) - 1))
        inst = replace_mode(inst, act_id, m_idx, demands=tuple(
            d for j, d in enumerate(demands) if j != dropped))
    changes = {"initial_capital": inst.initial_capital
               * draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))}
    payments = draw(st.sampled_from(["as generated", "one", "n"]))
    if payments != "as generated":
        changes["payment_count"] = 1 if payments == "one" else n
    if draw(st.booleans()):
        changes["prepay_ratio"] = math.nextafter(inst.compensation_ratio, 0.0)
    inst = replace(inst, **changes)
    assert validate_instance(inst) == []
    chrom = random_chromosome(
        inst, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return inst, chrom


def bits(result):
    """(objectives, report) with each float as its exact hex form."""
    obj, report = result
    return tuple(x.hex() if isinstance(x, float) else x for x in obj), report


def reference(inst, chrom, literal_eq15):
    """The stage-by-stage evaluation."""
    sched = decode_schedule(inst, chrom)
    plan = compute_payments(inst, sched)
    cost = npv_cost(inst, chrom, sched)
    obj = ObjectiveVector(cost, sched.makespan, productivity(inst, chrom, sched))
    return obj, check_feasibility(inst, chrom, sched, plan, cost,
                                  literal_eq15=literal_eq15)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cases(), st.booleans())
def test_evaluate_equals_the_stage_composition(case, literal_eq15):
    inst, chrom = case
    assert bits(evaluate(inst, chrom, literal_eq15=literal_eq15)) \
        == bits(reference(inst, chrom, literal_eq15))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cases(), st.booleans())
def test_every_neighbour_equals_a_full_evaluation(case, literal_eq15):
    inst, chrom = case
    base = decode_schedule(inst, chrom)
    for act_id in range(1, inst.n + 1):
        for m_idx, d in inst.gene_options[act_id - 1]:
            variant = replace_gene(chrom, act_id, m_idx, d)
            assert bits(evaluate_variant(inst, base, variant, act_id,
                                         literal_eq15=literal_eq15)) \
                == bits(evaluate(inst, variant, literal_eq15=literal_eq15))


def reference_events(inst, sched):
    """(index, activity, time, amount, fallback) per event, from the rule:
    event j < J is the smallest finish at or after j*D/J, ties to the
    smallest id, else activity n at the makespan; the last event settles
    the price."""
    j_total = inst.payment_count
    share = inst.compensation_ratio - inst.prepay_ratio
    events = []
    prev_earned = paid = 0.0
    for j in range(1, j_total):
        threshold = j * inst.deadline / j_total
        later = [(t, i) for i, t in enumerate(sched.finish, start=1)
                 if t >= threshold]
        if later:
            (time, activity), fallback = min(later), False
        else:
            time, activity, fallback = sched.makespan, inst.n, True
        earned = 0.0
        for act, t in zip(inst.activities, sched.finish):
            if t <= time:
                earned += act.earned_value
        amount = share * (earned - prev_earned)
        prev_earned = earned
        paid += amount
        events.append((j, activity, time, amount, fallback))
    events.append((j_total, inst.n, sched.makespan,
                   inst.price - (inst.prepay_ratio * inst.price + paid), False))
    return events


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cases())
def test_payment_events_follow_the_rule(case):
    inst, chrom = case
    sched = decode_schedule(inst, chrom)
    plan = compute_payments(inst, sched)
    assert [tuple(e) for e in plan.events] == reference_events(inst, sched)
    assert plan.prepayment == inst.prepay_ratio * inst.price
