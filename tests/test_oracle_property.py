"""Property test of the oracle's pruned walk against scoring every point.

The reference is the plain enumeration, written here: every assignment of
itertools.product(*inst.gene_options) is evaluated and each feasible one
goes into a ParetoArchive.  `true_pareto_front` must return the same
front: objectives bit for bit (compared by float.hex), the same first
chromosome at each member, the same `feasible` count and `evaluations`,
or the same exception type.

Instances are generated with 1-3 modes and 1-2 resources and then pushed
to where the walk's bounds and its prefix fire: capacities cut between the
least and the largest total demand, ids out of topological order, one
activity with two identical modes (so that the walk's order shows in which
of two chromosomes reaches a point first), a deadline 0-3 periods above
the fully crashed makespan, any J from 1 to n, a dummy that holds a
resource, and both discounting rules.
"""

import itertools
import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from crashplan.errors import CrashplanError, NoFeasible
from crashplan.evaluate import Chromosome, evaluate
from crashplan.instance import (compute_time_windows, generate_instance,
                                topological_order, validate_instance)
from crashplan.oracle import true_pareto_front
from crashplan.pareto import ParetoArchive

from conftest import relabel, replace_activity, replace_mode, reverse_real_ids

MAX_POINTS = 1500  # the reference scores every point


def reference_front(inst, literal_eq15):
    """(front, feasible, evaluations) by scoring every assignment."""
    order = topological_order(inst)
    archive = ParetoArchive()
    feasible = evaluations = 0
    for assignment in itertools.product(*inst.gene_options):
        chrom = Chromosome(order, tuple(m for m, _ in assignment),
                           tuple(d for _, d in assignment))
        obj, rep = evaluate(inst, chrom, literal_eq15=literal_eq15)
        evaluations += 1
        if rep.valid_number == 3:
            feasible += 1
            archive.add(obj, chrom)
    if feasible == 0:
        raise NoFeasible("no assignment satisfies all three constraint groups")
    return archive.front(), feasible, evaluations


def outcome(solve):
    """What a run shows: the front by float hex with each point's first
    chromosome and the counts, or the type of the exception it raised."""
    try:
        front, feasible, evaluations = solve()
    except CrashplanError as exc:
        return type(exc)
    members = [((m.objectives.npv_cost.hex(), m.objectives.makespan,
                 m.objectives.productivity.hex()), m.chromosome)
               for m in front.members]
    return members, feasible, evaluations


def oracle(inst, literal_eq15):
    report = true_pareto_front(inst, literal_eq15=literal_eq15)
    return report.front, report.params["feasible"], report.evaluations


def narrow(inst, limit):
    """Zero-width windows, activity by activity, until the space fits."""
    for act in inst.activities[1:-1]:
        if math.prod(map(len, inst.gene_options)) <= limit:
            break
        for m_idx, mode in enumerate(act.modes, start=1):
            inst = replace_mode(inst, act.id, m_idx,
                                crash_duration=mode.normal_duration)
    return inst


def total_demand(inst, pick):
    """Per resource, the sum over activities of pick() over its modes."""
    return [sum(pick(dict(m.demands).get(r, 0) for m in act.modes)
                for act in inst.activities)
            for r, _ in inst.resource_capacity]


@st.composite
def cases(draw):
    n = draw(st.integers(3, 7))
    inst = generate_instance(draw(st.integers(0, 40)), n,
                             draw(st.integers(1, 3)),
                             draw(st.sampled_from([0.3, 0.6, 0.9])),
                             n_resources=draw(st.integers(1, 2)),
                             min_normal=2, max_normal=5,
                             max_span=draw(st.integers(0, 2)),
                             budget_slack=draw(
                                 st.sampled_from([0.1, 1.0, 3.0])))
    # two identical modes: two chromosomes reach each point with this activity
    act = inst.activities[draw(st.integers(2, n - 1)) - 1]
    inst = replace_activity(inst, act.id, modes=act.modes + act.modes[:1])
    inst = narrow(inst, MAX_POINTS)

    ids = draw(st.sampled_from(["as generated", "reversed", "shuffled"]))
    if ids == "reversed":
        inst = reverse_real_ids(inst)
    elif ids == "shuffled":
        inst = relabel(inst, (1, *draw(st.permutations(range(2, n))), n))

    if draw(st.booleans()):
        held = tuple((r, draw(st.integers(1, 2)))
                     for r, _ in inst.resource_capacity)
        end = inst.activities[draw(st.sampled_from([0, n - 1]))]
        inst = replace_activity(inst, end.id, modes=(
            replace(end.modes[0], demands=held),))
    if draw(st.booleans()):
        low = total_demand(inst, min)
        high = total_demand(inst, max)
        inst = replace(inst, resource_capacity=tuple(
            (r, draw(st.integers(lo - 1, hi)))
            for (r, _), lo, hi in zip(inst.resource_capacity, low, high)))

    changes = {"payment_count": draw(st.integers(1, n))}
    slack = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if slack is not None:
        crashed = compute_time_windows(
            replace(inst, deadline=10**6)).earliest_finish[n]
        changes["deadline"] = crashed + slack
    inst = replace(inst, **changes)
    assert validate_instance(inst) == []
    return inst, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_pruned_walk_matches_scoring_every_point(case):
    inst, literal_eq15 = case
    assert outcome(lambda: oracle(inst, literal_eq15)) \
        == outcome(lambda: reference_front(inst, literal_eq15))
