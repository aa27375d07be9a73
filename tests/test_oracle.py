import itertools
import math
import tracemalloc
from dataclasses import replace

import pytest

from crashplan.errors import (InfeasibleInstance, NoFeasible, SpaceTooLarge,
                             ZeroCost)
from crashplan.evaluate import Chromosome, evaluate
from crashplan.instance import ActivityMode, generate_instance, topological_order
from crashplan.oracle import search_space_size, true_pareto_front

from conftest import dummy, make_instance, real, replace_mode


def second_pass_front(inst):
    """Independent enumeration: different iteration order, raw dominance filter."""
    options = []
    for act in inst.activities:
        if act.is_dummy:
            options.append([(1, 0)])
        else:
            options.append([(m, d) for m, mode in enumerate(act.modes, start=1)
                            for d in range(mode.normal_duration,
                                           mode.crash_duration - 1, -1)])
    order = topological_order(inst)
    points = []
    for assignment in itertools.product(*reversed(options)):
        assignment = tuple(reversed(assignment))
        c = Chromosome(order, tuple(m for m, _ in assignment),
                       tuple(d for _, d in assignment))
        obj, rep = evaluate(inst, c)
        if rep.valid_number == 3:
            points.append(obj)

    def dom(a, b):
        better_eq = (a.npv_cost <= b.npv_cost and a.makespan <= b.makespan
                     and a.productivity >= b.productivity)
        return better_eq and (a.npv_cost < b.npv_cost or a.makespan < b.makespan
                              or a.productivity > b.productivity)

    return {p.as_tuple() for p in points
            if not any(dom(q, p) for q in points if q is not p)}


class TestSpaceSize:
    def test_toy4(self, toy4):
        # A2: (4-2+1) + (3-2+1) = 5 options; A3: 3 options
        assert search_space_size(toy4) == 15

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_counts_the_gene_table(self, seed):
        inst = generate_instance(seed, 8, 3, 0.5, max_span=4)
        assert search_space_size(inst) \
            == math.prod(len(genes) for genes in inst.gene_options)

    def test_wide_window_refused_without_a_gene_table(self, toy4):
        # one window of 3,000,000 durations: a gene per duration would take
        # hundreds of MB before the size check could refuse the space
        wide = replace_mode(replace(toy4, interest_rate=0.0), 2, 1,
                            normal_duration=3_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(SpaceTooLarge):
                true_pareto_front(wide, max_points=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestTrueParetoFront:
    def test_toy4_cross_checked(self, toy4):
        report = true_pareto_front(toy4)
        assert len(report.front) >= 1
        assert {o.as_tuple() for o in report.front.objectives()} \
            == second_pass_front(toy4)

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_generated_cross_checked(self, seed):
        inst = generate_instance(seed, 5, 2, 0.5, max_span=2)
        report = true_pareto_front(inst)
        assert {o.as_tuple() for o in report.front.objectives()} \
            == second_pass_front(inst)

    def test_single_mode_single_duration(self):
        mode = ActivityMode(3, 3, 10.0, 1.0, 60.0, (("r1", 1),))
        inst = make_instance([dummy(1, {2}), real(2, {3}, [mode], 100.0),
                              dummy(3, ())], price=100.0)
        report = true_pareto_front(inst)
        assert len(report.front) == 1
        assert report.params["space_size"] == 1

    def test_no_feasible(self, toy4):
        with pytest.raises(NoFeasible):
            true_pareto_front(replace(toy4, deadline=2))

    def test_deadline_below_crash_makespan_is_infeasible(self, toy4):
        # the CPM windows refuse it before the walk, as a NoFeasible
        with pytest.raises(InfeasibleInstance) as err:
            true_pareto_front(replace(toy4, deadline=2))
        assert isinstance(err.value, NoFeasible)
        assert "earliest finish 3 exceeds deadline 2" in str(err.value)

    def test_space_too_large(self, toy4):
        with pytest.raises(SpaceTooLarge) as err:
            true_pareto_front(toy4, max_points=10)
        assert err.value.space_size == 15

    def test_front_members_feasible_and_reachable(self, toy4):
        report = true_pareto_front(toy4)
        for m in report.front.members:
            obj, rep = evaluate(toy4, m.chromosome)
            assert rep.valid_number == 3
            assert obj == m.objectives


class TestPrunedWalk:
    def test_scored_counts_points_within_both_bounds(self, toy4):
        report = true_pareto_front(toy4)
        assert report.evaluations == 15
        assert report.params["feasible"] <= report.params["scored"] <= 15
        # A3 needs 2 of r1, and A2 2 in mode 1 (3 durations) or 3 in mode 2;
        # a capacity of 4 leaves A2's mode 1 with A3's 3 durations
        four = (("r1", 4),)
        tight = true_pareto_front(replace(toy4, resource_capacity=four))
        assert tight.evaluations == 15
        assert tight.params["scored"] == 3 * 3
        # A2 and A3 run side by side, so a deadline of 4 leaves durations
        # up to 4 for both: A2 has 3 + 2 such genes and A3 two
        late = true_pareto_front(replace(toy4, deadline=4))
        assert late.params["scored"] == (3 + 2) * 2

    def test_zero_cost_points_over_capacity_are_never_scored(self, toy4):
        free = replace_mode(toy4, 2, 2, normal_cost=0.0, cost_slope=0.0)
        free = replace_mode(free, 3, 1, normal_cost=0.0, cost_slope=0.0)
        free = replace(free, overhead=0.0)
        with pytest.raises(ZeroCost):
            true_pareto_front(free)
        # A2's free mode needs 3 of r1 and A3 needs 2: over a capacity of 4
        report = true_pareto_front(
            replace(free, resource_capacity=(("r1", 4),)))
        assert all(m.chromosome.modes[1] == 1 for m in report.front.members)

    def test_long_chain_is_walked_without_recursion(self):
        # one gene per activity: the space has one point however long the
        # chain, so n is not bounded by max_points
        n = 3000
        mode = ActivityMode(2, 2, 10.0, 1.0, 60.0, (("r1", 1),))
        inst = make_instance(
            [dummy(1, {2})] + [real(i, {i + 1}, [mode]) for i in range(2, n)]
            + [dummy(n, ())],
            capacity=(("r1", n),), deadline=2 * n, price=10.0 * n)
        tracemalloc.start()
        try:
            report = true_pareto_front(inst)
            evaluate(inst, report.front.members[0].chromosome)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.evaluations == 1
        assert len(report.front) == 1
        assert report.front.members[0].objectives.makespan == 2 * (n - 2)
        # the evaluation tables stay linear in n: a table of every
        # activity's descendants would hold about 180 MB here
        assert peak < 50 * 2**20
