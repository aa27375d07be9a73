from dataclasses import replace

import numpy as np
import pytest

from crashplan.errors import InfeasibleInstance
from crashplan.evaluate import Chromosome, ObjectiveVector, evaluate
from crashplan.moga import MogaParams, run_moga, tournament_select
from crashplan.nsga2 import Nsga2Params, _survival, crowding_distance, run_nsga2
from crashplan.oracle import true_pareto_front
from crashplan.pareto import dominates, group_by_rank, nondominated_sort


def vec(npv, time, prod):
    return ObjectiveVector(float(npv), int(time), float(prod))


def reference_crowded_tournament(ranks, crowding, rng):
    """NSGA-II's crowded binary tournament written out on its own: lower
    rank wins, then larger crowding distance, else a coin."""
    picked = rng.choice(len(ranks), size=2, replace=False)
    a, b = int(picked[0]), int(picked[1])
    if (ranks[a], -crowding[a]) < (ranks[b], -crowding[b]):
        return a
    if (ranks[b], -crowding[b]) < (ranks[a], -crowding[a]):
        return b
    return a if rng.random() < 0.5 else b


class TestCrowdedTournament:
    """tournament_select on (rank, -crowding) keys makes the same picks
    from the same draws as the crowded tournament."""

    INF = float("inf")

    @pytest.mark.parametrize("seed,ranks,crowding", [
        (0, [0, 0, 0, 0], [1.0, 1.0, 1.0, 1.0]),
        (1, [0, 0, 1, 1, 2], [INF, INF, 0.5, INF, 0.0]),
        (2, [1, 0, 1, 0, 2, 2], [0.0, INF, 0.0, 0.25, INF, 0.25]),
        (3, [0, 0], [INF, INF]),
    ], ids=["all-tied", "inf-crowding", "mixed", "two-boundaries"])
    def test_same_picks_and_stream(self, seed, ranks, crowding):
        keys = [(r, -c) for r, c in zip(ranks, crowding)]
        ref_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            assert tournament_select(keys, rng) \
                == reference_crowded_tournament(ranks, crowding, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_random_populations(self):
        draw = np.random.default_rng(7)
        for seed in range(20):
            n = int(draw.integers(2, 12))
            ranks = [int(r) for r in draw.integers(0, 3, size=n)]
            crowding = [float(c) for c in
                        draw.choice([0.0, 0.5, 1.0, self.INF], size=n)]
            keys = [(r, -c) for r, c in zip(ranks, crowding)]
            ref_rng = np.random.default_rng(100 + seed)
            rng = np.random.default_rng(100 + seed)
            for _ in range(1000):
                assert tournament_select(keys, rng) \
                    == reference_crowded_tournament(ranks, crowding, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCrowdingDistance:
    def test_two_members_boundary_rule(self):
        assert crowding_distance([vec(1, 1, 1), vec(2, 2, 2)]) \
            == [float("inf")] * 2

    def test_single_member(self):
        assert crowding_distance([vec(1, 1, 1)]) == [float("inf")]

    def test_three_collinear_evenly_spaced(self):
        # middle point collects (range/range) per objective: 3 in total
        front = [vec(100, 5, 0.2), vec(110, 4, 0.3), vec(120, 3, 0.4)]
        dist = crowding_distance(front)
        assert dist[0] == dist[2] == float("inf")
        assert dist[1] == pytest.approx(3.0)

    def test_identical_vectors_zero_interior(self):
        dist = crowding_distance([vec(1, 1, 1)] * 4)
        assert dist[0] == float("inf") or dist[-1] == float("inf")
        assert sorted(dist)[:2] == [0.0, 0.0]

    def test_zero_range_objective_contributes_nothing(self):
        front = [vec(100, 5, 0.2), vec(110, 5, 0.3), vec(120, 5, 0.4)]
        dist = crowding_distance(front)
        assert dist[1] == pytest.approx(2.0)  # time has zero range


class TestSurvival:
    def test_no_discard_beats_a_survivor(self):
        rng = np.random.default_rng(1)
        pool = []
        for k in range(24):
            obj = vec(rng.integers(80, 140), rng.integers(3, 9),
                      round(float(rng.uniform(0.1, 0.5)), 3))
            pool.append((Chromosome((1,), (k,), (0,)), obj))
        survivors = _survival(pool, 10)
        assert len(survivors) == 10

        ranks = nondominated_sort([o for _, o in pool])
        crowd = [0.0] * len(pool)
        for group in group_by_rank(ranks):
            dist = crowding_distance([pool[i][1] for i in group])
            for i, d in zip(group, dist):
                crowd[i] = d
        keyed = {id(pool[i][0]): (ranks[i], -crowd[i]) for i in range(len(pool))}
        kept = {id(c) for c, _ in survivors}
        discarded = [keyed[id(c)] for c, _ in pool if id(c) not in kept]
        for d in discarded:
            for c, _ in survivors:
                assert not (d < keyed[id(c)])


class TestRunNsga2:
    def test_deterministic(self, toy4):
        params = Nsga2Params(seed=2, pop_size=8, iterations=10)
        assert run_nsga2(toy4, params) == run_nsga2(toy4, params)

    def test_front_mutually_nondominated(self, toy4):
        report = run_nsga2(toy4, Nsga2Params(seed=3, pop_size=10, iterations=15))
        objs = report.front.objectives()
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not dominates(a, b)

    def test_toy4_recovers_oracle_front(self, toy4):
        oracle = true_pareto_front(toy4)
        report = run_nsga2(toy4, Nsga2Params(seed=1, pop_size=30, iterations=100))
        assert sorted(o.as_tuple() for o in report.front.objectives()) \
            == sorted(o.as_tuple() for o in oracle.front.objectives())

    def test_archive_option(self, toy4):
        params = Nsga2Params(seed=4, pop_size=10, iterations=20)
        final = run_nsga2(toy4, params)
        archived = run_nsga2(toy4, params, use_archive=True)
        assert archived.front.members  # archive collects at least the front
        final_pts = {o.as_tuple() for o in final.front.objectives()}
        archive_pts = {o.as_tuple() for o in archived.front.objectives()}
        for p in final_pts:
            assert p in archive_pts or any(
                dominates(ObjectiveVector(*q), ObjectiveVector(*p))
                for q in archive_pts)

    def test_shared_evaluation_parity(self, toy4):
        # both solvers score an identical chromosome identically
        moga_report = run_moga(toy4, MogaParams(seed=5, pop_size=8, iterations=5))
        nsga_report = run_nsga2(toy4, Nsga2Params(seed=5, pop_size=8, iterations=5))
        shared = ({o.as_tuple() for o in moga_report.front.objectives()}
                  & {o.as_tuple() for o in nsga_report.front.objectives()})
        for member in moga_report.front.members:
            if member.objectives.as_tuple() in shared and member.chromosome:
                assert evaluate(toy4, member.chromosome)[0] == member.objectives

    def test_population_size_constant(self, toy4):
        sizes = []
        run_nsga2(toy4, Nsga2Params(seed=6, pop_size=12, iterations=6),
                  on_generation=lambda g, chroms, front: sizes.append(len(chroms)))
        assert sizes == [12] * 6

    def test_deadline_below_crash_makespan_is_infeasible(self, toy4):
        with pytest.raises(InfeasibleInstance):
            run_nsga2(replace(toy4, deadline=2),
                      Nsga2Params(seed=1, pop_size=4, iterations=2))
