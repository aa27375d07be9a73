from dataclasses import replace

import numpy as np
import pytest

from crashplan.errors import BadParams, InitTimeout, NoFeasible
from crashplan.evaluate import Chromosome, decode_schedule, evaluate
from crashplan import moga
from crashplan.instance import ActivityMode, generate_instance
from crashplan.moga import (ATTEMPTS_FACTOR, Evaluator, MogaParams, crossover,
                            frac_count, hill_climb, init_population, make_rng,
                            mutate, random_chromosome, replace_gene, run_moga,
                            tournament_select)
from crashplan.nsga2 import Nsga2Params, run_nsga2
from crashplan.oracle import true_pareto_front

from conftest import dummy, make_instance, real


def _dominates_raw(a, b):
    better_eq = (a.npv_cost <= b.npv_cost and a.makespan <= b.makespan
                 and a.productivity >= b.productivity)
    strictly = (a.npv_cost < b.npv_cost or a.makespan < b.makespan
                or a.productivity > b.productivity)
    return better_eq and strictly


class TestFracCount:
    def test_float_fuzz_guard(self):
        assert frac_count(0.05, 100) == 5
        assert frac_count(0.8, 50) == 40
        assert frac_count(0.8, 100) == 80

    def test_ceil_semantics(self):
        assert frac_count(0.33, 10) == 4
        assert frac_count(0.0, 10) == 0
        assert frac_count(1.0, 10) == 10


class TestRandomChromosome:
    def test_deterministic(self, toy4):
        a = random_chromosome(toy4, make_rng(9, 1))
        b = random_chromosome(toy4, make_rng(9, 1))
        assert a == b

    def test_always_type_valid(self, toy4):
        rng = np.random.default_rng(1)
        inst = generate_instance(2, 9, 3, 0.5)
        for _ in range(200):
            decode_schedule(toy4, random_chromosome(toy4, rng))
            decode_schedule(inst, random_chromosome(inst, rng))

    def test_both_toy4_modes_appear(self, toy4):
        rng = np.random.default_rng(2)
        seen = {random_chromosome(toy4, rng).modes[1] for _ in range(1000)}
        assert seen == {1, 2}  # P(miss) < 1e-9 for a fair mode coin


def _init(inst, seed, pop_size, attempts_factor=ATTEMPTS_FACTOR):
    """Generation 0 as evolve draws it."""
    return init_population(inst, pop_size, make_rng(seed, 0), Evaluator(inst),
                           attempts_factor * pop_size)


class TestInitPopulation:
    def test_toy4_population(self, toy4):
        pop = _init(toy4, 5, 10)
        assert len(pop) == 10
        assert len({c for c, _ in pop}) == 10
        for c, obj in pop:
            scored, rep = evaluate(toy4, c)
            assert scored == obj and rep.valid_number == 3

    def test_same_seed_same_population(self, toy4):
        assert _init(toy4, 6, 8) == _init(toy4, 6, 8)

    def test_nsga2_params_draw_the_same_population(self, toy4):
        # generation 0 only: both solvers draw it through evolve
        moga_run = run_moga(toy4, MogaParams(seed=6, pop_size=8, iterations=0))
        nsga2_run = run_nsga2(toy4, Nsga2Params(seed=6, pop_size=8,
                                                iterations=0),
                              use_archive=True)
        assert nsga2_run.front == moga_run.front
        assert nsga2_run.evaluations == moga_run.evaluations

    def test_timeout_on_infeasible_instance(self, toy4):
        hopeless = replace(toy4, deadline=2)  # crash makespan is 3
        with pytest.raises(InitTimeout) as err:
            _init(hopeless, 1, 5, attempts_factor=20)
        assert err.value.histogram["time"] > 0


class TestTournament:
    def test_lower_rank_wins(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert tournament_select([0, 1], rng) == 0

    def test_tie_is_a_coin(self):
        rng = np.random.default_rng(4)
        picks = {tournament_select([2, 2], rng) for _ in range(100)}
        assert picks == {0, 1}

    def test_too_small(self):
        with pytest.raises(BadParams):
            tournament_select([0], np.random.default_rng(0))

    def test_distribution_matches_analytic(self):
        # ranks (0, 0, 1, 2): pair prob 1/6 each, ties split evenly
        ranks = [0, 0, 1, 2]
        expected = [2.5 / 6, 2.5 / 6, 1.0 / 6, 0.0]
        rng = np.random.default_rng(5)
        draws = 10_000
        counts = [0, 0, 0, 0]
        for _ in range(draws):
            counts[tournament_select(ranks, rng)] += 1
        for count, p in zip(counts, expected):
            sigma = (draws * p * (1 - p)) ** 0.5
            assert abs(count - draws * p) <= max(4 * sigma, 1)


class TestCrossover:
    def test_identical_parents(self, toy4):
        p = random_chromosome(toy4, make_rng(1, 0))
        c1, c2 = crossover(p, p)
        assert c1 == p and c2 == p

    def test_order_only_difference(self, toy4):
        rng = make_rng(2, 0)
        p1 = random_chromosome(toy4, rng)
        p2 = Chromosome((1, 3, 2, 4), p1.modes, p1.durations)
        c1, c2 = crossover(p1, p2)
        assert c1 == p1 and c2 == p2

    def test_strings_travel_as_pair(self, toy4):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p1 = random_chromosome(toy4, rng)
            p2 = random_chromosome(toy4, rng)
            c1, c2 = crossover(p1, p2)
            assert (c1.modes, c1.durations) == (p2.modes, p2.durations)
            assert (c2.modes, c2.durations) == (p1.modes, p1.durations)
            decode_schedule(toy4, c1)
            decode_schedule(toy4, c2)


class TestMutate:
    def test_single_real_activity_is_identity(self):
        mode = ActivityMode(3, 1, 10.0, 1.0, 60.0, ())
        inst = make_instance([dummy(1, {2}), real(2, {3}, [mode], 10.0), dummy(3, ())],
                             price=10.0)
        c = Chromosome((1, 2, 3), (1, 1, 1), (0, 2, 0))
        assert mutate(inst, c, np.random.default_rng(0)) == c

    def test_chain_swap_always_rejected(self, chain4):
        rng = np.random.default_rng(7)
        c = Chromosome((1, 2, 3, 4), (1, 1, 1, 1), (0, 3, 4, 0))
        durations_changed = False
        for _ in range(50):
            m = mutate(chain4, c, rng)
            decode_schedule(chain4, m)
            assert m.order == c.order  # 2 -> 3 edge forbids the swap
            durations_changed |= m.durations != c.durations
        assert durations_changed

    def test_always_type_valid(self, toy4):
        rng = np.random.default_rng(8)
        inst = generate_instance(3, 9, 3, 0.6)
        for _ in range(200):
            decode_schedule(inst, mutate(inst, random_chromosome(inst, rng), rng))


def brute_hill_climb_targets(inst, chrom):
    """Independent scan per the stop-at-first-improving-activity rule.

    Returns the set of acceptable outputs (objective tuples) or None when
    no single-activity variant dominates the input.
    """
    base_obj, _ = evaluate(inst, chrom)
    for a in chrom.order:
        act = inst.activities[a - 1]
        if act.is_dummy:
            continue
        variants = []
        for m_idx, mode in enumerate(act.modes, start=1):
            for d in range(mode.crash_duration, mode.normal_duration + 1):
                if m_idx == chrom.modes[a - 1] and d == chrom.durations[a - 1]:
                    continue
                cand = replace_gene(chrom, a, m_idx, d)
                obj, rep = evaluate(inst, cand)
                if rep.valid_number == 3:
                    variants.append(obj)
        if any(_dominates_raw(o, base_obj) for o in variants):
            pool = [base_obj] + variants
            winners = {
                o.as_tuple() for k, o in enumerate(pool) if k > 0
                and not any(_dominates_raw(other, o)
                            for j, other in enumerate(pool) if j != k)
            }
            return winners
    return None


class TestHillClimb:
    def test_oracle_point_unchanged(self, toy4):
        # nothing can dominate a true-front member, so the scan returns it
        report = true_pareto_front(toy4)
        for member in report.front.members:
            pair = (member.chromosome, member.objectives)
            assert hill_climb(toy4, *pair) == pair

    def test_never_dominated_by_input(self, toy4):
        rng = np.random.default_rng(9)
        for _ in range(60):
            c, obj = _feasible(toy4, rng)
            out, _ = hill_climb(toy4, c, obj, rng=rng)
            assert not _dominates_raw(obj, evaluate(toy4, out)[0])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force_scan(self, toy4, seed):
        rng = np.random.default_rng(seed)
        instances = [toy4, generate_instance(seed, 6, 2, 0.5)]
        for inst in instances:
            for _ in range(15):
                c, obj = _feasible(inst, rng)
                targets = brute_hill_climb_targets(inst, c)
                out, _ = hill_climb(inst, c, obj, rng=rng)
                if targets is None:
                    assert out == c
                else:
                    assert evaluate(inst, out)[0].as_tuple() in targets

    def test_input_is_decoded_once_and_not_scored(self, toy4, monkeypatch):
        # the caller holds the input's objectives: the input is decoded once
        # for the variants' schedule and never scored, and the count is the
        # variants scored from that schedule
        rng = np.random.default_rng(11)
        decoded = []
        real_decode = moga.decode_schedule

        def decode(inst, chrom):
            decoded.append(chrom)
            return real_decode(inst, chrom)

        def no_evaluate(*args, **kwargs):
            raise AssertionError("hill_climb called evaluate")

        monkeypatch.setattr(moga, "decode_schedule", decode)
        monkeypatch.setattr(moga, "evaluate", no_evaluate)
        for _ in range(20):
            c, obj = _feasible(toy4, rng)
            decoded.clear()
            ev = moga.Evaluator(toy4)
            scored = []
            score = ev.variant
            ev.variant = lambda base, chrom, a: (scored.append(chrom)
                                                 or score(base, chrom, a))
            hill_climb(toy4, c, obj, _eval=ev)
            assert decoded == [c]
            assert scored and c not in scored
            assert ev.count == len(scored)


def _feasible(inst, rng):
    while True:
        c = random_chromosome(inst, rng)
        obj, rep = evaluate(inst, c)
        if rep.valid_number == 3:
            return c, obj


class TestRunMoga:
    def test_deterministic(self, toy4):
        params = MogaParams(seed=3, pop_size=8, iterations=10)
        assert run_moga(toy4, params) == run_moga(toy4, params)

    def test_archive_mutually_nondominated(self, toy4):
        report = run_moga(toy4, MogaParams(seed=4, pop_size=10, iterations=15))
        objs = report.front.objectives()
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not _dominates_raw(a, b)

    def test_toy4_recovers_oracle_front(self, toy4):
        oracle = true_pareto_front(toy4)
        report = run_moga(toy4, MogaParams(seed=1, pop_size=30, iterations=100))
        assert sorted(o.as_tuple() for o in report.front.objectives()) \
            == sorted(o.as_tuple() for o in oracle.front.objectives())

    def test_capacity_below_least_demand_draws_nothing(self, toy4,
                                                       monkeypatch):
        # no mode of activities 2 and 3 needs less than 2 units of r1 each
        short = replace(toy4, resource_capacity=(("r1", 3),))

        def no_draw(*args):
            raise AssertionError("a chromosome was drawn")

        monkeypatch.setattr(moga, "random_chromosome", no_draw)
        with pytest.raises(NoFeasible, match="^resource r1: least total "
                           "demand 4 exceeds capacity 3$"):
            run_moga(short, MogaParams(seed=0, pop_size=4, iterations=2))

    def test_population_invariants_via_hook(self, toy4):
        sizes = []
        archives = []

        def watch(gen, chroms, front):
            sizes.append(len(chroms))
            archives.append(front)
            for c in chroms:
                assert evaluate(toy4, c)[1].valid_number == 3

        run_moga(toy4, MogaParams(seed=5, pop_size=10, iterations=8),
                 on_generation=watch)
        assert sizes == [10] * 8
        # archive monotonicity: every old point retained or dominated
        for before, after in zip(archives, archives[1:]):
            for m in before.members:
                assert (after.contains_point(m.objectives)
                        or any(_dominates_raw(x.objectives, m.objectives)
                               for x in after.members))

    def test_final_population_front_option(self, toy4):
        params = MogaParams(seed=6, pop_size=10, iterations=10)
        archive = run_moga(toy4, params)
        final = run_moga(toy4, params, use_archive=False)
        archive_pts = {o.as_tuple() for o in archive.front.objectives()}
        for o in final.front.objectives():
            assert o.as_tuple() in archive_pts or any(
                not _dominates_raw(a, o) for a in archive.front.objectives())

    def test_max_evaluations_stops_early(self, toy4):
        full = run_moga(toy4, MogaParams(seed=7, pop_size=10, iterations=50))
        capped = run_moga(toy4, MogaParams(seed=7, pop_size=10, iterations=50),
                          max_evaluations=full.evaluations // 5)
        assert capped.evaluations < full.evaluations

    def test_bad_params_rejected(self, toy4):
        with pytest.raises(BadParams):
            run_moga(toy4, MogaParams(seed=1, pop_size=1))
        with pytest.raises(BadParams):
            run_moga(toy4, MogaParams(seed=1, crossover_rate=1.5))

    @pytest.mark.parametrize("budget", [0, -5])
    def test_evaluation_budget_below_one_rejected(self, toy4, budget):
        with pytest.raises(BadParams, match="max_evaluations"):
            run_moga(toy4, MogaParams(seed=1), max_evaluations=budget)


@pytest.mark.parametrize("cls,field", [
    (MogaParams, "crossover_rate"), (MogaParams, "mutation_rate"),
    (MogaParams, "hill_climb_rate"), (MogaParams, "elitism_rate"),
    (Nsga2Params, "crossover_rate"), (Nsga2Params, "mutation_rate"),
])
@pytest.mark.parametrize("value", [-0.1, 1.5])
def test_every_rate_is_validated(cls, field, value):
    cls(seed=1, **{field: 1.0}).validate()
    with pytest.raises(BadParams, match=field):
        cls(seed=1, **{field: value}).validate()
