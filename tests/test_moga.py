import json
from dataclasses import replace

import numpy as np
import pytest

from crashplan.errors import BadParams, InitTimeout, NoFeasible
from crashplan.evaluate import (Chromosome, decode_schedule, evaluate,
                                format_solution, parse_solution)
from crashplan import moga
from crashplan.instance import ActivityMode, generate_instance
from crashplan.moga import (ATTEMPTS_FACTOR, Evaluator, MogaParams,
                            frac_count, hill_climb, init_population, make_rng,
                            mutate, random_chromosome, replace_gene,
                            resample_durations, run_moga, tournament_select)
from crashplan.nsga2 import Nsga2Params, run_nsga2
from crashplan.oracle import true_pareto_front
from crashplan.reporting import write_sidecar

from conftest import dummy, make_instance, real, reverse_real_ids


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
        # ranks (0, 0, 1, 2): pair prob 1/6 each, ties split evenly; the
        # same ranks reversed as well, since a pair draw that can repeat
        # an index or never draws the last one as its second happens to
        # keep the first distribution
        rng = np.random.default_rng(5)
        draws = 10_000
        for ranks, expected in (([0, 0, 1, 2], [2.5 / 6, 2.5 / 6, 1.0 / 6, 0.0]),
                                ([2, 1, 0, 0], [0.0, 1.0 / 6, 2.5 / 6, 2.5 / 6])):
            counts = [0, 0, 0, 0]
            for _ in range(draws):
                counts[tournament_select(ranks, rng)] += 1
            for count, p in zip(counts, expected):
                sigma = (draws * p * (1 - p)) ** 0.5
                assert abs(count - draws * p) <= max(4 * sigma, 1)


class TestMutate:
    def test_single_real_activity_is_identity(self):
        mode = ActivityMode(3, 1, 10.0, 1.0, 60.0, ())
        inst = make_instance([dummy(1, {2}), real(2, {3}, [mode], 10.0), dummy(3, ())],
                             price=10.0)
        c = Chromosome((1, 2, 3), (1, 1, 1), (0, 2, 0))
        assert mutate(inst, c, np.random.default_rng(0)) == c

    def test_redraws_at_most_two_real_genes(self):
        rng = np.random.default_rng(7)
        inst = reverse_real_ids(generate_instance(4, 10, 3, 0.4))
        real = [k for k in range(inst.n) if not inst.dummy_flags[k]]
        changed = set()
        for _ in range(200):
            c = random_chromosome(inst, rng)
            m = mutate(inst, c, rng)
            assert m.order == c.order == inst.order
            diff = {k for k in range(inst.n)
                    if (m.modes[k], m.durations[k]) != (c.modes[k],
                                                        c.durations[k])}
            assert len(diff) <= 2 and diff <= set(real)
            changed |= diff
            decode_schedule(inst, m)
        assert changed == set(real)

    def test_always_type_valid(self, toy4):
        rng = np.random.default_rng(8)
        inst = generate_instance(3, 9, 3, 0.6)
        for _ in range(200):
            decode_schedule(inst, mutate(inst, random_chromosome(inst, rng), rng))

    def test_redraws_two_distinct_activities(self):
        # every real gene starts out of range, so each one redrawn shows
        rng = np.random.default_rng(11)
        inst = generate_instance(4, 10, 3, 0.4)
        real = [k for k in range(inst.n) if not inst.dummy_flags[k]]
        marked = Chromosome(inst.order,
                            tuple(1 if inst.dummy_flags[k] else 0
                                  for k in range(inst.n)),
                            (0,) * inst.n)
        for _ in range(200):
            m = mutate(inst, marked, rng)
            assert sum(m.modes[k] != 0 for k in real) == 2


class TestGenesAreInts:
    """Every gene a solver builds is a Python int, never a numpy scalar,
    so that fronts reach the CSV and JSON writers as they are."""

    def test_operators(self):
        rng = np.random.default_rng(12)
        inst = reverse_real_ids(generate_instance(4, 10, 3, 0.4))
        for _ in range(50):
            c = random_chromosome(inst, rng)
            for chrom in (c, mutate(inst, c, rng),
                          resample_durations(inst, c, rng)):
                assert all(type(x) is int
                           for x in chrom.order + chrom.modes + chrom.durations)

    @pytest.mark.parametrize("solver", [
        lambda inst: run_moga(inst, MogaParams(seed=4, pop_size=10,
                                               iterations=5)),
        lambda inst: run_nsga2(inst, Nsga2Params(seed=4, pop_size=10,
                                                 iterations=5)),
    ], ids=["moga", "nsga2"])
    def test_front_reaches_the_writers(self, toy4, tmp_path, solver):
        chroms = [m.chromosome for m in solver(toy4).front.members]
        assert chroms
        for c in chroms:
            assert parse_solution(format_solution(c)) == c
        side = write_sidecar(tmp_path / "front.csv", {"genes": [
            [c.modes, c.durations] for c in chroms]})
        assert json.loads(side.read_text())["genes"] \
            == [[list(c.modes), list(c.durations)] for c in chroms]


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

    def test_no_feasible_point_draws_nothing(self, toy4, monkeypatch):
        # nothing pays for any of the 15 assignments: the oracle that counts
        # a small space before the run finds no feasible point
        broke = replace(toy4, initial_capital=0.0, price=0.0)

        def no_draw(*args):
            raise AssertionError("a chromosome was drawn")

        monkeypatch.setattr(moga, "random_chromosome", no_draw)
        with pytest.raises(NoFeasible, match="no assignment satisfies"):
            run_moga(broke, MogaParams(seed=0, pop_size=4, iterations=2))

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


class TestGenesOnly:
    """Every chromosome a solver builds carries the canonical order, and a
    population stays distinct unless the space holds fewer feasible gene
    assignments than pop_size."""

    @pytest.mark.parametrize("solver", [
        lambda inst, watch: run_moga(
            inst, MogaParams(seed=3, pop_size=12, iterations=6),
            on_generation=watch),
        lambda inst, watch: run_nsga2(
            inst, Nsga2Params(seed=3, pop_size=12, iterations=6),
            use_archive=True, on_generation=watch),
    ], ids=["moga", "nsga2"])
    def test_every_chromosome_carries_the_canonical_order(self, solver):
        # real ids run backwards, so the canonical order is not 1..n
        inst = reverse_real_ids(generate_instance(6, 10, 3, 0.4,
                                                  budget_slack=0.3))
        assert inst.order != tuple(range(1, inst.n + 1))
        seen = []

        def watch(gen, chroms, front):
            seen.extend(chroms)
            seen.extend(m.chromosome for m in front.members)

        report = solver(inst, watch)
        assert len(seen) > 6 * 12
        assert all(c.order == inst.order for c in seen)
        assert all(m.chromosome.order == inst.order
                   for m in report.front.members)

    def test_exactly_enough_feasible_assignments_stay_distinct(self, toy4):
        # toy4's 15 gene assignments are all feasible: a population of 15
        # holds each of them once in every generation (without hill
        # climbing, which may move a member onto another member's genes)
        populations = []
        run_moga(toy4, MogaParams(seed=2, pop_size=15, iterations=5,
                                  hill_climb_rate=0.0),
                 on_generation=lambda gen, chroms, front:
                 populations.append(chroms))
        assert len(populations) == 5
        for chroms in populations:
            assert len(set(chroms)) == len(chroms) == 15

    @pytest.mark.parametrize("run", [
        lambda toy4: run_moga(toy4, MogaParams(seed=1, pop_size=40,
                                               iterations=20)),
        lambda toy4: run_nsga2(toy4, Nsga2Params(seed=1, pop_size=40,
                                                 iterations=20)),
    ], ids=["moga", "nsga2"])
    def test_population_above_the_feasible_count_completes(self, toy4, run):
        # 40 members on 15 feasible assignments: duplicate control is off
        oracle = true_pareto_front(toy4)
        report = run(toy4)
        assert sorted(o.as_tuple() for o in report.front.objectives()) \
            == sorted(o.as_tuple() for o in oracle.front.objectives())


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
