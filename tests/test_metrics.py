import json
import math

import numpy as np
import pytest
from scipy import stats

from crashplan.errors import BadParams
from crashplan.evaluate import ObjectiveVector
from crashplan.metrics import (MetricReport, ReferenceBounds, best_solutions,
                               compare_report, diversity_dm,
                               generational_distance, hrs, mid, mpfe,
                               quality_measure, spacing, wilcoxon_signed_rank)
from crashplan.moga import MogaParams, run_moga
from crashplan.nsga2 import Nsga2Params, run_nsga2
from crashplan.pareto import Front, FrontMember


def vec(npv, time, prod):
    return ObjectiveVector(float(npv), int(time), float(prod))


def front_of(*points):
    return Front(tuple(FrontMember(vec(*p)) for p in points))


def random_front(rng, n):
    return front_of(*[(rng.uniform(50, 150), rng.integers(3, 9),
                       rng.uniform(0.1, 0.5)) for _ in range(n)])


class TestBestSolutions:
    def test_singleton(self):
        assert best_solutions(front_of((100, 5, 0.3))) == (100, 5, 0.3)

    def test_componentwise_extrema(self):
        front = front_of((100, 9, 0.3), (120, 5, 0.2))
        assert best_solutions(front) == (100, 5, 0.3)

    def test_empty(self):
        with pytest.raises(BadParams):
            best_solutions(front_of())


class TestReferenceBounds:
    @pytest.mark.parametrize("fronts", [(), (front_of(),),
                                        (front_of(), front_of())],
                             ids=["none", "one-empty", "two-empty"])
    def test_no_member_in_any_front(self, fronts):
        with pytest.raises(BadParams, match="no members"):
            ReferenceBounds.from_fronts(*fronts)

    def test_empty_fronts_are_skipped(self):
        front = front_of((100, 9, 0.3), (120, 5, 0.2))
        assert ReferenceBounds.from_fronts(front_of(), front) \
            == ReferenceBounds.from_fronts(front)


class TestMid:
    def test_single_point_is_ideal(self):
        assert mid(front_of((100, 5, 0.3))) == pytest.approx(0.0, abs=1e-12)

    def test_two_points_each_ideal_in_one_objective(self):
        # unit ranges, third objective constant: both at distance 1
        front = front_of((0, 1, 0.0), (1, 0, 0.0))
        assert mid(front) == pytest.approx(1.0)

    def test_identical_members_constant_distance(self):
        bounds = ReferenceBounds(best=(0, 0, 1), low=(0, 0, 0), high=(10, 10, 1))
        front = front_of((5, 5, 0.5), (5, 5, 0.5), (5, 5, 0.5))
        assert mid(front, bounds) == pytest.approx(math.sqrt(0.75))

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        front = random_front(rng, 6)
        bounds = ReferenceBounds.from_fronts(front)
        shift = (37.0, 4, 0.11)
        shifted = front_of(*[(m.objectives.npv_cost + shift[0],
                              m.objectives.makespan + shift[1],
                              m.objectives.productivity + shift[2])
                             for m in front.members])
        shifted_bounds = ReferenceBounds(
            best=tuple(b + s for b, s in zip(bounds.best, shift)),
            low=tuple(b + s for b, s in zip(bounds.low, shift)),
            high=tuple(b + s for b, s in zip(bounds.high, shift)))
        assert mid(shifted, shifted_bounds) == pytest.approx(mid(front, bounds))


class TestDiversity:
    def test_singleton(self):
        assert diversity_dm(front_of((100, 5, 0.3))) == 0.0

    def test_three_four_five(self):
        assert diversity_dm(front_of((100, 5, 0.3), (103, 9, 0.3))) \
            == pytest.approx(5.0)

    def test_matches_bounding_box(self):
        rng = np.random.default_rng(2)
        front = random_front(rng, 8)
        pts = np.array([[m.objectives.npv_cost, m.objectives.makespan,
                         m.objectives.productivity] for m in front.members])
        expected = math.sqrt((((pts.max(0) - pts.min(0)) ** 2).sum()))
        assert diversity_dm(front) == pytest.approx(expected)


class TestQualityMeasure:
    def test_identical_fronts_shared_credit(self):
        a = front_of((100, 5, 0.3), (90, 6, 0.2))
        assert quality_measure([a, a]) == [1.0, 1.0]

    def test_dominating_front(self):
        a = front_of((100, 5, 0.3), (90, 6, 0.35))
        b = front_of((110, 6, 0.25), (95, 7, 0.2))
        assert quality_measure([a, b]) == [1.0, 0.0]

    def test_complementary_split(self):
        a = front_of((100, 5, 0.3), (80, 8, 0.2))
        b = front_of((100, 5, 0.3), (120, 3, 0.4))
        qm = quality_measure([a, b])
        assert qm == [2 / 3, 2 / 3]  # shared point credits both

    def test_all_empty(self):
        with pytest.raises(BadParams):
            quality_measure([front_of(), front_of()])

    def test_pairwise_sum_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_front(rng, 6)
            b = random_front(rng, 6)
            qm_a, qm_b = quality_measure([a, b])
            assert 0 <= qm_a <= 1 and 0 <= qm_b <= 1
            assert qm_a + qm_b >= 1.0 - 1e-12


class TestGdAndMpfe:
    def test_subset_gives_zero(self):
        rng = np.random.default_rng(4)
        ref = random_front(rng, 8)
        sub = Front(ref.members[:4])
        assert generational_distance(sub, ref) == 0.0
        assert mpfe(sub, ref) == 0.0

    def test_singleton_distance(self):
        front = front_of((0, 0, 0.0))
        ref = front_of((3, 0, 0.0))
        assert generational_distance(front, ref) == pytest.approx(3.0)
        assert mpfe(front, ref) == pytest.approx(3.0)

    def test_gd_is_root_of_sum_over_n(self):
        front = front_of((0, 0, 0.0), (1, 0, 0.0))
        ref = front_of((0, 0, 0.0))
        assert generational_distance(front, ref) == pytest.approx(0.5)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        front = random_front(rng, 5)
        ref = random_front(rng, 8)
        a = [(m.objectives.npv_cost, m.objectives.makespan,
              m.objectives.productivity) for m in front.members]
        b = [(m.objectives.npv_cost, m.objectives.makespan,
              m.objectives.productivity) for m in ref.members]
        minima = [min(math.dist(p, q) for q in b) for p in a]
        assert generational_distance(front, ref) == pytest.approx(
            math.sqrt(sum(d * d for d in minima)) / len(a))
        assert mpfe(front, ref) == pytest.approx(max(minima))
        assert mpfe(front, ref) >= sum(minima) / len(minima) - 1e-12


class TestSpacing:
    def test_evenly_spaced_is_zero(self):
        front = front_of((0, 0, 0.0), (1, 0, 0.0), (2, 0, 0.0))
        assert spacing(front) == pytest.approx(0.0, abs=1e-12)

    def test_line_0_1_3(self):
        front = front_of((0, 0, 0.0), (1, 0, 0.0), (3, 0, 0.0))
        assert spacing(front) == pytest.approx(math.sqrt(1 / 3))

    def test_duplicates_tolerated(self):
        front = front_of((0, 0, 0.0), (0, 0, 0.0), (3, 0, 0.0))
        d1 = [0.0, 0.0, 3.0]
        dbar = 1.0
        expected = math.sqrt(sum((dbar - d) ** 2 for d in d1) / 2)
        assert spacing(front) == pytest.approx(expected)

    def test_needs_two_members(self):
        with pytest.raises(BadParams):
            spacing(front_of((1, 1, 1)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        pts = [(rng.uniform(0, 10), rng.integers(0, 5), rng.uniform(0, 1))
               for _ in range(6)]
        assert spacing(front_of(*pts)) == pytest.approx(
            spacing(front_of(*reversed(pts))))


class TestHrs:
    def test_equal_gaps(self):
        front = front_of((0, 0, 0.0), (1, 0, 0.0), (2, 0, 0.0), (3, 0, 0.0))
        assert hrs(front) == pytest.approx(1.0)

    def test_large_hole(self):
        assert hrs(front_of((0, 0, 0.0), (1, 0, 0.0), (5, 0, 0.0))) > 1.0

    def test_four_point_hand_value(self):
        front = front_of((0, 0, 0.0), (1, 0, 0.0), (2, 0, 0.0), (5, 0, 0.0))
        assert hrs(front) == pytest.approx(3 / (5 / 3))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        pts = [(rng.uniform(0, 10), rng.integers(0, 5), rng.uniform(0, 1))
               for _ in range(6)]
        assert hrs(front_of(*pts)) == pytest.approx(hrs(front_of(*reversed(pts))))


class TestWilcoxon:
    def test_all_zero_differences(self):
        with pytest.raises(BadParams):
            wilcoxon_signed_rank([(1.0, 1.0)] * 10)

    def test_mirrored_pairs_give_p_one(self):
        pairs = [(1, 2), (2, 1), (3, 5), (5, 3), (4, 7), (7, 4)]
        w, p = wilcoxon_signed_rank(pairs)
        assert p == pytest.approx(1.0)

    def test_ten_pair_textbook_case(self):
        # diffs +1..+9 and -10: W- = 10, mu = 27.5, sigma^2 = 96.25
        pairs = [(float(k), 0.0) for k in range(1, 10)] + [(0.0, 10.0)]
        w, p = wilcoxon_signed_rank(pairs)
        assert w == 10.0
        z = (10 - 27.5 + 0.5) / math.sqrt(96.25)
        assert p == pytest.approx(math.erfc(abs(z) / math.sqrt(2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(10, 2, size=12)
        b = a + rng.normal(0.5, 1.0, size=12)
        w, p = wilcoxon_signed_rank(list(zip(a, b)))
        ref = stats.wilcoxon(a, b, zero_method="wilcox", correction=True,
                             method="approx")
        assert w == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_ties_follow_scipy(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        b = [2.0, 1.0, 5.0, 2.0, 7.0, 4.0, 4.0]  # tied |diffs|
        w, p = wilcoxon_signed_rank(list(zip(a, b)))
        ref = stats.wilcoxon(a, b, zero_method="wilcox", correction=True,
                             method="approx")
        assert w == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


class TestCompareReport:
    def test_equal_fronts_zero_differences(self):
        front = front_of((100, 5, 0.3), (90, 6, 0.2), (120, 4, 0.4))
        report = compare_report(front, front)
        assert all(v == 0.0 for v in report.diff_pct.values())
        assert report.front_a.qm == report.front_b.qm == 1.0

    def test_toy4_runs_fully_populated(self, toy4):
        a = run_moga(toy4, MogaParams(seed=1, pop_size=10, iterations=15)).front
        b = run_nsga2(toy4, Nsga2Params(seed=1, pop_size=10, iterations=15)).front
        report = compare_report(a, b, labels=("moga", "nsga2"))
        assert report.front_a.nps >= 1 and report.front_b.nps >= 1
        assert report.front_a.qm + report.front_b.qm >= 1.0
        for key in ("dm", "mid", "gd", "mpfe", "hrs", "sp"):
            assert getattr(report.front_a, key) == getattr(report.front_a, key)

    def test_json_round_trip(self):
        a = front_of((100, 5, 0.3), (90, 6, 0.2))
        b = front_of((105, 5, 0.28), (95, 6, 0.19))
        report = compare_report(a, b, paired=[(1, 2), (2, 1), (3, 5), (5, 3),
                                              (4, 7), (7, 4)])
        blob = json.dumps(report.to_dict())
        assert MetricReport.from_dict(json.loads(blob)) == report

    def test_reference_used_for_gd(self):
        a = front_of((100, 5, 0.3), (106, 5, 0.3))
        b = front_of((100, 5, 0.3), (106, 5, 0.3))
        ref = front_of((97, 5, 0.3), (106, 5, 0.3))
        report = compare_report(a, b, ref)
        assert report.front_a.gd == pytest.approx(math.sqrt(9.0) / 2)

    def test_normalize_rescales_by_reference_range(self):
        a = front_of((0, 0, 0.0), (10, 2, 0.0))
        b = front_of((0, 0, 0.0), (20, 4, 0.0))
        ref = front_of((0, 0, 0.0), (20, 4, 0.0))
        raw = compare_report(a, b, ref)
        norm = compare_report(a, b, ref, normalize=True)
        # scaled space: npv/20, time/4; b coincides with the reference
        assert norm.front_b.gd == pytest.approx(0.0)
        assert norm.front_a.dm == pytest.approx(math.sqrt(0.25 + 0.25))
        assert raw.front_a.dm == pytest.approx(math.sqrt(100 + 4))
