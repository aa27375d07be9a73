import numpy as np
import pytest

from crashplan.evaluate import Chromosome, ObjectiveVector
from crashplan.pareto import (DUPLICATE_TOL, FrontMember, ParetoArchive,
                              _same_point, dominates, group_by_rank,
                              nondominated_sort, pareto_filter)


def vec(npv, time, prod):
    return ObjectiveVector(float(npv), int(time), float(prod))


def random_vectors(rng, n):
    return [vec(rng.integers(80, 140), rng.integers(3, 9),
                round(float(rng.uniform(0.1, 0.5)), 3)) for _ in range(n)]


def brute_ranks(objs):
    """Independent O(n^2) peeling using a raw dominance predicate."""
    def dom(a, b):
        better_eq = (a.npv_cost <= b.npv_cost and a.makespan <= b.makespan
                     and a.productivity >= b.productivity)
        strictly = (a.npv_cost < b.npv_cost or a.makespan < b.makespan
                    or a.productivity > b.productivity)
        return better_eq and strictly

    remaining = set(range(len(objs)))
    ranks = [None] * len(objs)
    level = 0
    while remaining:
        front = {i for i in remaining
                 if not any(dom(objs[j], objs[i]) for j in remaining if j != i)}
        for i in front:
            ranks[i] = level
        remaining -= front
        level += 1
    return ranks


class TestDominates:
    def test_one_strict_improvement(self):
        assert dominates(vec(100, 5, 0.3), vec(120, 5, 0.3))

    def test_equal_vectors_never_dominate(self):
        assert not dominates(vec(100, 5, 0.3), vec(100, 5, 0.3))

    def test_incomparable(self):
        assert not dominates(vec(100, 9, 0.3), vec(120, 5, 0.3))
        assert not dominates(vec(120, 5, 0.3), vec(100, 9, 0.3))

    def test_productivity_sense_is_max(self):
        assert dominates(vec(100, 5, 0.4), vec(100, 5, 0.3))
        assert not dominates(vec(100, 5, 0.3), vec(100, 5, 0.4))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dominates(vec(float("nan"), 5, 0.3), vec(100, 5, 0.3))

    def test_irreflexive_and_transitive(self):
        rng = np.random.default_rng(7)
        objs = random_vectors(rng, 40)
        for a in objs:
            assert not dominates(a, a)
        for a in objs:
            for b in objs:
                for c in objs:
                    if dominates(a, b) and dominates(b, c):
                        assert dominates(a, c)


class TestNondominatedSort:
    def test_single_member(self):
        assert nondominated_sort([vec(1, 1, 1)]) == [0]

    def test_dominated_pair(self):
        ranks = nondominated_sort([vec(100, 5, 0.3), vec(120, 6, 0.2)])
        assert ranks == [0, 1]

    def test_empty(self):
        assert nondominated_sort([]) == []

    def test_identical_vectors_share_rank(self):
        ranks = nondominated_sort([vec(1, 1, 1), vec(1, 1, 1), vec(2, 2, 0.5)])
        assert ranks == [0, 0, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        objs = random_vectors(rng, int(rng.integers(5, 25)))
        assert nondominated_sort(objs) == brute_ranks(objs)


class TestGroupByRank:
    def test_groups_in_rank_then_index_order(self):
        assert group_by_rank([1, 0, 2, 0, 1]) == [[1, 3], [0, 4], [2]]

    def test_empty(self):
        assert group_by_rank([]) == []


class TestParetoFilter:
    def test_identity_on_nondominated(self):
        objs = [vec(100, 5, 0.3), vec(90, 6, 0.2), vec(110, 4, 0.4)]
        front = pareto_filter([(o, None) for o in objs])
        assert sorted(o.as_tuple() for o in front.objectives()) \
            == sorted(o.as_tuple() for o in objs)

    def test_single_dominator(self):
        objs = [vec(100, 5, 0.3), vec(110, 6, 0.2), vec(105, 5, 0.25)]
        front = pareto_filter([(o, None) for o in objs])
        assert front.objectives() == [vec(100, 5, 0.3)]

    def test_duplicate_collapsing_records_contributors(self):
        c1 = Chromosome((1, 2), (1, 1), (0, 0))
        c2 = Chromosome((1, 2), (1, 2), (0, 0))
        front = pareto_filter([(vec(100, 5, 0.3), c1), (vec(100, 5, 0.3), c2)])
        assert front.members == (FrontMember(vec(100, 5, 0.3), c1),)
        assert front.members[0].contributors == (c1,)

    def test_repeated_contributor_recorded_once(self):
        c1 = Chromosome((1, 2), (1, 1), (0, 0))
        c2 = Chromosome((1, 2), (1, 2), (0, 0))
        front = pareto_filter([(vec(100, 5, 0.3), c) for c in (c2, c1, c2, c1)])
        assert front.members == (FrontMember(vec(100, 5, 0.3), c2),)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        objs = random_vectors(rng, 20)
        front = pareto_filter([(o, None) for o in objs])
        expected = {o.as_tuple() for o, r in zip(objs, brute_ranks(objs)) if r == 0}
        assert {o.as_tuple() for o in front.objectives()} == expected

    def test_idempotent(self):
        rng = np.random.default_rng(200)
        objs = random_vectors(rng, 30)
        once = pareto_filter([(o, None) for o in objs])
        twice = pareto_filter([(m.objectives, m.chromosome) for m in once.members])
        assert twice.objectives() == once.objectives()

    def test_near_equal_later_dominator_keeps_the_first(self):
        # within DUPLICATE_TOL the later point is a duplicate, although it
        # dominates: the first stays, with its chromosome, as in the archive
        c1 = Chromosome((1, 2), (1, 1), (0, 0))
        c2 = Chromosome((1, 2), (1, 2), (0, 0))
        first = ObjectiveVector(100.0, 5, 0.5)
        second = ObjectiveVector(100.0 - DUPLICATE_TOL / 2, 5, 0.5)
        assert dominates(second, first)
        front = pareto_filter([(first, c1), (second, c2)])
        assert front.members == (FrontMember(first, c1),)
        assert pareto_filter([(second, c2), (first, c1)]).members \
            == (FrontMember(second, c2),)

    def test_agrees_with_sort(self):
        rng = np.random.default_rng(300)
        objs = random_vectors(rng, 30)
        ranks = nondominated_sort(objs)
        front = pareto_filter([(o, None) for o in objs])
        rank0 = {o.as_tuple() for o, r in zip(objs, ranks) if r == 0}
        assert {o.as_tuple() for o in front.objectives()} == rank0


class TestArchive:
    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(400)
        objs = random_vectors(rng, 60)
        archive = ParetoArchive()
        for o in objs:
            archive.add(o)
        batch = pareto_filter([(o, None) for o in objs])
        assert [m.objectives for m in archive.front().members] \
            == [m.objectives for m in batch.members]

    def test_add_reports_entry(self):
        archive = ParetoArchive()
        assert archive.add(vec(100, 5, 0.3))
        assert not archive.add(vec(110, 6, 0.2))   # dominated
        assert not archive.add(vec(100, 5, 0.3))   # duplicate
        assert archive.add(vec(90, 6, 0.2))        # incomparable
        assert len(archive) == 2

    def test_duplicate_contributions_tracked(self):
        """Only the first chromosome at a point is kept."""
        c1 = Chromosome((1, 2), (1, 1), (0, 0))
        c2 = Chromosome((1, 2), (1, 2), (0, 0))
        archive = ParetoArchive()
        assert archive.add(vec(1, 1, 1), c1)
        assert not archive.add(vec(1, 1, 1), c2)
        assert archive.front().members == (FrontMember(vec(1, 1, 1), c1),)
        assert archive.front().members[0].contributors == (c1,)

    def test_same_chromosome_twice_leaves_one_contributor(self):
        c1 = Chromosome((1, 2), (1, 1), (0, 0))
        c2 = Chromosome((1, 2), (1, 2), (0, 0))
        archive = ParetoArchive()
        for c in (c2, c2, c1, c2):
            archive.add(vec(1, 1, 1), c)
        assert archive.front().members == (FrontMember(vec(1, 1, 1), c2),)

    def test_point_reached_by_many_chromosomes_keeps_one(self):
        chroms = [Chromosome((1, 2), (1, 1), (0, d)) for d in range(1000)]
        archive = ParetoArchive()
        for c in chroms:
            archive.add(vec(1, 1, 1), c)
        assert len(archive) == 1
        assert archive.front().members == (FrontMember(vec(1, 1, 1), chroms[0]),)

    def test_point_without_chromosome(self):
        archive = ParetoArchive()
        archive.add(vec(1, 1, 1))
        archive.add(vec(1, 1, 1), Chromosome((1, 2), (1, 1), (0, 0)))
        member = archive.front().members[0]
        assert member.chromosome is None and member.contributors == ()

    def test_insertion_order_independent(self):
        rng = np.random.default_rng(500)
        objs = random_vectors(rng, 40)
        a = ParetoArchive()
        b = ParetoArchive()
        for o in objs:
            a.add(o)
        for o in reversed(objs):
            b.add(o)
        assert [m.objectives for m in a.front().members] \
            == [m.objectives for m in b.front().members]

    @pytest.mark.parametrize("seed", range(4))
    def test_inline_tests_agree_with_dominates(self, seed):
        def reference_add(members, obj, chrom):
            for kept, _ in members:
                if _same_point(kept, obj) or dominates(kept, obj):
                    return False
            members[:] = [m for m in members if not dominates(obj, m[0])]
            members.append((obj, chrom))
            return True

        rng = np.random.default_rng(seed)
        archive = ParetoArchive()
        members = []
        for _ in range(400):
            # few distinct base points, nudged inside, at and past the tolerance
            nudge = float(rng.choice([0.0, 0.3, -0.9, 1.0, 2.0])) * DUPLICATE_TOL
            obj = vec(float(rng.integers(95, 99)) + nudge, rng.integers(3, 6),
                      float(rng.integers(1, 5)) / 10 - nudge)
            chrom = Chromosome((1, 2), (1, int(rng.integers(1, 4))), (0, 0))
            assert archive.add(obj, chrom) == reference_add(members, obj, chrom)
        assert archive._members == members

    def test_nan_objective_raises(self):
        archive = ParetoArchive()
        with pytest.raises(ValueError, match="NaN"):
            archive.add(vec(float("nan"), 1, 0.1))
        archive.add(vec(1, 1, 1))
        with pytest.raises(ValueError, match="NaN"):
            archive.add(vec(1, 1, float("nan")))
        assert len(archive) == 1
