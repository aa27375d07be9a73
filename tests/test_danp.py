import numpy as np
import pytest

from crashplan.danp import (CriterionScores, apply_quality_patch, danp_weights,
                            dematel_total, quality_patch, quality_scores)
from crashplan.errors import AllZero, BadParams, Singular


def power_iteration_weights(t, iterations=500):
    """Independent oracle: stationary vector of the column-normalized matrix."""
    t = np.asarray(t, dtype=float)
    c = len(t)
    col = t.sum(axis=0)
    s = np.where(col > 0, t / np.where(col > 0, col, 1.0), 1.0 / c)
    v = np.full(c, 1.0 / c)
    for _ in range(iterations):
        v = s @ v
        v = v / v.sum()
    return v


class TestDematelTotal:
    def test_zero_matrix(self):
        assert not dematel_total(np.zeros((3, 3))).any()

    def test_two_by_two_hand_inversion(self):
        # A = [[0,2],[1,0]]: denom 2, X = [[0,1],[.5,0]],
        # (I-X)^-1 = [[2,2],[1,2]], T = [[1,2],[1,1]]
        t = dematel_total(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert t == pytest.approx(np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_unit_swap_matrix_is_singular(self):
        # normalization leaves spectral radius exactly 1 here
        with pytest.raises(Singular):
            dematel_total(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_nonnegative_for_nonnegative_input(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.uniform(0, 4, size=(5, 5))
            np.fill_diagonal(a, 0.0)
            assert (dematel_total(a) >= -1e-12).all()

    def test_input_validation(self):
        with pytest.raises(BadParams):
            dematel_total(np.ones((2, 3)))
        with pytest.raises(BadParams):
            dematel_total(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(BadParams):
            dematel_total(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestDanpWeights:
    def test_identical_columns_already_stationary(self):
        v = np.array([3.0, 1.0, 2.0])
        t = np.column_stack([v, v, v])
        assert danp_weights(t) == pytest.approx(v / v.sum())

    def test_symmetric_equal_row_sums_uniform(self):
        t = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
                     dtype=float)
        assert danp_weights(t) == pytest.approx(np.full(4, 0.25), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_power_iteration(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.1, 3.0, size=(4, 4))
        assert danp_weights(t) == pytest.approx(power_iteration_weights(t),
                                                abs=1e-6)

    def test_zero_column_becomes_uniform(self):
        t = np.array([[0.0, 2.0], [0.0, 1.0]])
        assert danp_weights(t) == pytest.approx(power_iteration_weights(t),
                                                abs=1e-6)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            danp_weights(np.zeros((3, 3)))

    def test_sum_to_one_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = rng.uniform(0, 2, size=(6, 6))
            w = danp_weights(t)
            assert (w >= 0).all()
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_label_invariance_under_permutation(self):
        rng = np.random.default_rng(10)
        t = rng.uniform(0.1, 2.0, size=(5, 5))
        perm = np.array([3, 0, 4, 1, 2])
        permuted = t[np.ix_(perm, perm)]
        assert danp_weights(permuted) == pytest.approx(danp_weights(t)[perm],
                                                       abs=1e-9)


class TestQualityScores:
    def test_single_criterion_identity(self):
        scores = CriterionScores(("safety",), {(2, 1): {"safety": 73.0}})
        assert quality_scores(np.array([1.0]), scores) == {(2, 1): 73.0}

    def test_uniform_weights(self):
        scores = CriterionScores(("a", "b"), {(2, 1): {"a": 60.0, "b": 100.0}})
        assert quality_scores(np.array([0.5, 0.5]), scores) == {(2, 1): 80.0}

    def test_weighted_dot_product(self):
        scores = CriterionScores(("a", "b"), {(2, 1): {"a": 80.0, "b": 40.0}})
        assert quality_scores(np.array([0.25, 0.75]), scores)[(2, 1)] \
            == pytest.approx(50.0)

    def test_missing_criterion(self):
        scores = CriterionScores(("a", "b"), {(2, 1): {"a": 80.0}})
        with pytest.raises(BadParams, match="missing"):
            quality_scores(np.array([0.5, 0.5]), scores)

    def test_monotone_in_scores(self):
        rng = np.random.default_rng(11)
        w = rng.dirichlet(np.ones(3))
        base = {"a": 50.0, "b": 60.0, "c": 70.0}
        q0 = quality_scores(w, CriterionScores(("a", "b", "c"), {(2, 1): base}))
        for key in base:
            bumped = dict(base, **{key: base[key] + 10})
            q1 = quality_scores(w, CriterionScores(("a", "b", "c"),
                                                   {(2, 1): bumped}))
            assert q1[(2, 1)] >= q0[(2, 1)]

    def test_range_preserved(self):
        rng = np.random.default_rng(12)
        w = rng.dirichlet(np.ones(4))
        entry = {c: float(rng.uniform(0, 100)) for c in "abcd"}
        q = quality_scores(w, CriterionScores(tuple("abcd"), {(3, 2): entry}))
        assert 0.0 <= q[(3, 2)] <= 100.0


class TestQualityPatch:
    def test_patch_round_trip(self, toy4):
        patch = quality_patch({(2, 1): 55.0, (2, 2): 45.0, (3, 1): 66.0})
        patched = apply_quality_patch(toy4, patch)
        assert patched.activities[1].modes[0].quality == 55.0
        assert patched.activities[1].modes[1].quality == 45.0
        assert patched.activities[2].modes[0].quality == 66.0
        # untouched fields survive
        assert patched.activities[1].modes[0].normal_cost == 100.0

    def test_bad_patch_rejected(self, toy4):
        with pytest.raises(BadParams):
            apply_quality_patch(toy4, {"quality": {}})
        with pytest.raises(BadParams):
            apply_quality_patch(toy4, quality_patch({(9, 1): 10.0}))

    @pytest.mark.parametrize("patch,message", [
        (quality_patch({(2, 1): 150.0}), "quality patch: activities[1]"),
        (quality_patch({(2, 1): float("nan")}), "quality patch: activities[1]"),
        ({"schema_version": 1, "quality": {"x": {"1": 50.0}}},
         "unknown activity x"),
        ({"schema_version": 1, "quality": {"2": {"one": 50.0}}},
         "unknown mode one"),
        ({"schema_version": 1, "quality": {"2": {"1": "50"}}},
         "not a number"),
    ], ids=["q-150", "q-nan", "activity-x", "mode-one", "q-text"])
    def test_invalid_patch_is_bad_params(self, toy4, patch, message):
        # a patched instance is held to the rules a loaded file is
        with pytest.raises(BadParams) as info:
            apply_quality_patch(toy4, patch)
        assert message in str(info.value)
