import itertools
import json

import pytest

from crashplan.errors import BadParams
from crashplan.instance import generate_instance
from crashplan.tuning import (DEFAULT_LEVELS, FACTORS, L25, anom, l25_design,
                              tune, write_tuning_files)

TINY_LEVELS = {
    "elitism_rate": [0.0, 0.05, 0.1, 0.15, 0.2],
    "hill_climb_rate": [0.0, 0.1, 0.2, 0.3, 0.4],
    "mutation_rate": [0.2, 0.3, 0.4, 0.5, 0.6],
    "crossover_rate": [0.4, 0.5, 0.6, 0.7, 0.8],
    "iterations": [1, 2, 2, 3, 3],
    "pop_size": [4, 5, 6, 7, 8],
}


class TestArray:
    def test_shape(self):
        assert len(L25) == 25
        assert all(len(row) == 6 for row in L25)

    def test_each_level_five_times_per_column(self):
        for col in range(6):
            counts = [sum(1 for row in L25 if row[col] == lv) for lv in range(5)]
            assert counts == [5] * 5

    def test_all_pairs_exactly_once(self):
        for c1, c2 in itertools.combinations(range(6), 2):
            pairs = {(row[c1], row[c2]) for row in L25}
            assert len(pairs) == 25


class TestDesign:
    def test_default_grid_yields_25_valid_runs(self):
        runs = l25_design(DEFAULT_LEVELS, seed=1)
        assert len(runs) == 25
        for params in runs:
            params.validate()

    def test_row_one_is_all_level_one(self):
        runs = l25_design(DEFAULT_LEVELS, seed=1)
        assert runs[0].elitism_rate == 0.05
        assert runs[0].hill_climb_rate == 0.2
        assert runs[0].iterations == 500
        assert runs[0].pop_size == 20

    def test_negative_seed(self):
        with pytest.raises(BadParams, match="seed must be >= 0, got -1"):
            l25_design(DEFAULT_LEVELS, seed=-1)

    def test_wrong_dimensionality(self):
        bad = dict(DEFAULT_LEVELS)
        bad["elitism_rate"] = [0.05, 0.1]
        with pytest.raises(BadParams):
            l25_design(bad)
        with pytest.raises(BadParams):
            l25_design({"elitism_rate": [1, 2, 3, 4, 5]})

    @pytest.mark.parametrize("factor,level", [("pop_size", 20.7),
                                              ("iterations", 500.9)])
    def test_count_levels_must_be_whole(self, factor, level):
        # int() would silently run pop 20 or 500 iterations
        levels = dict(DEFAULT_LEVELS)
        levels[factor] = [level] + DEFAULT_LEVELS[factor][1:]
        with pytest.raises(BadParams, match="whole-number"):
            l25_design(levels)
        levels[factor] = [float(DEFAULT_LEVELS[factor][0])] \
            + DEFAULT_LEVELS[factor][1:]
        assert len(l25_design(levels)) == 25

    @pytest.mark.parametrize("levels", [[1, 2], {"pop_size": [1, "x"]}])
    def test_levels_must_be_numeric_lists(self, levels):
        with pytest.raises(BadParams, match="numeric levels"):
            l25_design(levels)


class TestAnom:
    def test_constant_response(self):
        means, best = anom([7.0] * 25)
        assert all(all(m == 7.0 for m in row) for row in means)
        assert best == (0,) * 6  # lowest-index tie-break

    def test_additive_response_recovered_exactly(self):
        target = (3, 0, 2, 4, 1)  # per-factor best level, factor 6 uses 2
        targets = target + (2,)
        responses = [sum((row[f] - targets[f]) ** 2 for f in range(6))
                     for row in L25]
        _, best = anom(responses)
        assert best == targets

    def test_balanced_identity(self):
        responses = [float(k * k % 17) for k in range(25)]
        means, _ = anom(responses)
        overall = sum(responses) / 25
        for row in means:
            assert sum(row) / 5 == pytest.approx(overall)

    def test_wrong_count(self):
        with pytest.raises(BadParams):
            anom([1.0] * 24)


@pytest.fixture(scope="module")
def small_instance():
    return generate_instance(1, 5, 2, 0.5, max_span=2)


class TestTune:

    def test_deterministic(self, small_instance):
        a = tune(small_instance, TINY_LEVELS, seed=3)
        b = tune(small_instance, TINY_LEVELS, seed=3)
        assert a == b

    def test_threads_do_not_change_result(self, small_instance):
        sequential = tune(small_instance, TINY_LEVELS, seed=4)
        parallel = tune(small_instance, TINY_LEVELS, seed=4, threads=2)
        assert sequential == parallel

    def test_report_shape(self, small_instance):
        report = tune(small_instance, TINY_LEVELS, seed=5)
        assert len(report.responses) == 25
        assert len(report.level_means) == 6
        assert all(len(row) == 5 for row in report.level_means)
        for k, factor in enumerate(FACTORS):
            level = report.recommended_levels[k]
            assert getattr(report.recommended, factor) \
                == pytest.approx(TINY_LEVELS[factor][level])

    def test_files_written(self, small_instance, tmp_path):
        report = tune(small_instance, TINY_LEVELS, seed=6)
        json_path, csv_path = write_tuning_files(report, tmp_path)
        data = json.loads(json_path.read_text())
        assert data["factors"] == list(FACTORS)
        assert len(data["responses"]) == 25
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "factor,level,value,mean_response"
        assert len(lines) == 1 + 6 * 5
