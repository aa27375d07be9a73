import json
import subprocess
import sys

import pytest

from crashplan.oracle import true_pareto_front
from crashplan.reporting import front_from_csv


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "crashplan", *args],
                          capture_output=True, text=True, env=full_env)


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "inst.json"
    result = run_cli("gen", "--seed", "1", "--activities", "6", "--modes", "2",
                     "--out", str(path))
    assert result.returncode == 0, result.stderr
    return path


class TestGenSolve:
    def test_gen_then_solve_repeatable(self, tmp_path, instance_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = run_cli("solve", "--algo", "moga",
                             "--instance", str(instance_file),
                             "--seed", "7", "--pop", "10", "--iterations", "10",
                             "--out", str(out))
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_flag_does_not_change_output(self, tmp_path, instance_file):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}.csv"
            result = run_cli("solve", "--algo", "nsga2",
                             "--instance", str(instance_file),
                             "--seed", "3", "--pop", "8", "--iterations", "8",
                             "--threads", threads, "--out", str(out))
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sidecar_contents(self, tmp_path, instance_file):
        out = tmp_path / "f.csv"
        run_cli("solve", "--algo", "moga", "--instance", str(instance_file),
                "--seed", "5", "--pop", "8", "--iterations", "5",
                "--out", str(out))
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert meta["seed"] == 5
        assert meta["tool_version"]
        assert meta["command"][0] == "crashplan"
        assert "--seed" in meta["command"]
        assert meta["instance_hash"]

    def test_seed_required(self, instance_file, tmp_path):
        result = run_cli("solve", "--algo", "moga",
                         "--instance", str(instance_file),
                         "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 2

    def test_env_threads_default(self, tmp_path, instance_file):
        out = tmp_path / "env.csv"
        result = run_cli("solve", "--algo", "moga",
                         "--instance", str(instance_file),
                         "--seed", "5", "--pop", "8", "--iterations", "5",
                         "--out", str(out), env={"CRASHPLAN_THREADS": "2"})
        assert result.returncode == 0, result.stderr


class TestOracle:
    def test_matches_library(self, toy4, toy4_path, tmp_path):
        out = tmp_path / "oracle.csv"
        result = run_cli("oracle", "--instance", str(toy4_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        front, meta = front_from_csv(out)
        assert meta["algorithm"] == "oracle"
        expected = true_pareto_front(toy4).front
        assert len(front) == len(expected)
        for parsed, lib in zip(front.members, expected.members):
            # CSV carries 12 significant digits
            assert parsed.objectives.npv_cost \
                == pytest.approx(lib.objectives.npv_cost, rel=1e-11)
            assert parsed.objectives.makespan == lib.objectives.makespan
            assert parsed.objectives.productivity \
                == pytest.approx(lib.objectives.productivity, rel=1e-11)
            assert parsed.chromosome == lib.chromosome

    def test_space_too_large_is_domain_error(self, toy4_path, tmp_path):
        result = run_cli("oracle", "--instance", str(toy4_path),
                         "--max-points", "3", "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 1
        assert result.stderr.strip().startswith("error:")
        assert len(result.stderr.strip().splitlines()) == 1


class TestSweep:
    def test_discount_sweep_strictly_decreasing(self, toy4_path, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli("sweep", "--param", "discount",
                         "--values", "0,0.05,0.1,0.2",
                         "--instance", str(toy4_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("discount_rate,npv_cost")
        npvs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(npvs, npvs[1:]))
        prods = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a < b for a, b in zip(prods, prods[1:]))

    def test_deadline_sweep_nonincreasing_best_npv(self, toy4_path, tmp_path):
        # D=3 forces crashing (makespan range is 3..5), so the first step
        # shows a strict improvement before the curve flattens
        out = tmp_path / "dl.csv"
        result = run_cli("sweep", "--param", "deadline", "--values", "3,4,5,8",
                         "--instance", str(toy4_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().strip().splitlines()
        best = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a >= b - 1e-9 for a, b in zip(best, best[1:]))
        assert best[0] > best[-1]


class TestMetricsCommand:
    def test_report_files(self, toy4_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("solve", "--algo", "moga", "--instance", str(toy4_path),
                "--seed", "1", "--pop", "10", "--iterations", "15",
                "--out", str(a))
        run_cli("solve", "--algo", "nsga2", "--instance", str(toy4_path),
                "--seed", "1", "--pop", "10", "--iterations", "15",
                "--out", str(b))
        report_path = tmp_path / "report.json"
        rows_path = tmp_path / "rows.csv"
        result = run_cli("metrics", "--front-a", str(a), "--front-b", str(b),
                         "--out", str(report_path), "--csv", str(rows_path))
        assert result.returncode == 0, result.stderr
        report = json.loads(report_path.read_text())
        assert report["front_a"]["label"] == "moga"
        assert report["front_b"]["label"] == "nsga2"
        assert report["front_a"]["qm"] + report["front_b"]["qm"] >= 1.0
        rows = rows_path.read_text().strip().splitlines()
        assert rows[0].startswith("label,best_productivity")
        assert len(rows) == 3


class TestEvalCommand:
    def test_inspection_payload(self, toy4_path, tmp_path):
        out = tmp_path / "eval.json"
        result = run_cli("eval", "--instance", str(toy4_path),
                         "--chromosome", "1|1|0:2|1|4:3|1|5:4|1|0",
                         "--out", str(out))
        assert result.returncode == 0, result.stderr
        data = json.loads(out.read_text())
        assert data["objectives"]["makespan"] == 5
        assert data["feasibility"]["valid_number"] == 3
        assert data["payments"]["prepayment"] == pytest.approx(200.0)
        assert [e["amount"] for e in data["payments"]["events"]] \
            == pytest.approx([240.0, 560.0])

    def test_bad_chromosome_exit_one(self, toy4_path, tmp_path):
        result = run_cli("eval", "--instance", str(toy4_path),
                         "--chromosome", "zzz",
                         "--out", str(tmp_path / "x.json"))
        assert result.returncode == 1


class TestDanpCommand:
    def test_weights_and_patch(self, tmp_path):
        influence = tmp_path / "influence.csv"
        influence.write_text("cost,safety,finish\n0,1,2\n1,0,1\n2,1,0\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("activity,mode,cost,safety,finish\n"
                          "2,1,80,70,90\n2,2,60,50,80\n3,1,90,85,95\n")
        weights_out = tmp_path / "weights.json"
        patch_out = tmp_path / "patch.json"
        result = run_cli("danp", "--influence", str(influence),
                         "--scores", str(scores),
                         "--out-weights", str(weights_out),
                         "--out-patch", str(patch_out))
        assert result.returncode == 0, result.stderr
        weights = json.loads(weights_out.read_text())
        assert weights["criteria"] == ["cost", "safety", "finish"]
        assert sum(weights["weights"]) == pytest.approx(1.0)
        patch = json.loads(patch_out.read_text())
        assert set(patch["quality"]) == {"2", "3"}
        assert set(patch["quality"]["2"]) == {"1", "2"}

    def test_bad_scores_exit_two(self, tmp_path):
        influence = tmp_path / "influence.csv"
        influence.write_text("a,b\n0,1\n2,0\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("activity,mode,a\n2,1,50\n")  # missing criterion b
        result = run_cli("danp", "--influence", str(influence),
                         "--scores", str(scores),
                         "--out-weights", str(tmp_path / "w.json"),
                         "--out-patch", str(tmp_path / "p.json"))
        assert result.returncode == 2

    @pytest.mark.parametrize("bad_file,bad_text", [
        ("influence", "a,b\n\n0,1\n\n2,x\n"),
        ("scores", "activity,mode,a,b\n\n2,1,50,60\n  \n2,2,x,60\n"),
    ], ids=["influence", "scores"])
    def test_error_names_the_file_line(self, tmp_path, bad_file, bad_text):
        # blank lines count: the bad value sits on line 5 of its file
        texts = {"influence": "a,b\n0,1\n2,0\n",
                 "scores": "activity,mode,a,b\n2,1,50,60\n",
                 bad_file: bad_text}
        for name, text in texts.items():
            (tmp_path / f"{name}.csv").write_text(text)
        result = run_cli("danp", "--influence", str(tmp_path / "influence.csv"),
                         "--scores", str(tmp_path / "scores.csv"),
                         "--out-weights", str(tmp_path / "w.json"),
                         "--out-patch", str(tmp_path / "p.json"))
        assert result.returncode == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: line 5:")


class TestZeroCost:
    """An instance whose every cost and overhead is zero has no productivity;
    it is a domain error (exit 1), not a traceback."""

    @pytest.fixture()
    def zero_cost_path(self, toy4_path, tmp_path):
        data = json.loads(toy4_path.read_text())
        data["overhead"] = 0.0
        for act in data["activities"]:
            for mode in act["modes"]:
                mode["normal_cost"] = 0.0
                mode["cost_slope"] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("args", [
        ("solve", "--algo", "moga", "--seed", "1", "--pop", "4",
         "--iterations", "2"),
        ("solve", "--algo", "nsga2", "--seed", "1", "--pop", "4",
         "--iterations", "2"),
        ("oracle",),
        ("eval", "--chromosome", "1|1|0:2|1|4:3|1|5:4|1|0"),
    ])
    def test_exit_one_without_traceback(self, zero_cost_path, tmp_path, args):
        result = run_cli(*args, "--instance", str(zero_cost_path),
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 1, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "npv_cost is zero" in lines[0]
        assert "Traceback" not in result.stderr


class TestInfeasibleInstance:
    """A deadline below the fully crashed makespan is a domain error (exit
    1) raised before the solver draws any chromosome or the oracle walks."""

    @staticmethod
    def assert_infeasible(result, out):
        assert result.returncode == 1, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "earliest finish 3 exceeds deadline 2" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["moga", "nsga2"])
    def test_exit_one_without_traceback(self, toy4_path, tmp_path, algo):
        data = json.loads(toy4_path.read_text())
        data["deadline"] = 2
        path = tmp_path / "late.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "front.csv"
        self.assert_infeasible(run_cli(
            "solve", "--algo", algo, "--seed", "1",
            "--instance", str(path), "--out", str(out)), out)

    def test_oracle(self, toy4_path, tmp_path):
        data = json.loads(toy4_path.read_text())
        data["deadline"] = 2
        path = tmp_path / "late.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "front.csv"
        self.assert_infeasible(run_cli(
            "oracle", "--instance", str(path), "--out", str(out)), out)

    def test_deadline_sweep(self, toy4_path, tmp_path):
        out = tmp_path / "sweep.csv"
        self.assert_infeasible(run_cli(
            "sweep", "--param", "deadline", "--values", "2",
            "--instance", str(toy4_path), "--out", str(out)), out)


@pytest.mark.parametrize("algo", ["moga", "nsga2"])
def test_capacity_below_least_demand_exits_one(toy4_path, tmp_path, algo):
    # activities 2 and 3 need 4 units of r1 whatever their modes, so the
    # solve is refused before any draw, as a deadline too short is
    data = json.loads(toy4_path.read_text())
    data["resource_capacity"]["r1"] = 3
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "front.csv"
    result = run_cli("solve", "--algo", algo, "--seed", "1", "--pop", "4",
                     "--iterations", "2", "--instance", str(path),
                     "--out", str(out))
    assert result.returncode == 1, result.stderr
    assert result.stderr.strip().splitlines() == [
        "error: resource r1: least total demand 4 exceeds capacity 3"]
    assert not out.exists()


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("gen", "--seed", "1").returncode == 2

    def test_gen_more_payments_than_activities(self, tmp_path):
        out = tmp_path / "inst.json"
        result = run_cli("gen", "--seed", "1", "--activities", "6",
                         "--modes", "2", "--payments", "7", "--out", str(out))
        assert result.returncode == 2, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("option", [
        ("--max-normal", "10000"), ("--resources", "-1"),
    ], ids=lambda option: "".join(option))
    def test_gen_option_out_of_range(self, tmp_path, option):
        # a horizon whose discount factor overflows, and a negative count
        out = tmp_path / "inst.json"
        result = run_cli("gen", "--seed", "1", "--activities", "6",
                         "--modes", "2", *option, "--out", str(out))
        assert result.returncode == 2, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("solve", "--algo", "moga", "--seed", "1", "--pop", "4"), ("oracle",),
        ("eval", "--chromosome", "1|1|0"),
    ], ids=lambda command: command[0])
    def test_no_activities_exits_two(self, toy4_path, tmp_path, command):
        data = json.loads(toy4_path.read_text())
        data["activities"] = []
        inst = tmp_path / "empty.json"
        inst.write_text(json.dumps(data))
        out = tmp_path / "out"
        result = run_cli(*command, "--instance", str(inst), "--out", str(out))
        assert result.returncode == 2, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: activities:")
        assert not out.exists()

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run_cli("oracle", "--instance", str(bad),
                         "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert f"error: {bad}: line 1: " in result.stderr

    @pytest.mark.parametrize("command", [
        ("solve", "--algo", "moga", "--seed", "1", "--instance", "BAD",
         "--out", "OUT"),
        ("oracle", "--instance", "BAD", "--out", "OUT"),
        ("eval", "--chromosome", "1|1|0", "--instance", "BAD", "--out", "OUT"),
        ("sweep", "--param", "deadline", "--values", "8", "--instance", "BAD",
         "--out", "OUT"),
        ("tune", "--seed", "1", "--instance", "BAD", "--out-dir", "OUT"),
        ("tune", "--seed", "1", "--instance", "TOY4", "--levels", "BAD",
         "--out-dir", "OUT"),
        ("metrics", "--front-a", "BAD", "--front-b", "BAD", "--out", "OUT"),
        ("danp", "--influence", "BAD", "--scores", "BAD",
         "--out-weights", "OUT", "--out-patch", "OUT"),
    ], ids=["solve", "oracle", "eval", "sweep", "tune", "tune-levels",
            "metrics", "danp"])
    def test_file_not_utf8_exits_two(self, toy4_path, tmp_path, command):
        # every input file is read by one reader, which refuses bytes that
        # are not UTF-8 text with one error line, not a traceback
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "out"
        names = {"BAD": str(bad), "TOY4": str(toy4_path), "OUT": str(out)}
        result = run_cli(*(names.get(arg, arg) for arg in command))
        assert result.returncode == 2, result.stderr
        assert result.stderr.strip().splitlines() == [
            f"error: {bad}: not UTF-8 text"]
        assert not out.exists()


LEVELS_WITH_TEXT = (
    '{"elitism_rate": [0.0, 0.05, 0.1, 0.15, 0.2],'
    ' "hill_climb_rate": [0.0, 0.1, 0.2, 0.3, 0.4],'
    ' "mutation_rate": [0.2, 0.3, 0.4, 0.5, 0.6],'
    ' "crossover_rate": [0.4, 0.5, 0.6, 0.7, 0.8],'
    ' "iterations": [1, 2, 2, 3, 3], "pop_size": [4, 5, 6, 7, "many"]}')


class TestInstanceDomain:
    """Instance values outside the model's domain are rejected on loading
    (exit 2, one error line), not by a traceback or a misleading domain
    error deep in a run."""

    @pytest.mark.parametrize("path,value", [
        (("overhead",), float("nan")),
        (("overhead",), -1.0),
        (("price",), float("inf")),
        (("initial_capital",), float("nan")),
        (("activities", 1, "earned_value"), float("nan")),
        (("activities", 1, "modes", 0, "normal_cost"), float("inf")),
        (("interest_rate",), 1e308),
        (("interest_rate",), float("inf")),
        (("deadline",), 10**400),
        (("deadline",), float("inf")),
        # one evaluation used to take 0.5 s at this J; now it is refused
        (("payment_count",), 100_000),
    ], ids=["overhead-nan", "overhead-negative", "price-inf",
            "initial_capital-nan", "earned_value-nan", "normal_cost-inf",
            "interest_rate-1e308", "interest_rate-inf", "deadline-1e400",
            "deadline-inf", "payment_count-100000"])
    def test_solve_exits_two(self, toy4_path, tmp_path, path, value):
        data = json.loads(toy4_path.read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        inst = tmp_path / "bad.json"
        inst.write_text(json.dumps(data))
        result = run_cli("solve", "--algo", "moga", "--instance", str(inst),
                         "--seed", "1", "--pop", "4", "--iterations", "1",
                         "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_sweep_discount_overflow_exits_two(self, toy4_path, tmp_path):
        out = tmp_path / "s.csv"
        result = run_cli("sweep", "--param", "discount", "--values", "1e308",
                         "--instance", str(toy4_path), "--out", str(out))
        assert result.returncode == 2, result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "interest_rate" in lines[0]
        assert not out.exists()


class TestBadArgumentValues:
    """Malformed option values exit 2 with one error line, no traceback."""

    @staticmethod
    def assert_usage_error(result):
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("labels", ["onlyone", "a,", ",b", "a,b,c"])
    def test_metrics_labels(self, tmp_path, labels):
        front = tmp_path / "empty.csv"
        front.write_text("solution,npv_cost,makespan,productivity,valid_number\n")
        self.assert_usage_error(run_cli(
            "metrics", "--front-a", str(front), "--front-b", str(front),
            "--labels", labels, "--out", str(tmp_path / "r.json")))

    @pytest.mark.parametrize("row,message", [
        ("1|1|0:2|1|2:3|1|3:4|1|0,nan,5,0.1,3", "must be finite"),
        ("1|1|0:2|1|2:3|1|3:4|1|0,100,5,inf,3", "must be finite"),
        ("1|x|0:2|1|2:3|1|3:4|1|0,100,5,0.1,3", "bad solution string"),
        ("1|1|0:2|1|2:3|1|3:4|1|0,100,5,0.1,x", "valid_number must be 3"),
        ("1|1|0:2|1|2:3|1|3:4|1|0,100,-3,0.1,3", "makespan must be >= 0"),
    ], ids=["npv-nan", "productivity-inf", "bad-solution", "valid-number-x",
            "makespan-negative"])
    def test_metrics_front_rows(self, tmp_path, row, message):
        good = tmp_path / "good.csv"
        good.write_text("solution,npv_cost,makespan,productivity,valid_number\n"
                        "1|1|0:2|1|2:3|1|3:4|1|0,100,5,0.1,3\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("# algorithm=x\n"
                       "solution,npv_cost,makespan,productivity,valid_number\n"
                       f"{row}\n")
        out = tmp_path / "r.json"
        result = run_cli("metrics", "--front-a", str(good), "--front-b",
                         str(bad), "--out", str(out))
        self.assert_usage_error(result)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and "line 3" in lines[0] and message in lines[0]
        assert not out.exists()

    def test_metrics_empty_normalizing_reference(self, tmp_path):
        # a header-only reference file has no range to normalize by: a
        # domain error from the file's contents (exit 1), not a traceback
        good = tmp_path / "good.csv"
        good.write_text("solution,npv_cost,makespan,productivity,valid_number\n"
                        "1|1|0:2|1|2:3|1|3:4|1|0,100,5,0.1,3\n")
        empty = tmp_path / "empty.csv"
        empty.write_text("solution,npv_cost,makespan,productivity,valid_number\n")
        out = tmp_path / "r.json"
        result = run_cli("metrics", "--front-a", str(good), "--front-b",
                         str(good), "--reference", str(empty), "--normalize",
                         "--out", str(out))
        assert result.returncode == 1, result.stderr
        assert result.stderr.strip().splitlines() == [
            "error: no members in any reference front"]
        assert not out.exists()

    @pytest.mark.parametrize("param,values,bad", [
        ("deadline", "10,x", "'x'"),
        ("deadline", "4.5", "'4.5'"),
        ("discount", "abc", "'abc'"),
    ])
    def test_sweep_values(self, toy4_path, tmp_path, param, values, bad):
        result = run_cli("sweep", "--param", param, "--values", values,
                         "--instance", str(toy4_path),
                         "--out", str(tmp_path / "s.csv"))
        self.assert_usage_error(result)
        assert bad in result.stderr

    @pytest.mark.parametrize("rate", ["-1", "-0.5", "nan"])
    def test_sweep_discount_rejected_like_a_file(self, toy4_path, tmp_path,
                                                 rate):
        out = tmp_path / "s.csv"
        result = run_cli("sweep", "--param", "discount", "--values", rate,
                         "--instance", str(toy4_path), "--out", str(out))
        self.assert_usage_error(result)
        assert rate in result.stderr and "interest_rate" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", LEVELS_WITH_TEXT])
    def test_tune_levels(self, toy4_path, tmp_path, text):
        levels = tmp_path / "levels.json"
        levels.write_text(text)
        result = run_cli(
            "tune", "--instance", str(toy4_path), "--seed", "1",
            "--levels", str(levels), "--threads", "1",
            "--out-dir", str(tmp_path / "tune"))
        self.assert_usage_error(result)
        if text == "{not json":
            # the instance is read first, so the message must name the
            # levels file
            assert f"error: {levels}: line 1: " in result.stderr

    @pytest.mark.parametrize("option", [
        ("--pop", "1"), ("--iterations", "-1"), ("--crossover", "2"),
        ("--mutation", "-0.1"), ("--hill-climb", "1.5"), ("--elitism", "2"),
        ("--max-evaluations", "-5"), ("--max-evaluations", "0"),
    ], ids=lambda option: "".join(option))
    def test_solve_option_out_of_range(self, toy4_path, tmp_path, option):
        out = tmp_path / "front.csv"
        result = run_cli("solve", "--algo", "moga", "--seed", "1",
                         "--instance", str(toy4_path), *option,
                         "--out", str(out))
        self.assert_usage_error(result)
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("gen", "--activities", "6", "--modes", "2", "--out"),
        ("solve", "--algo", "moga", "--pop", "4", "--iterations", "1",
         "--instance", "TOY4", "--out"),
        ("solve", "--algo", "nsga2", "--pop", "4", "--iterations", "1",
         "--instance", "TOY4", "--out"),
        ("tune", "--threads", "1", "--instance", "TOY4", "--out-dir"),
    ], ids=["gen", "solve-moga", "solve-nsga2", "tune"])
    def test_negative_seed(self, toy4_path, tmp_path, command):
        # one seed rule for every command that draws: refused before any
        # draw, with the seed named and no other prefix
        out = tmp_path / "out"
        argv = [str(toy4_path) if a == "TOY4" else a for a in command]
        result = run_cli(*argv, str(out), "--seed", "-1")
        self.assert_usage_error(result)
        lines = result.stderr.strip().splitlines()
        assert lines == ["error: seed must be >= 0, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("solve", "--algo", "moga", "--seed", "1", "--pop", "4",
         "--iterations", "1", "--out"),
        ("oracle", "--out"), ("tune", "--seed", "1", "--out-dir"),
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, toy4_path, tmp_path, command, threads):
        out = tmp_path / "out"
        result = run_cli(*command, str(out), "--instance", str(toy4_path),
                         f"--threads={threads}")
        self.assert_usage_error(result)
        assert result.stderr.strip().splitlines() == [
            f"error: --threads must be >= 1, got {threads}"]
        assert not out.exists()

    def test_zero_threads_in_the_environment_means_one(self, toy4_path,
                                                        tmp_path):
        # the environment's default is clamped to 1, not refused
        result = run_cli("oracle", "--instance", str(toy4_path),
                         "--out", str(tmp_path / "o.csv"),
                         env={"CRASHPLAN_THREADS": "0"})
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("command", [
        ("oracle",), ("sweep", "--param", "deadline", "--values", "3,8"),
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("max_points", ["0", "-1"])
    def test_max_points_below_one(self, toy4_path, tmp_path, command,
                                  max_points):
        # a budget cap out of range is a usage error, as --max-evaluations 0
        # is, not a search space too large for it
        out = tmp_path / "out.csv"
        result = run_cli(*command, "--instance", str(toy4_path),
                         f"--max-points={max_points}", "--out", str(out))
        self.assert_usage_error(result)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and "max_points must be >= 1" in lines[0]
        assert not out.exists()

    def test_nsga2_option_out_of_range(self, toy4_path, tmp_path):
        out = tmp_path / "front.csv"
        self.assert_usage_error(run_cli(
            "solve", "--algo", "nsga2", "--seed", "1", "--pop", "1",
            "--instance", str(toy4_path), "--out", str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("option", [
        ("--hill-climb", "0.3"), ("--elitism", "0.9"),
    ], ids=lambda option: option[0])
    def test_nsga2_rejects_moga_only_option(self, toy4_path, tmp_path, option):
        # NSGA-II has no hill climb and no elitism rate: a run that dropped
        # the option would misreport what it was asked to run
        out = tmp_path / "front.csv"
        result = run_cli("solve", "--algo", "nsga2", "--seed", "1",
                         "--instance", str(toy4_path), *option,
                         "--out", str(out))
        self.assert_usage_error(result)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and option[0] in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"population": [4, 5, 6, 7, 8]},
        {"pop_size": [4, 5, 6, 7]},
        {"pop_size": [1, 5, 6, 7, 8]},
        {"crossover_rate": [0.4, 0.5, 0.6, 0.7, 1.8]},
        {"pop_size": [20.7, 5, 6, 7, 8]},
        {"iterations": [500.9, 2, 2, 3, 3]},
    ], ids=["other-factor", "four-levels", "pop-1", "rate-above-1",
            "pop-20.7", "iterations-500.9"])
    def test_tune_level_table(self, toy4_path, tmp_path, change):
        table = {"elitism_rate": [0.0, 0.05, 0.1, 0.15, 0.2],
                 "hill_climb_rate": [0.0, 0.1, 0.2, 0.3, 0.4],
                 "mutation_rate": [0.2, 0.3, 0.4, 0.5, 0.6],
                 "crossover_rate": [0.4, 0.5, 0.6, 0.7, 0.8],
                 "iterations": [1, 2, 2, 3, 3],
                 "pop_size": [4, 5, 6, 7, 8]}
        if "population" in change:
            del table["pop_size"]
        table.update(change)
        levels = tmp_path / "levels.json"
        levels.write_text(json.dumps(table))
        out_dir = tmp_path / "tune"
        result = run_cli("tune", "--instance", str(toy4_path), "--seed", "1",
                         "--levels", str(levels), "--threads", "1",
                         "--out-dir", str(out_dir))
        self.assert_usage_error(result)
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out_dir.exists()
