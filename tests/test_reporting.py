import pytest

from crashplan.errors import ParseError
from crashplan.instance import instance_hash
from crashplan.moga import MogaParams, run_moga
from crashplan.reporting import front_from_csv, front_to_csv, write_sidecar


class TestFrontCsv:
    def test_round_trip(self, toy4, tmp_path):
        report = run_moga(toy4, MogaParams(seed=2, pop_size=10, iterations=15))
        path = tmp_path / "front.csv"
        front_to_csv(report, path)
        front, meta = front_from_csv(path)
        assert meta["algorithm"] == "moga"
        assert meta["seed"] == "2"
        assert meta["instance_hash"] == instance_hash(toy4)
        assert len(front) == len(report.front)
        # 12 significant digits survive a second write byte-identically
        report2 = type(report)(front=front, algorithm="moga", seed=2,
                               instance_hash=meta["instance_hash"])
        path2 = tmp_path / "front2.csv"
        front_to_csv(report2, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_chromosomes_survive(self, toy4, tmp_path):
        report = run_moga(toy4, MogaParams(seed=3, pop_size=10, iterations=10))
        path = tmp_path / "front.csv"
        front_to_csv(report, path)
        front, _ = front_from_csv(path)
        for original, parsed in zip(report.front.members, front.members):
            assert parsed.chromosome == original.chromosome

    def test_missing_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1|1|0,1,2,3,3\n")
        with pytest.raises(ParseError):
            front_from_csv(bad)

    def test_error_names_the_file_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# algorithm=x\n\n"
                       "solution,npv_cost,makespan,productivity,valid_number\n"
                       "\n1|1|0,1,2\n")
        with pytest.raises(ParseError, match="^line 5:"):
            front_from_csv(bad)

    def test_bad_column_count(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("solution,npv_cost,makespan,productivity,valid_number\n"
                       "1|1|0,1,2\n")
        with pytest.raises(ParseError):
            front_from_csv(bad)


class TestSidecar:
    def test_written_next_to_output(self, tmp_path):
        out = tmp_path / "front.csv"
        side = write_sidecar(out, {"seed": 7, "command": ["crashplan", "x"]})
        assert side.name == "front.csv.meta.json"
        text = side.read_text()
        assert '"tool_version"' in text and '"seed": 7' in text
