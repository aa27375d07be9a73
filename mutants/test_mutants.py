"""Checked-in mutant suite: named patches to the package, each of which the
tests listed with it must catch.

    python3 -m pytest mutants/test_mutants.py

The suite copies src/, tests/ and data/ into a temporary directory and
first checks that every listed test passes on the unmutated copy.  It then
applies one patch at a time and runs that mutant's tests in a fresh
process, which must end in pytest's exit code 1 (tests failed).  A mutant
that survives, or a patch whose old text no longer occurs exactly once,
fails the suite, so a refactor that moves a patched line carries its entry
along.  It lives outside the Tier-1 `testpaths`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids that must kill the mutant


DECODE = ("tests/test_decode_property.py::"
          "test_decode_validates_exactly_and_matches_forward_pass",)
REPORT = ("tests/test_decode_property.py::"
          "test_feasibility_report_matches_constraint_groups",)
VARIANT = ("tests/test_kernel_property.py::"
           "test_every_neighbour_equals_a_full_evaluation",)
PAYMENTS = ("tests/test_kernel_property.py::"
            "test_payment_events_follow_the_rule",)
ORACLE = ("tests/test_oracle_property.py::"
          "test_pruned_walk_matches_scoring_every_point",)
FUZZ = ("tests/test_cli_fuzz.py::test_edited_instance_exits_cleanly",)
FORMAT = ("tests/test_instance.py::TestIo::test_wrong_kind_leaf_is_named",)
CARRIED = ("tests/test_solver_property.py::"
           "test_carried_objectives_are_the_evaluated_ones",)
EVALUATE = "src/crashplan/evaluate.py"
WALK = "src/crashplan/oracle.py"
INSTANCE = "src/crashplan/instance.py"
MOGA = "src/crashplan/moga.py"

MUTANTS = (
    # the decode walk: each check that makes it the chromosome validator
    Mutant("decode-precedence", EVALUATE,
           'raise EncodingError(f"order violates precedence {p + 1} -> {i}")',
           "f = 0", DECODE),
    Mutant("decode-repeated-id", EVALUATE,
           "if not (1 <= i <= n) or finish[k] is not None:",
           "if not (1 <= i <= n):", DECODE),
    Mutant("decode-mode-range", EVALUATE,
           "if not (1 <= m <= len(row)):", "if not (0 <= m <= len(row)):",
           DECODE),
    Mutant("decode-duration-window", EVALUATE,
           "if not (lo <= d <= hi):", "if not (lo <= d <= hi + 1):", DECODE),
    Mutant("decode-dummy-duration", EVALUATE,
           "if d != 0:", "if d < 0:", DECODE),
    # the feasibility report's three groups and the Eq. 15 switch
    Mutant("report-deadline", EVALUATE,
           "makespan <= inst.deadline,", "makespan < inst.deadline,", REPORT),
    Mutant("report-capacity", EVALUATE,
           "all(map(le, map(sum, zip(*demand_rows)), view.capacity_left))",
           "all(u < c for u, c in zip(map(sum, zip(*demand_rows)),"
           " view.capacity_left))", REPORT),
    Mutant("report-prepayment", EVALUATE,
           "inst.initial_capital + view.prepayment + paid + 1e-9",
           "inst.initial_capital + paid + 1e-9", REPORT),
    Mutant("report-literal-flag-ignored", EVALUATE,
           "        if literal_eq15:\n            t = start[activity - 1]\n",
           "", REPORT),
    # the kernel: the variant re-time and the payment-event rule
    Mutant("variant-skips-first-descendant", EVALUATE,
           "inst.descendants[k])", "inst.descendants[k][1:])", VARIANT),
    Mutant("payment-ties-to-largest-id", EVALUATE,
           "activity = finish.index(best_t) + 1",
           "activity = len(finish) - finish[::-1].index(best_t)", PAYMENTS),
    # the oracle walk's bounds
    Mutant("oracle-capacity-lt", WALK,
           "if not all(map(le, used, limits)):",
           "if not all(map(lambda u, c: u < c, used, limits)):", ORACLE),
    Mutant("oracle-latest-finish-ge", WALK,
           "if f > latest[k]:", "if f >= latest[k]:", ORACLE),
    Mutant("oracle-leaf-deadline-ge", WALK,
           "if finish[-1] > deadline:", "if finish[-1] >= deadline:", ORACLE),
    Mutant("oracle-largest-demand-bound", INSTANCE,
           "map(min, zip(*rows))", "map(max, zip(*rows))", ORACLE),
    # the hill climb's result carries the objectives it was scored with
    Mutant("hill-climb-returns-input-objectives", MOGA,
           "best = [variants[k - 1] for k in range(1, len(ranks)) if ranks[k] == 0]",
           "best = [(variants[k - 1][0], obj) for k in range(1, len(ranks))"
           " if ranks[k] == 0]", CARRIED),
    # the input rules
    Mutant("validate-no-return-below-two", INSTANCE,
           "return v  # the graph checks start at activity 1 and end at n",
           "pass", FUZZ),
    Mutant("seed-check-dropped", INSTANCE,
           '    if seed < 0:\n'
           '        raise BadParams(f"seed must be >= 0, got {seed}")\n',
           "", ("tests/test_cli.py::TestBadArgumentValues::test_negative_seed",
                *FUZZ)),
    Mutant("tune-option-error-exit-1", "src/crashplan/cli.py",
           '_OPTION_CHECKED = {"gen", "solve", "tune", "oracle", "sweep"}',
           '_OPTION_CHECKED = {"gen", "solve", "oracle", "sweep"}',
           ("tests/test_cli.py::TestBadArgumentValues::test_tune_level_table",)),
    Mutant("max-points-zero-accepted", WALK,
           "if max_points < 1:", "if max_points < 0:",
           ("tests/test_oracle.py::TestTrueParetoFront::"
            "test_max_points_below_one_is_bad_params",)),
    # the instance file format's number rule
    Mutant("whole-number-accepts-fraction", INSTANCE,
           "return is_number(x) and (isinstance(x, int) or x.is_integer())",
           "return is_number(x)", FORMAT),
    Mutant("flag-accepts-any-value", INSTANCE,
           "FLAG: (lambda x: isinstance(x, bool), bool)}",
           "FLAG: (lambda x: True, bool)}", FORMAT),
)


@pytest.fixture(scope="module")
def tree():
    with tempfile.TemporaryDirectory(prefix="crashplan-mutants-") as tmp:
        root = Path(tmp)
        for name in ("src", "tests", "data"):
            shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis"))
        yield root


def run_tests(root: Path, tests) -> subprocess.CompletedProcess:
    # no bytecode: a patched and restored file can keep its size and mtime
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=root, env=env, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)


def test_listed_tests_pass_unmutated(tree):
    result = run_tests(tree, sorted({t for m in MUTANTS for t in m.tests}))
    assert result.returncode == 0, result.stdout[-3000:]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(tree, mutant):
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, \
        f"{mutant.name}: its old text no longer occurs once in {mutant.path}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        result = run_tests(tree, mutant.tests)
    finally:
        path.write_text(text, encoding="utf-8")
    assert result.returncode == 1, \
        f"{mutant.name} survived (exit {result.returncode})\n" \
        + result.stdout[-3000:]
