"""Fuzz test of the CLI's error contract on edited instance files and on
generator options.

Each example makes one to three JSON-level edits to toy4 or to the
instance of `gen --seed 4 --activities 6 --modes 2` (replace a value
anywhere in the document, step a number by -2..2, delete an object key or
a list item, append to a list or cut it short) and runs `eval`, `oracle`, `solve`, `tune` (with
criterion 10's tiny level table) and both sweeps in-process on the
result, `solve` and `tune` each with a seed drawn from a range that
includes negatives; a second test runs `gen` with each option drawn from
values in and out of its range.  Every run must exit 0, 1 or 2, and a
nonzero exit must print exactly one `error:` line and no traceback.
Integers stay small, so that no edit asks for a search space or a
duration range the size of memory.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crashplan.cli import main
from crashplan.evaluate import baseline_chromosome, format_solution
from crashplan.instance import generate_instance, instance_to_dict

from conftest import TOY4_PATH

TOY4 = json.loads(TOY4_PATH.read_text())
GEN4 = generate_instance(4, 6, 2, 0.4)  # gen --seed 4 --activities 6 --modes 2
#: the edit bases, each with a chromosome for `eval`
BASES = ((TOY4, "1|1|0:2|1|4:3|1|5:4|1|0"),
         (instance_to_dict(GEN4), format_solution(baseline_chromosome(GEN4))))
SEEDS = st.integers(-3, 20)
#: criterion 10's level table: 25 runs of at most 8 members and 3 iterations
LEVELS = ('{"elitism_rate": [0.0, 0.05, 0.1, 0.15, 0.2],'
          ' "hill_climb_rate": [0.0, 0.1, 0.2, 0.3, 0.4],'
          ' "mutation_rate": [0.2, 0.3, 0.4, 0.5, 0.6],'
          ' "crossover_rate": [0.4, 0.5, 0.6, 0.7, 0.8],'
          ' "iterations": [1, 2, 2, 3, 3], "pop_size": [4, 5, 6, 7, 8]}')

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))

COMMANDS = [
    ("oracle",),
    ("sweep", "--param", "deadline", "--values", "3,8"),
    ("sweep", "--param", "discount", "--values", "0,0.05"),
]

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
#: each `gen` option with values in and out of its range; the first three
#: are required
GEN_REQUIRED = {"--seed": st.integers(-2, 50), "--activities": st.integers(-1, 12),
                "--modes": st.integers(-1, 4)}
GEN_OPTIONAL = {"--density": st.one_of(st.floats(-0.5, 1.5), FLOATS),
                "--min-modes": st.integers(-1, 4),
                "--resources": st.integers(-2, 3),
                "--min-span": st.integers(-2, 5), "--max-span": st.integers(-2, 5),
                "--max-normal": st.integers(-2, 12),
                "--payments": st.integers(-1, 13),
                "--budget-slack": st.one_of(st.floats(-1, 3), FLOATS)}


@st.composite
def edited_instance(draw):
    base, chromosome = draw(st.sampled_from(BASES))
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        # walk down from a top-level key, one random child at a time;
        # "activities" holds most of the document, so about half the walks
        # start there
        keys = sorted(data)
        if "activities" in data:
            keys += ["activities"] * len(keys)
        parent, key = data, draw(st.sampled_from(keys))
        while (isinstance(parent[key], (dict, list)) and parent[key]
               and draw(st.booleans())):
            parent = parent[key]
            key = draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                       else range(len(parent))))
        kind = draw(st.sampled_from(["set", "delete", "append", "truncate",
                                     "nudge"]))
        if kind == "delete":
            del parent[key]
        elif type(parent[key]) in (int, float) and kind == "nudge":
            # a small step often keeps the file valid, so the runs get
            # past loading
            parent[key] += draw(st.integers(-2, 2))
        elif isinstance(parent[key], list) and kind == "append":
            parent[key].append(draw(VALUES))
        elif isinstance(parent[key], list) and kind == "truncate":
            del parent[key][draw(st.integers(0, len(parent[key]))):]
        else:
            parent[key] = draw(VALUES)
    return data, chromosome


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=edited_instance(), solve_seed=SEEDS, tune_seed=SEEDS)
@example(case=({**TOY4, "activities": []}, BASES[0][1]), solve_seed=1,
         tune_seed=1)
@example(case=BASES[0], solve_seed=-1, tune_seed=3)
@example(case=BASES[1], solve_seed=2, tune_seed=-1)
def test_edited_instance_exits_cleanly(tmp_path, case, solve_seed, tune_seed):
    data, chromosome = case
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    levels = tmp_path / "levels.json"
    levels.write_text(LEVELS)
    given_instance = ["--instance", str(inst)]
    out = [*given_instance, "--out", str(tmp_path / "out")]
    for command in COMMANDS:
        assert_clean_exit([*command, *out], data)
    assert_clean_exit(["eval", "--chromosome", chromosome, *out], data)
    # "--seed=-1": a separate "-1" could read as an option name
    assert_clean_exit(["solve", "--algo", "moga", f"--seed={solve_seed}",
                       "--pop", "4", "--iterations", "2", *out], data)
    assert_clean_exit(["tune", f"--seed={tune_seed}", "--levels", str(levels),
                       "--threads", "1", *given_instance,
                       "--out-dir", str(tmp_path / "tune")], data)


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(options=st.fixed_dictionaries(GEN_REQUIRED, optional=GEN_OPTIONAL))
@example(options={"--seed": 1, "--activities": 6, "--modes": 2,
                  "--max-normal": 10000})
@example(options={"--seed": 1, "--activities": 6, "--modes": 2,
                  "--resources": -1})
def test_generator_options_exit_cleanly(tmp_path, options):
    # "--density=-inf": a separate "-inf" would read as an option name
    argv = [f"{option}={value}" for option, value in options.items()]
    assert_clean_exit(["gen", *argv, "--out", str(tmp_path / "out")], options)


def assert_clean_exit(argv, context):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, context)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), \
            (argv, context, err.getvalue())
        assert "Traceback" not in err.getvalue()
