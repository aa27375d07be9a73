"""Cross-commit reproducibility pins.

Each case fixes a solver or oracle run by its inputs and pins two outputs
that must not change unless a change means to alter an RNG stream or the
evaluation count: `FrontReport.evaluations` and the sha256 of the front
CSV bytes.
A change that moves these values records why in CHANGES.md and updates
the pins in the same commit.
"""

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from crashplan.cli import main
from crashplan.instance import (compute_time_windows, generate_instance,
                                instance_hash)
from crashplan.moga import MogaParams, run_moga
from crashplan.nsga2 import Nsga2Params, run_nsga2
from crashplan.oracle import true_pareto_front
from crashplan.reporting import front_to_csv
from crashplan.tuning import DEFAULT_LEVELS, l25_design

from conftest import reverse_real_ids

LONG = 10**6  # iterations for runs that stop on max_evaluations

# (solver, instance, params, run keywords, evaluations, front CSV sha256)
CASES = [
    ("moga", "toy4", dict(seed=3, pop_size=10, iterations=20), {}, 879,
     "9926c0212f1d83ddeb37da926473bf53fbf3d9e1762bf0a6469185e47e6f97d8"),
    ("moga", "toy4", dict(seed=3, pop_size=10, iterations=20),
     {"use_archive": False}, 879,
     "d411627b8d2cdeb09cbce3d5ec875babe264758f567e35e34f7e13c47ab8cd28"),
    ("nsga2", "toy4", dict(seed=3, pop_size=10, iterations=20), {}, 273,
     "b655d6e03e516c9fa4256b05e566613a0d67e2e0ca28b3b5687d0d30d58efa08"),
    ("nsga2", "toy4", dict(seed=3, pop_size=10, iterations=20),
     {"use_archive": True}, 273,
     "bc941b16970525faebce72818df3421e2f82a20fe59bb7fca1bc03a049d7f388"),
    ("moga", "gen", dict(seed=1, pop_size=12, iterations=15), {}, 2130,
     "10604880b9d5419d497003b2f10dd0576b8e5c2493c73329a6ceedc253b1903b"),
    ("moga", "gen", dict(seed=2, pop_size=12, iterations=LONG),
     {"max_evaluations": 4000}, 4108,
     "fecec9aff9eb8f5bc2da474fb825d4ef73d20d6b87ca203bc874487a90eb3984"),
    ("nsga2", "gen", dict(seed=1, pop_size=12, iterations=15), {}, 402,
     "87a119d54a428db3b5a8c9340ae6d56d1af7b618df3e11cc197deee1c71b8a2b"),
    ("nsga2", "gen", dict(seed=2, pop_size=12, iterations=LONG),
     {"max_evaluations": 4000}, 4005,
     "63a5151db4f485d6b391adc12e16062a229f60464ae7a1948323eba3c91545ab"),
    ("moga", "gen", dict(seed=4, pop_size=10, iterations=12, crossover_rate=0.5,
                         mutation_rate=0.3, hill_climb_rate=0.3,
                         elitism_rate=0.2), {}, 522,
     "07a84e4e23997692f487be5f5f3ff103ab5ceff6338ea34df6f3a02b5bd28744"),
    ("nsga2", "gen", dict(seed=4, pop_size=10, iterations=12, crossover_rate=0.3,
                          mutation_rate=0.9), {}, 265,
     "2440c01933e452c153540d870044a290c76708613ba86a59f3bfc938fb2c6a65"),
    ("nsga2", "tight", dict(seed=50, pop_size=12, iterations=LONG),
     {"max_evaluations": 3000}, 3011,
     "6e13b2a5be717e0feccbdbf64b0551fcd738f5dbaf5040d9bb0435c0a29be982"),
    ("moga", "tight", dict(seed=50, pop_size=12, iterations=6), {}, 737,
     "a11ae8c89287346bb416a9f766e0d1a1175f6787900d397932c537494238fd51"),
    ("oracle", "toy4", {}, {}, 15,
     "bba4c68ef773a082e64b6e962d1186e7f2e0f9b7b219065ce799e0c8c8b521fe"),
    ("oracle", "toy4", {}, {"literal_eq15": True}, 15,
     "bba4c68ef773a082e64b6e962d1186e7f2e0f9b7b219065ce799e0c8c8b521fe"),
    ("oracle", "tight6", {}, {}, 4096,
     "4cafd024b9b6e1742dc7bf7b10c54ebb0071e59a4f37f457cd72f3f5216af47e"),
    ("oracle", "tight6", {}, {"literal_eq15": True}, 4096,
     "2baad4c57879df99fab2c8214917135ac08ca98b8615676d05fbaae8b204e2b0"),
    ("moga", "tight6", dict(seed=5, pop_size=10, iterations=10),
     {"literal_eq15": True}, 2443,
     "7921317e41559247238d46148b0e27045caefc9fa170d96b8e78e7bb1b59bf59"),
    ("moga", "relabelled", dict(seed=7, pop_size=10, iterations=12), {}, 1878,
     "1907763c0328ddfea834c1145ceca262b68d478c43371df086b310ed696ef725"),
    ("oracle", "rev6", {}, {}, 4096,
     "9e83b5cd696e4e7f99cb7a0d737752ea72dcc7d0471dd52180e821e156c3fd52"),
    ("oracle", "cut6", {}, {}, 4096,
     "61655c7770e472d59a707262aa2dd495d0da3603bbe012190b605f59a1e436d9"),
    ("oracle", "crash6", {}, {}, 4096,
     "4b5915bf9dd3ed0c286d38c0041c00d501e519c7916d9c8cb33a8daf31e70069"),
]


def enumerable(seed, **kwargs):
    """The criterion-1 family: n = 6, two modes, duration span exactly 3."""
    return generate_instance(seed, 6, 2, 0.5, min_modes=2, min_normal=4,
                             min_span=3, max_span=3, budget_slack=2.0,
                             **kwargs)


def below_first_modes(inst):
    """Each capacity one unit below the all-first-mode demand."""
    need = [0] * len(inst.resource_capacity)
    for act in inst.activities:
        demands = dict(act.modes[0].demands)
        for r, (name, _) in enumerate(inst.resource_capacity):
            need[r] += demands.get(name, 0)
    return replace(inst, resource_capacity=tuple(
        (name, units - 1)
        for (name, _), units in zip(inst.resource_capacity, need)))


def crashed_deadline(inst, slack):
    """The deadline `slack` periods above the fully crashed makespan."""
    crashed = compute_time_windows(inst).earliest_finish[inst.n]
    return replace(inst, deadline=crashed + slack)


@pytest.fixture(scope="module")
def instances(toy4):
    return {"toy4": toy4,
            "gen": generate_instance(2, 8, 3, 0.4, budget_slack=0.5),
            "tight": generate_instance(3000, 12, 2, 0.3, budget_slack=0.0),
            # the criterion-1 family's shape without its budget slack, so
            # that the literal discounting rule changes the front (6 -> 12)
            "tight6": generate_instance(1, 6, 2, 0.5, min_modes=2, min_normal=4,
                                        min_span=3, max_span=3,
                                        budget_slack=0.0),
            # ids not in topological order, so the schedule walks and the
            # descendant lists cannot lean on id order
            "relabelled": reverse_real_ids(
                generate_instance(6, 10, 3, 0.4, budget_slack=0.3)),
            # oracle cases for its pruned walk: ids out of topological
            # order, capacities that cut deep into the tree, and a deadline
            # two periods above the fully crashed makespan
            "rev6": reverse_real_ids(enumerable(2)),
            "cut6": below_first_modes(enumerable(5, n_resources=2)),
            "crash6": crashed_deadline(enumerable(10), 2)}


@pytest.mark.parametrize("algo,name,params,kwargs,evaluations,digest", CASES)
def test_run_is_pinned(instances, tmp_path, algo, name, params, kwargs,
                       evaluations, digest):
    if algo == "oracle":
        report = true_pareto_front(instances[name], **kwargs)
    elif algo == "moga":
        report = run_moga(instances[name], MogaParams(**params), **kwargs)
    else:
        report = run_nsga2(instances[name], Nsga2Params(**params), **kwargs)
    out = tmp_path / "front.csv"
    front_to_csv(report, out)
    assert report.evaluations == evaluations
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_params_key_order():
    # tuning.json serialises asdict(params) without sorting its keys
    assert list(asdict(MogaParams(seed=0))) == [
        "seed", "pop_size", "iterations", "crossover_rate", "mutation_rate",
        "hill_climb_rate", "elitism_rate"]
    assert list(asdict(Nsga2Params(seed=0))) == [
        "seed", "pop_size", "iterations", "crossover_rate", "mutation_rate"]


# The generator: every instance's content hash and CPM latest finishes over
# a grid of seeds, sizes and option sets, folded into one digest.

GENERATOR_OPTIONS = [
    dict(max_modes=1, density=0.4),
    dict(max_modes=3, density=0.3, min_modes=2, n_resources=2),
    dict(max_modes=3, density=0.6, min_span=1, max_span=4, max_normal=12),
    dict(max_modes=2, density=0.5, payment_count=3, budget_slack=0.0),
]


def test_generated_instances_are_pinned():
    digest = hashlib.sha256()
    for seed in range(20):
        for n in (3, 12, 40):
            for options in GENERATOR_OPTIONS:
                inst = generate_instance(seed, n, **options)
                latest = compute_time_windows(inst).latest_finish
                digest.update(f"{instance_hash(inst)} "
                              f"{[latest[i] for i in range(1, n + 1)]}\n"
                              .encode())
    assert digest.hexdigest() \
        == "1c426b88e669206095ef6ae886b4374fce0bf18742ace9ed17aad4d85a67de43"


# Analysis outputs: the design of the tuning screen, a deadline sweep and a
# normalized metrics report against the oracle's front, each by the sha256
# of its bytes.

def test_l25_design_is_pinned():
    design = l25_design(DEFAULT_LEVELS, 0)
    text = json.dumps([asdict(p) for p in design])
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "c5a2fb12b0eb659aede7edff27ba92d1675d7190ff72ba13894757f19522f66b"


def test_deadline_sweep_is_pinned(toy4_path, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "deadline", "--values", "3,4,5,8",
                 "--instance", str(toy4_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == "9a4657fb1e219ef2cdc48a3d00b1227112c66fdad0d96e9f42491e45c20f882d"


def test_normalized_metrics_report_is_pinned(toy4_path, tmp_path):
    toy4 = str(toy4_path)
    a, b, ref, out = (str(tmp_path / name)
                      for name in ("a.csv", "b.csv", "ref.csv", "r.json"))
    assert main(["solve", "--algo", "moga", "--instance", toy4, "--seed", "1",
                 "--pop", "2", "--iterations", "0", "--front", "final",
                 "--out", a]) == 0
    assert main(["solve", "--algo", "nsga2", "--instance", toy4, "--seed", "2",
                 "--pop", "3", "--iterations", "0", "--out", b]) == 0
    assert main(["oracle", "--instance", toy4, "--out", ref]) == 0
    assert main(["metrics", "--front-a", a, "--front-b", b, "--reference", ref,
                 "--normalize", "--out", out]) == 0
    with open(out, "rb") as report:
        digest = hashlib.sha256(report.read()).hexdigest()
    assert digest \
        == "1d875e943926dbf71dc0884173d11c734a1a39e4581c266519458e64ec5f2a44"


# Every other CLI output: one run of each command on small inputs, each
# file pinned by the sha256 of its bytes.  A sidecar is first held to its
# layout (sorted keys, two-space indent, final newline), then pinned
# without `command` (it holds the temporary paths) and `wall_ms`.

TUNE_LEVELS = {"elitism_rate": [0.0, 0.05, 0.1, 0.15, 0.2],
               "hill_climb_rate": [0.0, 0.1, 0.2, 0.3, 0.4],
               "mutation_rate": [0.2, 0.3, 0.4, 0.5, 0.6],
               "crossover_rate": [0.4, 0.5, 0.6, 0.7, 0.8],
               "iterations": [1, 2, 2, 3, 3], "pop_size": [4, 5, 6, 7, 8]}

OUTPUT_PINS = {
    "gen.json":
        "3da01bda35fa484b336fd29953ec1cb4c7fb6ae0fcc37f94a64a02fcca5dcb67",
    "gen.json.meta.json":
        "f81905c204f3cb3f8db442e432bd11754ada06af61e92346c922a97df51a48fe",
    "moga.csv":
        "e43b9b4e3315e9813fbce6e5c11668d7537abb13eec0b0bf19869a36b65e52e5",
    "moga.csv.meta.json":
        "1e6407c2070e534912365f4fd6187ac01fb2f7d40e3dd0d7e4460d4813b01142",
    "nsga2.csv.meta.json":
        "2ac4107da51598bf0f48f2bb96c6c03d3142d2b8284d36dddbfefd4590d51238",
    "oracle.csv.meta.json":
        "611fc5f8b438b1732daaedeaf500f685caf35965e254fa699c1854b45d6868e9",
    "metrics.json":
        "226d464f68167f75e30209faf6524f1e369937bd6797373ab20b06a8bf309df2",
    "metrics.json.meta.json":
        "6dd513107a9c53c934034cab6562f26dc578bcfc71c4e79e993ea9db934ad430",
    "rows.csv":
        "d687419541adbfa8b16b5fcd3e6b6e528648cd0df268b1753609a9f4d6474869",
    "tune/tuning.json":
        "7f30f0437b9d57ce5d989c412a8d932847119268b8a50f6e692fe850732f1771",
    "tune/tuning.json.meta.json":
        "217e02e9d29cef99ef7d29fca853bea19a7246a9d868ffa813bc6a3a2e93328c",
    "tune/means.csv":
        "ede634e140f513801b3d9ce77ec924a17196d71736244856e627672658d5758f",
    "deadline.csv.meta.json":
        "6dd513107a9c53c934034cab6562f26dc578bcfc71c4e79e993ea9db934ad430",
    "discount.csv":
        "24445beca640e6e79ad4cfb43d9059c34c4627698b49f9ae33e09c9305cc952a",
    "discount.csv.meta.json":
        "6dd513107a9c53c934034cab6562f26dc578bcfc71c4e79e993ea9db934ad430",
    "weights.json":
        "8ef6feb0b5420727189e038004a6aa675b8c3b522174ea6872dcf03150959519",
    "weights.json.meta.json":
        "a3f4cabb4a71ee2b08c19aba90ebba395ce0aa8b579798810c60c84471e5acb4",
    "patch.json":
        "6121c832ea94cfc7964362a9bc2c474fa193cc44251e5d2958770f074cb86222",
    "eval.json":
        "de1ed182b700b31906171db22ab4c28e45bc00931b5bee575489c96cae5493d6",
    "eval.json.meta.json":
        "6dd513107a9c53c934034cab6562f26dc578bcfc71c4e79e993ea9db934ad430",
}


@pytest.fixture(scope="module")
def cli_outputs(toy4_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    toy4 = str(toy4_path)
    levels = out / "levels.json"
    levels.write_text(json.dumps(TUNE_LEVELS))
    influence = out / "influence.csv"
    influence.write_text("cost,safety,finish\n0,1,2\n1,0,1\n2,1,0\n")
    scores = out / "scores.csv"
    scores.write_text("activity,mode,cost,safety,finish\n"
                      "2,1,80,70,90\n2,2,60,50,80\n3,1,90,85,95\n")
    runs = [
        ["gen", "--seed", "4", "--activities", "6", "--modes", "2",
         "--out", "gen.json"],
        ["solve", "--algo", "moga", "--instance", toy4, "--seed", "1",
         "--pop", "4", "--iterations", "3", "--hill-climb", "0.3",
         "--elitism", "0.5", "--out", "moga.csv"],
        ["solve", "--algo", "nsga2", "--instance", toy4, "--seed", "2",
         "--pop", "3", "--iterations", "0", "--out", "nsga2.csv"],
        ["oracle", "--instance", toy4, "--out", "oracle.csv"],
        ["metrics", "--front-a", "moga.csv", "--front-b", "nsga2.csv",
         "--reference", "oracle.csv", "--labels", "x,y",
         "--csv", "rows.csv", "--out", "metrics.json"],
        ["tune", "--instance", "gen.json", "--seed", "13", "--levels",
         str(levels), "--threads", "1", "--out-dir", str(out / "tune")],
        ["sweep", "--param", "deadline", "--values", "3,8",
         "--instance", toy4, "--out", "deadline.csv"],
        ["sweep", "--param", "discount", "--values", "0,0.05,0.125",
         "--instance", toy4, "--out", "discount.csv"],
        ["danp", "--influence", str(influence), "--scores", str(scores),
         "--out-weights", "weights.json", "--out-patch", "patch.json"],
        ["eval", "--instance", toy4, "--chromosome",
         "1|1|0:2|1|4:3|1|5:4|1|0", "--out", "eval.json"],
    ]
    for argv in runs:
        argv = [str(out / a) if a.endswith((".csv", ".json")) else a
                for a in argv]
        assert main(argv) == 0, argv
    return out


@pytest.mark.parametrize("name,digest", OUTPUT_PINS.items())
def test_cli_output_is_pinned(cli_outputs, name, digest):
    text = (cli_outputs / name).read_text(encoding="utf-8")
    if name.endswith(".meta.json"):
        data = json.loads(text)
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        del data["command"]
        data.pop("wall_ms", None)
        text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
