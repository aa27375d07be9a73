"""Cross-commit reproducibility pins.

Each case fixes a solver or oracle run by its inputs and pins two outputs
that must not change unless a change means to alter an RNG stream or the
evaluation count: `FrontReport.evaluations` and the sha256 of the front
CSV bytes.
A change that moves these values records why in CHANGES.md and updates
the pins in the same commit.  Test ids name a case by its inputs only, so
a re-pin changes values, not test names.
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
    ("moga", "toy4", dict(seed=3, pop_size=10, iterations=20), {}, 895,
     "0137272f0089d736a7463548f7e5ecb13ae58dc1d6610534189ef024606116af"),
    ("moga", "toy4", dict(seed=3, pop_size=10, iterations=20),
     {"use_archive": False}, 895,
     "0137272f0089d736a7463548f7e5ecb13ae58dc1d6610534189ef024606116af"),
    ("nsga2", "toy4", dict(seed=3, pop_size=10, iterations=20), {}, 349,
     "af71a751faf1f0da5358fd1f3544e4c10cc623c09786229b17b9ee02937c5faf"),
    ("nsga2", "toy4", dict(seed=3, pop_size=10, iterations=20),
     {"use_archive": True}, 349,
     "af71a751faf1f0da5358fd1f3544e4c10cc623c09786229b17b9ee02937c5faf"),
    ("moga", "gen", dict(seed=1, pop_size=12, iterations=15), {}, 1886,
     "d5b722f50d87165fe267eefd18548c8550312dd499040646611e6e6bed145abd"),
    ("moga", "gen", dict(seed=2, pop_size=12, iterations=LONG),
     {"max_evaluations": 4000}, 4031,
     "35e201ffa570fdc81774b808e439a3fe964481bf1fcd1e873f5a4ea6816f6267"),
    ("nsga2", "gen", dict(seed=1, pop_size=12, iterations=15), {}, 390,
     "4d939b36404ad0d8861074c9a8230023de486ac47584dceba519e02ded8faaa3"),
    ("nsga2", "gen", dict(seed=2, pop_size=12, iterations=LONG),
     {"max_evaluations": 4000}, 4014,
     "124c67163f90e0334accbe5ec85afe14c830836544c11a4dc047b263af55b780"),
    ("moga", "gen", dict(seed=4, pop_size=10, iterations=12, crossover_rate=0.5,
                         mutation_rate=0.3, hill_climb_rate=0.3,
                         elitism_rate=0.2), {}, 626,
     "abfec7969316603e2db6f17c2a5aee55cd75c8715bd5d1a54ebd33b77241818f"),
    ("nsga2", "gen", dict(seed=4, pop_size=10, iterations=12, crossover_rate=0.3,
                          mutation_rate=0.9), {}, 331,
     "9883299a157f201a6a5dd13680f1b3adfcc392d9d9bf0b9376a602dd7d69eb1b"),
    ("nsga2", "tight", dict(seed=50, pop_size=12, iterations=LONG),
     {"max_evaluations": 3000}, 3000,
     "39e1068a3e4f3da414d122564285fcd692f38b9288bf682c34aa0714f5f4d1be"),
    ("moga", "tight", dict(seed=50, pop_size=12, iterations=6), {}, 678,
     "fb0afbce4de70dacd03397ad144fc58c18b238dd8be0d36adc9cb104514db86d"),
    ("oracle", "toy4", {}, {}, 15,
     "bba4c68ef773a082e64b6e962d1186e7f2e0f9b7b219065ce799e0c8c8b521fe"),
    ("oracle", "toy4", {}, {"literal_eq15": True}, 15,
     "bba4c68ef773a082e64b6e962d1186e7f2e0f9b7b219065ce799e0c8c8b521fe"),
    ("oracle", "tight6", {}, {}, 4096,
     "4cafd024b9b6e1742dc7bf7b10c54ebb0071e59a4f37f457cd72f3f5216af47e"),
    ("oracle", "tight6", {}, {"literal_eq15": True}, 4096,
     "2baad4c57879df99fab2c8214917135ac08ca98b8615676d05fbaae8b204e2b0"),
    ("moga", "tight6", dict(seed=5, pop_size=10, iterations=10),
     {"literal_eq15": True}, 2410,
     "0cfa20739a14c22ced3f618b69228f599eae22bbef83b3befd8232c065acc5ec"),
    ("moga", "relabelled", dict(seed=7, pop_size=10, iterations=12), {}, 1660,
     "d1396edfdef0f4ac18f3fa33015d215dcc05cfb7d52994b39ee4484f254098f7"),
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


def case_label(case) -> str:
    """The id of a CASES entry: solver, instance and options, each option
    by the initials of its keyword (pop_size=10 -> ps=10)."""
    algo, name, params, kwargs = case[:4]
    return "-".join([algo, name, *(
        "".join(word[0] for word in key.split("_")) + f"={value}"
        for key, value in {**params, **kwargs}.items())])


@pytest.mark.parametrize("algo,name,params,kwargs,evaluations,digest", CASES,
                         ids=[case_label(case) for case in CASES])
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
        == "95e2d610915c9519fca6c895a91123774bc30aa21bda98b9a35d6668ea9489f6"


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
        "a5d17004295aefb759ed56920ddf05239dea00eff2c547e29a346a348fedc96e",
    "moga.csv.meta.json":
        "c748fdb02120bd17495cc9c5a49bd9576b39e4fdb8678686dfa7a2e176176e74",
    "nsga2.csv.meta.json":
        "7f8dac41043e3544b4c444051160d7770df29f8b005b23c7853671173908c8de",
    "oracle.csv.meta.json":
        "611fc5f8b438b1732daaedeaf500f685caf35965e254fa699c1854b45d6868e9",
    "metrics.json":
        "2d86f60aa69824561a6b5ebf67d5957da2deb51597402e8e2257a9e8a4df68e2",
    "metrics.json.meta.json":
        "6dd513107a9c53c934034cab6562f26dc578bcfc71c4e79e993ea9db934ad430",
    "rows.csv":
        "9bac2a5f3212eda89efc0433c4464563ee7f474b913314c81d7af4dca341fa05",
    "tune/tuning.json":
        "007637d090fa7996b25b708a7a9aa1fc366ec0cf821cb9d2837e36b1390480e4",
    "tune/tuning.json.meta.json":
        "217e02e9d29cef99ef7d29fca853bea19a7246a9d868ffa813bc6a3a2e93328c",
    "tune/means.csv":
        "7e24da67ae8f11b762290fcacd4ac2b2a376758875a5b2f0f905c6a792afb4cf",
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


@pytest.mark.parametrize("name,digest", OUTPUT_PINS.items(),
                         ids=list(OUTPUT_PINS))
def test_cli_output_is_pinned(cli_outputs, name, digest):
    text = (cli_outputs / name).read_text(encoding="utf-8")
    if name.endswith(".meta.json"):
        data = json.loads(text)
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        del data["command"]
        data.pop("wall_ms", None)
        text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
