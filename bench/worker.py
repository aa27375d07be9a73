"""One measuring process of the benchmark; bench/run.py starts it.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Run from the root of a checkout: crashplan is imported from ./src, never
from an installed copy.  The process imports crashplan, builds the
workload's instances, prints "ready" (the end of set-up), then solves
the whole workload in timed passes until S seconds have been measured,
checking every output outside the timed region.  With --trace 1 it then
makes one more pass with the layer trace installed.  The last line of
stdout is a JSON object with the operation counts and the metrics; the
lines before it are a report.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

REFERENCE = Path(__file__).resolve().parent / "oracle_reference.json"


def import_crashplan():
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    crashplan = importlib.import_module("crashplan")
    if Path(crashplan.__file__).resolve().parent.parent != src:
        raise ImportError(f"crashplan imported from {crashplan.__file__}, "
                          f"not from {src}")
    return crashplan


def run_pass(ops):
    """Solve every operation once; an exception is kept as the result."""
    results = []
    t0 = perf_counter()
    for op in ops:
        try:
            results.append(workloads.solve(op))
        except Exception as exc:  # a failed operation is a measured outcome
            results.append(exc)
    return results, perf_counter() - t0


def logical_evaluations(op, report) -> int:
    """The solvers count their own evaluations; the oracle logically
    evaluates its whole search space, however much of it it prunes."""
    if op.kind == "oracle":
        return workloads.search_space_size(op.inst)
    return report.evaluations


def check_first_pass(ops, results, seed):
    """Problems per operation, from the checks in checks.py."""
    expected = None
    if seed == 0 and ops[0].kind == "oracle":
        expected = json.loads(REFERENCE.read_text())["points"]
    problems = []
    for k, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, Exception):
            problems.append([f"raised {type(res).__name__}: {res}"])
            continue
        found = checks.check_front(op.inst, res)
        if op.kind == "oracle":
            found += checks.check_coverage(op.inst, res, seed * 1000 + k)
            if expected is not None:
                found += checks.check_reference(res, expected[op.label])
        problems.append(found)
    return problems


def untraced(ops, seconds, seed):
    walls, evals, digests = [], [], None
    attempted = failed = 0
    problems = None
    start = perf_counter()
    while True:
        results, wall = run_pass(ops)
        walls.append(wall)
        solved = [(op, r) for op, r in zip(ops, results)
                  if not isinstance(r, Exception)]
        evals.append(sum(logical_evaluations(op, r) for op, r in solved))
        if problems is None:
            problems = check_first_pass(ops, results, seed)
            digests = [None if p else checks.front_digest(r)
                       for p, r in zip(problems, results)]
            hv = sum(checks.hypervolume(op.inst, [tuple(o) for o in r.front.objectives()])
                     for op, r in solved)
            for op, p in zip(ops, problems):
                for line in p:
                    print(f"FAILED {op.label}: {line}", file=sys.stderr)
        attempted += len(ops)
        for k, res in enumerate(results):
            if (digests[k] is None or isinstance(res, Exception)
                    or checks.front_digest(res) != digests[k]):
                failed += 1
        if perf_counter() - start >= seconds:
            break
    points = sum(workloads.search_space_size(op.inst) for op in ops)
    summary = hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()
    print(f"passes={len(walls)} wall_s={[round(w, 3) for w in walls]} "
          f"evaluations_per_pass={evals[0]} front_csv_sha256={summary}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "evals_per_s": (statistics.median(e / w for e, w in zip(evals, walls)), "1/s"),
        "points_per_s": (statistics.median(points / w for w in walls), "1/s"),
        "front_hv": (hv, "hv"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failed, walls


def ratio(num, den) -> float:
    return num / den if den else 0.0


def traced(ops, untraced_wall, seed):
    tracer = tracing.Tracer()
    per_op = []
    evaluations = 0

    def snapshot():
        return (tracer.calls["evaluate.evaluate"], tracer.counts["evaluate.feasible"],
                tracer.calls["moga.random_chromosome"], tracer.calls["moga.draw_feasible"])

    def body():
        nonlocal evaluations
        for op in ops:
            before = snapshot()
            try:
                evaluations += workloads.solve(op).evaluations
            except Exception:
                traceback.print_exc()
            per_op.append((op, [a - b for a, b in zip(snapshot(), before)],
                           tracer.end_op()))

    tracer.install()
    try:
        _, wall = tracer.run_root(body)
    finally:
        tracer.uninstall()

    c, n = tracer.calls, tracer.counts
    m = {}
    for name in tracing.SPAN_NAMES:
        m[f"{name}.calls"] = (c[name], "count")
        m[f"{name}.self_s"] = (tracer.self_time(name), "s")
        m[f"{name}.total_s"] = (tracer.total[name], "s")
    evals = c["evaluate.evaluate"]
    control = c["moga.control_offspring"]
    oracle_ops = [(d, op) for op, d, _ in per_op if op.kind == "oracle"]
    oracle_evaluated = sum(d[0] for d, _ in oracle_ops)
    m.update({
        "evaluate.evaluate.us_per_call": (ratio(tracer.total["evaluate.evaluate"] * 1e6, evals), "us"),
        "evaluate.distinct_ratio": (ratio(sum(o["distinct"] for *_, o in per_op), evals), "ratio"),
        "evaluate.feasible_ratio": (ratio(n["evaluate.feasible"], evals), "ratio"),
        "moga.hill_climb.improved_ratio": (ratio(n["moga.hill_climb.improved"], c["moga.hill_climb"]), "ratio"),
        "moga.control_offspring.accepted_ratio": (ratio(n["moga.control_offspring.accepted"], control), "ratio"),
        "moga.control_offspring.repaired_ratio": (ratio(n["moga.control_offspring.repaired"], control), "ratio"),
        "moga.control_offspring.redrawn_ratio": (ratio(n["moga.control_offspring.redrawn"], control), "ratio"),
        "moga.draws_per_feasible": (ratio(c["moga.random_chromosome"], c["moga.draw_feasible"]), "ratio"),
        "pareto.archive_add.accept_ratio": (ratio(n["pareto.archive_add.accepted"], c["pareto.archive_add"]), "ratio"),
        "pareto.archive_size": (sum(o["archive_size"] for *_, o in per_op), "count"),
        "pareto.contributors": (sum(o["contributors"] for *_, o in per_op), "count"),
        "pareto.nondominated_sort.mean_n": (ratio(n["pareto.nondominated_sort.n"], c["pareto.nondominated_sort"]), "count"),
        "oracle.points": (sum(workloads.search_space_size(op.inst) for _, op in oracle_ops), "count"),
        "oracle.evaluated": (oracle_evaluated, "count"),
        "oracle.feasible_ratio": (ratio(sum(d[1] for d, _ in oracle_ops), oracle_evaluated), "ratio"),
        "report.evaluations": (evaluations, "count"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall / untraced_wall - 1, "ratio"),
        "trace.unattributed_s": (tracer.self_time(tracing.ROOT), "s"),
    })
    print_robustness(ops[0].kind, per_op, seed)
    return m


def print_robustness(kind, per_op, seed):
    """The share that makes each workload exercise its mechanism, so a
    claim's second seed can be judged."""
    if kind == "moga":
        calls = sum(d[0] for _, d, _ in per_op)
        share = ratio(sum(o["distinct"] for *_, o in per_op), calls)
        text = f"evaluate.distinct_ratio={share:.4f}"
    elif kind == "nsga2":
        worst = max(per_op, key=lambda r: ratio(r[1][2], r[1][3]))
        text = (f"max moga.draws_per_feasible={ratio(worst[1][2], worst[1][3]):.1f}"
                f" on {worst[0].label}")
    else:
        text = "per-instance distinct_ratio=" + ",".join(
            f"{ratio(o['distinct'], d[0]):.3f}" for _, d, o in per_op)
    print(f"seed-robustness seed={seed}: {text}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    crashplan = import_crashplan()
    ops = workloads.build_ops(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy
    print(f"provenance: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} crashplan={crashplan.__version__} "
          f"machine={platform.machine()}")
    metrics, attempted, failed, walls = untraced(ops, args.seconds, args.seed)
    if args.trace:
        metrics = traced(ops, statistics.median(walls), args.seed)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
