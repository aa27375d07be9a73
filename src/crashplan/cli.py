"""Command-line front-end.

Subcommands: gen, solve, oracle, metrics, tune, sweep, danp, eval.
Exit codes: 0 success, 1 domain errors, 2 usage or input-parse errors.
Every run writes a `<out>.meta.json` sidecar with the command line, seed,
instance hash, and tool version needed to reproduce the output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import danp as danp_mod
from .errors import BadParams, CrashplanError, ParseError
from .evaluate import (baseline_chromosome, compute_payments, decode_schedule,
                       evaluate, parse_solution)
from .instance import (generate_instance, instance_hash, load_instance,
                       save_instance, validate_instance)
from .metrics import CSV_HEADER, best_solutions, compare_report
from .moga import MogaParams, run_moga
from .nsga2 import Nsga2Params, run_nsga2
from .oracle import DEFAULT_MAX_POINTS, true_pareto_front
from .reporting import (fmt_float, front_from_csv, front_to_csv,
                        numbered_lines, write_json, write_lines, write_sidecar)
from .tuning import tune, write_tuning_files

#: each solver's parameter class, entry point and default --front
_SOLVERS = {"moga": (MogaParams, run_moga, "archive"),
            "nsga2": (Nsga2Params, run_nsga2, "final")}
#: the `solve` options that set a parameter field: (flag, field, type); a
#: flag applies to a solver whose parameter class has its field
_SOLVE_FLAGS = (("--pop", "pop_size", int), ("--iterations", "iterations", int),
                ("--crossover", "crossover_rate", float),
                ("--mutation", "mutation_rate", float),
                ("--hill-climb", "hill_climb_rate", float),
                ("--elitism", "elitism_rate", float))


def _default_threads() -> int:
    env = os.environ.get("CRASHPLAN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=_default_threads(),
                   help="worker parallelism cap (outputs are identical for any value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashplan",
        description="Multi-mode time-cost tradeoff scheduling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--activities", type=int, required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--min-modes", type=int, default=1)
    p.add_argument("--resources", type=int, default=1)
    p.add_argument("--min-span", type=int, default=0)
    p.add_argument("--max-span", type=int, default=3)
    p.add_argument("--max-normal", type=int, default=8)
    p.add_argument("--payments", type=int, default=None)
    p.add_argument("--budget-slack", type=float, default=0.1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="run a metaheuristic solver")
    p.add_argument("--algo", choices=list(_SOLVERS), required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, required=True)
    for flag, name, kind in _SOLVE_FLAGS:
        p.add_argument(flag, dest=name, type=kind, default=None)
    p.add_argument("--max-evaluations", type=int, default=None)
    p.add_argument("--front", choices=["archive", "final"], default=None,
                   help="report the external archive or the final population front"
                        " (default: archive for moga, final for nsga2)")
    p.add_argument("--literal-eq15", action="store_true")
    p.add_argument("--out", required=True)
    _add_threads(p)

    p = sub.add_parser("oracle", help="exact front by exhaustive enumeration")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS)
    p.add_argument("--literal-eq15", action="store_true")
    p.add_argument("--out", required=True)
    _add_threads(p)

    p = sub.add_parser("metrics", help="compare two front CSV files")
    p.add_argument("--front-a", required=True)
    p.add_argument("--front-b", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--labels", default=None, help="comma-separated pair")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None,
                   help="also write one flat spreadsheet row per front")

    p = sub.add_parser("tune", help="L25 Taguchi screening of solver parameters")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--levels", default=None,
                   help="JSON file mapping factor name to its 5 level values")
    p.add_argument("--out-dir", required=True)
    _add_threads(p)

    p = sub.add_parser("sweep", help="deadline or discount-rate sensitivity")
    p.add_argument("--param", choices=["deadline", "discount"], required=True)
    p.add_argument("--values", required=True, help="comma-separated grid")
    p.add_argument("--instance", required=True)
    p.add_argument("--chromosome", default=None,
                   help="solution string for discount sweeps (default: baseline)")
    p.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("danp", help="criterion weights and quality scores")
    p.add_argument("--influence", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-patch", required=True)

    p = sub.add_parser("eval", help="inspect a single chromosome")
    p.add_argument("--instance", required=True)
    p.add_argument("--chromosome", required=True)
    p.add_argument("--literal-eq15", action="store_true")
    p.add_argument("--out", required=True)
    return parser


def _sidecar(args_out: str, argv: list[str], **payload) -> None:
    write_sidecar(args_out, {"command": ["crashplan"] + argv, **payload})


def _cmd_gen(args, argv) -> int:
    inst = generate_instance(
        args.seed, args.activities, args.modes, args.density,
        min_modes=args.min_modes, n_resources=args.resources,
        min_span=args.min_span, max_span=args.max_span,
        max_normal=args.max_normal, payment_count=args.payments,
        budget_slack=args.budget_slack)
    save_instance(inst, args.out)
    _sidecar(args.out, argv, seed=args.seed, instance_hash=instance_hash(inst))
    return 0


def _cmd_solve(args, argv) -> int:
    params_class, run, default_front = _SOLVERS[args.algo]
    overrides = {name: getattr(args, name) for _, name, _ in _SOLVE_FLAGS
                 if getattr(args, name) is not None}
    taken = {f.name for f in fields(params_class)}
    for flag, name, _ in _SOLVE_FLAGS:
        if name in overrides and name not in taken:
            raise ParseError(f"{flag} does not apply to --algo {args.algo}")
    inst = load_instance(args.instance)
    params = params_class(seed=args.seed, **overrides)
    report = run(inst, params,
                 use_archive=(args.front or default_front) == "archive",
                 max_evaluations=args.max_evaluations,
                 literal_eq15=args.literal_eq15)
    front_to_csv(report, args.out)
    _sidecar(args.out, argv, seed=args.seed, instance_hash=report.instance_hash,
             algorithm=report.algorithm, params=report.params,
             evaluations=report.evaluations, wall_ms=report.wall_ms)
    return 0


def _cmd_oracle(args, argv) -> int:
    inst = load_instance(args.instance)
    report = true_pareto_front(inst, max_points=args.max_points,
                               literal_eq15=args.literal_eq15)
    front_to_csv(report, args.out)
    _sidecar(args.out, argv, seed=None, instance_hash=report.instance_hash,
             algorithm="oracle", params=report.params,
             evaluations=report.evaluations, wall_ms=report.wall_ms)
    return 0


def _cmd_metrics(args, argv) -> int:
    front_a, meta_a = front_from_csv(args.front_a)
    front_b, meta_b = front_from_csv(args.front_b)
    reference = None
    if args.reference:
        reference, _ = front_from_csv(args.reference)
    if args.labels:
        labels = tuple(args.labels.split(","))
        if len(labels) != 2 or not all(label.strip() for label in labels):
            raise ParseError("--labels needs two non-empty comma-separated "
                             f"labels, got {args.labels!r}")
    else:
        labels = (meta_a.get("algorithm", "a"), meta_b.get("algorithm", "b"))
    report = compare_report(front_a, front_b, reference, labels=labels,
                            normalize=args.normalize)
    write_json(args.out, report.to_dict())
    if args.csv:
        write_lines(args.csv, [CSV_HEADER, report.front_a.csv_row(),
                               report.front_b.csv_row()])
    _sidecar(args.out, argv, seed=None,
             instance_hash=meta_a.get("instance_hash"))
    return 0


def _parse_grid(values: str, kind) -> list:
    try:
        return [kind(raw) for raw in values.split(",")]
    except ValueError as exc:
        raise ParseError(f"--values: {exc}") from None


def _cmd_tune(args, argv) -> int:
    inst = load_instance(args.instance)
    levels = None
    if args.levels:
        try:
            levels = json.loads(Path(args.levels).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.levels}: bad JSON ({exc})") from exc
    report = tune(inst, levels, args.seed, threads=args.threads)
    json_path, _ = write_tuning_files(report, args.out_dir)
    _sidecar(str(json_path), argv, seed=args.seed,
             instance_hash=instance_hash(inst))
    return 0


def _sweep_variant(inst, field: str, value):
    """inst with one field replaced, held to the same rules as a loaded file."""
    variant = replace(inst, **{field: value})
    violations = validate_instance(variant)
    if violations:
        raise ParseError(f"--values {value}: {violations[0]}")
    return variant


def _cmd_sweep(args, argv) -> int:
    inst = load_instance(args.instance)
    lines = []
    if args.param == "deadline":
        lines.append("deadline,best_npv,best_time,best_productivity,front_size")
        for deadline in _parse_grid(args.values, int):
            variant = _sweep_variant(inst, "deadline", deadline)
            front = true_pareto_front(variant, max_points=args.max_points).front
            npv, makespan, prod = best_solutions(front)
            lines.append(f"{deadline},{fmt_float(npv)},{makespan},"
                         f"{fmt_float(prod)},{len(front)}")
    else:
        chrom = (parse_solution(args.chromosome) if args.chromosome
                 else baseline_chromosome(inst))
        lines.append("discount_rate,npv_cost,makespan,productivity,valid_number")
        for rate in _parse_grid(args.values, float):
            variant = _sweep_variant(inst, "interest_rate", rate)
            obj, rep = evaluate(variant, chrom)
            lines.append(f"{fmt_float(rate)},{fmt_float(obj.npv_cost)},"
                         f"{obj.makespan},{fmt_float(obj.productivity)},"
                         f"{rep.valid_number}")
    write_lines(args.out, lines)
    _sidecar(args.out, argv, seed=None, instance_hash=instance_hash(inst))
    return 0


def _danp_table(path: str, what: str, ints: int = 0):
    """Yield a DANP input table's header cells, then each row's numbers (the
    first `ints` whole, the rest floats); a row is read only when the caller
    asks for it, so the caller checks the header first."""
    rows = numbered_lines(path)
    if not rows:
        raise ParseError(f"{what} CSV is empty")
    header = [cell.strip() for cell in rows[0][1].split(",")]
    yield header
    for lineno, line in rows[1:]:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} columns")
        try:
            numbers = [int(x) if k < ints else float(x)
                       for k, x in enumerate(cells)]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad number ({exc})") from exc
        yield numbers


def _read_influence_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    table = _danp_table(path, "influence")
    criteria = tuple(next(table))
    matrix = list(table)
    if len(matrix) != len(criteria):
        raise ParseError(f"need {len(criteria)} matrix rows, got {len(matrix)}")
    return criteria, np.array(matrix)


def _read_scores_csv(path: str, criteria: tuple[str, ...]) -> danp_mod.CriterionScores:
    table = _danp_table(path, "scores", ints=2)
    header = next(table)
    if header[:2] != ["activity", "mode"]:
        raise ParseError("scores CSV must start with activity,mode columns")
    names = tuple(header[2:])
    if set(names) != set(criteria):
        raise ParseError("scores CSV criteria must match the influence matrix")
    entries = {(row[0], row[1]): dict(zip(names, row[2:])) for row in table}
    return danp_mod.CriterionScores(criteria=names, entries=entries)


def _cmd_danp(args, argv) -> int:
    criteria, influence = _read_influence_csv(args.influence)
    scores = _read_scores_csv(args.scores, criteria)
    total = danp_mod.dematel_total(influence)
    weights = danp_mod.danp_weights(total)
    quality = danp_mod.quality_scores(weights, scores, criteria)
    write_json(args.out_weights, {"criteria": list(criteria),
                                  "weights": [float(w) for w in weights]})
    write_json(args.out_patch, danp_mod.quality_patch(quality))
    _sidecar(args.out_weights, argv, seed=None, instance_hash=None)
    return 0


def _cmd_eval(args, argv) -> int:
    inst = load_instance(args.instance)
    chrom = parse_solution(args.chromosome)
    sched = decode_schedule(inst, chrom)
    plan = compute_payments(inst, sched)
    obj, rep = evaluate(inst, chrom, literal_eq15=args.literal_eq15)
    payload = {
        "objectives": obj._asdict(),
        "feasibility": {**rep._asdict(), "valid_number": rep.valid_number},
        "schedule": {"start": list(sched.start), "finish": list(sched.finish)},
        "payments": {"prepayment": plan.prepayment,
                     "events": [e._asdict() for e in plan.events]},
    }
    write_json(args.out, payload)
    _sidecar(args.out, argv, seed=None, instance_hash=instance_hash(inst))
    return 0


_HANDLERS = {
    "gen": _cmd_gen, "solve": _cmd_solve, "oracle": _cmd_oracle,
    "metrics": _cmd_metrics, "tune": _cmd_tune, "sweep": _cmd_sweep,
    "danp": _cmd_danp, "eval": _cmd_eval,
}
#: commands whose entry points check every option value before any work,
#: so their BadParams is an option out of range (exit 2); elsewhere it
#: comes from file contents (exit 1)
_OPTION_CHECKED = {"gen", "solve", "tune", "oracle", "sweep"}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, argv)
    except CrashplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        usage = isinstance(exc, ParseError) or (
            isinstance(exc, BadParams) and args.command in _OPTION_CHECKED)
        return 2 if usage else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
