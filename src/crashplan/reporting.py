"""Output formats: front CSV files, metadata sidecars, and the float, JSON
and line-file rules every output file of the package follows.

Front CSV layout (documented column order):
  comment header lines:  # instance_hash=..., # algorithm=..., # seed=...
  header row:            solution,npv_cost,makespan,productivity,valid_number
  one row per solution;  floats carry 12 significant digits; the solution
  column is "activity|mode|duration" triples joined by ":" in order-string
  sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EncodingError, ParseError
from .evaluate import ObjectiveVector, format_solution, parse_solution
from .instance import read_text
from .pareto import Front, FrontMember

TOOL_VERSION = "0.1.0"
FRONT_HEADER = "solution,npv_cost,makespan,productivity,valid_number"


def fmt_float(x: float) -> str:
    return format(x, ".12g")


def write_json(path: str | Path, data, *, sort_keys: bool = False) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=sort_keys) + "\n",
                          encoding="utf-8")


def write_lines(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class FrontReport:
    """A Pareto front plus the run metadata needed to reproduce it."""

    front: Front
    algorithm: str
    seed: int
    instance_hash: str
    params: dict = field(default_factory=dict)
    evaluations: int = 0
    wall_ms: float = field(default=0.0, compare=False)


def front_to_csv(report: FrontReport, path: str | Path) -> None:
    lines = [
        f"# instance_hash={report.instance_hash}",
        f"# algorithm={report.algorithm}",
        f"# seed={report.seed}",
        FRONT_HEADER,
    ]
    for m in report.front.members:
        sol = format_solution(m.chromosome) if m.chromosome else ""
        o = m.objectives
        lines.append(f"{sol},{fmt_float(o.npv_cost)},{o.makespan},"
                     f"{fmt_float(o.productivity)},3")
    write_lines(path, lines)


def numbered_lines(path: str | Path) -> list[tuple[int, str]]:
    """(line number in the file, stripped text) of each non-blank line."""
    lines = read_text(path).splitlines()
    return [(lineno, line.strip()) for lineno, line in enumerate(lines, 1)
            if line.strip()]


def front_from_csv(path: str | Path) -> tuple[Front, dict]:
    """Read a front CSV back; returns the front and its header metadata."""
    meta: dict[str, str] = {}
    members: list[FrontMember] = []
    header_seen = False
    for lineno, line in numbered_lines(path):
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != FRONT_HEADER:
                raise ParseError(f"line {lineno}: unexpected header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ParseError(f"line {lineno}: expected 5 columns, got {len(parts)}")
        sol, npv, makespan, prod, valid = parts
        try:
            obj = ObjectiveVector(float(npv), int(makespan), float(prod))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad number ({exc})") from exc
        if not (math.isfinite(obj.npv_cost) and math.isfinite(obj.productivity)):
            raise ParseError(f"line {lineno}: npv_cost and productivity "
                             "must be finite")
        if obj.makespan < 0:
            raise ParseError(f"line {lineno}: makespan must be >= 0")
        if valid != "3":
            raise ParseError(f"line {lineno}: valid_number must be 3, "
                             f"got {valid!r}")
        try:
            chrom = parse_solution(sol) if sol else None
        except EncodingError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        members.append(FrontMember(obj, chrom))
    if not header_seen:
        raise ParseError("missing column header row")
    return Front(tuple(members)), meta


def write_sidecar(out_path: str | Path, payload: dict) -> Path:
    """Write `<out>.meta.json` next to a primary output file."""
    side = Path(str(out_path) + ".meta.json")
    write_json(side, {"tool_version": TOOL_VERSION, **payload}, sort_keys=True)
    return side
