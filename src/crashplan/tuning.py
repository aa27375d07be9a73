"""Taguchi L25(5^6) screening of the genetic algorithm's six parameters
with analysis-of-means level recommendation."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import BadParams
from .instance import ProjectInstance, seed_sequence
from .metrics import ReferenceBounds, mid
from .moga import MogaParams, run_moga
from .reporting import fmt_float, write_json, write_lines

FACTORS = ("elitism_rate", "hill_climb_rate", "mutation_rate",
           "crossover_rate", "iterations", "pop_size")

#: screening grid used by the tuned defaults
DEFAULT_LEVELS: dict[str, list] = {
    "elitism_rate": [0.05, 0.1, 0.15, 0.2, 0.25],
    "hill_climb_rate": [0.2, 0.4, 0.5, 0.6, 0.8],
    "mutation_rate": [0.2, 0.4, 0.5, 0.6, 0.8],
    "crossover_rate": [0.2, 0.4, 0.5, 0.6, 0.8],
    "iterations": [500, 700, 1100, 1500, 2000],
    "pop_size": [20, 40, 60, 80, 100],
}

# Standard L25 orthogonal array (level indices 0..4).  Rows are the GF(5)
# points (a, b) with columns a, b, a+b, a+2b, a+3b, a+4b (mod 5); any two
# columns run through all 25 level pairs exactly once.
L25 = tuple((a, b, *((a + c * b) % 5 for c in range(1, 5)))
            for a in range(5) for b in range(5))


def _check_levels(levels: dict[str, list]) -> None:
    """BadParams unless `levels` maps each factor to five numbers, whole
    numbers for the counts `iterations` and `pop_size`."""
    if not isinstance(levels, dict) or not all(
            isinstance(v, list) and all(type(x) in (int, float) for x in v)
            for v in levels.values()):
        raise BadParams("expected an object mapping each factor to a list "
                        "of numeric levels")
    if set(levels) != set(FACTORS):
        raise BadParams(f"levels must cover exactly the factors {FACTORS}")
    for name, vals in levels.items():
        if len(vals) != 5:
            raise BadParams(f"factor {name} needs 5 levels, got {len(vals)}")
    for name in ("iterations", "pop_size"):
        for x in levels[name]:
            if isinstance(x, float) and not x.is_integer():
                raise BadParams(f"factor {name} needs whole-number levels, "
                                f"got {x}")


def _row_params(levels: dict[str, list], row: tuple[int, ...],
                seed: int) -> MogaParams:
    value = {f: levels[f][row[k]] for k, f in enumerate(FACTORS)}
    return MogaParams(
        seed=seed,
        pop_size=int(value["pop_size"]),
        iterations=int(value["iterations"]),
        crossover_rate=float(value["crossover_rate"]),
        mutation_rate=float(value["mutation_rate"]),
        hill_climb_rate=float(value["hill_climb_rate"]),
        elitism_rate=float(value["elitism_rate"]),
    )


def _row_seed(base_seed: int, row_index: int) -> int:
    return int(seed_sequence(base_seed, row_index).generate_state(1)[0])


def l25_design(levels: dict[str, list], seed: int = 0) -> list[MogaParams]:
    """The 25 concrete parameter sets prescribed by the orthogonal array;
    BadParams unless `levels` holds five levels of each factor, every set
    is in range and the seed is not negative."""
    _check_levels(levels)
    design = [_row_params(levels, row, _row_seed(seed, k))
              for k, row in enumerate(L25)]
    for params in design:
        params.validate()
    return design


def anom(responses: list[float],
         design: tuple[tuple[int, ...], ...] = L25
         ) -> tuple[list[list[float]], tuple[int, ...]]:
    """Per-factor per-level response means and the minimizing levels.

    The response is deviation-like (lower is better); ties pick the
    lowest level index.
    """
    if len(responses) != len(design):
        raise BadParams(f"need {len(design)} responses, got {len(responses)}")
    n_factors = len(design[0])
    level_means: list[list[float]] = []
    recommended: list[int] = []
    for factor in range(n_factors):
        means = []
        for level in range(5):
            cell = [resp for row, resp in zip(design, responses)
                    if row[factor] == level]
            means.append(sum(cell) / len(cell))
        level_means.append(means)
        recommended.append(min(range(5), key=lambda i: means[i]))
    return level_means, tuple(recommended)


@dataclass(frozen=True)
class TuningReport:
    seed: int
    levels: tuple[tuple[float, ...], ...]  # factor-major, FACTORS order
    design: tuple[MogaParams, ...]
    responses: tuple[float, ...]
    level_means: tuple[tuple[float, ...], ...]
    recommended_levels: tuple[int, ...]
    recommended: MogaParams

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "factors": list(FACTORS),
            "levels": [list(row) for row in self.levels],
            "design": [asdict(p) for p in self.design],
            "responses": list(self.responses),
            "level_means": [list(row) for row in self.level_means],
            "recommended_levels": list(self.recommended_levels),
            "recommended": asdict(self.recommended),
        }


def _run_row(args) -> tuple[int, list]:
    inst, params, index = args
    report = run_moga(inst, params)
    return index, [m.objectives for m in report.front.members]


def tune(inst: ProjectInstance, levels: dict[str, list] | None = None,
         seed: int = 0, *, threads: int | None = None) -> TuningReport:
    """One MOGA run per design row; the response is each run's MID against
    the union of all 25 fronts (proximity to the pooled ideal)."""
    if levels is None:
        levels = DEFAULT_LEVELS
    design = l25_design(levels, seed)
    jobs = [(inst, params, k) for k, params in enumerate(design)]
    results: list[list] = [None] * len(design)  # type: ignore[list-item]
    if threads is not None and threads > 1:
        try:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                for index, objs in pool.map(_run_row, jobs):
                    results[index] = objs
        except OSError:
            pass  # no worker processes: run the rows in this one
    if results[0] is None:
        for job in jobs:
            index, objs = _run_row(job)
            results[index] = objs

    from .pareto import Front, FrontMember
    fronts = [Front(tuple(FrontMember(o) for o in objs)) for objs in results]
    bounds = ReferenceBounds.from_fronts(*fronts)
    responses = [mid(front, bounds) for front in fronts]
    level_means, recommended_levels = anom(responses)
    recommended = _row_params(levels, recommended_levels, seed)
    return TuningReport(
        seed=seed,
        levels=tuple(tuple(levels[f]) for f in FACTORS),
        design=tuple(design), responses=tuple(responses),
        level_means=tuple(tuple(row) for row in level_means),
        recommended_levels=recommended_levels, recommended=recommended)


def write_tuning_files(report: TuningReport, out_dir: str | Path) -> tuple[Path, Path]:
    """tuning.json carries the full report; means.csv is plot-ready
    (factor, level index, level value, mean response)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "tuning.json"
    write_json(json_path, report.to_dict())
    lines = ["factor,level,value,mean_response"]
    for k, factor in enumerate(FACTORS):
        for level in range(5):
            lines.append(f"{factor},{level + 1},{report.levels[k][level]},"
                         f"{fmt_float(report.level_means[k][level])}")
    csv_path = out / "means.csv"
    write_lines(csv_path, lines)
    return json_path, csv_path
