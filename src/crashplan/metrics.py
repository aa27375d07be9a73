"""Front-quality indicators and the paired signed-rank comparison.

All distance-based indicators work on raw objective values by default;
pass normalize=True to compare_report to rescale each objective by the
reference range first.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import BadParams
from .pareto import Front, pareto_filter
from .reporting import fmt_float


def _points(front: Front, scale: np.ndarray | None = None) -> np.ndarray:
    pts = np.array([[m.objectives.npv_cost, float(m.objectives.makespan),
                     m.objectives.productivity] for m in front.members])
    if scale is not None:
        pts = pts / scale
    return pts


def best_solutions(front: Front) -> tuple[float, int, float]:
    """(best npv, best makespan, best productivity): three independent extrema."""
    if not front.members:
        raise BadParams("empty front")
    objs = front.objectives()
    return (min(o.npv_cost for o in objs),
            min(o.makespan for o in objs),
            max(o.productivity for o in objs))


@dataclass(frozen=True)
class ReferenceBounds:
    """Per-objective ideal and range, in (npv, makespan, productivity) order."""

    best: tuple[float, float, float]
    low: tuple[float, float, float]
    high: tuple[float, float, float]

    @staticmethod
    def from_fronts(*fronts: Front) -> "ReferenceBounds":
        pts = np.vstack([_points(f) for f in fronts if f.members])
        if pts.size == 0:
            raise BadParams("no members in any reference front")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        best = (lo[0], lo[1], hi[2])  # minimize npv and time, maximize productivity
        return ReferenceBounds(tuple(best), tuple(lo), tuple(hi))


def mid(front: Front, bounds: ReferenceBounds | None = None) -> float:
    """Mean distance to the ideal point, range-normalized per objective;
    a zero-range objective contributes nothing."""
    if not front.members:
        raise BadParams("empty front")
    if bounds is None:
        bounds = ReferenceBounds.from_fronts(front)
    pts = _points(front)
    best = np.array(bounds.best)
    span = np.array(bounds.high) - np.array(bounds.low)
    terms = np.zeros_like(pts)
    nonzero = span > 0
    terms[:, nonzero] = (pts[:, nonzero] - best[nonzero]) / span[nonzero]
    return float(np.sqrt((terms ** 2).sum(axis=1)).mean())


def diversity_dm(front: Front, scale: np.ndarray | None = None) -> float:
    """Euclidean diagonal of the front's objective bounding box."""
    if not front.members:
        raise BadParams("empty front")
    pts = _points(front, scale)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def quality_measure(fronts: list[Front]) -> list[float]:
    """Share of the combined nondominated set contributed by each front;
    a combined point present in several fronts credits each of them."""
    if not fronts or all(len(f) == 0 for f in fronts):
        raise BadParams("need at least one nonempty front")
    pool = [(m.objectives, m.chromosome) for f in fronts for m in f.members]
    combined = pareto_filter(pool)
    total = len(combined)
    return [sum(1 for cm in combined.members
                if f.contains_point(cm.objectives)) / total
            for f in fronts]


def _nearest_distances(front: Front, reference: Front,
                       scale: np.ndarray | None) -> np.ndarray:
    """Euclidean distance from each front point to its nearest reference
    point."""
    if not front.members or not reference.members:
        raise BadParams("empty front or reference")
    a = _points(front, scale)
    b = _points(reference, scale)
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)).min(axis=1)


def generational_distance(front: Front, reference: Front,
                          scale: np.ndarray | None = None) -> float:
    """Literal root-of-summed-squared nearest distances over the front size."""
    d = _nearest_distances(front, reference, scale)
    return float(np.sqrt((d ** 2).sum()) / len(d))


def mpfe(front: Front, reference: Front,
         scale: np.ndarray | None = None) -> float:
    """Largest minimal Euclidean distance from the front to the reference."""
    return float(_nearest_distances(front, reference, scale).max())


def spacing(front: Front, scale: np.ndarray | None = None) -> float:
    """Std-dev-like variation of l1 nearest-neighbor distances."""
    if len(front) < 2:
        raise BadParams("spacing needs at least 2 members")
    pts = _points(front, scale)
    n = len(pts)
    d1 = np.empty(n)
    for j in range(n):
        others = np.delete(pts, j, axis=0)
        d1[j] = np.abs(others - pts[j]).sum(axis=1).min()
    dbar = d1.mean()
    return float(math.sqrt(((dbar - d1) ** 2).sum() / (n - 1)))


def hrs(front: Front, scale: np.ndarray | None = None) -> float:
    """Largest gap over mean gap between neighbours after sorting on npv."""
    if len(front) < 2:
        raise BadParams("hrs needs at least 2 members")
    pts = _points(front, scale)
    pts = pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]
    gaps = np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(axis=1))
    mean = gaps.mean()
    if mean == 0:
        return 1.0  # all members coincide; no hole to speak of
    return float(gaps.max() / mean)


def wilcoxon_signed_rank(paired: list[tuple[float, float]]) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test with the normal approximation.

    Zero differences are dropped, tied absolute differences get average
    ranks, and the variance carries the tie correction; the z statistic
    uses a continuity correction.  Returns (W, p) with W the smaller of
    the signed-rank sums.
    """
    diffs = [a - b for a, b in paired if a != b]
    n = len(diffs)
    if n < 6:
        raise BadParams(f"need at least 6 non-zero-difference pairs, got {n}")
    magnitudes = sorted((abs(d), k) for k, d in enumerate(diffs))
    ranks = [0.0] * n
    i = 0
    tie_sizes = []
    while i < n:
        j = i
        while j < n and magnitudes[j][0] == magnitudes[i][0]:
            j += 1
        avg = (i + 1 + j) / 2  # average of ranks i+1 .. j
        for k in range(i, j):
            ranks[magnitudes[k][1]] = avg
        tie_sizes.append(j - i)
        i = j
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    w = min(w_plus, w_minus)
    mean = n * (n + 1) / 4
    var = n * (n + 1) * (2 * n + 1) / 24 - sum(t ** 3 - t for t in tie_sizes) / 48
    sd = math.sqrt(var)
    correction = 0.5 * math.copysign(1.0, w - mean) if w != mean else 0.0
    z = (w - mean - correction) / sd
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2)))
    return w, p


@dataclass(frozen=True)
class FrontMetrics:
    label: str
    best_npv: float
    best_time: int
    best_productivity: float
    nps: int
    qm: float
    dm: float
    mid: float
    gd: float
    mpfe: float
    hrs: float
    sp: float

    def csv_row(self) -> str:
        """Flat spreadsheet row of the CSV_COLUMNS."""
        vals = (getattr(self, name) for name in CSV_COLUMNS)
        return ",".join(str(v) if isinstance(v, (str, int)) else fmt_float(v)
                        for v in vals)


#: the metrics compared between two fronts, in field order
_METRIC_KEYS = tuple(f.name for f in fields(FrontMetrics))[1:]
#: the spreadsheet columns of `metrics --csv`
CSV_COLUMNS = ("label", "best_productivity", "best_npv", "best_time", "nps",
               "qm", "dm", "mid", "gd", "mpfe", "hrs", "sp")
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class MetricReport:
    front_a: FrontMetrics
    front_b: FrontMetrics
    diff_pct: dict
    wilcoxon_w: float | None = None
    wilcoxon_p: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "MetricReport":
        return MetricReport(
            front_a=FrontMetrics(**data["front_a"]),
            front_b=FrontMetrics(**data["front_b"]),
            diff_pct=dict(data["diff_pct"]),
            wilcoxon_w=data.get("wilcoxon_w"),
            wilcoxon_p=data.get("wilcoxon_p"),
        )


def _pct(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if b == 0:
        return math.inf if a > 0 else -math.inf
    return (a - b) / b * 100.0


def _front_metrics(label: str, front: Front, qm: float, reference: Front,
                   bounds: ReferenceBounds, scale: np.ndarray | None) -> FrontMetrics:
    b_npv, b_time, b_prod = best_solutions(front)
    return FrontMetrics(
        label=label, best_npv=b_npv, best_time=b_time, best_productivity=b_prod,
        nps=len(front), qm=qm, dm=diversity_dm(front, scale),
        mid=mid(front, bounds), gd=generational_distance(front, reference, scale),
        mpfe=mpfe(front, reference, scale), hrs=hrs(front, scale),
        sp=spacing(front, scale))


def compare_report(front_a: Front, front_b: Front,
                   reference: Front | None = None,
                   *, labels: tuple[str, str] = ("a", "b"),
                   paired: list[tuple[float, float]] | None = None,
                   normalize: bool = False) -> MetricReport:
    """All indicators for two fronts plus their percentage differences.

    GD/MPFE use the supplied reference front (an oracle front when
    available) and fall back to the combined nondominated union; MID's
    ideal and ranges always come from the union of the inputs.  The
    optional `paired` samples (one (a, b) response per problem) feed the
    signed-rank test; a single front pair has no paired samples.
    """
    if not front_a.members or not front_b.members:
        raise BadParams("both fronts must be nonempty")
    qm_a, qm_b = quality_measure([front_a, front_b])
    union_pool = [(m.objectives, m.chromosome)
                  for f in (front_a, front_b) for m in f.members]
    union = pareto_filter(union_pool)
    if reference is None:
        reference = union
    bounds = ReferenceBounds.from_fronts(front_a, front_b)
    scale = None
    if normalize:
        ref_bounds = ReferenceBounds.from_fronts(reference)
        span = np.array(ref_bounds.high) - np.array(ref_bounds.low)
        scale = np.where(span > 0, span, 1.0)
    a = _front_metrics(labels[0], front_a, qm_a, reference, bounds, scale)
    b = _front_metrics(labels[1], front_b, qm_b, reference, bounds, scale)
    diff = {key: _pct(getattr(a, key), getattr(b, key)) for key in _METRIC_KEYS}
    w = p = None
    if paired is not None:
        w, p = wilcoxon_signed_rank(paired)
    return MetricReport(a, b, diff, w, p)
