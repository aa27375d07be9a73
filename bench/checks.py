"""Output checks and the front hypervolume, independent of crashplan.metrics.

Objective senses are fixed: minimise NPV cost, minimise makespan,
maximise productivity.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import tempfile
from pathlib import Path

#: tolerance of the archive's duplicate test (crashplan.pareto.DUPLICATE_TOL)
TOL = 1e-9
#: random assignments per instance in the oracle's coverage check
COVERAGE_SAMPLES = 200


def dominates(a, b) -> bool:
    return (a[0] <= b[0] and a[1] <= b[1] and a[2] >= b[2]
            and (a[0] < b[0] or a[1] < b[1] or a[2] > b[2]))


def reference_point(inst) -> tuple[float, int, float]:
    """Strictly dominated by every feasible point: a budget-feasible cost is
    at most initial capital plus price, a time-feasible makespan at most the
    deadline, and productivity is positive."""
    return (inst.initial_capital + inst.price + 1.0, inst.deadline + 1, 0.0)


def hypervolume(inst, points) -> float:
    """Volume dominated by `points` up to the reference point, with makespan
    divided by the reference makespan so the result is dimensionless
    (cost x productivity is a quality score).  Makespans are integers, so
    the volume is exact as a sum of slabs, each a 2-D area in
    (cost, productivity)."""
    rc, rm, rp = reference_point(inst)
    pts = sorted(points, key=lambda p: p[1])
    volume = 0.0
    for k, (_, m, _) in enumerate(pts):
        upper = pts[k + 1][1] if k + 1 < len(pts) else rm
        if upper == m:
            continue
        area = 0.0
        best = rp
        slab = sorted((c, p) for c, mk, p in pts[:k + 1])
        for j, (c, p) in enumerate(slab):
            best = max(best, p)
            nxt = slab[j + 1][0] if j + 1 < len(slab) else rc
            area += (nxt - c) * (best - rp)
        volume += area * (upper - m) / rm
    return volume


def check_front(inst, report) -> list[str]:
    """Every member re-evaluates to its own objectives with all three
    constraint groups met, dominates the reference point, and no member
    dominates another.  Returns the problems found."""
    evaluate = importlib.import_module("crashplan.evaluate").evaluate
    members = report.front.members
    if not members:
        return ["empty front"]
    problems = []
    ref = reference_point(inst)
    points = []
    for m in members:
        obj = tuple(m.objectives)
        points.append(obj)
        if m.chromosome is None:
            problems.append(f"member {obj} has no chromosome")
            continue
        again, rep = evaluate(inst, m.chromosome)
        if rep.valid_number != 3:
            problems.append(f"member {obj} has valid_number {rep.valid_number}")
        if tuple(again) != obj:
            problems.append(f"member {obj} re-evaluates to {tuple(again)}")
        if not (obj[0] < ref[0] and obj[1] < ref[1] and obj[2] > ref[2]):
            problems.append(f"member {obj} does not dominate {ref}")
    for a in points:
        for b in points:
            if dominates(a, b):
                problems.append(f"front member {a} dominates {b}")
    return problems


def point_key(obj) -> tuple[str, int, str]:
    """An objective vector at the front CSV's 12 significant digits."""
    return (format(obj[0], ".12g"), int(obj[1]), format(obj[2], ".12g"))


def check_reference(report, expected) -> list[str]:
    got = {point_key(o) for o in report.front.objectives()}
    want = {tuple(p) for p in expected}
    if got == want:
        return []
    return [f"{len(got - want)} points not in the reference, "
            f"{len(want - got)} reference points missing"]


def check_coverage(inst, report, seed: int) -> list[str]:
    """Every sampled feasible assignment is weakly dominated by the front
    (up to the duplicate tolerance), as an exact front must ensure."""
    ev = importlib.import_module("crashplan.evaluate")
    order = importlib.import_module("crashplan.instance").topological_order(inst)
    rng = random.Random(seed)
    front = [tuple(o) for o in report.front.objectives()]
    for _ in range(COVERAGE_SAMPLES):
        modes, durations = [], []
        for act in inst.activities:
            m = rng.randrange(len(act.modes))
            mode = act.modes[m]
            modes.append(m + 1)
            durations.append(0 if act.is_dummy else
                             rng.randint(mode.crash_duration, mode.normal_duration))
        obj, rep = ev.evaluate(inst, ev.Chromosome(order, tuple(modes),
                                                   tuple(durations)))
        if rep.valid_number == 3 and not any(
                f[0] <= obj[0] + TOL and f[1] <= obj[1] and f[2] >= obj[2] - TOL
                for f in front):
            return [f"feasible point {tuple(obj)} is not covered by the front"]
    return []


def front_digest(report) -> str:
    """sha256 of the front CSV that `crashplan solve` would write."""
    reporting = importlib.import_module("crashplan.reporting")
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=Path.cwd()) as tmp:
        path = Path(tmp) / "front.csv"
        reporting.front_to_csv(report, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()
