"""Exact Pareto front by exhaustive enumeration of small instances.

With aggregate resource constraints, earliest-start decoding does not
depend on the order string, so only (mode, duration) assignments need
enumeration; that collapses the space by n! and makes small instances
exactly solvable.  The practical limit is governed by the per-activity
duration ranges, not by the activity count alone.

The enumeration is one iterative depth-first walk over
`ProjectInstance.gene_options`: activity 1 outermost and each activity's
genes in table order, which is the order of `itertools.product` over the
table.  The walk skips a subtree when the fixed genes already break a
bound, after Sprecher, Hartmann & Drexl (1997) and De, Dunne, Ghosh &
Wells (1995):

* resources: the demand of the fixed modes plus the least demand of the
  activities still unfixed exceeds a capacity;
* time: a fixed activity's finish exceeds its latest finish in the CPM
  windows at minimum crash durations (`compute_time_windows`).

Genes are mode-major with durations ascending, so a failed bound also
skips the rest of the mode's genes: they share its demand and finish no
earlier.

Every skipped point is resource- or time-infeasible and would never enter
the archive, so the front and each point's first chromosome are those of
scoring every point.  Along the prefix of activities whose predecessors
all have smaller ids the walk also carries start/finish times, the NPV
cost sum and Q_min/Q_sum; a leaf re-times the activities after that prefix
and runs only the closing step of scoring (`evaluate._settle`).  The sums
take `evaluate`'s operands in its order, so the objectives are bit-equal.
"""

from __future__ import annotations

import math
import time
from operator import add, le

from .errors import BadParams, NoFeasible, SpaceTooLarge
from .evaluate import Chromosome, _settle
from .instance import (ProjectInstance, compute_time_windows, forward_pass,
                       instance_hash, topological_order)
from .pareto import ParetoArchive
from .reporting import FrontReport

DEFAULT_MAX_POINTS = 10_000_000


def search_space_size(inst: ProjectInstance) -> int:
    """Number of (mode, duration) assignments the oracle enumerates,
    counted from the duration windows without building the gene table (a
    dummy's one window is [0, 0])."""
    return math.prod(sum(hi - lo + 1 for lo, hi in windows)
                     for windows in inst.duration_bounds)


def true_pareto_front(inst: ProjectInstance,
                      *, max_points: int = DEFAULT_MAX_POINTS,
                      literal_eq15: bool = False) -> FrontReport:
    """Enumerate every assignment, keep the fully feasible ones, and return
    their nondominated set (exact by construction).

    `evaluations` is the size of the search space; `params["scored"]`
    counts the points that passed both bounds and were scored.  A
    max_points below 1 raises BadParams, and a deadline below the fully
    crashed makespan InfeasibleInstance, a NoFeasible, before the walk.
    """
    if max_points < 1:
        raise BadParams(f"max_points must be >= 1, got {max_points}")
    size = search_space_size(inst)
    if size > max_points:
        raise SpaceTooLarge(
            f"search space has {size} points (> {max_points})", size)

    t0 = time.perf_counter()
    windows = compute_time_windows(inst)
    latest = [windows.latest_finish[i] for i in range(1, inst.n + 1)]
    order = topological_order(inst)
    archive = ParetoArchive()
    scored = feasible = 0
    for modes, durations, start, finish, cost, q_min, q_sum in _walk(
            inst, order, latest):
        scored += 1
        # resource_ok: the walk yields only points within the capacities
        obj, rep = _settle(inst, start, finish, cost, q_min, q_sum, True,
                           literal_eq15)
        if rep.valid_number == 3:
            feasible += 1
            archive.add(obj, Chromosome(order, tuple(modes), tuple(durations)))
    if feasible == 0:
        raise NoFeasible("no assignment satisfies all three constraint groups")

    return FrontReport(
        front=archive.front(), algorithm="oracle", seed=0,
        instance_hash=instance_hash(inst),
        params={"max_points": max_points, "space_size": size,
                "feasible": feasible, "scored": scored},
        evaluations=size,
        wall_ms=(time.perf_counter() - t0) * 1000.0)


def _walk(inst: ProjectInstance, order: tuple[int, ...], latest: list):
    """Yield (modes, durations, start, finish, cost, q_min, q_sum) for every
    point within the capacities and the deadline, in the order of
    itertools.product(*inst.gene_options); the last five are `_settle`'s
    arguments.

    `order` is topological_order(inst) and `latest` the latest finishes of
    compute_time_windows(inst), indexed by id - 1.  `cost` sums the real
    activities' discounted cost terms in ascending index order.  The lists
    are the walk's own and change with its next step.
    """
    n = inst.n
    view = inst.compiled
    rate = view.rate
    preds = inst.predecessors
    deadline = inst.deadline
    dummy = inst.dummy_flags

    least = view.least_demand
    nothing = (0,) * len(view.capacity_left)
    # one row per gene: (mode, duration, the numerator of its cost term,
    # the end of the mode's genes in the table, and on the first gene of a
    # mode (demands, the most demand the activities before it may hold,
    # quality), which the rest of the mode's genes share).  A dummy's row
    # has no numerator.
    steps = []
    for k, genes in enumerate(inst.gene_options):
        mode_end = {m: g + 1 for g, (m, _) in enumerate(genes)}
        rows = []
        for g, (m, d) in enumerate(genes):
            if dummy[k]:
                rows.append((m, d, None, mode_end[m], None))
                continue
            normal_cost, slope, normal_duration, q, demands = \
                view.genes[k][m - 1]
            first = None
            if g == 0 or genes[g - 1][0] != m:
                first = (demands, tuple(c - u - rest for c, u, rest in zip(
                    view.capacity_left, demands, least[k + 1])), q)
            rows.append((m, d, normal_cost + slope * (normal_duration - d),
                         mode_end[m], first))
        steps.append(tuple(rows))

    # the walk branches on the activities before `end`; the dummies after
    # them have one gene each and a leaf times them.  Activities before
    # `cut` have only smaller-index predecessors, so the walk times them as
    # it fixes them; a leaf times the rest too, in topological order.
    end = 1 + max((k for k in range(1, n) if not dummy[k]), default=0)
    cut = next((k for k in range(end) if any(p > k for p in preds[k])), end)
    retimed = [i - 1 for i in order if i - 1 >= cut]
    late_real = [k for k in view.real if k >= cut]

    modes = [1] * n
    durations = [0] * n
    start = [0] * n
    finish = [0] * n
    numerators = [0.0] * n  # of the real activities from `cut` on
    # the state after fixing the activities before k, indexed by k: their
    # (demand, Q_min, Q_sum), which the modes fix, and their cost sum
    held = [(nothing, math.inf, 0.0)] * (end + 1)
    costs = [0.0] * (end + 1)
    next_gene = [0] * end
    last = end - 1
    k = 0
    while k >= 0:
        genes = steps[k]
        g = next_gene[k]
        if g == len(genes):
            next_gene[k] = 0
            k -= 1
            continue
        m, d, numerator, mode_end, first = genes[g]
        next_gene[k] = g + 1
        if first is not None:
            demands, limits, q = first
            used, q_min, q_sum = held[k]
            if not all(map(le, used, limits)):
                next_gene[k] = mode_end
                continue
            held[k + 1] = (tuple(map(add, used, demands)),
                           q if q < q_min else q_min, q_sum + q)
        elif numerator is None:
            held[k + 1] = held[k]
        modes[k] = m
        durations[k] = d
        cost = costs[k]
        if k < cut:
            s = 0
            for p in preds[k]:
                f = finish[p]
                if f > s:
                    s = f
            f = s + d
            # past its latest finish, k leaves its descendants too little
            # time even at full crash; the activities fixed before k
            # passed this test already
            if f > latest[k]:
                next_gene[k] = mode_end
                continue
            start[k] = s
            finish[k] = f
            if numerator is not None:
                cost += numerator / rate ** f
        else:
            numerators[k] = numerator
        if k < last:
            k += 1
            costs[k] = cost
            continue
        forward_pass(preds, durations, start, finish, retimed)
        if finish[-1] > deadline:
            continue
        for h in late_real:
            cost += numerators[h] / rate ** finish[h]
        _, q_min, q_sum = held[end]
        yield modes, durations, start, finish, cost, q_min, q_sum
