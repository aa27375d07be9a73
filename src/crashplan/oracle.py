"""Exact Pareto front by exhaustive enumeration of small instances.

With aggregate resource constraints, earliest-start decoding does not
depend on the order string, so only (mode, duration) assignments need
enumeration; that collapses the space by n! and makes small instances
exactly solvable.  The practical limit is governed by the per-activity
duration ranges, not by the activity count alone.
"""

from __future__ import annotations

import itertools
import math
import time

from .errors import NoFeasible, SpaceTooLarge
from .evaluate import Chromosome
from .instance import ProjectInstance, instance_hash, topological_order
from .moga import Evaluator
from .pareto import ParetoArchive
from .reporting import FrontReport

DEFAULT_MAX_POINTS = 10_000_000


def search_space_size(inst: ProjectInstance) -> int:
    """Number of (mode, duration) assignments the oracle enumerates."""
    return math.prod(len(genes) for genes in inst.gene_options)


def true_pareto_front(inst: ProjectInstance,
                      *, max_points: int = DEFAULT_MAX_POINTS,
                      literal_eq15: bool = False) -> FrontReport:
    """Enumerate every assignment, keep the fully feasible ones, and return
    their nondominated set (exact by construction)."""
    size = search_space_size(inst)
    if size > max_points:
        raise SpaceTooLarge(
            f"search space has {size} points (> {max_points})", size)

    t0 = time.perf_counter()
    order = topological_order(inst)
    archive = ParetoArchive()
    evaluator = Evaluator(inst, archive, literal_eq15)

    feasible = 0
    for assignment in itertools.product(*inst.gene_options):
        chrom = Chromosome(order,
                           tuple(m for m, _ in assignment),
                           tuple(d for _, d in assignment))
        _, rep = evaluator(chrom)
        if rep.valid_number == 3:
            feasible += 1
    if feasible == 0:
        raise NoFeasible("no assignment satisfies all three constraint groups")

    return FrontReport(
        front=archive.front(), algorithm="oracle", seed=0,
        instance_hash=instance_hash(inst),
        params={"max_points": max_points, "space_size": size,
                "feasible": feasible},
        evaluations=evaluator.count,
        wall_ms=(time.perf_counter() - t0) * 1000.0)
