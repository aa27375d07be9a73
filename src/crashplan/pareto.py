"""Pareto dominance under the fixed senses (min cost, min time, max productivity)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .evaluate import Chromosome, ObjectiveVector

DUPLICATE_TOL = 1e-9


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True iff a is at least as good on all objectives and strictly better on one."""
    if (math.isnan(a.npv_cost) or math.isnan(a.productivity)
            or math.isnan(b.npv_cost) or math.isnan(b.productivity)):
        raise ValueError("NaN objective value")
    if (a.npv_cost <= b.npv_cost and a.makespan <= b.makespan
            and a.productivity >= b.productivity):
        return (a.npv_cost < b.npv_cost or a.makespan < b.makespan
                or a.productivity > b.productivity)
    return False


def nondominated_sort(objectives: list[ObjectiveVector]) -> list[int]:
    """Rank per member: 0 = nondominated, k = nondominated after removing < k."""
    n = len(objectives)
    if n == 0:
        return []
    vals = [(o.npv_cost, o.makespan, o.productivity) for o in objectives]
    for c, _, p in vals:
        if math.isnan(c) or math.isnan(p):
            raise ValueError("NaN objective value")
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    count = [0] * n
    for i in range(n):
        ci, ti, pi = vals[i]
        for j in range(i + 1, n):
            cj, tj, pj = vals[j]
            if ci <= cj and ti <= tj and pi >= pj:
                if ci < cj or ti < tj or pi > pj:
                    dominated_by[i].append(j)
                    count[j] += 1
            elif cj <= ci and tj <= ti and pj >= pi:
                if cj < ci or tj < ti or pj > pi:
                    dominated_by[j].append(i)
                    count[i] += 1
    ranks = [0] * n
    current = [i for i in range(n) if count[i] == 0]
    rank = 0
    while current:
        nxt = []
        for i in current:
            ranks[i] = rank
            for j in dominated_by[i]:
                count[j] -= 1
                if count[j] == 0:
                    nxt.append(j)
        rank += 1
        current = nxt
    return ranks


def group_by_rank(ranks: list[int]) -> list[list[int]]:
    """groups[r] lists, in index order, the members of rank r."""
    groups: list[list[int]] = [[] for _ in range(max(ranks, default=-1) + 1)]
    for idx, r in enumerate(ranks):
        groups[r].append(idx)
    return groups


def _same_point(a: ObjectiveVector, b: ObjectiveVector, tol: float = DUPLICATE_TOL) -> bool:
    return (abs(a.npv_cost - b.npv_cost) <= tol
            and a.makespan == b.makespan
            and abs(a.productivity - b.productivity) <= tol)


class FrontMember(NamedTuple):
    """One nondominated point and the first chromosome that reached it."""

    objectives: ObjectiveVector
    chromosome: Chromosome | None = None

    @property
    def contributors(self) -> tuple[Chromosome, ...]:
        """Read-only view kept for callers that count contributors: the
        one chromosome, or () when there is none."""
        return () if self.chromosome is None else (self.chromosome,)


@dataclass(frozen=True)
class Front:
    """A mutually nondominated set under senses (min, min, max)."""

    members: tuple[FrontMember, ...]

    def __len__(self) -> int:
        return len(self.members)

    def objectives(self) -> list[ObjectiveVector]:
        return [m.objectives for m in self.members]

    def contains_point(self, obj: ObjectiveVector, tol: float = DUPLICATE_TOL) -> bool:
        return any(_same_point(m.objectives, obj, tol) for m in self.members)


def _canonical_key(m: FrontMember) -> tuple:
    return (m.objectives.npv_cost, m.objectives.makespan,
            -m.objectives.productivity)


def pareto_filter(pop: list[tuple[ObjectiveVector, Chromosome | None]]) -> Front:
    """Nondominated subset with near-equal objective vectors collapsed: the
    points enter a ParetoArchive in list order, so of near-equal vectors
    the first is kept, with its chromosome, even when a later one
    dominates it within DUPLICATE_TOL."""
    archive = ParetoArchive()
    for obj, chrom in pop:
        archive.add(obj, chrom)
    return archive.front()


@dataclass
class ParetoArchive:
    """Incrementally maintained nondominated archive of feasible evaluations.

    Each point keeps the first chromosome that reached it; a later
    chromosome reaching the same point is not recorded.
    """

    _members: list[FrontMember] = field(default_factory=list)

    def add(self, obj: ObjectiveVector, chrom: Chromosome | None = None) -> bool:
        """Insert a point; returns True when it enters the archive.

        Each kept point is tested as _same_point(kept, obj), then as
        dominates(kept, obj), written out inline for speed.
        """
        cost, time, prod = obj
        if math.isnan(cost) or math.isnan(prod):
            raise ValueError("NaN objective value")
        tol = DUPLICATE_TOL
        for kept, _ in self._members:
            k_cost, k_time, k_prod = kept
            if (abs(k_cost - cost) <= tol and k_time == time
                    and abs(k_prod - prod) <= tol):
                return False
            if (k_cost <= cost and k_time <= time and k_prod >= prod
                    and (k_cost < cost or k_time < time or k_prod > prod)):
                return False
        survivors = []
        for member in self._members:
            k_cost, k_time, k_prod = member[0]
            if not (cost <= k_cost and time <= k_time and prod >= k_prod
                    and (cost < k_cost or time < k_time or prod > k_prod)):
                survivors.append(member)
        survivors.append(FrontMember(obj, chrom))
        self._members = survivors
        return True

    def front(self) -> Front:
        return Front(tuple(sorted(self._members, key=_canonical_key)))

    def __len__(self) -> int:
        return len(self._members)
