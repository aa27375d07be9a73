"""NSGA-II baseline on the shared generation driver (see the moga module):
binary tournaments on the crowded comparison, a crossover coin, and the
standard (mu+lambda) survival on (nondomination rank, crowding distance).
The genes travel whole, so the coin only decides which tournament winner
is bred first."""

from __future__ import annotations

from dataclasses import dataclass

from .evaluate import Chromosome, ObjectiveVector
from .instance import ProjectInstance
from .moga import SolverParams, breed, evolve, tournament_select
from .pareto import group_by_rank, nondominated_sort
from .reporting import FrontReport


@dataclass(frozen=True)
class Nsga2Params(SolverParams):
    """NSGA-II uses only the parameters common to both solvers."""


def crowding_distance(front: list[ObjectiveVector]) -> list[float]:
    """Crowding of mutually comparable members; boundaries get +inf and a
    zero objective range contributes nothing."""
    n = len(front)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    dist = [0.0] * n
    for values in ([o.npv_cost for o in front],
                   [float(o.makespan) for o in front],
                   [o.productivity for o in front]):
        idx = sorted(range(n), key=lambda k: values[k])
        dist[idx[0]] = dist[idx[-1]] = float("inf")
        span = values[idx[-1]] - values[idx[0]]
        if span == 0:
            continue
        for k in range(1, n - 1):
            dist[idx[k]] += (values[idx[k + 1]] - values[idx[k - 1]]) / span
    return dist


def _survival(pool: list[tuple[Chromosome, ObjectiveVector]],
              pop_size: int) -> list[tuple[Chromosome, ObjectiveVector]]:
    """Fill the next population front by front; the boundary front is
    truncated by descending crowding distance (stable on ties)."""
    survivors: list[int] = []
    for group in group_by_rank(nondominated_sort([o for _, o in pool])):
        if len(survivors) + len(group) <= pop_size:
            survivors.extend(group)
        else:
            dist = crowding_distance([pool[i][1] for i in group])
            order = sorted(range(len(group)), key=lambda k: -dist[k])
            survivors.extend(group[k] for k in order[:pop_size - len(survivors)])
            break
    return [pool[i] for i in survivors]


def run_nsga2(inst: ProjectInstance, params: Nsga2Params,
              *, use_archive: bool = False,
              max_evaluations: int | None = None,
              literal_eq15: bool = False,
              on_generation=None) -> FrontReport:
    """Run NSGA-II; by default reports the final population's rank-0 set
    (pass use_archive=True for the external-archive variant)."""

    def next_population(pop, ranks, rng, evaluator, attempts, member_set):
        # the crowded comparison: lower rank, then larger crowding distance
        keys: list = [None] * len(pop)
        for group in group_by_rank(ranks):
            dist = crowding_distance([pop[i][1] for i in group])
            for i, d in zip(group, dist):
                keys[i] = (ranks[i], -d)

        def pick_pair(rng):
            i1 = tournament_select(keys, rng)
            i2 = tournament_select(keys, rng)
            parents = (pop[i1][0], pop[i2][0])
            if rng.random() < params.crossover_rate:
                return parents[::-1]
            return parents

        # duplicate control applies within the batch being assembled, as in
        # MOGA; (mu+lambda) survival handles parent clones
        offspring = breed(inst, params.pop_size, pick_pair,
                          params.mutation_rate, rng, evaluator, member_set(),
                          attempts)
        return _survival(pop + offspring, params.pop_size)

    return evolve(inst, params, "nsga2", next_population,
                  use_archive=use_archive, max_evaluations=max_evaluations,
                  literal_eq15=literal_eq15, on_generation=on_generation)
