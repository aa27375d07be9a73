"""Genetic solvers: MOGA and the generation driver it shares with NSGA-II.

Both search the (mode, duration) genes only: resources are aggregate, so
no objective depends on the activity order, and every chromosome carries
the canonical order `ProjectInstance.order`.  They share one two-gene
mutation, feasibility and duplicate control (`breed`) and one driver
(`evolve`); each supplies only its next-population step.  MOGA keeps
rank-picked elites, breeds the two winners of binary tournaments, fills
up with random chromosomes and hill-climbs a share of the offspring.

Genes are drawn in vectors: a fresh chromosome, a mutation's two genes
and a duration repair each take one `rng.integers` call per stage (a
uniform mode, then a uniform duration in its window) over the bound
tables of `ProjectInstance.compiled`.  Every gene is a Python int.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import BadParams, InitTimeout
from .evaluate import (Chromosome, DecodedSchedule, ObjectiveVector,
                       decode_schedule, evaluate, evaluate_variant)
from .instance import (ProjectInstance, check_capacities, compute_time_windows,
                       instance_hash, make_rng)
from .oracle import search_space_size, true_pareto_front
from .pareto import (ParetoArchive, group_by_rank, nondominated_sort,
                     pareto_filter)
from .reporting import FrontReport

#: tuned defaults (optimum levels of the L25 screening)
DEFAULT_ELITISM = 0.05
DEFAULT_HILL_CLIMB = 0.8
DEFAULT_MUTATION = 0.6
DEFAULT_CROSSOVER = 0.8
DEFAULT_ITERATIONS = 2000
DEFAULT_POP_SIZE = 100
#: random draws allowed per population member before InitTimeout
ATTEMPTS_FACTOR = 10_000
#: search spaces up to this size are counted by the oracle before a run
SMALL_SPACE = 2**16


@dataclass(frozen=True)
class SolverParams:
    """Parameters common to both solvers; subclasses add their own rates."""

    seed: int
    pop_size: int = DEFAULT_POP_SIZE
    iterations: int = DEFAULT_ITERATIONS
    crossover_rate: float = DEFAULT_CROSSOVER
    mutation_rate: float = DEFAULT_MUTATION

    def validate(self) -> None:
        if self.pop_size < 2:
            raise BadParams("pop_size must be >= 2")
        if self.iterations < 0:
            raise BadParams("iterations must be >= 0")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_rate") and not (0 <= value <= 1):
                raise BadParams(f"{f.name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class MogaParams(SolverParams):
    hill_climb_rate: float = DEFAULT_HILL_CLIMB
    elitism_rate: float = DEFAULT_ELITISM


def frac_count(rate: float, pop_size: int) -> int:
    """ceil(rate * pop_size) with a guard against float fuzz (0.05*100 -> 5)."""
    return math.ceil(rate * pop_size - 1e-9)


class Evaluator:
    """Counts evaluations and archives every feasible one."""

    def __init__(self, inst: ProjectInstance, archive: ParetoArchive | None = None,
                 literal_eq15: bool = False):
        self.inst = inst
        self.archive = archive
        self.literal_eq15 = literal_eq15
        self.count = 0

    def __call__(self, chrom: Chromosome):
        return self._record(chrom, evaluate(self.inst, chrom,
                                            literal_eq15=self.literal_eq15))

    def variant(self, base: DecodedSchedule, chrom: Chromosome, activity: int):
        """Evaluate a one-gene variant of a decoded chromosome; see
        evaluate_variant for what `base` and `chrom` must be."""
        return self._record(chrom, evaluate_variant(
            self.inst, base, chrom, activity, literal_eq15=self.literal_eq15))

    def _record(self, chrom: Chromosome, result):
        self.count += 1
        obj, rep = result
        if self.archive is not None and rep.valid_number == 3:
            self.archive.add(obj, chrom)
        return result


# ---------------------------------------------------------------------------
# Encoding operators

def _draw_durations(inst: ProjectInstance, ks, m,
                    rng: np.random.Generator) -> list[int]:
    """A uniform duration in the window of mode index m[i] + 1 of each
    activity index ks[i], by one rng.integers call, as Python ints."""
    view = inst.compiled
    return (view.window_low[ks, m]
            + rng.integers(view.window_width[ks, m])).tolist()


def _draw_genes(inst: ProjectInstance, ks,
                rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Uniform mode of each activity index in `ks`, by one rng.integers
    call, then a uniform duration in its window, as (modes, durations)
    lists of Python ints."""
    m = rng.integers(inst.compiled.mode_count[ks])
    return (m + 1).tolist(), _draw_durations(inst, ks, m, rng)


def random_chromosome(inst: ProjectInstance,
                      rng: np.random.Generator) -> Chromosome:
    """Uniform mode per activity, uniform duration within the mode's window."""
    modes, durations = _draw_genes(inst, np.arange(inst.n), rng)
    return Chromosome(inst.order, tuple(modes), tuple(durations))


def mutate(inst: ProjectInstance, chrom: Chromosome,
           rng: np.random.Generator) -> Chromosome:
    """Two-point mutation: redraw the mode and duration of two distinct
    real activities; the order string stays as it is."""
    real = inst.compiled.real
    if len(real) < 2:
        return chrom
    a = int(rng.integers(len(real)))
    b = int(rng.integers(len(real) - 1))
    b += b >= a  # distinct from a, uniform over the others
    ks = [real[a], real[b]]
    drawn_modes, drawn_durations = _draw_genes(inst, ks, rng)
    modes = list(chrom.modes)
    durations = list(chrom.durations)
    for k, m, d in zip(ks, drawn_modes, drawn_durations):
        modes[k], durations[k] = m, d
    return Chromosome(chrom.order, tuple(modes), tuple(durations))


def tournament_select(keys: list, rng: np.random.Generator) -> int:
    """Binary tournament, the smaller key winning; equal keys decided by a
    coin.  MOGA's keys are nondomination ranks, NSGA-II's are
    (rank, -crowding distance) pairs."""
    n = len(keys)
    if n < 2:
        raise BadParams("tournament needs a population of at least 2")
    a = int(rng.integers(n))
    b = int(rng.integers(n - 1))
    b += b >= a  # the pair as mutate draws it
    if keys[a] < keys[b]:
        return a
    if keys[b] < keys[a]:
        return b
    return a if rng.random() < 0.5 else b


def replace_gene(chrom: Chromosome, activity_id: int, mode_index: int,
                 duration: int) -> Chromosome:
    modes = list(chrom.modes)
    durations = list(chrom.durations)
    modes[activity_id - 1] = mode_index
    durations[activity_id - 1] = duration
    return Chromosome(chrom.order, tuple(modes), tuple(durations))


def hill_climb(inst: ProjectInstance, chrom: Chromosome, obj: ObjectiveVector,
               rng: np.random.Generator | None = None,
               _eval=None) -> tuple[Chromosome, ObjectiveVector]:
    """Per-activity exhaustive improvement in order-string sequence, from
    the input and its objectives evaluate(inst, chrom)[0].

    For each activity, every gene of inst.gene_options other than the
    current one is built as a variant (a dummy has none), and the feasible
    variants are ranked together with the input; the scan stops at the
    first activity whose variants strictly outrank the input (ties among
    best-ranked variants broken uniformly when an RNG is given, else by
    scan order).  Returns the chosen variant's (chromosome, objectives),
    or the input's without improvement: never dominated by the input.

    The input is decoded once, which validates it, and not scored; each
    variant counts as one evaluation, scored from that schedule by
    Evaluator.variant, which re-times only what the changed gene moves.
    """
    ev = _eval if _eval is not None else Evaluator(inst)
    base = decode_schedule(inst, chrom)
    for a in chrom.order:
        current = (chrom.modes[a - 1], chrom.durations[a - 1])
        variants: list[tuple[Chromosome, ObjectiveVector]] = []
        for m_idx, d in inst.gene_options[a - 1]:
            if (m_idx, d) == current:
                continue
            cand = replace_gene(chrom, a, m_idx, d)
            cand_obj, rep = ev.variant(base, cand, a)
            if rep.valid_number == 3:
                variants.append((cand, cand_obj))
        if not variants:
            continue
        ranks = nondominated_sort([obj] + [o for _, o in variants])
        if ranks[0] == 0:
            continue  # nothing dominates the input at this activity
        best = [variants[k - 1] for k in range(1, len(ranks)) if ranks[k] == 0]
        if rng is None or len(best) == 1:
            return best[0]
        return best[int(rng.integers(len(best)))]
    return chrom, obj


# ---------------------------------------------------------------------------
# Population machinery shared with NSGA-II

class Unchecked(set):
    """The member set of a run without duplicate control: nothing is in it."""

    def __contains__(self, chrom) -> bool:
        return False


def draw_feasible(inst: ProjectInstance, rng: np.random.Generator, evaluator,
                  exclude: set[Chromosome], attempts: int):
    """Rejection-sample one feasible chromosome not in `exclude`.

    Raises InitTimeout with a per-constraint-group failure histogram when
    the attempt budget runs out.
    """
    histogram = {"resource": 0, "time": 0, "budget": 0, "duplicate": 0}
    for _ in range(attempts):
        chrom = random_chromosome(inst, rng)
        obj, rep = evaluator(chrom)
        if rep.valid_number == 3:
            if chrom in exclude:
                histogram["duplicate"] += 1
                continue
            return chrom, obj
        if not rep.resource_ok:
            histogram["resource"] += 1
        if not rep.time_ok:
            histogram["time"] += 1
        if not rep.budget_ok:
            histogram["budget"] += 1
    raise InitTimeout(
        f"no feasible non-duplicate chromosome in {attempts} draws; "
        f"failures: {histogram}", histogram)


def init_population(inst: ProjectInstance, pop_size: int,
                    rng: np.random.Generator, evaluator, budget: int,
                    member_set=set) -> list[tuple[Chromosome, ObjectiveVector]]:
    """Rejection-sample pop_size chromosomes with valid_number 3, distinct
    unless member_set is Unchecked, within `budget` draws counted by the
    evaluator (at least one draw per member), as (chromosome, objectives)
    pairs.  A distinct population needs pop_size feasible gene assignments
    (one chromosome each) or ends in InitTimeout on duplicates."""
    population: list[tuple[Chromosome, ObjectiveVector]] = []
    seen = member_set()
    while len(population) < pop_size:
        chrom, obj = draw_feasible(inst, rng, evaluator, seen,
                                   max(budget - evaluator.count, 1))
        population.append((chrom, obj))
        seen.add(chrom)
    return population


def resample_durations(inst: ProjectInstance, chrom: Chromosome,
                       rng: np.random.Generator) -> Chromosome:
    """The same modes, with every duration redrawn uniformly in its mode's
    window."""
    durations = _draw_durations(inst, np.arange(inst.n),
                                np.array(chrom.modes) - 1, rng)
    return Chromosome(chrom.order, chrom.modes, tuple(durations))


REPAIR_ATTEMPTS = 20


def control_offspring(inst: ProjectInstance, child: Chromosome,
                      rng: np.random.Generator, evaluator,
                      members: set[Chromosome], attempts: int):
    """Feasibility and duplicate control: repair by duration resampling,
    then fall back to a fresh random feasible chromosome."""
    obj, rep = evaluator(child)
    if rep.valid_number < 3:
        for _ in range(REPAIR_ATTEMPTS):
            fixed = resample_durations(inst, child, rng)
            obj2, rep2 = evaluator(fixed)
            if rep2.valid_number == 3:
                child, obj, rep = fixed, obj2, rep2
                break
    if rep.valid_number < 3 or child in members:
        child, obj = draw_feasible(inst, rng, evaluator, members, attempts)
    return child, obj


def breed(inst: ProjectInstance, count: int, pick_pair, mutation_rate: float,
          rng: np.random.Generator, evaluator, members: set[Chromosome],
          attempts: int) -> list[tuple[Chromosome, ObjectiveVector]]:
    """`count` offspring of pick_pair(rng), each mutated with probability
    mutation_rate and passed through control_offspring; no offspring is in
    `members` when drawn, and each joins it."""
    offspring: list[tuple[Chromosome, ObjectiveVector]] = []
    while len(offspring) < count:
        for child in pick_pair(rng):
            if len(offspring) >= count:
                break
            if rng.random() < mutation_rate:
                child = mutate(inst, child, rng)
            child, obj = control_offspring(inst, child, rng, evaluator,
                                           members, attempts)
            offspring.append((child, obj))
            members.add(child)
    return offspring


# ---------------------------------------------------------------------------
# Generation driver

def evolve(inst: ProjectInstance, params: SolverParams, algorithm: str,
           next_population, *, use_archive: bool,
           max_evaluations: int | None, literal_eq15: bool,
           on_generation) -> FrontReport:
    """Run the generation loop shared by both solvers and report the front.

    Generation 0 is init_population on make_rng(seed, 0); generation g
    draws from make_rng(seed, g), ranks the (chromosome, objectives) pairs
    and replaces them with next_population(pop, ranks, rng, evaluator,
    attempts, member_set), then calls on_generation(gen, chromosomes,
    archive_front).  max_evaluations is checked after each generation, so
    a run overshoots it by up to one generation (initialisation alone may
    exceed it).  Before any draw, parameters out of range, a negative seed
    or a max_evaluations below 1 raise BadParams, a deadline below the
    fully crashed makespan InfeasibleInstance and a capacity below the
    least total demand NoFeasible.  Initialisation, and each fresh draw
    after it, may take ATTEMPTS_FACTOR * pop_size evaluations.
    Populations are distinct (member_set is `set`) unless the oracle finds
    fewer than pop_size feasible points in a space of at most SMALL_SPACE
    (member_set is Unchecked; none at all raises NoFeasible).
    """
    t0 = time.perf_counter()
    params.validate()
    if max_evaluations is not None and max_evaluations < 1:
        raise BadParams(f"max_evaluations must be >= 1, got {max_evaluations}")
    compute_time_windows(inst)
    check_capacities(inst)
    archive = ParetoArchive()
    evaluator = Evaluator(inst, archive, literal_eq15)
    attempts = ATTEMPTS_FACTOR * params.pop_size
    distinct = True
    if search_space_size(inst) <= SMALL_SPACE:
        feasible = true_pareto_front(
            inst, literal_eq15=literal_eq15).params["feasible"]
        distinct = feasible >= params.pop_size
    member_set = set if distinct else Unchecked

    pop = init_population(inst, params.pop_size, make_rng(params.seed, 0),
                          evaluator, attempts, member_set)

    for gen in range(1, params.iterations + 1):
        rng = make_rng(params.seed, gen)
        ranks = nondominated_sort([o for _, o in pop])
        pop = next_population(pop, ranks, rng, evaluator, attempts,
                              member_set)
        if on_generation is not None:
            on_generation(gen, [c for c, _ in pop], archive.front())
        if max_evaluations is not None and evaluator.count >= max_evaluations:
            break

    front = archive.front() if use_archive else pareto_filter(
        [(o, c) for c, o in pop])
    return FrontReport(
        front=front, algorithm=algorithm, seed=params.seed,
        instance_hash=instance_hash(inst), params=asdict(params),
        evaluations=evaluator.count,
        wall_ms=(time.perf_counter() - t0) * 1000.0)


def _pick_by_rank(ranks: list[int], count: int,
                  rng: np.random.Generator) -> list[int]:
    """Select `count` indices best rank first (ties broken randomly)."""
    chosen: list[int] = []
    for group in group_by_rank(ranks):
        need = count - len(chosen)
        if need <= 0:
            break
        if len(group) <= need:
            chosen.extend(group)
        else:
            picked = rng.choice(len(group), size=need, replace=False)
            chosen.extend(group[int(k)] for k in sorted(picked))
    return chosen


def run_moga(inst: ProjectInstance, params: MogaParams,
             *, use_archive: bool = True,
             max_evaluations: int | None = None,
             literal_eq15: bool = False,
             on_generation=None) -> FrontReport:
    """Run the genetic algorithm; the front is the external archive of every
    feasible evaluation, or with use_archive=False the final population's."""
    locally_optimal: set[Chromosome] = set()

    def next_population(pop, ranks, rng, evaluator, attempts, member_set):
        n_elite = min(frac_count(params.elitism_rate, params.pop_size),
                      params.pop_size)
        n_cross = min(frac_count(params.crossover_rate, params.pop_size),
                      params.pop_size - n_elite)
        n_fill = params.pop_size - n_elite - n_cross

        elites = [pop[i] for i in _pick_by_rank(ranks, n_elite, rng)]
        members = member_set(c for c, _ in elites)

        def pick_pair(rng):
            i1 = tournament_select(ranks, rng)
            i2 = tournament_select(ranks, rng)
            return pop[i1][0], pop[i2][0]

        offspring = breed(inst, n_cross, pick_pair, params.mutation_rate, rng,
                          evaluator, members, attempts)
        for _ in range(n_fill):
            child, obj = draw_feasible(inst, rng, evaluator, members, attempts)
            offspring.append((child, obj))
            members.add(child)

        n_climb = min(frac_count(params.hill_climb_rate, params.pop_size),
                      len(offspring))
        if n_climb:
            picked = rng.choice(len(offspring), size=n_climb, replace=False)
            for k in sorted(int(x) for x in picked):
                base = offspring[k][0]
                # a chromosome once verified locally optimal stays so; the
                # no-improvement branch consumes no randomness, so skipping
                # the re-scan leaves the run bit-identical
                if base in locally_optimal:
                    continue
                climbed = hill_climb(inst, *offspring[k], rng=rng,
                                     _eval=evaluator)
                if climbed[0] == base:
                    locally_optimal.add(base)
                else:
                    offspring[k] = climbed
        return elites + offspring

    return evolve(inst, params, "moga", next_population,
                  use_archive=use_archive, max_evaluations=max_evaluations,
                  literal_eq15=literal_eq15, on_generation=on_generation)
