"""Chromosome decoding and objective evaluation.

A chromosome is three integer strings: a topological activity order, a
1-based mode index per activity, and a realized duration per activity.
Decoding is earliest-start and is also the only validation: the one walk
over the order string checks each gene as it schedules it.  Resources are
aggregate, so start times and every objective depend only on the (mode,
duration) genes: the solvers and the oracle build every chromosome on
`ProjectInstance.order`, and the walk checks orders read from outside.

`evaluate` runs the chain decode -> payments -> NPV -> quality ->
feasibility as `decode_schedule` plus one scoring pass over the
instance's compiled tables (`ProjectInstance.compiled`): one loop over
the real activities, then a closing step (`_settle`) that walks the
payment events and reports; the oracle closes its points with that step.
The stage functions `compute_payments`, `npv_cost`, `quality_stats`,
`productivity` and `check_feasibility` are the reference path, used by tests,
`budget_balance` and the CLI's `eval`.  It reads the activity modes
(`inst.activities[k].modes[m - 1]`) and sums demands by resource name, so
it shares no table with the scoring pass; the scoring pass adds the same
operands in the same order, so both paths agree bit for bit.  The
payment-event rule is written once, for both.  `check_feasibility` trusts
the decode walk for precedence and duration windows and checks only the
deadline of the time group.

`evaluate_variant` scores a chromosome that differs from an already
decoded one in a single gene: it re-times only the changed activity and
its descendants (`ProjectInstance.descendants`, built for the hill climb
only).  The hill climb scores its neighbourhood this way.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import le
from typing import NamedTuple

from .errors import EncodingError, NoRealActivities, ZeroCost
from .instance import ProjectInstance, forward_pass

__all__ = [
    "Chromosome", "DecodedSchedule", "PaymentEvent", "PaymentPlan",
    "ObjectiveVector", "FeasibilityReport", "baseline_chromosome",
    "decode_schedule", "compute_payments", "npv_cost", "quality_stats",
    "productivity", "check_feasibility", "evaluate", "evaluate_variant",
    "budget_balance", "format_solution", "parse_solution",
]


class Chromosome(NamedTuple):
    """Solution encoding; modes/durations are indexed by activity id - 1."""

    order: tuple[int, ...]
    modes: tuple[int, ...]
    durations: tuple[int, ...]


class DecodedSchedule(NamedTuple):
    start: tuple[int, ...]
    finish: tuple[int, ...]
    makespan: int


class PaymentEvent(NamedTuple):
    index: int
    activity: int
    time: int
    amount: float
    fallback: bool = False  # no activity finished at/after the threshold


class PaymentPlan(NamedTuple):
    events: tuple[PaymentEvent, ...]
    prepayment: float


class ObjectiveVector(NamedTuple):
    npv_cost: float
    makespan: int
    productivity: float

    def as_tuple(self) -> tuple[float, int, float]:
        return (self.npv_cost, self.makespan, self.productivity)


class FeasibilityReport(NamedTuple):
    resource_ok: bool
    time_ok: bool
    budget_ok: bool

    @property
    def valid_number(self) -> int:
        return int(self.resource_ok) + int(self.time_ok) + int(self.budget_ok)


def baseline_chromosome(inst: ProjectInstance) -> Chromosome:
    """All-normal, first-mode chromosome on the canonical topological order."""
    durations = tuple(0 if a.is_dummy else a.modes[0].normal_duration
                      for a in inst.activities)
    return Chromosome(order=inst.order,
                      modes=(1,) * inst.n,
                      durations=durations)


def decode_schedule(inst: ProjectInstance, chrom: Chromosome) -> DecodedSchedule:
    """Earliest-start decoding that validates the chromosome as it walks.

    Activities are scheduled in order-string sequence with E_i the largest
    finish of the predecessors.  Each gene is checked where it is reached:
    an out-of-range or repeated id breaks the permutation, an unscheduled
    predecessor breaks precedence, and a mode out of range, a duration
    outside the mode's window or a nonzero dummy duration is a gene error.
    Any of these raises EncodingError.
    """
    n = inst.n
    order, modes, dur = chrom
    if len(order) != n or len(modes) != n or len(dur) != n:
        raise EncodingError(f"string lengths must all be {n}")
    preds = inst.predecessors
    bounds = inst.duration_bounds
    dummy = inst.dummy_flags
    start = [0] * n
    finish: list[int | None] = [None] * n  # None until scheduled
    for i in order:
        k = i - 1
        if not (1 <= i <= n) or finish[k] is not None:
            raise EncodingError("order is not a permutation of 1..n")
        m = modes[k]
        row = bounds[k]
        if not (1 <= m <= len(row)):
            raise EncodingError(f"activity {i}: mode {m} out of range")
        d = dur[k]
        if dummy[k]:
            if d != 0:
                raise EncodingError(f"dummy activity {i} must have duration 0")
        else:
            lo, hi = row[m - 1]
            if not (lo <= d <= hi):
                raise EncodingError(
                    f"activity {i}: duration {d} outside [{lo}, {hi}]")
        s = 0
        for p in preds[k]:
            f = finish[p]
            if f is None:
                raise EncodingError(f"order violates precedence {p + 1} -> {i}")
            if f > s:
                s = f
        start[k] = s
        finish[k] = s + d
    return DecodedSchedule(tuple(start), tuple(finish), finish[n - 1])


def _payment_events(inst: ProjectInstance, finish, makespan: int,
                    share: float, prepayment: float):
    """The payment-event rule, shared by compute_payments and the scoring
    pass: yields (index, activity, time, amount, fallback) per event.

    `share` is theta - gamma and `prepayment` is gamma * U.
    """
    j_total = inst.payment_count
    values = inst.earned_values
    ascending = sorted(finish) if j_total > 1 else ()
    prev_earned = 0.0
    paid = 0.0
    for j in range(1, j_total):
        pos = bisect_left(ascending, j * inst.deadline / j_total)
        fallback = pos == len(ascending)
        if fallback:
            activity, best_t = inst.n, makespan
        else:
            best_t = ascending[pos]
            activity = finish.index(best_t) + 1  # ties to the smallest id
        earned = 0.0
        for v, t in zip(values, finish):
            if t <= best_t:
                earned += v
        amount = share * (earned - prev_earned)
        prev_earned = earned
        paid += amount
        yield j, activity, best_t, amount, fallback
    yield j_total, inst.n, makespan, inst.price - (prepayment + paid), False


def compute_payments(inst: ProjectInstance, sched: DecodedSchedule) -> PaymentPlan:
    """Payment plan under the deadline-fraction event rule.

    Event j (j < J) is the activity with the smallest finish time at or
    after j*D/J (ties to the smallest id); its amount is the compensation
    share of the earned value accumulated since the previous event.  The
    final payment settles the remainder at the makespan.  If no activity
    finishes at or after a threshold the event falls back to activity n.
    """
    prepayment = inst.prepay_ratio * inst.price
    events = _payment_events(inst, sched.finish, sched.makespan,
                             inst.compensation_ratio - inst.prepay_ratio,
                             prepayment)
    return PaymentPlan(tuple(PaymentEvent(*e) for e in events), prepayment)


def npv_cost(inst: ProjectInstance, chrom: Chromosome,
             sched: DecodedSchedule) -> float:
    """Net present value of direct, crash-premium, and overhead costs."""
    rate = 1.0 + inst.interest_rate
    total = 0.0
    for act, m, d, f in zip(inst.activities, chrom.modes, chrom.durations,
                            sched.finish):
        if act.is_dummy:
            continue
        mode = act.modes[m - 1]
        cost = mode.normal_cost + mode.cost_slope * (mode.normal_duration - d)
        total += cost / rate ** f
    total += inst.overhead * sched.makespan / rate ** sched.makespan
    return total


def quality_stats(inst: ProjectInstance, chrom: Chromosome) -> tuple[float, float]:
    """(Q_min, Q_avg) over the selected modes of non-dummy activities."""
    q_min = float("inf")
    q_sum = 0.0
    count = 0
    for act, m in zip(inst.activities, chrom.modes):
        if act.is_dummy:
            continue
        q = act.modes[m - 1].quality
        if q < q_min:
            q_min = q
        q_sum += q
        count += 1
    if count == 0:
        raise NoRealActivities("instance has only dummy activities")
    return q_min, q_sum / count


def productivity(inst: ProjectInstance, chrom: Chromosome,
                 sched: DecodedSchedule) -> float:
    """Blended quality divided by the NPV of total costs."""
    cost = npv_cost(inst, chrom, sched)
    if cost == 0:
        raise ZeroCost("npv_cost is zero; productivity undefined")
    q_min, q_avg = quality_stats(inst, chrom)
    alpha = inst.quality_blend
    return (alpha * q_min + (1 - alpha) * q_avg) / cost


def _discounted_payments(inst: ProjectInstance, sched: DecodedSchedule,
                         plan: PaymentPlan, literal_eq15: bool) -> float:
    rate = 1.0 + inst.interest_rate
    total = 0.0
    for ev in plan.events:
        # payments discount at event completion; the literal variant uses
        # the payment activity's start time instead
        t = sched.start[ev.activity - 1] if literal_eq15 else ev.time
        total += ev.amount / rate ** t
    return total


def check_feasibility(inst: ProjectInstance, chrom: Chromosome,
                      sched: DecodedSchedule, plan: PaymentPlan, cost: float,
                      *, literal_eq15: bool = False) -> FeasibilityReport:
    """The three constraint groups: resources, time, budget.

    `sched` must come from decode_schedule, which has already checked
    precedence and every duration window, so the time group is the
    deadline alone.  `cost` is npv_cost(inst, chrom, sched), which the
    caller has computed; the budget group holds when it is covered by the
    initial capital, the prepayment and the discounted payments of `plan`.
    """
    used: dict[str, int] = {}
    for act, m in zip(inst.activities, chrom.modes):
        for r, units in act.modes[m - 1].demands:
            used[r] = used.get(r, 0) + units
    resource_ok = all(used.get(r, 0) <= cap for r, cap in inst.resource_capacity)
    time_ok = sched.makespan <= inst.deadline
    available = (inst.initial_capital + plan.prepayment
                 + _discounted_payments(inst, sched, plan, literal_eq15))
    budget_ok = cost <= available + 1e-9
    return FeasibilityReport(resource_ok, time_ok, budget_ok)


def _score(inst: ProjectInstance, chrom: Chromosome, start, finish,
           literal_eq15: bool) -> tuple[ObjectiveVector, FeasibilityReport]:
    """Objectives and feasibility of a decoded chromosome.

    One loop over the real activities sums the NPV cost terms, Q_min/Q_sum
    and resource use; `_settle` then walks the payment events and closes
    the score.  Every float sum takes the operands of the reference path
    (compute_payments, npv_cost, quality_stats, productivity,
    check_feasibility) in the same order, so the results are bit-equal to it.
    """
    view = inst.compiled
    rate = view.rate
    genes = view.genes
    modes = chrom.modes
    durations = chrom.durations
    demand_rows = []
    cost = 0.0
    q_min = float("inf")
    q_sum = 0.0
    for k in view.real:
        normal_cost, slope, normal_duration, q, demands = genes[k][modes[k] - 1]
        cost += ((normal_cost + slope * (normal_duration - durations[k]))
                 / rate ** finish[k])
        if q < q_min:
            q_min = q
        q_sum += q
        demand_rows.append(demands)
    # resources: the column sums of the selected demand rows
    resource_ok = all(map(le, map(sum, zip(*demand_rows)), view.capacity_left))
    return _settle(inst, start, finish, cost, q_min, q_sum, resource_ok,
                   literal_eq15)


def _settle(inst: ProjectInstance, start, finish, cost: float, q_min: float,
            q_sum: float, resource_ok: bool, literal_eq15: bool,
            ) -> tuple[ObjectiveVector, FeasibilityReport]:
    """The closing step of scoring, shared by `_score` and the oracle.

    `cost` is the sum of the real activities' discounted cost terms in
    ascending index order, and `q_min`/`q_sum` their quality minimum and
    sum.  This walks the payment events, adds the overhead term, computes
    the productivity and reports the three constraint groups.
    """
    view = inst.compiled
    rate = view.rate
    makespan = finish[-1]
    paid = 0.0
    for _, activity, t, amount, _ in _payment_events(
            inst, finish, makespan, view.share, view.prepayment):
        if literal_eq15:
            t = start[activity - 1]
        paid += amount / rate ** t
    cost += inst.overhead * makespan / rate ** makespan
    if cost == 0:
        raise ZeroCost("npv_cost is zero; productivity undefined")
    if not view.real:
        raise NoRealActivities("instance has only dummy activities")
    alpha = inst.quality_blend
    prod = (alpha * q_min + (1 - alpha) * (q_sum / len(view.real))) / cost
    report = FeasibilityReport(
        resource_ok,
        makespan <= inst.deadline,
        cost <= inst.initial_capital + view.prepayment + paid + 1e-9)
    return ObjectiveVector(cost, makespan, prod), report


def evaluate(inst: ProjectInstance, chrom: Chromosome,
             *, literal_eq15: bool = False) -> tuple[ObjectiveVector, FeasibilityReport]:
    """Full evaluation; equal to composing the individual operations."""
    sched = decode_schedule(inst, chrom)
    return _score(inst, chrom, sched.start, sched.finish, literal_eq15)


def evaluate_variant(inst: ProjectInstance, base: DecodedSchedule,
                     variant: Chromosome, activity: int,
                     *, literal_eq15: bool = False,
                     ) -> tuple[ObjectiveVector, FeasibilityReport]:
    """evaluate(inst, variant) for a one-gene variant of a decoded chromosome.

    `base` is decode_schedule(inst, chrom), and `variant` differs from chrom
    in at most the gene of `activity`, a gene taken from inst.gene_options, so
    the variant needs no second validation.  Only `activity` and its
    descendants are re-timed, by one forward pass in topological order.
    """
    k = activity - 1
    start, finish = base.start, base.finish
    durations = variant.durations
    if start[k] + durations[k] != finish[k]:
        start = list(start)
        finish = list(finish)
        finish[k] = start[k] + durations[k]
        forward_pass(inst.predecessors, durations, start, finish,
                     inst.descendants[k])
    return _score(inst, variant, start, finish, literal_eq15)


def budget_balance(inst: ProjectInstance, chrom: Chromosome) -> float:
    """NPV cost minus prepayment and discounted payments; the initial
    capital needed to make the chromosome budget-feasible."""
    sched = decode_schedule(inst, chrom)
    plan = compute_payments(inst, sched)
    return (npv_cost(inst, chrom, sched) - plan.prepayment
            - _discounted_payments(inst, sched, plan, literal_eq15=False))


# ---------------------------------------------------------------------------
# Solution-string serialization: "a|m|d" triples joined by ":"

def format_solution(chrom: Chromosome) -> str:
    parts = []
    for a in chrom.order:
        parts.append(f"{a}|{chrom.modes[a - 1]}|{chrom.durations[a - 1]}")
    return ":".join(parts)


def parse_solution(text: str) -> Chromosome:
    order: list[int] = []
    modes: dict[int, int] = {}
    durations: dict[int, int] = {}
    try:
        for triple in text.strip().split(":"):
            a, m, d = (int(x) for x in triple.split("|"))
            order.append(a)
            modes[a] = m
            durations[a] = d
    except ValueError as exc:
        raise EncodingError(f"bad solution string {text!r}") from exc
    n = len(order)
    if sorted(order) != list(range(1, n + 1)):
        raise EncodingError("solution string is not a permutation of 1..n")
    return Chromosome(tuple(order),
                      tuple(modes[i] for i in range(1, n + 1)),
                      tuple(durations[i] for i in range(1, n + 1)))
