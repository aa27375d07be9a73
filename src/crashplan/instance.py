"""Problem instances: domain types, validation, CPM time windows, the file
format (field tables, number rule, input-file reader), the check of an
instance built in code, the one rule that turns a seed into a random
stream, and a deterministic synthetic-instance generator.

An instance holds the activity network (dummy start = activity 1, dummy
end = activity n), the per-mode duration/cost/quality/resource data, and
the financial parameters of the payment plan.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import add
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import BadParams, InfeasibleInstance, NoFeasible, ParseError

SCHEMA_VERSION = 1

_TOL = 1e-9


@dataclass(frozen=True)
class ActivityMode:
    """One execution mode: duration window, cost profile, quality, demands."""

    normal_duration: int
    crash_duration: int
    normal_cost: float
    cost_slope: float
    quality: float
    demands: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Activity:
    id: int
    successors: frozenset[int]
    earned_value: float
    modes: tuple[ActivityMode, ...]
    is_dummy: bool = False


class CompiledInstance(NamedTuple):
    """Flat tables for the scoring pass of `evaluate` and the oracle's walk;
    all activity references are indices (id - 1).  Built once per instance
    by ProjectInstance.compiled from the activity modes, which the
    reference path of `evaluate` reads directly."""

    #: the non-dummy activities, ascending
    real: tuple[int, ...]
    #: (normal_cost, cost_slope, normal_duration, quality, demands) per
    #: activity and mode index - 1; demands follow resource_capacity order
    genes: tuple[tuple[tuple[float, float, int, float, tuple[int, ...]], ...], ...]
    #: 1 + k_x, the per-period discount base
    rate: float
    #: theta - gamma, the share of newly earned value paid at each event
    share: float
    #: gamma * U
    prepayment: float
    #: each capacity less the dummies' demand: a dummy has one mode, so its
    #: demand is fixed and the scoring pass sums the real activities only
    capacity_left: tuple[int, ...]
    #: per k in 0..n, the least demand of the real activities k.. per
    #: resource, each taking its least demanding mode
    least_demand: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ProjectInstance:
    """Immutable problem instance; safe to share across threads."""

    activities: tuple[Activity, ...]
    resource_capacity: tuple[tuple[str, int], ...]
    interest_rate: float
    overhead: float
    prepay_ratio: float
    compensation_ratio: float
    deadline: int
    price: float
    initial_capital: float
    quality_blend: float
    payment_count: int

    @cached_property
    def n(self) -> int:
        return len(self.activities)

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Predecessor indices (id - 1), ascending, per activity; indexed
        by id - 1."""
        preds: list[list[int]] = [[] for _ in self.activities]
        for act in self.activities:
            for h in act.successors:
                preds[h - 1].append(act.id - 1)
        return tuple(tuple(sorted(p)) for p in preds)

    # Flat lookup tables for the evaluation hot path; all indexed by
    # activity id - 1 and then by mode index - 1.

    @cached_property
    def earned_values(self) -> tuple[float, ...]:
        return tuple(a.earned_value for a in self.activities)

    @cached_property
    def duration_bounds(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple((m.crash_duration, m.normal_duration) for m in a.modes)
                     for a in self.activities)

    @cached_property
    def dummy_flags(self) -> tuple[bool, ...]:
        return tuple(a.is_dummy for a in self.activities)

    @cached_property
    def compiled(self) -> CompiledInstance:
        """The evaluation tables, built on first use (the first evaluation)."""
        index = {r: x for x, (r, _) in enumerate(self.resource_capacity)}
        capacity_left = [c for _, c in self.resource_capacity]
        genes = []
        for act in self.activities:
            rows = []
            for m in act.modes:
                demands = [0] * len(index)
                for r, units in m.demands:
                    demands[index[r]] += units
                rows.append((m.normal_cost, m.cost_slope, m.normal_duration,
                             m.quality, tuple(demands)))
            genes.append(tuple(rows))
            if act.is_dummy:
                for r, units in act.modes[0].demands:
                    capacity_left[index[r]] -= units
        least = [(0,) * len(index)] * (self.n + 1)
        for k in reversed(range(self.n)):
            least[k] = least[k + 1]
            if not self.activities[k].is_dummy:
                rows = (gene[4] for gene in genes[k])
                least[k] = tuple(map(add, least[k], map(min, zip(*rows))))
        return CompiledInstance(
            real=tuple(k for k, is_dummy in enumerate(self.dummy_flags)
                       if not is_dummy),
            genes=tuple(genes),
            rate=1.0 + self.interest_rate,
            share=self.compensation_ratio - self.prepay_ratio,
            prepayment=self.prepay_ratio * self.price,
            capacity_left=tuple(capacity_left),
            least_demand=tuple(least))

    @cached_property
    def descendants(self) -> tuple[tuple[int, ...], ...]:
        """Everything reachable from each activity, as indices in canonical
        topological order, so one forward pass over it re-times a change to
        that activity.  O(n^2) entries: built for the hill climb's
        `evaluate_variant` only."""
        succs = [[h - 1 for h in a.successors] for a in self.activities]
        topo_pos = {i - 1: p for p, i in enumerate(topological_order(self))}
        return tuple(tuple(sorted(_reachable(succs, k) - {k},
                                  key=topo_pos.__getitem__))
                     for k in range(self.n))

    @cached_property
    def gene_options(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every (mode, duration) gene of each activity, indexed by id - 1:
        mode-major with durations ascending; a dummy has only (1, 0)."""
        return tuple(
            ((1, 0),) if a.is_dummy else tuple(
                (m_idx, d) for m_idx, m in enumerate(a.modes, start=1)
                for d in range(m.crash_duration, m.normal_duration + 1))
            for a in self.activities)


@dataclass(frozen=True)
class TimeWindows:
    """Earliest/latest finish per activity under maximal compression."""

    earliest_finish: dict[int, int]
    latest_finish: dict[int, int]


@dataclass(frozen=True)
class Violation:
    field: str
    rule: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.field}: {self.rule}"
        return f"{msg} ({self.detail})" if self.detail else msg


def topological_order(inst: ProjectInstance) -> tuple[int, ...]:
    """Canonical topological order of the precedence graph: Kahn's
    algorithm taking the smallest ready id first.  Raises BadParams when
    the graph has a cycle."""
    indeg = [len(p) for p in inst.predecessors]
    ready = [i + 1 for i in range(inst.n) if indeg[i] == 0]
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for h in inst.activities[i - 1].successors:
            indeg[h - 1] -= 1
            if indeg[h - 1] == 0:
                heapq.heappush(ready, h)
    if len(order) != inst.n:
        raise BadParams("precedence graph has a cycle")
    return tuple(order)


def _reachable(neighbours, start: int) -> set[int]:
    """Every index reachable from `start` over the index lists
    `neighbours` (successors or predecessors), `start` included."""
    seen = {start}
    stack = [start]
    while stack:
        for h in neighbours[stack.pop()]:
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def forward_pass(preds, durations, start: list, finish: list, indices) -> None:
    """Earliest start over `indices`, in their order: each start is the
    largest predecessor finish (0 with none) and each finish that start
    plus the duration.  Indices are id - 1; `start` and `finish` change in
    place, and a predecessor outside `indices` keeps the finish it has."""
    for k in indices:
        s = 0
        for p in preds[k]:
            f = finish[p]
            if f > s:
                s = f
        start[k] = s
        finish[k] = s + durations[k]


def validate_instance(inst: ProjectInstance) -> list[Violation]:
    """Check every type invariant; violations are data, not failures."""
    v: list[Violation] = []
    n = inst.n

    for pos, act in enumerate(inst.activities):
        if act.id != pos + 1:
            v.append(Violation(f"activities[{pos}].id", "ids must be 1..n in order",
                               f"got {act.id}"))
    if v:
        return v  # downstream checks assume positional ids

    if n < 2 or not inst.activities[0].is_dummy or not inst.activities[-1].is_dummy:
        v.append(Violation("activities", "activity 1 and activity n must be dummies"))
        if n < 2:
            return v  # the graph checks start at activity 1 and end at n

    resources = {r for r, _ in inst.resource_capacity}
    bad_successor = False
    for act in inst.activities:
        tag = f"activities[{act.id - 1}]"
        if not act.modes:
            v.append(Violation(f"{tag}.modes", "nonempty mode list required"))
            continue
        for k, m in enumerate(act.modes):
            mtag = f"{tag}.modes[{k}]"
            if not (0 <= m.crash_duration <= m.normal_duration):
                v.append(Violation(f"{mtag}.crash_duration", "0 <= d_im <= D_im",
                                   f"{m.crash_duration} vs {m.normal_duration}"))
            if not (0 <= m.normal_cost < math.inf):
                v.append(Violation(f"{mtag}.normal_cost", "C_im >= 0 and finite"))
            if not (0 <= m.cost_slope < math.inf):
                v.append(Violation(f"{mtag}.cost_slope", "R_im >= 0 and finite"))
            if not (0 <= m.quality <= 100):
                v.append(Violation(f"{mtag}.quality", "0 <= q_im <= 100", f"got {m.quality}"))
            for r, units in m.demands:
                if units < 0:
                    v.append(Violation(f"{mtag}.demands[{r}]", "demand >= 0"))
                if r not in resources:
                    v.append(Violation(f"{mtag}.demands[{r}]", "unknown resource id"))
        if not math.isfinite(act.earned_value):
            v.append(Violation(f"{tag}.earned_value", "V_i finite"))
        if act.is_dummy:
            m = act.modes[0]
            degenerate = (len(act.modes) == 1 and m.normal_duration == 0
                          and m.crash_duration == 0 and m.normal_cost == 0
                          and m.cost_slope == 0 and act.earned_value == 0)
            if not degenerate:
                v.append(Violation(f"{tag}", "dummy needs one zero mode and V=0"))
        for h in act.successors:
            if not (1 <= h <= n):
                bad_successor = True
                v.append(Violation(f"{tag}.successors", "successor ids must be valid",
                                   f"got {h}"))
            elif h == act.id:
                v.append(Violation(f"{tag}.successors", "self-loop"))

    if bad_successor:
        return v

    try:
        topological_order(inst)
    except BadParams:
        v.append(Violation("activities", "precedence graph must be acyclic"))
    else:
        fwd = _reachable([[h - 1 for h in a.successors] for a in inst.activities], 0)
        unreachable = [k + 1 for k in range(1, n) if k not in fwd]
        if unreachable:
            v.append(Violation("activities", "every non-start activity reachable from 1",
                               f"unreachable: {unreachable}"))
        # activity n reaches exactly its ancestors: one backward search
        ancestors = _reachable(inst.predecessors, n - 1)
        dead_end = [k + 1 for k in range(n) if k not in ancestors]
        if dead_end:
            v.append(Violation("activities", "activity n reachable from every activity",
                               f"dead ends: {dead_end}"))

    if sum(a.earned_value for a in inst.activities) > inst.price + _TOL:
        v.append(Violation("price", "sum of earned values must not exceed U"))
    if not (0 < inst.price < math.inf):  # the negated forms reject NaN
        v.append(Violation("price", "U > 0 and finite"))
    if not (0 <= inst.interest_rate < math.inf):
        v.append(Violation("interest_rate", "k_x >= 0 and finite"))
    else:
        # the latest possible finish: every activity in series at its
        # longest normal duration; npv_cost discounts up to it
        horizon = sum(max((m.normal_duration for m in a.modes), default=0)
                      for a in inst.activities)
        try:
            (1.0 + inst.interest_rate) ** horizon
        except OverflowError:
            v.append(Violation("interest_rate", "(1 + k_x) ** H must not overflow",
                               f"H = {horizon}"))
    if not (0 <= inst.overhead < math.inf):
        v.append(Violation("overhead", "overhead >= 0 and finite"))
    if inst.deadline > sys.float_info.max:
        v.append(Violation("deadline", "D must not exceed the largest float"))
    if not (0 <= inst.prepay_ratio < 1):
        v.append(Violation("prepay_ratio", "gamma in [0, 1)"))
    if not (inst.prepay_ratio < inst.compensation_ratio <= 1):
        v.append(Violation("compensation_ratio", "theta in (gamma, 1]"))
    if not (0 <= inst.initial_capital < math.inf):
        v.append(Violation("initial_capital", "ICA >= 0 and finite"))
    if not (0 <= inst.quality_blend <= 1):
        v.append(Violation("quality_blend", "alpha in [0, 1]"))
    if inst.payment_count < 1:
        v.append(Violation("payment_count", "J >= 1"))
    elif inst.payment_count > n:
        # each event is tied to an activity's completion, so more events
        # than activities would repeat one; this bounds the payment walk
        v.append(Violation("payment_count", "J <= n",
                           f"got {inst.payment_count}, n = {n}"))
    return v


def compute_time_windows(inst: ProjectInstance) -> TimeWindows:
    """CPM finish-time windows using each activity's minimum crash duration.

    Raises InfeasibleInstance when even maximal compression misses the deadline.
    """
    order = topological_order(inst)
    crash = [min(lo for lo, _ in windows) for windows in inst.duration_bounds]
    ef = [0] * inst.n
    forward_pass(inst.predecessors, crash, [0] * inst.n, ef,
                 [i - 1 for i in order])
    if ef[inst.n - 1] > inst.deadline:
        raise InfeasibleInstance(
            f"earliest finish {ef[inst.n - 1]} exceeds deadline {inst.deadline}")
    lf = [inst.deadline] * inst.n
    for i in reversed(order):
        succs = inst.activities[i - 1].successors
        if succs:
            lf[i - 1] = min(lf[h - 1] - crash[h - 1] for h in succs)
    return TimeWindows(
        earliest_finish={i + 1: ef[i] for i in range(inst.n)},
        latest_finish={i + 1: lf[i] for i in range(inst.n)},
    )


def check_capacities(inst: ProjectInstance) -> None:
    """Raise NoFeasible naming the first resource whose capacity even the
    least demanding mode of every activity overruns: then no chromosome is
    resource-feasible."""
    view = inst.compiled
    for (r, cap), left, least in zip(inst.resource_capacity,
                                     view.capacity_left, view.least_demand[0]):
        if least > left:
            raise NoFeasible(f"resource {r}: least total demand "
                             f"{cap - left + least} exceeds capacity {cap}")


# ---------------------------------------------------------------------------
# JSON format: one field table per object level, which one walk reads,
# checks and writes

def is_number(x) -> bool:
    """An int or a float, not a bool: a number in an input file."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_whole(x) -> bool:
    """A number with an integral value: 4 and 4.0, not 4.7 or inf."""
    return is_number(x) and (isinstance(x, int) or x.is_integer())


#: the scalar kinds, named as a ParseError names them: (test, model type)
WHOLE, NUMBER, FLAG = "a whole number", "a number", "a boolean"
_SCALARS = {WHOLE: (is_whole, int), NUMBER: (is_number, float),
            FLAG: (lambda x: isinstance(x, bool), bool)}
#: an id array, a resource -> units object, and the unstored schema version
IDS, COUNTS, VERSION = "ids", "counts", "version"


class _Table(NamedTuple):
    """One object level of the file: its model class and its (name, kind)
    fields in file order; a field of a _Table kind holds an array of them."""

    model: type
    fields: tuple[tuple[str, object], ...]


_MODE = _Table(ActivityMode, (
    ("normal_duration", WHOLE), ("crash_duration", WHOLE),
    ("normal_cost", NUMBER), ("cost_slope", NUMBER), ("quality", NUMBER),
    ("demands", COUNTS)))
_ACTIVITY = _Table(Activity, (
    ("id", WHOLE), ("successors", IDS), ("earned_value", NUMBER),
    ("is_dummy", FLAG), ("modes", _MODE)))
_INSTANCE = _Table(ProjectInstance, (
    ("schema_version", VERSION), ("activities", _ACTIVITY),
    ("resource_capacity", COUNTS), ("interest_rate", NUMBER),
    ("overhead", NUMBER), ("prepay_ratio", NUMBER),
    ("compensation_ratio", NUMBER), ("deadline", WHOLE), ("price", NUMBER),
    ("initial_capital", NUMBER), ("quality_blend", NUMBER),
    ("payment_count", WHOLE)))


def _read(kind, value, path: str):
    """The model value of one field, or ParseError naming its path."""
    if kind is VERSION:
        if _read(WHOLE, value, path) != SCHEMA_VERSION:
            raise ParseError(f"{path}: unsupported version {value}")
        return value
    if kind in _SCALARS:
        test, model_type = _SCALARS[kind]
        if not test(value):
            raise ParseError(f"{path}: expected {kind}, "
                             f"got {json.dumps(value, default=repr)}")
        try:
            return model_type(value)
        except OverflowError as exc:
            raise ParseError(f"{path}: out of range ({exc})") from None
    if kind is COUNTS:
        if not isinstance(value, dict):
            raise ParseError(f"{path}: expected an object")
        return tuple(sorted((r, _read(WHOLE, u, f"{path}[{r}]"))
                            for r, u in value.items()))
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array")
    if kind is IDS:
        return frozenset(_read(WHOLE, x, f"{path}[{k}]")
                         for k, x in enumerate(value))
    return tuple(_read_object(kind, x, f"{path}[{k}]")
                 for k, x in enumerate(value))


def _read_object(table: _Table, obj, path: str):
    where = path or "top level"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    names = {name for name, _ in table.fields}
    for problem, keys in (("unknown", set(obj) - names),
                          ("missing", names - set(obj))):
        if keys:
            raise ParseError(f"{where}: {problem} field '{sorted(keys)[0]}'")
    values = {name: _read(kind, obj[name], f"{path}.{name}" if path else name)
              for name, kind in table.fields}
    values.pop("schema_version", None)
    return table.model(**values)


def _write(kind, value):
    if isinstance(kind, _Table):
        return [_write_object(kind, item) for item in value]
    if kind is IDS:
        return sorted(value)
    return dict(value) if kind is COUNTS else value


def _write_object(table: _Table, obj) -> dict:
    return {name: SCHEMA_VERSION if kind is VERSION
            else _write(kind, getattr(obj, name)) for name, kind in table.fields}


def instance_to_dict(inst: ProjectInstance) -> dict:
    return _write_object(_INSTANCE, inst)


def instance_from_dict(data) -> ProjectInstance:
    """The instance a JSON value states; ParseError naming the first field
    of the wrong kind or the first rule of `validate_instance` it breaks."""
    inst = _read_object(_INSTANCE, data, "")
    violations = validate_instance(inst)
    if violations:
        raise ParseError(f"{violations[0].field}: {violations[0].rule}")
    return inst


def read_text(path: str | Path) -> str:
    """The text of an input file; ParseError unless it is UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def read_json(path: str | Path):
    """The JSON value of an input file; ParseError names the file and a
    syntax error's line."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def save_instance(inst: ProjectInstance, path: str | Path) -> None:
    from .reporting import write_json  # reporting imports this module
    write_json(path, instance_to_dict(inst))


def load_instance(path: str | Path) -> ProjectInstance:
    return instance_from_dict(read_json(path))


def instance_hash(inst: ProjectInstance) -> str:
    """Stable content hash used in report headers and sidecars."""
    canonical = json.dumps(instance_to_dict(inst), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Seeds and synthetic instances

def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The stream root of (seed, spawn key): the only place a seed becomes
    a SeedSequence.  Raises BadParams for a negative seed."""
    if seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Pre-split RNG stream: one generator per (seed, spawn-key) pair."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *key)))


def generate_instance(seed: int, n: int, max_modes: int, density: float,
                      *,
                      min_modes: int = 1,
                      n_resources: int = 1,
                      min_normal: int = 2,
                      max_normal: int = 8,
                      min_span: int = 0,
                      max_span: int = 3,
                      payment_count: int | None = None,
                      budget_slack: float = 0.1) -> ProjectInstance:
    """Deterministically synthesize a validating, baseline-feasible instance.

    The all-normal first-mode earliest-start schedule is feasible for all
    three constraint groups by construction: the deadline is set above its
    makespan, capacities cover first-mode demands, and the initial capital
    is back-solved from its NPV against the payment plan.  Within each
    activity, shorter modes carry strictly lower quality.

    budget_slack is the extra initial capital as a fraction of the price.
    """
    if n < 3:
        raise BadParams(f"n must be >= 3, got {n}")
    if max_modes < 1:
        raise BadParams(f"max_modes must be >= 1, got {max_modes}")
    if not (1 <= min_modes <= max_modes):
        raise BadParams("need 1 <= min_modes <= max_modes")
    if n_resources < 0:
        raise BadParams(f"n_resources must be >= 0, got {n_resources}")
    if not (0 < density <= 1):
        raise BadParams(f"density must be in (0, 1], got {density}")
    if not (1 <= min_normal <= max_normal):
        raise BadParams("need 1 <= min_normal <= max_normal")
    if not (0 <= min_span <= max_span):
        raise BadParams("need 0 <= min_span <= max_span")
    if payment_count is not None and not (1 <= payment_count <= n):
        raise BadParams(f"payment_count must be in [1, n = {n}], "
                        f"got {payment_count}")

    rng = make_rng(seed)
    reals = list(range(2, n))

    succ: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for ai, i in enumerate(reals):
        for j in reals[ai + 1:]:
            if rng.random() < density:
                succ[i].add(j)
    has_pred = {j for s in succ.values() for j in s}
    for i in reals:
        if i not in has_pred:
            succ[1].add(i)
        if not succ[i]:
            succ[i].add(n)
    if not succ[1]:
        succ[1].add(n)

    zero_mode = ActivityMode(0, 0, 0.0, 0.0, 0.0, ())
    resources = tuple(f"r{k + 1}" for k in range(n_resources))
    activities: list[Activity] = []
    first_mode_demand = {r: 0 for r in resources}
    first_mode_costs: list[float] = []

    for i in range(1, n + 1):
        if i == 1 or i == n:
            activities.append(Activity(i, frozenset(succ[i]), 0.0, (zero_mode,), True))
            continue
        window = max_normal - min_normal + 1
        m_count = int(rng.integers(min(min_modes, window),
                                   min(max_modes, window) + 1))
        normals = sorted(rng.choice(np.arange(min_normal, max_normal + 1),
                                    size=m_count, replace=False).tolist(),
                         reverse=True)  # mode 1 = slowest, cheapest, best quality
        quality = float(rng.uniform(75, 95))
        cost = float(rng.uniform(50, 200))
        modes = []
        for dur in normals:
            crash = max(1, dur - int(rng.integers(min_span, max_span + 1)))
            demands = tuple((r, int(rng.integers(1, 4))) for r in resources)
            modes.append(ActivityMode(
                normal_duration=int(dur),
                crash_duration=crash,
                normal_cost=round(cost, 2),
                cost_slope=round(float(rng.uniform(5, 40)), 2),
                quality=round(quality, 2),
                demands=demands,
            ))
            quality -= float(rng.uniform(5, 15))
            quality = max(quality, 1.0)
            cost *= 1 + float(rng.uniform(0.1, 0.5))
        first_mode_costs.append(modes[0].normal_cost)
        for r, u in modes[0].demands:
            first_mode_demand[r] += u
        activities.append(Activity(i, frozenset(succ[i]),
                                   0.0,  # earned values filled below
                                   tuple(modes), False))

    total_cost = sum(first_mode_costs)
    price = round(total_cost * float(rng.uniform(1.5, 2.5)), 2)
    values = [round(price * c / total_cost, 2) for c in first_mode_costs]
    values[-1] = round(price - sum(values[:-1]), 2)  # exact sum == U
    vi = iter(values)
    activities = [a if a.is_dummy else replace(a, earned_value=next(vi))
                  for a in activities]

    capacity = tuple(
        (r, first_mode_demand[r] + int(rng.integers(0, 2 + first_mode_demand[r] // 4)))
        for r in resources)

    interest_rate = round(float(rng.uniform(0.01, 0.1)), 3)
    overhead = round(float(rng.uniform(5, 20)), 2)
    prepay_ratio = round(float(rng.uniform(0.1, 0.3)), 2)
    stretch = float(rng.uniform(1.1, 1.4))
    if payment_count is None:
        payment_count = int(rng.integers(1, 4))
    theta = min(1.0, prepay_ratio + round(float(rng.uniform(0.3, 0.6)), 2))
    inst = ProjectInstance(
        activities=tuple(activities), resource_capacity=capacity,
        interest_rate=interest_rate, overhead=overhead,
        prepay_ratio=prepay_ratio, compensation_ratio=theta,
        deadline=0,  # set from the baseline makespan below
        price=price, initial_capital=0.0, quality_blend=0.5,
        payment_count=payment_count)

    # the deadline stretches the baseline schedule's makespan, and the
    # initial capital is back-solved from its budget gap, which discounts
    # up to the horizon that the rules bound: so they are checked first
    from .evaluate import baseline_chromosome, budget_balance, decode_schedule
    baseline = baseline_chromosome(inst)
    makespan = decode_schedule(inst, baseline).makespan
    what = "generator produced invalid instance"
    inst = checked(replace(inst, deadline=int(math.ceil(makespan * stretch)) + 1),
                   what)
    deficit = budget_balance(inst, baseline)
    ica = round(max(0.0, deficit) + budget_slack * price, 2)
    return checked(replace(inst, initial_capital=ica), what)


def checked(inst: ProjectInstance, what: str) -> ProjectInstance:
    """inst, or BadParams "<what>: <violation>" naming the first rule an
    instance built in code breaks (a generated instance, a sweep's variant,
    a patched instance): the same rules a loaded file is held to."""
    violations = validate_instance(inst)
    if violations:
        raise BadParams(f"{what}: {violations[0]}")
    return inst
