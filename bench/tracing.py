"""Outside-in layer trace.

Spans wrap crashplan functions in the namespace where their caller looks
them up, and are removed afterwards; the program itself is not changed.
Spans nest on a stack, so a span's self time is its duration minus the
time of the spans it encloses, and the self times of all spans plus the
root's add up to the root's duration.  Counters are taken at the same
boundaries.  A name that no longer exists is skipped and reads as 0 calls.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

#: (module, attribute or "Class.method", span name).  A function imported
#: into several modules is wrapped in each, under one span name.
SPANS = (
    ("crashplan.moga", "run_moga", "moga.run_moga"),
    ("crashplan.nsga2", "run_nsga2", "nsga2.run_nsga2"),
    ("crashplan.oracle", "true_pareto_front", "oracle.true_pareto_front"),
    ("crashplan.moga", "evaluate", "evaluate.evaluate"),
    ("crashplan.evaluate", "decode_schedule", "evaluate.decode_schedule"),
    ("crashplan.evaluate", "compute_payments", "evaluate.compute_payments"),
    ("crashplan.evaluate", "npv_cost", "evaluate.npv_cost"),
    ("crashplan.evaluate", "quality_stats", "evaluate.quality_stats"),
    ("crashplan.evaluate", "check_feasibility", "evaluate.check_feasibility"),
    ("crashplan.moga", "hill_climb", "moga.hill_climb"),
    ("crashplan.moga", "control_offspring", "moga.control_offspring"),
    ("crashplan.nsga2", "control_offspring", "moga.control_offspring"),
    ("crashplan.moga", "resample_durations", "moga.resample_durations"),
    ("crashplan.moga", "draw_feasible", "moga.draw_feasible"),
    ("crashplan.moga", "random_chromosome", "moga.random_chromosome"),
    ("crashplan.pareto", "ParetoArchive.add", "pareto.archive_add"),
    ("crashplan.pareto", "nondominated_sort", "pareto.nondominated_sort"),
    ("crashplan.moga", "nondominated_sort", "pareto.nondominated_sort"),
    ("crashplan.nsga2", "nondominated_sort", "pareto.nondominated_sort"),
    ("crashplan.nsga2", "crowding_distance", "nsga2.crowding_distance"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))
ROOT = "trace.root"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.child = Counter()
        self.counts = Counter()    # outcome counters, named like metrics
        self.distinct = set()      # (modes, durations) in the current op
        self.archives = {}         # id -> ParetoArchive seen in the current op
        self._stack = []
        self._patched = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None, before=None):
        stack = self._stack

        def traced(*args, **kwargs):
            token = before() if before is not None else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.child[name] += stack.pop()
                self.total[name] += dt
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result, token)
            return result
        return traced

    def run_root(self, fn):
        """Run fn() as the root span; returns (result, duration)."""
        result = self.wrap(ROOT, fn)()
        return result, self.total[ROOT]

    def self_time(self, name) -> float:
        return self.total[name] - self.child[name]

    # -- patching ----------------------------------------------------------

    def install(self):
        hooks = {
            "evaluate.evaluate": (self._after_evaluate, None),
            "moga.hill_climb": (self._after_hill_climb, None),
            "moga.control_offspring": (self._after_control,
                                       lambda: self.calls["moga.draw_feasible"]),
            "pareto.archive_add": (self._after_archive_add, None),
            "pareto.nondominated_sort": (self._after_sort, None),
        }
        for module_name, attr, name in SPANS:
            owner = importlib.import_module(module_name)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                continue
            original = getattr(owner, attr)
            after, before = hooks.get(name, (None, None))
            setattr(owner, attr, self.wrap(name, original, after, before))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- outcome counters --------------------------------------------------

    def _after_evaluate(self, args, result, _):
        chrom = args[1]
        self.distinct.add((chrom.modes, chrom.durations))
        if result[1].valid_number == 3:
            self.counts["evaluate.feasible"] += 1

    def _after_hill_climb(self, args, result, _):
        if result != args[1]:
            self.counts["moga.hill_climb.improved"] += 1

    def _after_control(self, args, result, draws_before):
        if self.calls["moga.draw_feasible"] > draws_before:
            self.counts["moga.control_offspring.redrawn"] += 1
        elif result[0] == args[1]:
            self.counts["moga.control_offspring.accepted"] += 1
        else:
            self.counts["moga.control_offspring.repaired"] += 1

    def _after_archive_add(self, args, result, _):
        self.archives[id(args[0])] = args[0]
        if result:
            self.counts["pareto.archive_add.accepted"] += 1

    def _after_sort(self, args, result, _):
        self.counts["pareto.nondominated_sort.n"] += len(args[0])

    def end_op(self) -> dict:
        """Close one operation; returns its distinct-pair and archive totals."""
        fronts = [a.front() for a in self.archives.values()]
        out = {"distinct": len(self.distinct),
               "archive_size": sum(len(f) for f in fronts),
               "contributors": sum(len(m.contributors)
                                   for f in fronts for m in f.members)}
        self.distinct = set()
        self.archives = {}
        return out
