"""Write oracle_reference.json: the exact fronts of oracle_enum at seed 0.

    python3 bench/make_reference.py

Run from the root of a checkout.  The fronts come from a brute-force
enumeration written here, which calls only crashplan's `evaluate` and
keeps the nondominated feasible points itself, so the reference does not
depend on crashplan.oracle or crashplan.pareto.  Points are stored at the
front CSV's 12 significant digits.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from pathlib import Path

import checks
import workloads

OUT = Path(__file__).resolve().parent / "oracle_reference.json"


def exact_front(inst) -> list[tuple]:
    ev = importlib.import_module("crashplan.evaluate")
    order = importlib.import_module("crashplan.instance").topological_order(inst)
    choices = [[(1, 0)] if act.is_dummy else
               [(m, d) for m, mode in enumerate(act.modes, start=1)
                for d in range(mode.crash_duration, mode.normal_duration + 1)]
               for act in inst.activities]
    front: list[tuple] = []
    for assignment in itertools.product(*choices):
        obj, rep = ev.evaluate(inst, ev.Chromosome(
            order, tuple(m for m, _ in assignment), tuple(d for _, d in assignment)))
        if rep.valid_number != 3:
            continue
        p = tuple(obj)
        if any(f == p or checks.dominates(f, p) for f in front):
            continue
        front = [f for f in front if not checks.dominates(p, f)]
        front.append(p)
    return front


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    points = {}
    for op in workloads.build_ops("oracle_enum", 0):
        points[op.label] = sorted(checks.point_key(p) for p in exact_front(op.inst))
    OUT.write_text(json.dumps({"workload": "oracle_enum", "seed": 0,
                               "points": points}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
