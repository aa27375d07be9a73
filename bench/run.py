"""crashplan benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload moga_hillclimb --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; crashplan is imported from ./src.  Every
measurement runs in a fresh single-threaded process (bench/worker.py),
and set-up time is the median of several fresh processes, each timed from
its start to the end of importing crashplan and building the inputs.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is not 0, and no result is printed,
when a process cannot be started, set up or finished in time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 6          # plus the measuring process itself
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "CRASHPLAN_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float):
    """Run a worker to completion; returns the seconds from its start to
    its "ready" line and the rest of its stdout."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True, env=child_env())
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        killed = f" (killed at the {timeout} s limit)" if proc.returncode < 0 else ""
        raise BenchError(f"worker exited with {proc.returncode}{killed}")
    return elapsed, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = [run_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)[0]
                  for _ in range(SETUP_PROBES)]
        elapsed, out = run_worker(common + ["--seconds", str(args.seconds),
                                            "--trace", str(args.trace)],
                                  RUN_TIMEOUT_S)
        setups.append(elapsed)
        lines = out.splitlines()
        result = json.loads(lines[-1]) if lines else None
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not isinstance(result, dict):
        print("benchmark failed: worker printed no result", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    print(f"setup_s samples={[round(s, 4) for s in setups]}")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
