"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The suite is compute
heavy (criteria 1 and 7 run full solver campaigns) and takes a few
minutes on a desktop core.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from crashplan.danp import danp_weights, dematel_total
from crashplan.evaluate import baseline_chromosome, decode_schedule, evaluate
from crashplan.instance import generate_instance, load_instance
from crashplan.metrics import (generational_distance, hrs, mid, mpfe,
                               quality_measure, spacing, wilcoxon_signed_rank)
from crashplan.moga import MogaParams, hill_climb, random_chromosome, run_moga
from crashplan.nsga2 import Nsga2Params, run_nsga2
from crashplan.oracle import true_pareto_front
from crashplan.tuning import L25, anom

from conftest import TOY4_PATH
from test_metrics import front_of
from test_moga import _dominates_raw, brute_hill_climb_targets


def report(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n{tag}: {status}{suffix}")
    assert ok, f"{tag} failed{suffix}"


def small_enumerable(seed: int):
    """Criterion-1 family: n=6, two modes, duration span exactly 3."""
    return generate_instance(seed, 6, 2, 0.5, min_modes=2, min_normal=4,
                             min_span=3, max_span=3, budget_slack=2.0)


def test_criterion_01_oracle_equivalence_small_scale():
    recovered = missed = archive_total = archive_hits = 0
    slowest = 0.0
    for seed in range(1, 21):
        inst = small_enumerable(seed)
        oracle_pts = {o.as_tuple()
                      for o in true_pareto_front(inst).front.objectives()}
        t0 = time.perf_counter()
        result = run_moga(inst, MogaParams(seed=100 + seed, pop_size=50,
                                           iterations=300))
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
        moga_pts = {o.as_tuple() for o in result.front.objectives()}
        recovered += len(oracle_pts & moga_pts)
        missed += len(oracle_pts - moga_pts)
        archive_total += len(moga_pts)
        archive_hits += sum(1 for p in moga_pts if p in oracle_pts)
    recovery = recovered / (recovered + missed)
    precision = archive_hits / archive_total
    report("ACCEPT-01 oracle equivalence",
           recovery >= 0.90 and precision >= 0.95,
           f"recovery {recovery:.3f}, precision {precision:.3f}, "
           f"slowest instance {slowest:.1f}s")


def test_criterion_02_payment_identity():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for seed in range(1, 11):
        inst = generate_instance(seed, 8, 3, 0.4, budget_slack=1.0,
                                 payment_count=int(1 + seed % 4))
        target = 100
        while target:
            chrom = random_chromosome(inst, rng)
            _, rep = evaluate(inst, chrom)
            if rep.valid_number < 3:
                continue
            from crashplan.evaluate import compute_payments
            plan = compute_payments(inst, decode_schedule(inst, chrom))
            gap = abs(plan.prepayment + sum(e.amount for e in plan.events)
                      - inst.price)
            worst = max(worst, gap)
            checked += 1
            target -= 1
    report("ACCEPT-02 payment identity",
           checked == 1000 and worst <= 1e-9,
           f"{checked} schedules, worst gap {worst:.2e}")


def test_criterion_03_discount_monotonicity():
    rates = (0.0, 0.05, 0.1, 0.2)
    instances = [load_instance(TOY4_PATH)]
    instances += [generate_instance(seed, 7, 2, 0.5) for seed in range(1, 6)]
    ok = True
    for inst in instances:
        chrom = baseline_chromosome(inst)
        npvs, prods = [], []
        for rate in rates:
            variant = replace(inst, interest_rate=rate)
            obj, _ = evaluate(variant, chrom)
            npvs.append(obj.npv_cost)
            prods.append(obj.productivity)
        ok &= all(a > b for a, b in zip(npvs, npvs[1:]))
        ok &= all(a < b for a, b in zip(prods, prods[1:]))
    report("ACCEPT-03 discount monotonicity", ok,
           f"{len(instances)} chromosomes x {len(rates)} rates")


def test_criterion_04_deadline_monotonicity():
    from crashplan.instance import compute_time_windows
    ok = True
    detail = []
    for seed in (3, 7, 11, 15, 19):
        inst = small_enumerable(seed)
        # grid from just above the fully crashed makespan (the CPM bound
        # itself can be resource-infeasible) so tight horizons actually
        # exclude the cheap slow schedules
        crash_makespan = compute_time_windows(inst).earliest_finish[inst.n]
        best = []
        for bump in (2, 4, 6, 8):
            variant = replace(inst, deadline=crash_makespan + bump)
            front = true_pareto_front(variant).front
            best.append(min(o.npv_cost for o in front.objectives()))
        ok &= all(a >= b - 1e-9 for a, b in zip(best, best[1:]))
        detail.append(round(best[0] - best[-1], 3))
    ok &= any(drop > 0 for drop in detail)  # the trend, not just non-increase
    report("ACCEPT-04 deadline monotonicity", ok,
           f"npv drop over grid per instance: {detail}")


def test_criterion_05_metric_self_consistency():
    rng = np.random.default_rng(55)
    front = front_of(*[(rng.uniform(50, 150), rng.integers(3, 9),
                        rng.uniform(0.1, 0.5)) for _ in range(7)])
    checks = {
        "GD(F,F)": generational_distance(front, front),
        "MPFE(F,F)": mpfe(front, front),
        "SP evenly spaced": spacing(front_of((0, 0, 0.0), (2, 0, 0.0),
                                             (4, 0, 0.0), (6, 0, 0.0))),
        "HRS equal gaps": hrs(front_of((0, 0, 0.0), (1, 0, 0.0),
                                       (2, 0, 0.0), (3, 0, 0.0))) - 1.0,
        "MID at ideal": mid(front_of((100, 5, 0.3))),
    }
    qm = quality_measure([front, front])
    checks["QM identical"] = abs(qm[0] - 1.0) + abs(qm[1] - 1.0)
    worst = max(abs(v) for v in checks.values())
    report("ACCEPT-05 metric self-consistency", worst <= 1e-9,
           f"worst residual {worst:.2e}")


def test_criterion_06_hill_climb_soundness():
    rng = np.random.default_rng(66)
    instances = [load_instance(TOY4_PATH)]
    instances += [generate_instance(seed, 6, 2, 0.5, budget_slack=1.0)
                  for seed in range(1, 5)]
    checked = 0
    ok = True
    for inst in instances:
        for _ in range(20):
            while True:
                chrom = random_chromosome(inst, rng)
                base_obj, rep = evaluate(inst, chrom)
                if rep.valid_number == 3:
                    break
            out, _ = hill_climb(inst, chrom, base_obj, rng=rng)
            out_obj, _ = evaluate(inst, out)
            ok &= not _dominates_raw(base_obj, out_obj)
            targets = brute_hill_climb_targets(inst, chrom)
            if targets is None:
                ok &= out == chrom
            else:
                ok &= out_obj.as_tuple() in targets
            checked += 1
    report("ACCEPT-06 hill-climb soundness", ok and checked == 100,
           f"{checked} chromosomes vs brute-force scan")


def test_criterion_07_comparative_trend():
    qms = []
    for i in range(10):
        n = 12 + (i * 8) // 9
        inst = generate_instance(1000 + i, n, 2, 0.3, budget_slack=0.0)
        moga = run_moga(inst, MogaParams(seed=50 + i, pop_size=30,
                                         iterations=200))
        nsga = run_nsga2(inst, Nsga2Params(seed=50 + i, pop_size=30,
                                           iterations=10 ** 9),
                         max_evaluations=moga.evaluations)
        qms.append(tuple(quality_measure([moga.front, nsga.front])))
    mean_moga = sum(a for a, _ in qms) / len(qms)
    mean_nsga = sum(b for _, b in qms) / len(qms)
    try:
        _, p_value = wilcoxon_signed_rank(qms)
        p_text = f"{p_value:.4f}"
    except Exception:
        p_text = "n/a (too few nonzero differences)"
    report("ACCEPT-07 comparative trend", mean_moga >= mean_nsga,
           f"mean QM moga {mean_moga:.3f} vs nsga2 {mean_nsga:.3f}, "
           f"wilcoxon p {p_text}")


def test_criterion_08_taguchi_recovery():
    best_levels = (3, 0, 2, 4, 1, 2)
    responses = [sum((row[f] - best_levels[f]) ** 2 for f in range(6))
                 for row in L25]
    _, recommended = anom(responses)
    report("ACCEPT-08 taguchi recovery", recommended == best_levels,
           f"recovered {recommended}")


def test_criterion_09_danp_sanity():
    # the uniform-weights property holds for a symmetric equal-row-sum
    # total-relation matrix; an *influence* matrix with exactly equal row
    # sums normalizes to spectral radius 1 and is singular by construction
    t = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
                 dtype=float)
    weights = danp_weights(t)
    uniform_gap = float(np.abs(weights - 0.25).max())

    # a near-balanced influence matrix stays near-uniform end to end
    a = t.copy()
    a[0, 1] += 1e-3
    pipeline_gap = float(np.abs(danp_weights(dematel_total(a)) - 0.25).max())
    assert pipeline_gap < 1e-3

    from test_danp import power_iteration_weights
    rng = np.random.default_rng(99)
    t = rng.uniform(0.1, 3.0, size=(4, 4))
    oracle_gap = float(np.abs(danp_weights(t)
                              - power_iteration_weights(t)).max())
    report("ACCEPT-09 danp sanity",
           uniform_gap <= 1e-9 and oracle_gap <= 1e-6,
           f"uniform gap {uniform_gap:.2e}, power-iteration gap {oracle_gap:.2e}")


def test_criterion_10_determinism(tmp_path):
    def cli(*args):
        proc = subprocess.run([sys.executable, "-m", "crashplan", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    inst = tmp_path / "inst.json"
    gen_a = tmp_path / "gen_a.json"
    gen_b = tmp_path / "gen_b.json"
    cli("gen", "--seed", "4", "--activities", "6", "--modes", "2",
        "--out", str(gen_a))
    cli("gen", "--seed", "4", "--activities", "6", "--modes", "2",
        "--out", str(gen_b))
    cli("gen", "--seed", "9", "--activities", "7", "--modes", "2",
        "--out", str(inst))

    ok = gen_a.read_bytes() == gen_b.read_bytes()
    for algo in ("moga", "nsga2"):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{algo}_{threads}.csv"
            cli("solve", "--algo", algo, "--instance", str(inst),
                "--seed", "11", "--pop", "10", "--iterations", "10",
                "--threads", threads, "--out", str(out))
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]

    levels = tmp_path / "levels.json"
    levels.write_text(
        '{"elitism_rate": [0.0, 0.05, 0.1, 0.15, 0.2],'
        ' "hill_climb_rate": [0.0, 0.1, 0.2, 0.3, 0.4],'
        ' "mutation_rate": [0.2, 0.3, 0.4, 0.5, 0.6],'
        ' "crossover_rate": [0.4, 0.5, 0.6, 0.7, 0.8],'
        ' "iterations": [1, 2, 2, 3, 3], "pop_size": [4, 5, 6, 7, 8]}')
    tune_outs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"tune_{threads}"
        cli("tune", "--instance", str(inst), "--seed", "13",
            "--levels", str(levels), "--threads", threads,
            "--out-dir", str(out_dir))
        tune_outs.append((out_dir / "tuning.json").read_bytes())
    ok &= tune_outs[0] == tune_outs[1]
    report("ACCEPT-10 determinism", ok,
           "gen/solve/tune byte-identical across reruns and thread counts")
