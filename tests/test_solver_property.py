"""Property tests of what the solvers carry and what they find.

The solvers pair each chromosome with the objectives it was scored with
and never score it again, so every (chromosome, objectives) pair that
`init_population` draws or `hill_climb` returns must carry exactly
`evaluate(inst, chrom)[0]`; floats are compared by their hex form.

MOGA's archive is checked against the oracle's exact front on the
criterion-1 family (n = 6, two modes, duration span 3, 4,096 gene
assignments): no archive point dominates an oracle point, and each archive
point is an oracle point within DUPLICATE_TOL or is dominated by one.
The runs are short (population 10, 5 generations), so the archive need
not reach the whole front.  The module takes about 1 s on a 2-core
x86_64 VM.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from crashplan.evaluate import evaluate
from crashplan.instance import generate_instance, load_instance
from crashplan.moga import (ATTEMPTS_FACTOR, Evaluator, MogaParams, hill_climb,
                            init_population, make_rng, run_moga)
from crashplan.oracle import true_pareto_front
from crashplan.pareto import dominates

from conftest import TOY4_PATH


@lru_cache(maxsize=None)
def instance(seed):
    """toy4 for seed 0, else the criterion-1 family's instance."""
    if seed == 0:
        return load_instance(TOY4_PATH)
    return generate_instance(seed, 6, 2, 0.5, min_modes=2, min_normal=4,
                             min_span=3, max_span=3, budget_slack=2.0)


def bits(obj):
    return obj.npv_cost.hex(), obj.makespan, obj.productivity.hex()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(inst_seed=st.integers(0, 20), solver_seed=st.integers(0, 2**16),
       pop_size=st.integers(2, 12))
def test_carried_objectives_are_the_evaluated_ones(inst_seed, solver_seed,
                                                   pop_size):
    inst = instance(inst_seed)
    rng = make_rng(solver_seed, 0)
    pop = init_population(inst, pop_size, rng, Evaluator(inst),
                          ATTEMPTS_FACTOR * pop_size)
    for chrom, obj in pop:
        assert bits(obj) == bits(evaluate(inst, chrom)[0])
        # climb until the climb returns its input, checking every step
        while True:
            climbed, climbed_obj = hill_climb(inst, chrom, obj, rng=rng)
            assert bits(climbed_obj) == bits(evaluate(inst, climbed)[0])
            if climbed == chrom:
                assert climbed_obj == obj
                break
            chrom, obj = climbed, climbed_obj


@lru_cache(maxsize=None)
def oracle_front(seed):
    return true_pareto_front(instance(seed)).front


@settings(derandomize=True, deadline=None, max_examples=10)
@given(inst_seed=st.integers(1, 20), solver_seed=st.integers(0, 2**16))
def test_moga_archive_lies_within_the_oracle_front(inst_seed, solver_seed):
    exact = oracle_front(inst_seed).objectives()
    report = run_moga(instance(inst_seed),
                      MogaParams(seed=solver_seed, pop_size=10, iterations=5))
    for point in report.front.objectives():
        assert not any(dominates(point, o) for o in exact)
        assert oracle_front(inst_seed).contains_point(point) \
            or any(dominates(o, point) for o in exact)
