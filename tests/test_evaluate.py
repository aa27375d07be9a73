from dataclasses import replace

import numpy as np
import pytest

from crashplan.errors import (BadParams, EncodingError, NoRealActivities,
                              ZeroCost)
from crashplan.evaluate import (Chromosome, check_feasibility,
                                compute_payments, decode_schedule, evaluate,
                                format_solution, npv_cost, parse_solution,
                                productivity, quality_stats)
from crashplan.instance import (ActivityMode, generate_instance,
                                topological_order)
from crashplan.moga import random_chromosome

from conftest import dummy, make_instance, real, replace_activity

TOY4_BASELINE = Chromosome((1, 2, 3, 4), (1, 1, 1, 1), (0, 4, 5, 0))


def chrom(order, modes, durations):
    return Chromosome(tuple(order), tuple(modes), tuple(durations))


class TestDecode:
    def test_toy4_baseline(self, toy4):
        sched = decode_schedule(toy4, TOY4_BASELINE)
        assert sched.start == (0, 0, 0, 5)
        assert sched.finish == (0, 4, 5, 5)
        assert sched.makespan == 5

    def test_toy4_crashed(self, toy4):
        sched = decode_schedule(toy4, chrom((1, 2, 3, 4), (1, 2, 1, 1), (0, 2, 3, 0)))
        assert sched.makespan == 3

    def test_all_zero_durations(self, zeros4):
        sched = decode_schedule(zeros4, chrom((1, 2, 3, 4), (1, 1, 1, 1), (0, 0, 0, 0)))
        assert sched.makespan == 0

    def test_order_not_topological(self, toy4):
        with pytest.raises(EncodingError, match="precedence"):
            decode_schedule(toy4, chrom((2, 1, 3, 4), (1, 1, 1, 1), (0, 4, 5, 0)))

    def test_duration_out_of_bounds(self, toy4):
        with pytest.raises(EncodingError, match="duration"):
            decode_schedule(toy4, chrom((1, 2, 3, 4), (1, 1, 1, 1), (0, 5, 5, 0)))

    def test_dummy_duration_must_be_zero(self, toy4):
        with pytest.raises(EncodingError, match="dummy"):
            decode_schedule(toy4, chrom((1, 2, 3, 4), (1, 1, 1, 1), (1, 4, 5, 0)))

    @pytest.mark.parametrize("order,modes,durations,word", [
        ((1, 2, 3), (1, 1, 1, 1), (0, 4, 5, 0), "lengths"),
        ((1, 2, 2, 4), (1, 1, 1, 1), (0, 4, 5, 0), "permutation"),
        ((1, 2, 3, 5), (1, 1, 1, 1), (0, 4, 5, 0), "permutation"),
        ((1, 2, 4, 3), (1, 1, 1, 1), (0, 4, 5, 0), "precedence"),
        ((1, 2, 3, 4), (1, 3, 1, 1), (0, 4, 5, 0), "mode"),
        ((1, 2, 3, 4), (1, 1, 0, 1), (0, 4, 5, 0), "mode"),
        ((1, 2, 3, 4), (1, 1, 1, 1), (0, 4, 5, 2), "dummy"),
        ((1, 2, 3, 4), (1, 1, 1, 1), (0, 1, 5, 0), "duration"),
    ])
    def test_each_fault_class_rejected(self, toy4, order, modes, durations,
                                       word):
        c = chrom(order, modes, durations)
        with pytest.raises(EncodingError, match=word) as by_decode:
            decode_schedule(toy4, c)
        with pytest.raises(EncodingError) as by_evaluate:
            evaluate(toy4, c)
        assert str(by_evaluate.value) == str(by_decode.value)

    def test_precedence_property_random(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            inst = generate_instance(seed + 1, 9, 3, 0.5)
            for _ in range(25):
                c = random_chromosome(inst, rng)
                sched = decode_schedule(inst, c)
                for act in inst.activities:
                    for h in act.successors:
                        assert sched.finish[act.id - 1] <= sched.start[h - 1]


class TestPayments:
    def test_single_payment(self, toy4):
        inst = replace(toy4, payment_count=1)
        sched = decode_schedule(inst, TOY4_BASELINE)
        plan = compute_payments(inst, sched)
        assert len(plan.events) == 1
        assert plan.events[0].amount == pytest.approx((1 - 0.2) * 1000.0)
        assert plan.events[0].time == sched.makespan
        assert plan.events[0].activity == 4

    def test_toy4_two_payments(self, toy4):
        # threshold j=1 is 4 -> activity 2 finishes first at t=4
        sched = decode_schedule(toy4, TOY4_BASELINE)
        plan = compute_payments(toy4, sched)
        first, last = plan.events
        assert (first.activity, first.time) == (2, 4)
        assert first.amount == pytest.approx((0.8 - 0.2) * 400.0)
        assert (last.activity, last.time) == (4, 5)
        assert last.amount == pytest.approx(1000.0 - (200.0 + 240.0))

    def test_completeness_identity(self, toy4):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = random_chromosome(toy4, rng)
            plan = compute_payments(toy4, decode_schedule(toy4, c))
            total = plan.prepayment + sum(e.amount for e in plan.events)
            assert abs(total - toy4.price) <= 1e-9

    def test_event_times_nondecreasing(self):
        rng = np.random.default_rng(12)
        inst = generate_instance(3, 8, 2, 0.5, payment_count=3)
        for _ in range(40):
            c = random_chromosome(inst, rng)
            plan = compute_payments(inst, decode_schedule(inst, c))
            times = [e.time for e in plan.events]
            assert times == sorted(times)
            assert plan.events[-1].activity == inst.n

    def test_fallback_event(self, zeros4):
        inst = replace(zeros4, payment_count=2, deadline=8)
        sched = decode_schedule(inst, chrom((1, 2, 3, 4), (1, 1, 1, 1), (0, 0, 0, 0)))
        plan = compute_payments(inst, sched)
        assert plan.events[0].fallback
        assert plan.events[0].activity == inst.n
        total = plan.prepayment + sum(e.amount for e in plan.events)
        assert abs(total - inst.price) <= 1e-9


class TestNpv:
    def test_zero_rate_baseline(self, toy4):
        inst = replace(toy4, interest_rate=0.0)
        sched = decode_schedule(inst, TOY4_BASELINE)
        assert npv_cost(inst, TOY4_BASELINE, sched) == pytest.approx(100 + 150 + 10 * 5)

    def test_zero_rate_crashed(self, toy4):
        inst = replace(toy4, interest_rate=0.0)
        crashed = chrom((1, 2, 3, 4), (1, 1, 1, 1), (0, 2, 5, 0))
        sched = decode_schedule(inst, crashed)
        assert npv_cost(inst, crashed, sched) == pytest.approx(100 + 20 * 2 + 150 + 10 * 5)

    def test_discounted_baseline(self, toy4):
        # term by term: A2 at t=4, A3 at t=5, overhead 10*5 at t=5
        sched = decode_schedule(toy4, TOY4_BASELINE)
        expected = 100 / 1.05**4 + 150 / 1.05**5 + 50 / 1.05**5
        assert npv_cost(toy4, TOY4_BASELINE, sched) == pytest.approx(expected, rel=1e-12)

    def test_crash_premium_is_cost_slope(self, toy4):
        inst = replace(toy4, interest_rate=0.0, overhead=0.0)
        base = chrom((1, 2, 3, 4), (1, 1, 1, 1), (0, 4, 5, 0))
        crashed = chrom((1, 2, 3, 4), (1, 1, 1, 1), (0, 3, 5, 0))
        diff = (npv_cost(inst, crashed, decode_schedule(inst, crashed))
                - npv_cost(inst, base, decode_schedule(inst, base)))
        assert diff == pytest.approx(20.0, rel=1e-12)

    def test_discount_monotone(self, toy4):
        values = []
        for rate in (0.0, 0.05, 0.1, 0.2):
            inst = replace(toy4, interest_rate=rate)
            values.append(npv_cost(inst, TOY4_BASELINE,
                                   decode_schedule(inst, TOY4_BASELINE)))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_rate_identity_random(self):
        rng = np.random.default_rng(21)
        inst = replace(generate_instance(4, 8, 2, 0.5), interest_rate=0.0)
        for _ in range(20):
            c = random_chromosome(inst, rng)
            sched = decode_schedule(inst, c)
            raw = 0.0
            for act in inst.activities:
                if act.is_dummy:
                    continue
                m = act.modes[c.modes[act.id - 1] - 1]
                raw += m.normal_cost + m.cost_slope * (m.normal_duration
                                                       - c.durations[act.id - 1])
            raw += inst.overhead * sched.makespan
            assert npv_cost(inst, c, sched) == pytest.approx(raw, rel=1e-12)


class TestQualityAndProductivity:
    def test_toy4_mode_one(self, toy4):
        assert quality_stats(toy4, TOY4_BASELINE) == (80.0, 85.0)

    def test_toy4_mode_two(self, toy4):
        c = chrom((1, 2, 3, 4), (1, 2, 1, 1), (0, 3, 5, 0))
        assert quality_stats(toy4, c) == (60.0, 75.0)

    def test_single_real_activity(self):
        mode = ActivityMode(3, 1, 10.0, 1.0, 66.0, ())
        inst = make_instance([dummy(1, {2}), real(2, {3}, [mode], 100.0),
                              dummy(3, ())], price=100.0)
        c = chrom((1, 2, 3), (1, 1, 1), (0, 3, 0))
        assert quality_stats(inst, c) == (66.0, 66.0)

    def test_only_dummies(self):
        inst = make_instance([dummy(1, {2}), dummy(2, ())])
        with pytest.raises(NoRealActivities):
            quality_stats(inst, chrom((1, 2), (1, 1), (0, 0)))

    def test_blend_endpoints(self, toy4):
        sched = decode_schedule(toy4, TOY4_BASELINE)
        cost = npv_cost(toy4, TOY4_BASELINE, sched)
        at_min = replace(toy4, quality_blend=1.0)
        at_avg = replace(toy4, quality_blend=0.0)
        assert productivity(at_min, TOY4_BASELINE, sched) == pytest.approx(80.0 / cost)
        assert productivity(at_avg, TOY4_BASELINE, sched) == pytest.approx(85.0 / cost)

    def test_zero_rate_value(self, toy4):
        inst = replace(toy4, interest_rate=0.0)
        sched = decode_schedule(inst, TOY4_BASELINE)
        assert productivity(inst, TOY4_BASELINE, sched) == pytest.approx(
            (0.5 * 80 + 0.5 * 85) / 300.0)

    def test_zero_cost_rejected(self):
        mode = ActivityMode(3, 1, 0.0, 0.0, 60.0, ())
        inst = make_instance([dummy(1, {2}), real(2, {3}, [mode], 10.0),
                              dummy(3, ())], price=10.0, overhead=0.0)
        c = chrom((1, 2, 3), (1, 1, 1), (0, 3, 0))
        with pytest.raises(ZeroDivisionError):
            productivity(inst, c, decode_schedule(inst, c))

    def test_zero_cost_is_a_domain_error(self):
        mode = ActivityMode(3, 1, 0.0, 0.0, 60.0, ())
        inst = make_instance([dummy(1, {2}), real(2, {3}, [mode], 10.0),
                              dummy(3, ())], price=10.0, overhead=0.0)
        c = chrom((1, 2, 3), (1, 1, 1), (0, 3, 0))
        with pytest.raises(ZeroCost):
            productivity(inst, c, decode_schedule(inst, c))
        with pytest.raises(ZeroCost):
            evaluate(inst, c)

    def test_coupling_fixed_modes(self, toy4):
        # same modes, varying durations: productivity * npv is constant
        rng = np.random.default_rng(31)
        for _ in range(20):
            d2 = int(rng.integers(2, 5))
            d3 = int(rng.integers(3, 6))
            c = chrom((1, 2, 3, 4), (1, 1, 1, 1), (0, d2, d3, 0))
            sched = decode_schedule(toy4, c)
            assert productivity(toy4, c, sched) * npv_cost(toy4, c, sched) \
                == pytest.approx(82.5, rel=1e-12)


class TestFeasibility:
    def test_toy4_baseline_all_groups(self, toy4):
        sched = decode_schedule(toy4, TOY4_BASELINE)
        plan = compute_payments(toy4, sched)
        report = check_feasibility(toy4, TOY4_BASELINE, sched, plan,
                                   npv_cost(toy4, TOY4_BASELINE, sched))
        assert (report.resource_ok, report.time_ok, report.budget_ok) == (True,) * 3
        assert report.valid_number == 3

    def test_resource_violation(self, toy4):
        inst = replace(toy4, resource_capacity=(("r1", 3),))
        sched = decode_schedule(inst, TOY4_BASELINE)
        plan = compute_payments(inst, sched)
        report = check_feasibility(inst, TOY4_BASELINE, sched, plan,
                                   npv_cost(inst, TOY4_BASELINE, sched))
        assert not report.resource_ok  # 2 + 2 = 4 > 3 in aggregate
        assert report.valid_number == 2

    def test_deadline_violation(self, toy4):
        inst = replace(toy4, deadline=4)  # baseline makespan is 5
        sched = decode_schedule(inst, TOY4_BASELINE)
        plan = compute_payments(inst, sched)
        report = check_feasibility(inst, TOY4_BASELINE, sched, plan,
                                   npv_cost(inst, TOY4_BASELINE, sched))
        assert not report.time_ok

    def test_budget_violation(self, toy4):
        inst = replace(toy4, price=200.0, initial_capital=0.0)
        inst = replace_activity(inst, 2, earned_value=80.0)
        inst = replace_activity(inst, 3, earned_value=120.0)
        sched = decode_schedule(inst, TOY4_BASELINE)
        plan = compute_payments(inst, sched)
        report = check_feasibility(inst, TOY4_BASELINE, sched, plan,
                                   npv_cost(inst, TOY4_BASELINE, sched))
        # available = 40 + 48/1.05^4 + 112/1.05^5 ~= 167.2 < npv ~= 239.0
        assert not report.budget_ok

    def test_literal_exponent_switch(self, toy4):
        # ICA tuned between the two discounting conventions: payment 1 at
        # t=4 under event time vs t=0 (activity 2 start) under the literal rule
        inst = replace(toy4, price=200.0, initial_capital=70.0)
        inst = replace_activity(inst, 2, earned_value=80.0)
        inst = replace_activity(inst, 3, earned_value=120.0)
        sched = decode_schedule(inst, TOY4_BASELINE)
        plan = compute_payments(inst, sched)
        event_rule = check_feasibility(inst, TOY4_BASELINE, sched, plan,
                                       npv_cost(inst, TOY4_BASELINE, sched))
        literal = check_feasibility(inst, TOY4_BASELINE, sched, plan,
                                    npv_cost(inst, TOY4_BASELINE, sched),
                                    literal_eq15=True)
        assert not event_rule.budget_ok
        assert literal.budget_ok


class TestEvaluate:
    def test_matches_composition(self, toy4):
        obj, report = evaluate(toy4, TOY4_BASELINE)
        sched = decode_schedule(toy4, TOY4_BASELINE)
        plan = compute_payments(toy4, sched)
        assert obj.npv_cost == npv_cost(toy4, TOY4_BASELINE, sched)
        assert obj.makespan == sched.makespan
        assert obj.productivity == productivity(toy4, TOY4_BASELINE, sched)
        assert report == check_feasibility(
            toy4, TOY4_BASELINE, sched, plan, npv_cost(toy4, TOY4_BASELINE, sched))

    def test_pure(self, toy4):
        assert evaluate(toy4, TOY4_BASELINE) == evaluate(toy4, TOY4_BASELINE)

    def test_cyclic_instance_fails_in_the_decode_walk(self, toy4):
        # a cyclic graph has no topological order, and the decode walk
        # rejects every order string of it before anything is scored
        cyclic = replace_activity(toy4, 2, successors=frozenset({3, 4}))
        cyclic = replace_activity(cyclic, 3, successors=frozenset({2, 4}))
        with pytest.raises(BadParams):
            topological_order(cyclic)
        with pytest.raises(EncodingError, match="precedence"):
            evaluate(cyclic, TOY4_BASELINE)

    def test_zero_cost_before_no_real_activities(self):
        # only dummies: no real activity and a zero NPV cost; the cost
        # check comes first, as in productivity()
        inst = make_instance([dummy(1, {2}), dummy(2, ())], overhead=5.0)
        with pytest.raises(ZeroCost):
            evaluate(inst, chrom((1, 2), (1, 1), (0, 0)))

    def test_infeasible_still_scored(self, toy4):
        inst = replace(toy4, deadline=4)
        obj, report = evaluate(inst, TOY4_BASELINE)
        assert report.valid_number < 3
        assert obj.npv_cost > 0 and obj.makespan == 5


class TestSolutionStrings:
    def test_round_trip(self, toy4):
        rng = np.random.default_rng(41)
        for _ in range(20):
            c = random_chromosome(toy4, rng)
            assert parse_solution(format_solution(c)) == c

    def test_format_follows_order(self):
        c = chrom((1, 3, 2, 4), (1, 2, 1, 1), (0, 3, 4, 0))
        assert format_solution(c) == "1|1|0:3|1|4:2|2|3:4|1|0"

    def test_bad_string(self):
        with pytest.raises(EncodingError):
            parse_solution("1|1")
        with pytest.raises(EncodingError):
            parse_solution("1|1|0:1|1|0")
