import json
from dataclasses import replace

import numpy as np
import pytest

from crashplan.errors import BadParams, InfeasibleInstance, ParseError
from crashplan.evaluate import baseline_chromosome, evaluate
from crashplan.instance import (compute_time_windows, generate_instance,
                                instance_to_dict, load_instance, make_rng,
                                save_instance, seed_sequence,
                                topological_order, validate_instance)

from conftest import dummy, relabel, replace_activity, replace_mode

NAN = float("nan")
INF = float("inf")


class TestValidate:
    def test_toy4_is_clean(self, toy4):
        assert validate_instance(toy4) == []

    def test_crash_above_normal(self, toy4):
        bad = replace_mode(toy4, 2, 1, crash_duration=5)
        violations = validate_instance(bad)
        assert len(violations) == 1
        assert "d_im <= D_im" in violations[0].rule
        assert "crash_duration" in violations[0].field

    def test_cycle_detected(self, toy4):
        # add 3 -> 2 next to the existing 2 -> ... -> via a 2<->3 loop
        bad = replace_activity(toy4, 2, successors=frozenset({3, 4}))
        bad = replace_activity(bad, 3, successors=frozenset({2, 4}))
        violations = validate_instance(bad)
        assert len(violations) == 1
        assert "acyclic" in violations[0].rule

    def test_self_loop_is_also_a_cycle(self, toy4):
        bad = replace_activity(toy4, 2, successors=frozenset({2, 4}))
        rules = [v.rule for v in validate_instance(bad)]
        assert "self-loop" in rules
        with pytest.raises(BadParams, match="cycle"):
            topological_order(bad)

    def test_quality_range(self, toy4):
        bad = replace_mode(toy4, 2, 1, quality=120.0)
        assert any("q_im" in v.rule for v in validate_instance(bad))

    def test_earned_value_exceeds_price(self, toy4):
        bad = replace(toy4, price=900.0)
        assert any(v.field == "price" for v in validate_instance(bad))

    def test_theta_must_exceed_gamma(self, toy4):
        bad = replace(toy4, compensation_ratio=0.1)
        assert any(v.field == "compensation_ratio" for v in validate_instance(bad))

    def test_dummy_with_cost(self, toy4):
        bad = replace_mode(toy4, 1, 1, normal_cost=5.0)
        assert any("dummy" in v.rule for v in validate_instance(bad))

    @pytest.mark.parametrize("rate", [-0.5, float("nan")])
    def test_interest_rate_negative_or_nan(self, toy4, rate):
        bad = replace(toy4, interest_rate=rate)
        assert [v.field for v in validate_instance(bad)] == ["interest_rate"]

    @pytest.mark.parametrize("changes", [
        {"overhead": NAN}, {"overhead": INF}, {"overhead": -1.0},
        {"price": NAN}, {"price": INF},
        {"initial_capital": NAN}, {"initial_capital": INF},
        {"interest_rate": INF},
        {"interest_rate": 1e308},  # (1 + k) ** H overflows
        {"deadline": 10**400},     # above the largest float
    ])
    def test_top_level_value_out_of_domain(self, toy4, changes):
        bad = replace(toy4, **changes)
        assert [v.field for v in validate_instance(bad)] == list(changes)

    def test_more_payment_events_than_activities(self, toy4):
        # every event is one activity's completion, so J is at most n
        assert validate_instance(replace(toy4, payment_count=toy4.n)) == []
        violations = validate_instance(replace(toy4, payment_count=toy4.n + 1))
        assert [(v.field, v.rule) for v in violations] \
            == [("payment_count", "J <= n")]

    def test_large_rate_below_overflow_accepted(self, toy4):
        # toy4's horizon H is 9 and 1e30 ** 9 is finite
        assert validate_instance(replace(toy4, interest_rate=1e30)) == []

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_activity_values(self, toy4, value):
        cases = [
            (replace_activity(toy4, 2, earned_value=value),
             "activities[1].earned_value"),
            (replace_mode(toy4, 2, 1, normal_cost=value),
             "activities[1].modes[0].normal_cost"),
            (replace_mode(toy4, 2, 1, cost_slope=value),
             "activities[1].modes[0].cost_slope"),
        ]
        for bad, field in cases:
            assert field in [v.field for v in validate_instance(bad)]

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_activities(self, toy4, count):
        # the graph checks need activity 1 and activity n: stop before them
        bad = replace(toy4, activities=toy4.activities[:count])
        assert [(v.field, v.rule) for v in validate_instance(bad)] == [
            ("activities", "activity 1 and activity n must be dummies")]

    def test_unknown_successor(self, toy4):
        bad = replace_activity(toy4, 2, successors=frozenset({9}))
        assert any("successor" in v.rule for v in validate_instance(bad))

    def test_activities_unreachable_from_start(self, chain4):
        # 1 -> 4 directly: the chain 2 -> 3 -> 4 hangs off nothing
        bad = replace_activity(chain4, 1, successors=frozenset({4}))
        assert [(v.field, v.rule, v.detail) for v in validate_instance(bad)] == [
            ("activities", "every non-start activity reachable from 1",
             "unreachable: [2, 3]")]

    def test_activities_that_never_reach_the_end(self, chain4):
        # 1 -> {2, 4} and 3 -> nothing: 2 and 3 never reach activity 4
        bad = replace_activity(chain4, 1, successors=frozenset({2, 4}))
        bad = replace_activity(bad, 3, successors=frozenset())
        assert [(v.field, v.rule, v.detail) for v in validate_instance(bad)] == [
            ("activities", "activity n reachable from every activity",
             "dead ends: [2, 3]")]


class TestTimeWindows:
    def test_two_activity_chain(self, chain4):
        tw = compute_time_windows(chain4)
        assert tw.earliest_finish[4] == 5  # crash 2 then crash 3
        assert tw.latest_finish[4] == 10

    def test_all_zero_durations(self, zeros4):
        tw = compute_time_windows(zeros4)
        assert all(v == 0 for v in tw.earliest_finish.values())
        assert all(v == zeros4.deadline for v in tw.latest_finish.values())

    def test_toy4_hand_pass(self, toy4):
        # crash durations: A2 = 2, A3 = 3; D = 8
        tw = compute_time_windows(toy4)
        assert tw.earliest_finish == {1: 0, 2: 2, 3: 3, 4: 3}
        assert tw.latest_finish == {1: 5, 2: 8, 3: 8, 4: 8}

    def test_deadline_unreachable(self, toy4):
        with pytest.raises(InfeasibleInstance):
            compute_time_windows(replace(toy4, deadline=2))

    def test_edge_consistency_on_generated(self):
        # forward pass: EF_h >= EF_i + crashmin_h; backward mirrors it
        for seed in range(5):
            inst = generate_instance(seed, 8, 3, 0.5)
            tw = compute_time_windows(inst)
            crash = [min(m.crash_duration for m in a.modes)
                     for a in inst.activities]
            for act in inst.activities:
                for h in act.successors:
                    assert tw.earliest_finish[h] >= tw.earliest_finish[act.id] + crash[h - 1]
                    assert tw.latest_finish[act.id] <= tw.latest_finish[h] - crash[h - 1]
            for i in range(1, inst.n + 1):
                assert tw.earliest_finish[i] <= tw.latest_finish[i]


class TestGenerate:
    def test_deterministic(self, tmp_path):
        a = generate_instance(1, 6, 2, 0.4)
        b = generate_instance(1, 6, 2, 0.4)
        save_instance(a, tmp_path / "a.json")
        save_instance(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("seed", [1, 2, 3, 11, 42])
    def test_output_validates(self, seed):
        inst = generate_instance(seed, 7, 3, 0.5)
        assert validate_instance(inst) == []
        assert inst.activities[0].is_dummy and inst.activities[-1].is_dummy

    @pytest.mark.parametrize("seed", [1, 2, 3, 11, 42])
    def test_baseline_feasible(self, seed):
        inst = generate_instance(seed, 7, 2, 0.5)
        _, report = evaluate(inst, baseline_chromosome(inst))
        assert report.valid_number == 3

    def test_shorter_modes_lower_quality(self):
        inst = generate_instance(9, 10, 3, 0.5)
        for act in inst.activities:
            if act.is_dummy:
                continue
            ordered = sorted(act.modes, key=lambda m: m.normal_duration)
            for faster, slower in zip(ordered, ordered[1:]):
                assert faster.quality < slower.quality

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generate_instance(1, 2, 2, 0.5)
        with pytest.raises(BadParams):
            generate_instance(1, 6, 2, 0.0)
        with pytest.raises(BadParams):
            generate_instance(1, 6, 0, 0.5)
        with pytest.raises(BadParams, match="payment_count"):
            generate_instance(1, 6, 2, 0.5, payment_count=7)

    def test_negative_seed_and_resource_count(self):
        with pytest.raises(BadParams, match="seed"):
            generate_instance(-1, 6, 2, 0.5)
        with pytest.raises(BadParams, match="n_resources"):
            generate_instance(1, 6, 2, 0.5, n_resources=-1)

    def test_one_seed_rule(self):
        # the generator's stream is make_rng(seed), the SeedSequence(seed)
        # it drew from before the rule moved into seed_sequence
        a = make_rng(7).integers(1 << 30, size=5)
        b = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(7))).integers(1 << 30, size=5)
        assert list(a) == list(b)
        assert seed_sequence(7, 3).spawn_key == (3,)
        for key in ((), (0,), (2, 5)):
            with pytest.raises(BadParams, match="seed must be >= 0, got -1"):
                make_rng(-1, *key)

    @pytest.mark.parametrize("max_normal", [3000, 10000])
    def test_long_horizon_is_bad_params(self, max_normal):
        # the discount-horizon rule is checked before the initial capital is
        # back-solved from an NPV that would overflow
        with pytest.raises(BadParams, match="interest_rate"):
            generate_instance(1, 6, 2, 0.4, max_normal=max_normal)


class TestIo:
    def test_round_trip(self, toy4, tmp_path):
        path = tmp_path / "copy.json"
        save_instance(toy4, path)
        assert load_instance(path) == toy4

    def test_round_trip_generated(self, tmp_path):
        inst = generate_instance(17, 9, 3, 0.6, n_resources=2)
        path = tmp_path / "g.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_truncated_file(self, toy4_path, tmp_path):
        text = toy4_path.read_text()[:120]
        bad = tmp_path / "trunc.json"
        bad.write_text(text)
        with pytest.raises(ParseError):
            load_instance(bad)

    def test_unknown_field_rejected(self, toy4, tmp_path):
        data = instance_to_dict(toy4)
        data["surprise"] = 1
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="surprise"):
            load_instance(path)

    def test_unknown_mode_field_rejected(self, toy4, tmp_path):
        data = instance_to_dict(toy4)
        data["activities"][1]["modes"][0]["speed"] = 3
        path = tmp_path / "unknown2.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="speed"):
            load_instance(path)

    def test_invariant_violations_fail_load(self, toy4, tmp_path):
        data = instance_to_dict(toy4)
        data["activities"][1]["modes"][0]["crash_duration"] = 9
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="crash_duration"):
            load_instance(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_instance(tmp_path / "nope.json")


@pytest.mark.parametrize("seed", range(8))
def test_topological_order_takes_the_smallest_ready_id(seed):
    inst = generate_instance(seed, 10, 2, 0.4)
    # ids shuffled so that id order is not a topological order
    perm = list(range(2, inst.n))
    perm.sort(key=lambda i: (i * 7 + seed) % (inst.n - 2))
    inst = relabel(inst, (1, *perm, inst.n))
    expected: list[int] = []
    while len(expected) < inst.n:
        expected.append(min(
            a.id for a in inst.activities if a.id not in expected
            and all(p + 1 in expected for p in inst.predecessors[a.id - 1])))
    assert topological_order(inst) == tuple(expected)
