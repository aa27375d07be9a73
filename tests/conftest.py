"""Shared fixtures: the TOY4 fixture instance and small hand-built graphs."""

from dataclasses import replace
from pathlib import Path

import pytest

from crashplan.instance import (Activity, ActivityMode, ProjectInstance,
                                load_instance)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TOY4_PATH = DATA_DIR / "toy4.json"

DUMMY_MODE = ActivityMode(0, 0, 0.0, 0.0, 0.0, ())


@pytest.fixture(scope="session")
def toy4() -> ProjectInstance:
    return load_instance(TOY4_PATH)


@pytest.fixture(scope="session")
def toy4_path() -> Path:
    return TOY4_PATH


def dummy(act_id: int, successors) -> Activity:
    return Activity(act_id, frozenset(successors), 0.0, (DUMMY_MODE,), True)


def real(act_id: int, successors, modes, value=0.0) -> Activity:
    return Activity(act_id, frozenset(successors), value, tuple(modes), False)


def make_instance(activities, *, capacity=(("r1", 100),), rate=0.0, overhead=0.0,
                  gamma=0.2, theta=0.8, deadline=100, price=1000.0, ica=10_000.0,
                  alpha=0.5, payments=1) -> ProjectInstance:
    """Small-instance builder with permissive financial defaults."""
    return ProjectInstance(
        activities=tuple(activities), resource_capacity=tuple(capacity),
        interest_rate=rate, overhead=overhead, prepay_ratio=gamma,
        compensation_ratio=theta, deadline=deadline, price=price,
        initial_capital=ica, quality_blend=alpha, payment_count=payments)


@pytest.fixture()
def chain4() -> ProjectInstance:
    """1 -> 2 -> 3 -> 4 with crash durations 2 and 3 (the CPM hand case)."""
    mode_a = ActivityMode(4, 2, 50.0, 5.0, 70.0, (("r1", 1),))
    mode_b = ActivityMode(5, 3, 60.0, 5.0, 80.0, (("r1", 1),))
    return make_instance([
        dummy(1, {2}),
        real(2, {3}, [mode_a], value=400.0),
        real(3, {4}, [mode_b], value=600.0),
        dummy(4, ()),
    ], deadline=10)


@pytest.fixture()
def zeros4() -> ProjectInstance:
    """All modes allow zero duration (degenerate timing cases)."""
    mode = ActivityMode(2, 0, 10.0, 1.0, 50.0, ())
    return make_instance([
        dummy(1, {2, 3}),
        real(2, {4}, [mode], value=500.0),
        real(3, {4}, [mode], value=500.0),
        dummy(4, ()),
    ], deadline=10)


def replace_activity(inst: ProjectInstance, act_id: int, **changes) -> ProjectInstance:
    acts = list(inst.activities)
    acts[act_id - 1] = replace(acts[act_id - 1], **changes)
    return replace(inst, activities=tuple(acts))


def replace_mode(inst: ProjectInstance, act_id: int, mode_idx: int,
                 **changes) -> ProjectInstance:
    act = inst.activities[act_id - 1]
    modes = list(act.modes)
    modes[mode_idx - 1] = replace(modes[mode_idx - 1], **changes)
    return replace_activity(inst, act_id, modes=tuple(modes))


def relabel(inst: ProjectInstance, new_id) -> ProjectInstance:
    """Copy of inst in which activity i is renamed new_id[i - 1]."""
    acts: list = [None] * inst.n
    for act in inst.activities:
        k = new_id[act.id - 1]
        acts[k - 1] = replace(act, id=k, successors=frozenset(
            new_id[h - 1] for h in act.successors))
    return replace(inst, activities=tuple(acts))


def reverse_real_ids(inst: ProjectInstance) -> ProjectInstance:
    """The dummies keep ids 1 and n and the real ids run backwards, so a
    generated instance (whose ids are topological) stops being so."""
    n = inst.n
    return relabel(inst, (1,) + tuple(range(n - 1, 1, -1)) + (n,))
