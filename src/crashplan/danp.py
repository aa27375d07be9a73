"""Influence-based weighting of quality criteria and activity-mode scores.

The pipeline: a direct-influence matrix is normalized and expanded into a
total-relation matrix, whose column-normalized transpose is a stochastic
supermatrix; its limiting power yields the criterion weights, and the
weighted criterion scores give each activity mode its quality value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, BadParams, Singular

CONVERGENCE_TOL = 1e-9
MAX_SQUARINGS = 64


def _check_influence(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadParams("influence matrix must be square")
    if (a < 0).any():
        raise BadParams("influence matrix must be nonnegative")
    if np.diagonal(a).any():
        raise BadParams("influence matrix must have a zero diagonal")


def dematel_total(a: np.ndarray) -> np.ndarray:
    """Total-relation matrix T = X (I - X)^-1 with X the direct matrix
    scaled by the larger of the max row sum and max column sum."""
    a = np.asarray(a, dtype=float)
    _check_influence(a)
    denom = max(a.sum(axis=1).max(), a.sum(axis=0).max())
    if denom == 0:
        return np.zeros_like(a)
    x = a / denom
    eye = np.eye(len(a))
    try:
        inv = np.linalg.inv(eye - x)
    except np.linalg.LinAlgError as exc:
        raise Singular("(I - X) is singular") from exc
    if np.linalg.cond(eye - x) > 1e12:
        raise Singular("(I - X) is singular within tolerance 1e-12")
    return x @ inv


def danp_weights(t: np.ndarray) -> np.ndarray:
    """Criterion weights from the limiting supermatrix.

    The supermatrix is the transpose of the column-normalized total
    matrix (zero columns become uniform); it is row-stochastic, so its
    powers converge to a rank-one matrix whose common row is the weight
    vector.  Repeated squaring stops at tolerance 1e-9; if 64 squarings
    do not converge the last two iterates are averaged.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise BadParams("total-relation matrix must be square")
    if (t < 0).any():
        raise BadParams("total-relation matrix must be nonnegative")
    if not t.any():
        raise AllZero("total-relation matrix is all zeros")
    c = len(t)
    col_sums = t.sum(axis=0)
    normalized = np.where(col_sums > 0, t / np.where(col_sums > 0, col_sums, 1.0),
                          1.0 / c)
    w = normalized.T  # row-stochastic supermatrix
    prev = w
    for _ in range(MAX_SQUARINGS):
        nxt = prev @ prev
        if np.abs(nxt - prev).max() <= CONVERGENCE_TOL:
            prev = nxt
            break
        prev = nxt
    else:
        prev = (prev @ prev + prev) / 2  # Cesaro average of the last two
    weights = prev.mean(axis=0)
    total = weights.sum()
    if total <= 0:
        raise AllZero("limiting supermatrix has no mass")
    return weights / total


@dataclass(frozen=True)
class CriterionScores:
    """Per-criterion scores (0..100) for every non-dummy activity mode."""

    criteria: tuple[str, ...]
    entries: dict  # (activity_id, mode_index) -> {criterion: score}


def quality_scores(weights: np.ndarray, scores: CriterionScores,
                   criteria: tuple[str, ...] | None = None) -> dict:
    """Weighted criterion blend per activity mode: q = sum_c w_c * score_c."""
    names = criteria if criteria is not None else scores.criteria
    if len(weights) != len(names):
        raise BadParams("one weight per criterion required")
    if abs(float(np.sum(weights)) - 1.0) > 1e-6:
        raise BadParams("weights must sum to 1")
    out: dict = {}
    for key, per_criterion in scores.entries.items():
        missing = [c for c in names if c not in per_criterion]
        if missing:
            raise BadParams(f"activity-mode {key} missing criterion "
                            f"score for {missing[0]!r}")
        out[key] = float(sum(w * per_criterion[c] for w, c in zip(weights, names)))
    return out


def quality_patch(quality: dict) -> dict:
    """Quality values keyed (activity, mode) as a patch file mergeable into
    an instance JSON: {"quality": {activity: {mode: q}}}."""
    patch: dict = {}
    for (activity, mode), q in sorted(quality.items()):
        patch.setdefault(str(activity), {})[str(mode)] = q
    return {"schema_version": 1, "quality": patch}


def apply_quality_patch(inst, patch: dict):
    """Return a copy of the instance with patched mode qualities; BadParams
    for a key that names no activity or mode, a quality that is not a
    number, or the first rule the patched instance breaks."""
    from dataclasses import replace

    from .instance import checked, is_number  # local import keeps danp standalone

    if patch.get("schema_version") != 1 or "quality" not in patch:
        raise BadParams("not a quality patch file")
    activities = list(inst.activities)
    for act_key, per_mode in patch["quality"].items():
        idx = _patch_index(act_key, activities, f"activity {act_key}")
        modes = list(activities[idx].modes)
        for mode_key, q in per_mode.items():
            m = _patch_index(mode_key, modes,
                             f"mode {mode_key} of activity {act_key}")
            if not is_number(q):
                raise BadParams(f"patch quality {q!r} is not a number")
            modes[m] = replace(modes[m], quality=float(q))
        activities[idx] = replace(activities[idx], modes=tuple(modes))
    return checked(replace(inst, activities=tuple(activities)), "quality patch")


def _patch_index(key, items: list, what: str) -> int:
    """The index of a patch key, which counts items from 1, or BadParams."""
    try:
        index = int(key) - 1
    except ValueError:
        index = -1
    if not 0 <= index < len(items):
        raise BadParams(f"patch references unknown {what}")
    return index
