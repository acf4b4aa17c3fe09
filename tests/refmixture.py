"""Reference mixture update: the whole-array pass the one-component update must match.

A frozen copy of the update written over every component at once: a stable
argsort ranks the components, take_along_axis puts the gate and the weights
in rank order, and np.where builds each new (K, 3, H, W) and (K, H, W) array
in full. It is slow and memory-hungry and kept only as the oracle for
`tests/test_bgmodel.py`: `fbv.bgmodel.gmm_update` and `background_estimate`
must give the same weights, means, variances, points and background, equal
with `np.array_equal`, not merely close.
"""

from __future__ import annotations

import numpy as np

from fbv.bgmodel import (BG_PREFIX, COMPONENTS, INITIAL_VARIANCE, MATCH_THRESHOLD,
                         NEW_COMPONENT_WEIGHT, VARIANCE_FLOOR, GmmState, SeparationResult)
from fbv.core import Frame


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves toward +infinity. Returns int64."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


def rank_order(state: GmmState) -> np.ndarray:
    """Component indices sorted best-first by weight/sigma, stable."""
    key = state.weights / np.sqrt(state.variances)
    return np.argsort(-key, axis=0, kind="stable")


def gmm_update(state: GmmState, frame: Frame) -> tuple[GmmState, SeparationResult]:
    """Separate one frame against the model, then fold it into the model."""
    p = state.params
    if frame.planes.shape[1:] != state.shape:
        raise ValueError("frame dimensions do not match model")
    x = frame.planes.astype(np.float64)            # (3, H, W)
    weights, means, variances = state.weights, state.means, state.variances

    diff = x[None] - means                         # (K, 3, H, W)
    d2 = np.einsum("kchw,kchw->khw", diff, diff)
    gate = (d2 <= 3.0 * MATCH_THRESHOLD * variances) & (weights > 0.0)

    order = rank_order(state)                      # (K, H, W) comp index by rank
    gate_ranked = np.take_along_axis(gate, order, axis=0)
    any_match = gate_ranked.any(axis=0)
    first_rank = np.argmax(gate_ranked, axis=0)    # first passing rank
    matched = np.take_along_axis(order, first_rank[None], axis=0)[0]

    # background label against the pre-update ranking
    w_ranked = np.take_along_axis(weights, order, axis=0)
    cum_before = np.cumsum(w_ranked, axis=0) - w_ranked
    prefix_ranked = cum_before < BG_PREFIX
    in_prefix = np.take_along_axis(prefix_ranked, first_rank[None], axis=0)[0]
    points = ~(any_match & in_prefix)

    n = state.frames_seen + 1
    alpha = max(p.learning_rate, 1.0 / n)

    new_w = weights.copy()
    new_mu = means.copy()
    new_var = variances.copy()

    # matched pixels: decay all weights, bump the matched component
    sel = np.arange(COMPONENTS)[:, None, None] == matched[None]
    upd = sel & any_match[None]
    new_w = np.where(any_match[None], (1.0 - alpha) * new_w, new_w)
    new_w = np.where(upd, new_w + alpha, new_w)

    rho = np.clip(alpha / np.maximum(new_w, 1e-12), 0.0, 1.0)
    mu_moved = means + rho[:, None] * (x[None] - means)
    new_mu = np.where(upd[:, None], mu_moved, new_mu)
    dn = x[None] - new_mu
    d2_new = np.einsum("kchw,kchw->khw", dn, dn) / 3.0
    var_moved = (1.0 - rho) * variances + rho * d2_new
    new_var = np.where(upd, var_moved, new_var)

    # unmatched pixels: overwrite the worst-ranked component, renormalize
    worst = order[-1]
    repl = (np.arange(COMPONENTS)[:, None, None] == worst[None]) & ~any_match[None]
    new_w = np.where(repl, NEW_COMPONENT_WEIGHT, new_w)
    new_mu = np.where(repl[:, None], x[None], new_mu)
    new_var = np.where(repl, INITIAL_VARIANCE, new_var)
    new_w = new_w / new_w.sum(axis=0, keepdims=True)
    new_var = np.maximum(new_var, VARIANCE_FLOOR)

    out = GmmState(p, new_w, new_mu, new_var, frames_seen=n)
    background = background_estimate(out, frame.frame_index)
    return out, SeparationResult(background=background, points=points)


def background_estimate(state: GmmState, frame_index: int = 0) -> Frame:
    """Current background template: top-ranked component means, rounded."""
    top = rank_order(state)[0]                      # (H, W)
    mu = np.take_along_axis(state.means, top[None, None], axis=0)[0]
    planes = np.clip(round_half_up(mu), 0, 255).astype(np.uint8)
    return Frame(planes, frame_index)
