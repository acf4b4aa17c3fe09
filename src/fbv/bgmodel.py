"""Per-pixel adaptive Gaussian mixture background model.

Each pixel carries COMPONENTS components (weight, per-channel mean, shared
scalar variance). A frame pixel matches the highest-ranked component whose
summed squared channel distance is within MATCH_THRESHOLD * variance per
channel (gate: sum_c d_c^2 <= 3 * threshold * variance). Components are
ranked by weight / sqrt(variance); the smallest prefix of ranked weights
reaching BG_PREFIX is labeled background. A pixel is a raw foreground point
when it matches no component or matches one outside that prefix.

Updates follow the running-average schedule: the global rate anneals as
max(learning_rate, 1/n) over the first frames (n counts every frame seen,
the seed frame included), which makes the early phase an exact incremental
average and the steady state the configured rate. The matched component's
mean moves by rho = min(1, alpha / new_weight); its variance tracks the
mean squared channel distance to the updated mean, floored at
VARIANCE_FLOOR. A no-match pixel replaces its lowest-ranked component with
(NEW_COMPONENT_WEIGHT, frame value, INITIAL_VARIANCE) and renormalizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Frame, FbvError, round_half_up


COMPONENTS = 4
INITIAL_VARIANCE = 15.0
MATCH_THRESHOLD = 16.0
VARIANCE_FLOOR = 4.0
BG_PREFIX = 0.75
NEW_COMPONENT_WEIGHT = 0.05


@dataclass(frozen=True)
class GmmParams:
    learning_rate: float = 0.005
    init_frames: int = 200

    def __post_init__(self) -> None:
        if not (0 < self.learning_rate <= 1):
            raise ValueError("learning_rate must be in (0, 1]")
        if self.init_frames < 1:
            raise ValueError("init_frames must be >= 1")


@dataclass
class GmmState:
    params: GmmParams
    weights: np.ndarray     # (K, H, W) float64
    means: np.ndarray       # (K, 3, H, W) float64
    variances: np.ndarray   # (K, H, W) float64
    frames_seen: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape[1], self.weights.shape[2]


@dataclass(frozen=True)
class SeparationResult:
    background: Frame
    points: np.ndarray  # (H, W) bool, raw foreground points

    def __post_init__(self) -> None:
        if self.points.shape != self.background.planes.shape[1:]:
            raise ValueError("points mask does not match background dimensions")


def _seed_state(frame: Frame, params: GmmParams) -> GmmState:
    h, w = frame.planes.shape[1:]
    weights = np.zeros((COMPONENTS, h, w), dtype=np.float64)
    weights[0] = 1.0
    means = np.zeros((COMPONENTS, 3, h, w), dtype=np.float64)
    means[0] = frame.planes.astype(np.float64)
    variances = np.full((COMPONENTS, h, w), INITIAL_VARIANCE, dtype=np.float64)
    return GmmState(params, weights, means, variances, frames_seen=1)


def _rank_order(state: GmmState) -> np.ndarray:
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

    order = _rank_order(state)                     # (K, H, W) comp index by rank
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
    top = _rank_order(state)[0]                     # (H, W)
    mu = np.take_along_axis(state.means, top[None, None], axis=0)[0]
    planes = np.clip(round_half_up(mu), 0, 255).astype(np.uint8)
    return Frame(planes, frame_index)


def gmm_init(frames, params: GmmParams = GmmParams()) -> GmmState:
    """Build a model from exactly params.init_frames training frames."""
    frames = list(frames)
    if len(frames) != params.init_frames:
        raise FbvError(
            f"initialization requires exactly {params.init_frames} frames, "
            f"got {len(frames)}")
    shape = frames[0].planes.shape
    for f in frames[1:]:
        if f.planes.shape != shape:
            raise ValueError("initialization frames differ in dimensions")
    state = _seed_state(frames[0], params)
    for f in frames[1:]:
        state, _ = gmm_update(state, f)
    return state

