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

The update works on flat (K, N) views of the state, N = H*W. Each
component's rank comes from the K(K-1)/2 pairwise key comparisons, a tie
ranking the lower index first as a stable sort would. The matched component
is the first maximum of the key over the components that pass the gate, the
replaced one the component of rank K-1, and the background estimate takes
the first maximum of the key. Only that one component per pixel is gathered,
updated and scattered back; the weight decay, the renormalisation and the
variance floor are whole-array operations. Every float64 operation keeps its
operands and its order, so the state, the points and the background equal,
bit for bit, those of the whole-array update kept in tests/refmixture.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Frame, FbvError


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


def _key(weights: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """The ranking key weight/sigma; a larger key ranks first."""
    key = np.sqrt(variances)
    return np.divide(weights, key, out=key)


def _first_max(a: np.ndarray) -> np.ndarray:
    """Per pixel, the index of the first maximum along axis 0, as np.argmax
    picks it, from K-1 comparisons (np.argmax over the leading axis copies the
    array to the last axis first, and is several times slower)."""
    best = a[0]
    first = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, len(a)):
        ahead = a[k] > best
        first[ahead] = k
        best = np.maximum(best, a[k])
    return first


def _ranks(key: np.ndarray) -> np.ndarray:
    """Each component's rank best-first by key, a tie ranking the lower index
    first: the inverse of a stable argsort of -key, from the pairwise
    comparisons of the K components. Component k starts at rank k, as if every
    component before it ranked ahead; when k beats an earlier j, j moves back
    one rank and k forward one."""
    ranks = np.repeat(np.arange(COMPONENTS, dtype=np.uint8), key.shape[1]).reshape(key.shape)
    for k in range(1, COMPONENTS):
        for j in range(k):
            beats = (key[k] > key[j]).view(np.uint8)    # else j ranks ahead of k
            ranks[j] += beats
            ranks[k] -= beats
    return ranks


def _mean_index(comp: np.ndarray) -> np.ndarray:
    """Flat indices into (K, 3, N) means of component comp[n]'s channels at each
    pixel n, shaped (3, N)."""
    npix = len(comp)
    return (comp * (3 * npix) + np.arange(npix)) + (np.arange(3) * npix)[:, None]


def gmm_update(state: GmmState, frame: Frame) -> tuple[GmmState, SeparationResult]:
    """Separate one frame against the model, then fold it into the model.

    The one changed component per pixel is updated on (3, N) and (N,) arrays;
    the (3, N) temporaries are reused in place.
    """
    p = state.params
    if frame.planes.shape[1:] != state.shape:
        raise ValueError("frame dimensions do not match model")
    h, w = state.shape
    npix = h * w
    pix = np.arange(npix)
    x = frame.planes.reshape(3, npix).astype(np.float64)        # (3, N)
    weights = state.weights.reshape(COMPONENTS, npix)
    means = state.means.reshape(COMPONENTS, 3, npix)
    variances = state.variances.reshape(COMPONENTS, npix)

    gate = weights > 0.0
    diff = np.empty_like(x)
    for k in range(COMPONENTS):
        np.subtract(x, means[k], out=diff)
        gate[k] &= np.einsum("cn,cn->n", diff, diff) <= 3.0 * MATCH_THRESHOLD * variances[k]
    any_match = gate.any(axis=0)

    # the first passing component in rank order is the first maximum of the
    # gated key; the last in rank order is replaced when none passes
    key = _key(weights, variances)
    ranks = _ranks(key)
    worst = _first_max(ranks)
    np.putmask(key, ~gate, -1.0)
    matched = _first_max(key)

    # background label against the pre-update ranking: the running sum of the
    # weights in rank order, less the matched weight, at the matched rank
    w_ranked = np.empty_like(weights)
    for k in range(COMPONENTS):
        w_ranked.ravel()[np.multiply(ranks[k], npix, dtype=np.intp) + pix] = weights[k]
    cum = w_ranked.copy()
    for r in range(1, COMPONENTS):
        cum[r] += cum[r - 1]
    at_rank = np.multiply(ranks.ravel()[matched * npix + pix], npix, dtype=np.intp) + pix
    in_prefix = cum.ravel()[at_rank] - w_ranked.ravel()[at_rank] < BG_PREFIX
    points = ~(any_match & in_prefix)

    n = state.frames_seen + 1
    alpha = max(p.learning_rate, 1.0 / n)

    # matched pixels decay every weight and move the matched component
    new_w = weights * np.where(any_match, 1.0 - alpha, 1.0)
    comp = np.where(any_match, matched, worst)
    at = comp * npix + pix                                       # into (K, N)
    at_mu = _mean_index(comp)                                    # into (K, 3, N)
    w_c = new_w.ravel()[at] + alpha
    rho = np.clip(alpha / np.maximum(w_c, 1e-12), 0.0, 1.0)
    mu_c = means.ravel()[at_mu]                                  # (3, N)
    mu_moved = np.subtract(x, mu_c, out=diff)
    mu_moved *= rho
    mu_moved += mu_c                            # mu + rho * (x - mu)
    dn = np.subtract(x, mu_moved, out=mu_c)
    d2_new = np.einsum("cn,cn->n", dn, dn) / 3.0
    var_moved = (1.0 - rho) * variances.ravel()[at] + rho * d2_new

    # unmatched pixels overwrite the worst-ranked component; then renormalize
    np.copyto(mu_moved, x, where=~any_match)
    new_mu = means.copy()
    new_mu.ravel()[at_mu] = mu_moved
    new_w.ravel()[at] = np.where(any_match, w_c, NEW_COMPONENT_WEIGHT)
    new_var = variances.copy()
    new_var.ravel()[at] = np.where(any_match, var_moved, INITIAL_VARIANCE)
    new_w /= new_w.sum(axis=0)
    np.maximum(new_var, VARIANCE_FLOOR, out=new_var)

    out = GmmState(p, new_w.reshape(COMPONENTS, h, w), new_mu.reshape(COMPONENTS, 3, h, w),
                   new_var.reshape(COMPONENTS, h, w), frames_seen=n)
    background = background_estimate(out, frame.frame_index)
    return out, SeparationResult(background=background, points=points.reshape(h, w))


def background_estimate(state: GmmState, frame_index: int = 0) -> Frame:
    """Current background template: top-ranked component means, rounded. The top
    component is the first maximum of weight/sigma, as a stable sort ranks it."""
    h, w = state.shape
    key = _key(state.weights, state.variances).reshape(COMPONENTS, h * w)
    mu = state.means.ravel()[_mean_index(_first_max(key))]      # (3, N)
    mu += 0.5                                   # round half up, in place
    planes = np.clip(np.floor(mu, out=mu), 0, 255, out=mu).astype(np.uint8)
    return Frame(planes.reshape(3, h, w), frame_index)


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

