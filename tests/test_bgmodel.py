"""Per-pixel mixture background model against an independent scalar oracle."""

import numpy as np
import pytest

from fbv.bgmodel import (BG_PREFIX, COMPONENTS, INITIAL_VARIANCE, MATCH_THRESHOLD,
                         NEW_COMPONENT_WEIGHT, VARIANCE_FLOOR, GmmParams, GmmState,
                         background_estimate, gmm_init, gmm_update)
from fbv.core import FbvError, Frame

SMALL = GmmParams(init_frames=8)


def _video(planes_list):
    return [Frame(p.astype(np.uint8), t) for t, p in enumerate(planes_list)]


def _const(value, h=16, w=16, n=8):
    return [np.full((3, h, w), value) for _ in range(n)]


class ScalarMixture:
    """Reference model for ONE pixel, written directly from the update rules.

    Plain Python floats and loops; no shortcuts shared with the production
    code beyond the arithmetic itself.
    """

    def __init__(self, x0, p: GmmParams):
        self.p = p
        self.w = [1.0] + [0.0] * (COMPONENTS - 1)
        self.mu = [list(map(float, x0))] + [[0.0, 0.0, 0.0]] * (COMPONENTS - 1)
        self.var = [INITIAL_VARIANCE] * COMPONENTS
        self.n = 1

    def _ranked(self):
        keys = [(-self.w[k] / (self.var[k] ** 0.5), k) for k in range(COMPONENTS)]
        return [k for _, k in sorted(keys, key=lambda t: (t[0], t[1]))]

    def update(self, x):
        p = self.p
        x = list(map(float, x))
        order = self._ranked()
        match = None
        for k in order:
            if self.w[k] <= 0.0:
                continue
            d2 = sum((xc - mc) ** 2 for xc, mc in zip(x, self.mu[k]))
            if d2 <= 3.0 * MATCH_THRESHOLD * self.var[k]:
                match = k
                break
        # foreground point decision against the pre-update ranking
        is_point = True
        if match is not None:
            cum = 0.0
            for k in order:
                if k == match:
                    if cum < BG_PREFIX:
                        is_point = False
                    break
                cum += self.w[k]
        self.n += 1
        alpha = max(p.learning_rate, 1.0 / self.n)
        if match is not None:
            for k in range(COMPONENTS):
                self.w[k] *= 1.0 - alpha
            self.w[match] += alpha
            rho = min(max(alpha / max(self.w[match], 1e-12), 0.0), 1.0)
            self.mu[match] = [m + rho * (xc - m) for m, xc in zip(self.mu[match], x)]
            d2n = sum((xc - mc) ** 2 for xc, mc in zip(x, self.mu[match])) / 3.0
            self.var[match] = (1.0 - rho) * self.var[match] + rho * d2n
        else:
            worst = order[-1]
            self.w[worst] = NEW_COMPONENT_WEIGHT
            self.mu[worst] = x
            self.var[worst] = INITIAL_VARIANCE
            total = sum(self.w)
            self.w = [w / total for w in self.w]
        self.var = [max(v, VARIANCE_FLOOR) for v in self.var]
        return is_point

    def background(self):
        top = self._ranked()[0]
        return [int(np.floor(m + 0.5)) for m in self.mu[top]]


class TestAgainstScalarOracle:
    def test_random_pixel_trajectories(self):
        rng = np.random.default_rng(17)
        h = w = 16
        n = 40
        p = GmmParams(init_frames=n)
        # piecewise-constant pixel signals with occasional jumps
        videos = rng.integers(0, 256, (n, 3, h, w))
        hold = rng.random((n, 1, h, w)) < 0.85
        for t in range(1, n):
            videos[t] = np.where(hold[t], videos[t - 1], videos[t])
        frames = _video(list(videos))

        seed = GmmParams(init_frames=1)
        state = gmm_init(frames[:1], seed)
        points_got = []
        bgs_got = []
        for f in frames[1:]:
            state, sep = gmm_update(state, f)
            points_got.append(sep.points)
            bgs_got.append(sep.background.planes)

        checks = [(0, 0), (3, 7), (15, 15), (8, 2), (11, 13)]
        for (py, px) in checks:
            ref = ScalarMixture(videos[0, :, py, px], p)
            for t in range(1, n):
                want_point = ref.update(videos[t, :, py, px])
                assert bool(points_got[t - 1][py, px]) == want_point, (py, px, t)
                want_bg = ref.background()
                got_bg = [int(bgs_got[t - 1][c, py, px]) for c in range(3)]
                assert got_bg == want_bg, (py, px, t)

            w_state = [state.weights[k, py, px] for k in range(COMPONENTS)]
            assert np.allclose(sorted(w_state), sorted(ref.w), atol=1e-9)
            assert np.allclose(sorted(state.variances[:, py, px]),
                               sorted(ref.var), atol=1e-7)


class TestInit:
    def test_constant_training_recovers_exact_background(self):
        frames = _video(_const(100))
        state = gmm_init(frames, SMALL)
        bg = background_estimate(state)
        assert (bg.planes == 100).all()
        assert state.weights[0].min() == pytest.approx(1.0)
        assert state.variances[0].max() == VARIANCE_FLOOR

    def test_exact_frame_count_required(self):
        frames = _video(_const(100, n=7))
        with pytest.raises(FbvError):
            gmm_init(frames, SMALL)
        with pytest.raises(FbvError):
            gmm_init(_video(_const(100, n=9)), SMALL)

    def test_annealed_rate_is_exact_running_mean(self):
        # early frames use 1/n: a single matched component averages exactly
        p = GmmParams(init_frames=4)
        values = (100, 110, 104, 98)     # steps small enough to stay matched
        frames = _video([np.full((3, 16, 16), v) for v in values])
        state = gmm_init(frames, p)
        mu = state.means[0, 0, 0, 0]
        assert mu == pytest.approx(sum(values) / 4.0)


class TestSeparation:
    def test_intruder_block_flagged(self):
        frames = _video(_const(100))
        state = gmm_init(frames, SMALL)
        intruded = np.full((3, 16, 16), 100)
        intruded[:, 4:12, 4:12] = 180
        state, sep = gmm_update(state, Frame(intruded.astype(np.uint8), 8))
        want = np.zeros((16, 16), dtype=bool)
        want[4:12, 4:12] = True
        assert np.array_equal(sep.points, want)

    def test_static_frame_yields_no_points(self):
        frames = _video(_const(100))
        state = gmm_init(frames, SMALL)
        state, sep = gmm_update(state, frames[0])
        assert not sep.points.any()

    def test_background_estimate_ignores_brief_intruder(self):
        frames = _video(_const(100))
        state = gmm_init(frames, SMALL)
        intruded = np.full((3, 16, 16), 100)
        intruded[:, 0:8, 0:8] = 220
        state, sep = gmm_update(state, Frame(intruded.astype(np.uint8), 8))
        assert (sep.background.planes == 100).all()

    def test_persistent_change_is_absorbed(self):
        p = GmmParams(init_frames=8, learning_rate=0.05)
        frames = _video(_const(100))
        state = gmm_init(frames, p)
        shifted = Frame(np.full((3, 16, 16), 160, dtype=np.uint8), 0)
        absorbed = False
        for t in range(400):
            state, sep = gmm_update(state, shifted)
            if (sep.background.planes == 160).all():
                absorbed = True
                break
        assert absorbed, "new appearance never became the background"


class TestStateInvariants:
    def test_weights_stay_normalized(self):
        rng = np.random.default_rng(23)
        p = GmmParams(init_frames=6)
        frames = _video(list(rng.integers(0, 256, (6, 3, 16, 16))))
        state = gmm_init(frames, p)
        for t in range(30):
            f = Frame(rng.integers(0, 256, (3, 16, 16), dtype=np.uint8).astype(np.uint8), t)
            state, _ = gmm_update(state, f)
            assert np.allclose(state.weights.sum(axis=0), 1.0, atol=1e-9)
            assert state.variances.min() >= VARIANCE_FLOOR - 1e-12

    def test_update_is_deterministic(self):
        frames = _video(_const(100))
        s1 = gmm_init(frames, SMALL)
        s2 = gmm_init(frames, SMALL)
        f = Frame(np.full((3, 16, 16), 130, dtype=np.uint8), 8)
        s1, r1 = gmm_update(s1, f)
        s2, r2 = gmm_update(s2, f)
        assert np.array_equal(r1.background.planes, r2.background.planes)
        assert np.array_equal(r1.points, r2.points)
        assert np.array_equal(s1.weights, s2.weights)

