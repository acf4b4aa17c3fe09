"""Per-pixel mixture background model against an independent scalar oracle,
and against the whole-array update it must equal bit for bit."""

import numpy as np
import pytest

import refmixture
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


def _piecewise_constant(seed, n, h, w, hold):
    """Random colours that each pixel keeps from frame to frame with probability hold."""
    rng = np.random.default_rng(seed)
    video = rng.integers(0, 256, (n, 3, h, w))
    kept = rng.random((n, 1, h, w)) < hold
    for t in range(1, n):
        video[t] = np.where(kept[t], video[t - 1], video[t])
    return _video(list(video))


def _assert_matches_reference(frames, learning_rate, state=None):
    """Step the update and the reference from one state (by default the seed
    state of the first frame), each on its own state, and require equal arrays
    after every frame."""
    if state is None:
        state = gmm_init(frames[:1], GmmParams(learning_rate=learning_rate, init_frames=1))
        frames = frames[1:]
    ref = state
    for f in frames:
        state, sep = gmm_update(state, f)
        ref, ref_sep = refmixture.gmm_update(ref, f)
        t = f.frame_index
        assert state.frames_seen == ref.frames_seen
        assert np.array_equal(state.weights, ref.weights), t
        assert np.array_equal(state.means, ref.means), t
        assert np.array_equal(state.variances, ref.variances), t
        assert np.array_equal(sep.points, ref_sep.points), t
        assert np.array_equal(sep.background.planes, ref_sep.background.planes), t
        assert sep.background.frame_index == ref_sep.background.frame_index
        assert np.array_equal(background_estimate(state, t).planes,
                              refmixture.background_estimate(ref, t).planes), t


class TestAgainstWholeArrayReference:
    @pytest.mark.parametrize("seed,hold", [(1, 0.5), (2, 0.85), (3, 0.97)])
    @pytest.mark.parametrize("learning_rate", [0.005, 0.2, 1.0])
    def test_random_piecewise_constant_clips(self, seed, hold, learning_rate):
        _assert_matches_reference(_piecewise_constant(seed, 40, 24, 40, hold),
                                  learning_rate)

    @pytest.mark.parametrize("learning_rate", [0.005, 0.2])
    def test_tied_keys_and_replacements(self, learning_rate):
        # the seed state's three zero-weight components tie at key 0, and two
        # colours far apart alternate, so no-match replacements keep firing
        # while the ties are broken by index
        rng = np.random.default_rng(5)
        a = rng.integers(0, 100, (3, 16, 24))
        b = a + 150
        frames = _video([a if t % 2 == 0 else b for t in range(30)])
        state = gmm_init(frames[:1], GmmParams(init_frames=1))
        assert (state.weights[1:] == 0.0).all()
        _assert_matches_reference(frames, learning_rate)

    def test_ties_between_live_components(self):
        # equal weights and variances tie every key; means 20 apart let one
        # pixel pass the gate of two tied components, and the lower index wins
        rng = np.random.default_rng(7)
        h, w = 16, 24
        means = np.broadcast_to((20.0 * np.arange(COMPONENTS))[:, None, None, None],
                                (COMPONENTS, 3, h, w)).copy()
        state = GmmState(GmmParams(), np.full((COMPONENTS, h, w), 1.0 / COMPONENTS), means,
                         np.full((COMPONENTS, h, w), INITIAL_VARIANCE), frames_seen=300)
        frames = _video([rng.integers(0, 80, (3, h, w)) for _ in range(6)])
        _assert_matches_reference(frames, state.params.learning_rate, state)

    def test_prefix_is_running_sum_less_the_matched_weight(self):
        # a pixel matches its second-ranked component; the weight ahead of it
        # is 0.75 give or take a few ulps, and (w0 + w1) - w1 falls on the other
        # side of BG_PREFIX from w0 itself on some pixels, so only the running
        # sum less the matched weight labels every pixel as the reference does
        w0 = BG_PREFIX + np.arange(-8, 8)[:, None] * np.spacing(BG_PREFIX)
        w1 = np.linspace(0.26, 0.74, 49)[None, :]
        exact = (w0 + w1) - w1 < BG_PREFIX
        assert (exact != (w0 < BG_PREFIX)).any()
        h, w = exact.shape
        weights = np.zeros((COMPONENTS, h, w))
        weights[0], weights[1] = w0, w1
        means = np.zeros((COMPONENTS, 3, h, w))
        means[1] = 200.0
        state = GmmState(GmmParams(), weights, means,
                         np.full((COMPONENTS, h, w), INITIAL_VARIANCE), frames_seen=300)
        frame = Frame(np.full((3, h, w), 200, dtype=np.uint8), 0)
        _, sep = gmm_update(state, frame)
        assert np.array_equal(sep.points, ~exact)
        _assert_matches_reference([frame], state.params.learning_rate, state)

    def test_full_size_frame_pair(self):
        rng = np.random.default_rng(9)
        first = rng.integers(0, 256, (3, 240, 320))
        second = np.clip(first + rng.integers(-3, 4, first.shape), 0, 255)
        second[:, 60:140, 100:220] = rng.integers(0, 256, (3, 80, 120))
        _assert_matches_reference(_video([first, second]), 0.005)


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

