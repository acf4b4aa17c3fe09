"""Machine-speed normalisation of the end-to-end timings.

On a shared host the same call can take 1.6 times longer from one ten-second
stretch to the next, because other tenants load the same cores. That swing
is common to all CPU work, so the harness probes a fixed calibration kernel
between consecutive measured calls, and twice a second inside long calls,
and scales each stretch of a call's wall time by

    REFERENCE_KERNEL_S / median(probes within WINDOW_S of the stretch)

where a probe is the fastest of a few kernel passes. The kernel is frozen
here, apart from the codec: a change to fbv cannot change it, so a faster or
slower codec shows in full while the host's swing cancels. It mixes the
codec's kinds of work: a pure-Python adaptive binary coder loop, numpy on
8x8 blocks, and a separable scipy filter over a frame-sized plane. The raw
wall times are kept in every run's record.
"""

from __future__ import annotations

import signal
import statistics
import time
import traceback

import numpy as np
from scipy.signal import convolve2d

REFERENCE_KERNEL_S = 0.007    # a probe's time on an idle 2-core Linux VM

_RNG = np.random.default_rng(20260816)
_PLANE = _RNG.random((96, 128))
_BLOCKS = _RNG.integers(0, 256, (96, 8, 8)).astype(np.int64)
_TAPS = np.exp(-0.5 * ((np.arange(11) - 5) / 1.5) ** 2).reshape(-1, 1)


def _coder_loop(n: int = 6_000) -> int:
    low, rng, probs = 0, 0xFFFFFFFF, [2048] * 64
    for i in range(n):
        ctx = i & 63
        p = probs[ctx]
        split = (rng >> 12) * p
        if (i * 2654435761) & 0x1000:
            low += split
            rng -= split
            probs[ctx] = p - (p >> 5)
        else:
            rng = split
            probs[ctx] = p + ((4096 - p) >> 5)
        while rng < 0x1000000:
            rng = (rng << 8) & 0xFFFFFFFF
            low = (low << 8) & 0xFFFFFFFF
    return low


def _numpy_work() -> float:
    x = _PLANE
    for _ in range(4):
        x = convolve2d(convolve2d(x, _TAPS, mode="same"), _TAPS.T, mode="same")
    acc = 0
    for _ in range(80):
        y = _BLOCKS[:, ::-1] - _BLOCKS
        acc += int(np.where(y > 3, y, 0).sum())
    return float(x.sum()) + acc


def kernel_s() -> float:
    """Wall time of one pass of the calibration kernel."""
    t0 = time.perf_counter()
    _coder_loop()
    _numpy_work()
    return time.perf_counter() - t0


def probe_s(passes: int = 3) -> float:
    """Fastest of a few kernel passes; one pass alone catches stray interrupts."""
    return min(kernel_s() for _ in range(passes))


class Gauge:
    """Times calls and scales them, stretch by stretch, to the reference speed.

    The gauge probes the kernel after every call and, from a timer signal,
    every PROBE_INTERVAL_S inside a long call, which cuts the call into
    stretches; the handler's own time is left out of the call. Once the run
    is over, each stretch is scaled by the median of the probes within
    WINDOW_S of its middle. The median over a few seconds of probes drops a
    single probe's jitter but still follows the host speeding up or slowing
    down in the middle of a long encode. Use from the main thread only.
    """

    PROBE_INTERVAL_S = 0.5
    WINDOW_S = 1.5
    MID_CALL_PASSES = 2

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []     # (time, probe seconds)
        self.probe()

    def probe(self, passes: int = 3) -> float:
        value = probe_s(passes)
        self.probes.append((time.perf_counter(), value))
        return value

    def timed(self, fn):
        """Run fn(); return (value, stretches, error).

        stretches are the (start, end) wall-clock intervals of the call
        between probes; error is the formatted traceback when fn raised.
        """
        stretches: list[tuple[float, float]] = []
        start = time.perf_counter()

        def on_alarm(signum, frame):
            nonlocal start
            stretches.append((start, time.perf_counter()))
            self.probe(self.MID_CALL_PASSES)
            start = time.perf_counter()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_INTERVAL_S, self.PROBE_INTERVAL_S)
        value = error = None
        try:
            value = fn()
        except Exception:
            error = traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        stretches.append((start, time.perf_counter()))
        self.probe()
        return value, stretches, error

    def probe_at(self, t: float) -> float:
        """Median probe within WINDOW_S of t, or the nearest probe if none is."""
        near = [v for pt, v in self.probes if abs(pt - t) <= self.WINDOW_S]
        if not near:
            near = [min(self.probes, key=lambda p: abs(p[0] - t))[1]]
        return statistics.median(near)

    def normalised_s(self, stretches) -> float:
        return sum((b - a) * REFERENCE_KERNEL_S / self.probe_at((a + b) / 2.0)
                   for a, b in stretches)
