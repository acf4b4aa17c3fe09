"""Tests of the benchmark's own code: clip generators, tracing and the harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import clips  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

TINY = 0.125      # 40x30: every workload end to end in seconds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _planes(clip):
    return np.stack([f.planes for f in clip.video.frames])


@pytest.mark.parametrize("workload", clips.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    a, b = clips.make_clip(workload, 7, TINY), clips.make_clip(workload, 7, TINY)
    assert np.array_equal(_planes(a), _planes(b))
    assert a.config == b.config
    assert clips.seek_targets(7, 100) == clips.seek_targets(7, 100)
    assert not np.array_equal(_planes(a), _planes(clips.make_clip(workload, 8, TINY)))


@pytest.mark.parametrize("workload", clips.WORKLOADS)
def test_seeds_keep_shape_objects_and_schedule(workload):
    ref = clips.make_clip(workload, 0, clips.BENCH_SCALE)
    for seed in (1, 2, 3):
        clip = clips.make_clip(workload, seed, clips.BENCH_SCALE)
        assert _planes(clip).shape == _planes(ref).shape
        assert clip.schedule == ref.schedule
        assert clip.brightness == ref.brightness
        assert clip.config == ref.config
        # a frame shows an object exactly when the schedule says one is present
        lit = [np.clip(clip.background.astype(np.int16) + b, 0, 255).astype(np.uint8)
               for b in clip.brightness]
        for t, frame in enumerate(clip.video.frames):
            present = any(first <= t <= last for first, last in clip.schedule)
            assert present == (not np.array_equal(frame.planes, lit[t])), (seed, t)


def test_seek_targets_take_one_frame_per_slice():
    k = clips.SEEKS_PER_ROUND
    for seed in (0, 5):
        for round_no in (0, 3):
            targets = sorted(clips.seek_targets(seed, 100, round_no=round_no))
            assert len(targets) == k
            assert all(abs(t - (2 * i + 1) * 100 // (2 * k)) <= 1 for i, t in enumerate(targets))
    assert clips.seek_targets(1, 100) != clips.seek_targets(2, 100)


def _suite_fixtures():
    """The test suite's clip helpers, loaded by path under a name of their own."""
    spec = importlib.util.spec_from_file_location("suite_fixtures", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_zero_at_scale_one_is_the_test_suite_clip():
    suite = _suite_fixtures()
    want = suite.moving_square_video(h=240, w=320, n=100, size=20, step=3)
    assert np.array_equal(_planes(clips.square(0, 1.0)), np.stack([f.planes for f in want.frames]))
    want = suite.static_video(h=240, w=320, n=300, bg=suite.gradient_background(240, 320))
    assert np.array_equal(_planes(clips.static(0, 1.0)), np.stack([f.planes for f in want.frames]))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    S = spans.Span
    tree = [S("bench.encode", 0.0, 10.0, -1),
            S("pipeline.encode", 0.5, 9.5, 0),
            S("bgmodel.gmm_update", 1.0, 3.0, 1),
            S("metrics.ms_ssim", 3.0, 4.5, 1),
            S("bgtemplate.TemplateChain.admit", 5.0, 9.0, 1),
            S("metrics.ms_ssim", 5.5, 6.0, 4),
            S("bgtemplate.encode_template", 6.0, 8.5, 4),
            S("residual.encode_residual", 6.5, 8.0, 6)]
    assert spans.self_times(tree) == pytest.approx([1.0, 1.5, 2.0, 1.5, 1.0, 0.5, 1.0, 1.5])
    view = layers._View(tree)
    assert view.layer_self_s("pipeline", "bench.encode") == pytest.approx(1.5)
    assert view.layer_self_s("metrics") == pytest.approx(2.0)
    assert view.layer_self_s("bgtemplate") == pytest.approx(2.0)
    # self times partition the root's wall time
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_tracer_records_parents_and_tolerates_missing_targets():
    import fbv.metrics
    tracer = spans.Tracer(clock=FakeClock())
    original = fbv.metrics.psnr
    targets = (("metrics.psnr", "fbv.metrics", "psnr"),
               ("gone.thing", "fbv.metrics", "no_such_function"),
               ("gone.module", "fbv.no_such_module", "f"))
    with spans.installed(tracer, targets) as missing:
        assert fbv.metrics.psnr is not original
        with tracer.span("bench.encode"):
            fbv.metrics.psnr(np.zeros((1, 16, 16), np.uint8), np.ones((1, 16, 16), np.uint8))
    assert fbv.metrics.psnr is original
    assert set(missing) == {"gone.thing", "gone.module"}
    assert "no_such_function" in missing["gone.thing"]
    assert [(s.name, s.parent) for s in tracer.spans] == [("bench.encode", -1),
                                                          ("metrics.psnr", 0)]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_missing_span_makes_its_metric_missing_not_fatal():
    class Stream:
        templates, foregrounds = (), ()
    out = layers.layer_metrics([], {"bgmodel.gmm_update": "fbv.pipeline.gmm_update: gone"},
                               Stream(), 0, {"encode": 1.0, "decode": 1.0}, 0.0)
    assert out["bgmodel.gmm_update_ms"]["value"] is None
    assert "gone" in out["bgmodel.gmm_update_ms"]["missing"]
    assert out["bgmodel.gmm_init_s"]["value"] == 0.0
    assert {m["name"] for m in SPEC["per_layer"]} == set(out)


@pytest.mark.parametrize("workload", clips.WORKLOADS)
def test_tiny_smoke_run_through_the_harness(workload, monkeypatch):
    monkeypatch.setattr(harness, "ENTROPY_BINS", 20_000)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "MIN_DECODES", 2)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, record = harness.run_workload(workload, 3, 0.5, trace, TINY)
        assert record["failures"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert len(record["fingerprint"]["sha256"]) == 64
