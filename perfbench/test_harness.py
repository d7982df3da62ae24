"""Tests of the benchmark's own helpers: ``python -m pytest perfbench``."""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from harness import REF_NOMINAL_S, HostSpeed, Ratio, Span, Tracer, \
    Yardstick, covered, derive_seed, percentile, self_times, tail, \
    trimmed_mean  # noqa: E402


def test_percentile_interpolates_linearly():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0
    assert percentile([7.0], 95.0) == 7.0


@pytest.mark.parametrize("count, expected_pct", [
    (20, 50.0),      # exactly 10 beyond p50
    (39, 50.0),      # 9.75 beyond p75: not enough
    (40, 75.0),
    (250, 95.0),     # 2.5 beyond p99: not enough
    (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_picks_highest_percentile_with_ten_beyond(count,
                                                       expected_pct):
    samples = [float(i) for i in range(count)]
    value, pct, reported = tail(samples)
    assert pct == expected_pct
    assert reported == count
    assert value == percentile(samples, expected_pct)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 19)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1.0, 3.0), (2.0, 5.0), (6.0, 7.0)], 0.0, 10.0) == 5.0
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([], 0.0, 10.0) == 0.0


def test_self_time_subtracts_union_of_children():
    spans = [Span("request", 0.0, 10.0, index=0),
             Span("submit", 1.0, 3.0, parent=0, index=1),
             Span("report", 2.0, 5.0, parent=0, index=2),
             Span("report", 6.0, 7.0, parent=0, index=3),
             Span("inner", 1.5, 2.0, parent=1, index=4)]
    result = self_times(spans)
    assert result["request"] == pytest.approx(5.0)
    assert result["submit"] == pytest.approx(1.5)
    assert result["report"] == pytest.approx(4.0)
    assert result["inner"] == pytest.approx(0.5)


def test_tracer_nests_per_thread_and_disabled_records_nothing():
    tracer = Tracer(enabled=True)
    with tracer.span("outer", request="r1") as outer:
        with tracer.span("inner", request="r1") as inner:
            assert tracer.current() == inner.index
        parent = tracer.current()

        def remote():
            with tracer.span("remote", "r2", parent):
                pass

        worker = threading.Thread(target=remote)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert tracer.current() is None
    assert inner.parent == outer.index
    assert outer.parent is None
    assert [s.name for s in tracer.spans] == ["outer", "inner", "remote"]
    assert tracer.spans[2].parent == outer.index
    assert tracer.spans[2].request == "r2"
    assert tracer.totals("inner") == [inner.end - inner.start]

    off = Tracer(enabled=False)
    with off.span("outer") as record:
        assert record is None
    assert off.spans == []


def test_ratio_keeps_its_base():
    ratio = Ratio(numerator=3.0, base=4.0)
    assert ratio.value == 0.75
    assert ratio.to_json() == {"value": 0.75, "numerator": 3.0,
                               "base": 4.0}
    with pytest.raises(ZeroDivisionError):
        Ratio(numerator=1.0, base=0.0).value


def test_host_speed_uses_the_bursts_inside_or_nearest_the_interval():
    speed = HostSpeed()
    speed.NEAREST = 3
    # Bursts at t = 0..9 s; the host was twice as slow from t = 5 s.
    speed.samples = [(float(t), REF_NOMINAL_S * (1 if t < 5 else 2))
                     for t in range(10)]
    assert speed.factor(0.0, 4.0) == pytest.approx(1.0)
    assert speed.factor(4.5, 9.0) == pytest.approx(0.5)
    # Too few bursts inside: the three nearest decide.
    assert speed.ref_s(5.2, 5.4) == pytest.approx(5 / 3 * REF_NOMINAL_S)
    assert speed.ref_s(4.2, 4.4) == pytest.approx(4 / 3 * REF_NOMINAL_S)
    assert speed.ref_s(-3.0, -1.0) == pytest.approx(REF_NOMINAL_S)


def test_trimmed_mean_drops_both_tails():
    assert trimmed_mean([float(v) for v in range(10)] + [1000.0]) == 5.0
    assert trimmed_mean([1.0, 2.0, 6.0]) == 3.0


def test_host_speed_samples_until_stopped_and_not_while_paused():
    speed = HostSpeed()
    speed.PERIOD_S = 0.01
    with speed:
        with speed.paused():
            paused_at = time.perf_counter()
            time.sleep(0.1)
            resumed_at = time.perf_counter()
        time.sleep(0.1)
    assert not speed._thread.is_alive()
    assert speed.samples
    assert not [t for t, _ in speed.samples if paused_at < t < resumed_at]


def test_yardstick_is_deterministic():
    assert Yardstick().burst() == Yardstick().burst()


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "netlist") == derive_seed(1, "netlist")
    assert derive_seed(1, "netlist") != derive_seed(2, "netlist")
    assert derive_seed(1, "netlist") != derive_seed(1, "place")
    assert 0 <= derive_seed(123, "edits") < 2 ** 31


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
