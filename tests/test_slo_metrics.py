"""Windowed SLO metrics, the series' run to the measurement end, and
construction-time validation of the resilience knobs."""

import random

import pytest

from repro.metrics.slo import (
    SloSeries,
    SloSpec,
    SloWindow,
    percentile,
    select_stable_windows,
    summarize_slo,
    time_to_recover,
)
from repro.sim import Simulator


class _Clock:
    """Minimal stand-in for a Simulator: just a settable ``now``."""

    def __init__(self, now=0.0):
        self.now = now


# -- percentile ---------------------------------------------------------------

def test_percentile_nearest_rank():
    assert percentile([], 0.95) is None
    assert percentile([3.0], 0.5) == 3.0
    samples = [float(i) for i in range(1, 101)]   # 1..100
    random.Random(1).shuffle(samples)
    assert percentile(samples, 0.50) == 50.0
    assert percentile(samples, 0.95) == 95.0
    assert percentile(samples, 0.99) == 99.0


@pytest.mark.xfail(strict=True, reason="percentile ranks by floor(f*n), "
                   "not nearest-rank ceil(f*n); the fix moves "
                   "ext_tiny_text.json (ROADMAP item 10)")
def test_percentile_nearest_rank_off_the_grid():
    """Nearest rank is ceil(f * n): the median of three is the middle
    sample, the 95th percentile of six is the largest."""
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([float(i) for i in range(1, 7)], 0.95) == 6.0


# -- SloSpec ------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(latency_bound=0.0), dict(latency_bound=-1.0),
    dict(percentile=0.0), dict(percentile=1.0), dict(window=0.0),
])
def test_slo_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SloSpec(**kwargs)


# -- SloSeries windowing ------------------------------------------------------

def test_series_files_samples_by_window():
    clock = _Clock()
    series = SloSeries(clock, SloSpec(window=1.0))
    series.start()
    clock.now = 0.2
    series.record_arrival()
    series.record(0.1)
    clock.now = 0.9
    series.record(0.3)
    clock.now = 2.5
    series.record_arrival()
    series.record_error()
    windows = series.windows(until=3.0)
    assert [w.index for w in windows] == [0, 1, 2]
    assert windows[0].completions == 2
    assert windows[0].arrivals == 1
    assert (windows[0].start, windows[0].end) == (0.0, 1.0)
    # The untouched middle window is materialized empty and sealed.
    assert windows[1].completions == 0
    assert windows[1].arrivals == 0
    assert windows[2].errors == 1
    assert windows[2].arrivals == 1
    assert windows[0].throughput == pytest.approx(2.0)


def test_series_origin_anchors_window_zero():
    clock = _Clock(now=100.0)
    series = SloSeries(clock, SloSpec(window=2.0))
    series.start()
    clock.now = 101.9
    series.record(0.5)
    clock.now = 102.1
    series.record(0.5)
    windows = series.windows(until=104.0)
    assert [w.index for w in windows] == [0, 1]
    assert (windows[0].start, windows[0].end) == (100.0, 102.0)
    assert windows[0].completions == 1
    assert windows[1].completions == 1


def test_series_empty_and_unstarted_are_safe():
    series = SloSeries(_Clock(), SloSpec())
    assert series.windows(until=0.0) == []
    # Recording before start() anchors at t=0 instead of crashing.
    clock = _Clock(now=3.5)
    series = SloSeries(clock, SloSpec(window=1.0))
    series.record(0.2)
    assert [w.index for w in series.windows(until=4.0)] == [0, 1, 2, 3]


def test_series_never_schedules_events():
    sim = Simulator()
    series = SloSeries(sim, SloSpec())
    series.start()
    series.record_arrival()
    series.record(0.1)
    series.record_error()
    series.windows(until=1.0)
    assert sim.quiescent()
    assert sim.events_processed == 0


# -- SloWindow.violates -------------------------------------------------------

def test_empty_window_violates_only_under_offered_load():
    spec = SloSpec(latency_bound=2.0, percentile=0.95)
    idle = SloWindow(index=0, start=0, end=1)
    assert not idle.violates(spec)
    starved = SloWindow(index=0, start=0, end=1, arrivals=3)
    assert starved.violates(spec)
    erroring = SloWindow(index=0, start=0, end=1, errors=1)
    assert erroring.violates(spec)


def test_violates_checks_percentile_raw_and_sealed():
    spec = SloSpec(latency_bound=2.0, percentile=0.95)
    good = SloWindow(index=0, start=0, end=1, completions=20,
                     latencies=[0.1] * 19 + [5.0])
    # p95 of 19x0.1 + one 5.0 is 0.1: one straggler doesn't violate.
    assert not good.violates(spec)
    bad = SloWindow(index=0, start=0, end=1, completions=20,
                    latencies=[3.0] * 20)
    assert bad.violates(spec)
    # Sealing drops the raw samples; the digest keeps the verdict.
    good.seal()
    bad.seal()
    assert good.latencies == [] and bad.latencies == []
    assert not good.violates(spec)
    assert bad.violates(spec)


# -- select_stable_windows ----------------------------------------------------

def _window_run(n, width=1.0):
    return [SloWindow(index=i, start=i * width, end=(i + 1) * width,
                      completions=1, latencies=[0.1])
            for i in range(n)]


def test_select_stable_windows_drops_warmup_and_partial_tail():
    aligned = _window_run(10)
    assert [w.index for w in select_stable_windows(aligned)] == \
        list(range(10))
    windows = _window_run(10)
    windows[-1].end = 9.5           # the measurement ended at 9.5
    stable = select_stable_windows(windows, warmup=2)
    # Warmup windows 0-1 gone; window [9, 9.5) is partial, dropped too.
    assert [w.index for w in stable] == [2, 3, 4, 5, 6, 7, 8]
    kept = select_stable_windows(windows, drop_last_partial=False)
    assert [w.index for w in kept] == list(range(10))
    assert select_stable_windows([], warmup=3) == []
    with pytest.raises(ValueError):
        select_stable_windows(windows, warmup=-1)


# -- summarize_slo ------------------------------------------------------------

def test_summarize_slo_raw_samples():
    spec = SloSpec(latency_bound=1.0, percentile=0.95)
    windows = [
        SloWindow(index=0, start=0, end=1, completions=4, arrivals=5,
                  latencies=[0.1, 0.2, 0.3, 0.4]),
        SloWindow(index=1, start=1, end=2, completions=2, arrivals=2,
                  errors=1, latencies=[2.0, 3.0]),
    ]
    summary = summarize_slo(windows, spec)
    assert summary.windows_total == 2
    assert summary.windows_violating == 1
    assert summary.violation_fraction == pytest.approx(0.5)
    assert summary.compliant_fraction == pytest.approx(0.5)
    assert summary.offered_per_s == pytest.approx(3.5)
    assert summary.goodput_per_s == pytest.approx(3.0)
    assert summary.error_per_s == pytest.approx(0.5)
    assert summary.p50 == 0.3
    # Nearest-rank over the 6 pooled samples: rank int(0.95*6)=5 -> 2.0.
    assert summary.p95 == 2.0


def test_summarize_slo_sealed_falls_back_to_weighted_digest():
    spec = SloSpec()
    one = SloWindow(index=0, start=0, end=1, completions=1,
                    latencies=[1.0])
    three = SloWindow(index=1, start=1, end=2, completions=3,
                      latencies=[2.0, 2.0, 2.0])
    one.seal()
    three.seal()
    summary = summarize_slo([one, three], spec)
    # Completions-weighted: (1*1.0 + 3*2.0) / 4.
    assert summary.p50 == pytest.approx(1.75)
    empty = summarize_slo([], spec)
    assert empty.windows_total == 0
    assert empty.violation_fraction == 0.0
    assert empty.goodput_per_s == 0.0
    assert empty.p95 is None


# -- time_to_recover ----------------------------------------------------------

def _recovery_series(violating_until):
    windows = []
    for i in range(12):
        bad = i < violating_until
        windows.append(SloWindow(
            index=i, start=float(i), end=float(i + 1), completions=5,
            latencies=[5.0] * 5 if bad else [0.1] * 5))
    return windows


def test_time_to_recover_finds_first_settled_run():
    spec = SloSpec(latency_bound=2.0, percentile=0.95)
    windows = _recovery_series(violating_until=6)
    # Disturbance ends at t=4; windows 6,7,8 are the first 3-window
    # compliant run, starting at t=6.
    assert time_to_recover(windows, spec, disturbance_end=4.0,
                           settle=3) == pytest.approx(2.0)
    # Recovery at the disturbance edge clamps to zero.
    assert time_to_recover(windows, spec, disturbance_end=7.0,
                           settle=3) == pytest.approx(0.0)


def test_time_to_recover_never_settles():
    spec = SloSpec(latency_bound=2.0, percentile=0.95)
    windows = _recovery_series(violating_until=12)
    assert time_to_recover(windows, spec, disturbance_end=2.0) is None
    with pytest.raises(ValueError):
        time_to_recover(windows, spec, disturbance_end=2.0, settle=0)


def test_time_to_recover_settling_in_a_cut_short_tail():
    spec = SloSpec(latency_bound=2.0, percentile=0.95)
    windows = _recovery_series(violating_until=5)[:8]
    windows[-1].end = 7.5           # SloSeries.windows(until=7.5)
    # Windows 5, 6 and the half window 7 settle; the run starts at t=5.
    assert time_to_recover(windows, spec, disturbance_end=4.0,
                           settle=3) == pytest.approx(1.0)


def test_time_to_recover_ignores_pre_disturbance_compliance():
    spec = SloSpec(latency_bound=2.0, percentile=0.95)
    # Compliant early, violating through the disturbance, never recovers.
    windows = _recovery_series(violating_until=0)
    for w in windows[4:]:
        w.latencies = [5.0] * 5
    assert time_to_recover(windows, spec, disturbance_end=4.0) is None


# -- SloSeries.windows(until=...): the series runs to the measurement end ----

def test_until_captures_run_shorter_than_one_window():
    clock = _Clock()
    series = SloSeries(clock, SloSpec(window=10.0))
    series.start()
    clock.now = 3.0
    for __ in range(7):
        series.record(0.1)
    tail, = series.windows(until=4.0)
    assert (tail.start, tail.end) == (0.0, 4.0)
    assert tail.completions == 7
    assert tail.throughput == pytest.approx(7 / 4.0)


def test_until_ends_partial_tail_after_full_windows():
    clock = _Clock()
    series = SloSeries(clock, SloSpec(window=5.0))
    series.start()
    clock.now = 4.0
    for __ in range(10):
        series.record(0.1)
    clock.now = 6.0
    for __ in range(4):
        series.record(0.1)
    series.record_error()
    series.record_error()
    full, tail = series.windows(until=8.0)
    assert (full.start, full.end, full.completions) == (0.0, 5.0, 10)
    assert (tail.start, tail.end) == (5.0, 8.0)
    assert (tail.completions, tail.errors) == (4, 2)
    # The SLO summary still leaves the cut-short window out.
    assert select_stable_windows([full, tail]) == [full]


def test_until_skips_zero_length_tail():
    clock = _Clock()
    series = SloSeries(clock, SloSpec(window=5.0))
    series.start()
    clock.now = 1.0
    series.record(0.1)
    # Measurement ended on a window boundary: one full window, no tail.
    window, = series.windows(until=5.0)
    assert window.duration == pytest.approx(5.0)


def test_until_keeps_a_silent_tail():
    """Nothing arrives, finishes or fails after t=2 (every client parked
    behind a dead tier, or an idle open loop): the quiet windows are
    still part of the measurement, so they count in the summary."""
    clock = _Clock()
    series = SloSeries(clock, SloSpec(window=1.0))
    series.start()
    clock.now = 1.5
    series.record_arrival()
    series.record(0.2)
    windows = series.windows(until=6.0)
    assert [w.index for w in windows] == [0, 1, 2, 3, 4, 5]
    assert sum(w.completions for w in windows[2:]) == 0
    summary = summarize_slo(select_stable_windows(windows),
                            SloSpec(window=1.0))
    assert summary.windows_total == 6
    assert summary.goodput_per_s == pytest.approx(1 / 6.0)


# -- construction-time validation of resilience knobs -------------------------

def test_retry_policy_validation():
    from repro.workload.client import RetryPolicy
    RetryPolicy(deadline=None)            # None = no deadline: fine
    RetryPolicy(deadline=2.0, max_retries=0, backoff_base=0.0,
                backoff_cap=0.0, retry_budget=1)
    with pytest.raises(ValueError):
        RetryPolicy(deadline=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(deadline=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_cap=-0.1)
    with pytest.raises(ValueError, match="max_retries=0"):
        RetryPolicy(retry_budget=0)


def test_think_time_spec_validation():
    from repro.workload.client import ThinkTimeSpec
    with pytest.raises(ValueError):
        ThinkTimeSpec(think_mean=0.0)
    with pytest.raises(ValueError):
        ThinkTimeSpec(session_mean=-1.0)
