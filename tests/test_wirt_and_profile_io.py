"""Tests for WIRT constraints."""

from repro.metrics.wirt import (
    BOOKSTORE_WIRT_LIMITS,
    WirtResult,
    evaluate_wirt,
)
from repro.workload.client import ClientStats


# -------------------------------------------------------------------- WIRT

def _stats_with(times: dict) -> ClientStats:
    stats = ClientStats()
    for name, samples in times.items():
        for value in samples:
            stats.record(name, value)
    return stats


def test_wirt_limits_cover_all_interactions():
    from repro.apps.bookstore.logic import INTERACTIONS
    assert set(BOOKSTORE_WIRT_LIMITS) == set(INTERACTIONS)


def test_percentile_computation():
    stats = _stats_with({"home": [float(i) for i in range(1, 11)]})
    assert stats.percentile("home", 0.9) == 9.0
    assert stats.percentile("home", 0.5) == 5.0
    assert stats.percentile("ghost") is None


def test_wirt_passes_fast_run():
    stats = _stats_with({name: [0.1, 0.2, 0.3]
                         for name in BOOKSTORE_WIRT_LIMITS})
    report = evaluate_wirt(stats)
    assert report.compliant
    assert not report.violations()
    assert "WIRT-compliant" in report.render()


def test_wirt_flags_slow_interaction():
    times = {name: [0.1] for name in BOOKSTORE_WIRT_LIMITS}
    times["best_sellers"] = [30.0] * 10     # p90 = 30 s > 5 s limit
    report = evaluate_wirt(_stats_with(times))
    assert not report.compliant
    violated = report.violations()
    assert [v.interaction for v in violated] == ["best_sellers"]
    assert "VIOLATED" in report.render()


def test_wirt_unobserved_interaction_is_not_a_violation():
    report = evaluate_wirt(_stats_with({"home": [0.1]}))
    assert report.compliant
    unobserved = [r for r in report.results if r.samples == 0]
    assert unobserved and all(r.passed for r in unobserved)


def test_wirt_result_passed_logic():
    assert WirtResult("x", 3.0, 2.9, 10).passed
    assert not WirtResult("x", 3.0, 3.1, 10).passed
    assert WirtResult("x", 3.0, None, 0).passed
