"""Parallel sweep runner: jobs semantics and serial equivalence.

The acceptance bar for the parallel path is *bit-identical* output: a
``jobs=4`` report must equal the ``jobs=1`` (exact legacy serial path)
report field-for-field under pinned seeds.  The equivalence tests below
run one real bookstore figure point and one real auction figure point
through both paths and compare the full dataclass trees -- throughput,
WIRT compliance, CPU-utilization samples, kernel event counts, all of it.
"""

from dataclasses import asdict, replace

import pytest

from repro.apps import build_app
from repro.harness.experiment import ExperimentSpec, run_figure, run_sweep
from repro.harness.parallel import (
    default_jobs,
    effective_jobs,
    parallel_map,
    rehydrate_spec,
    run_points,
    strip_spec,
)
from repro.harness.profiles import get_profiles
from repro.metrics.wirt import BOOKSTORE_WIRT_LIMITS
from repro.topology.configs import WS_PHP_DB, WS_SERVLET_DB


# ----------------------------------------------------------- jobs resolution

def test_effective_jobs_none_means_serial():
    assert effective_jobs(None, 10) == 1


def test_effective_jobs_clamps_to_task_count():
    assert effective_jobs(8, 3) == 3
    assert effective_jobs(2, 10) == 2


def test_effective_jobs_zero_means_cpu_count(monkeypatch):
    import repro.harness.parallel as par
    monkeypatch.setattr(par.os, "cpu_count", lambda: 6)
    assert effective_jobs(0, 100) == 6
    assert effective_jobs(-1, 100) == 6


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "zebra")
    with pytest.raises(ValueError):
        default_jobs()
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() >= 1


# ----------------------------------------------------------- task plumbing

def _double(x):
    return 2 * x  # module-level: must be picklable for pool workers


def test_parallel_map_preserves_order():
    tasks = list(range(12))
    assert parallel_map(_double, tasks, jobs=1) == [2 * x for x in tasks]
    assert parallel_map(_double, tasks, jobs=4) == [2 * x for x in tasks]


def _bookstore_spec(**overrides):
    profiles = get_profiles("bookstore")
    app = build_app("bookstore")
    spec = ExperimentSpec(
        config=WS_SERVLET_DB,
        profile=profiles[WS_SERVLET_DB.profile_flavor],
        mix=app.mix("shopping"), clients=40,
        ramp_up=30.0, measure=60.0, ramp_down=5.0,
        ssl_interactions=app.SSL_INTERACTIONS,
        wirt_limits=dict(BOOKSTORE_WIRT_LIMITS),
        app_name="bookstore")
    return replace(spec, **overrides) if overrides else spec


def _auction_spec(**overrides):
    profiles = get_profiles("auction")
    app = build_app("auction")
    spec = ExperimentSpec(
        config=WS_PHP_DB,
        profile=profiles[WS_PHP_DB.profile_flavor],
        mix=app.mix("bidding"), clients=40,
        ramp_up=30.0, measure=60.0, ramp_down=5.0,
        ssl_interactions=app.SSL_INTERACTIONS,
        app_name="auction")
    return replace(spec, **overrides) if overrides else spec


def test_strip_and_rehydrate_roundtrip():
    spec = _bookstore_spec()
    stripped = strip_spec(spec)
    assert stripped.profile is None
    assert stripped.app_name == "bookstore"
    restored = rehydrate_spec(stripped)
    assert restored.profile is spec.profile  # same cached object
    # A spec with no app name is shipped whole -- nothing to strip.
    anonymous = replace(spec, app_name=None)
    assert strip_spec(anonymous) is anonymous


def test_rehydrate_without_app_name_raises():
    spec = replace(_bookstore_spec(), profile=None, app_name=None)
    with pytest.raises(ValueError):
        rehydrate_spec(spec)


# ------------------------------------------------- serial/parallel equality

def test_bookstore_point_jobs4_equals_jobs1():
    spec = _bookstore_spec()
    serial = run_points([spec], jobs=1)[0]
    parallel = run_points([spec], jobs=4)[0]
    assert asdict(parallel) == asdict(serial)
    # Spell out the fields the paper's figures are built from.
    assert parallel.throughput_ipm == serial.throughput_ipm
    assert asdict(parallel.cpu) == asdict(serial.cpu)
    assert parallel.wirt is not None
    assert asdict(parallel.wirt) == asdict(serial.wirt)
    assert parallel.kernel_events == serial.kernel_events


def test_auction_point_jobs4_equals_jobs1():
    spec = _auction_spec()
    serial = run_points([spec], jobs=1)[0]
    parallel = run_points([spec], jobs=4)[0]
    assert asdict(parallel) == asdict(serial)
    assert parallel.throughput_ipm == serial.throughput_ipm
    assert asdict(parallel.cpu) == asdict(serial.cpu)


def test_run_sweep_jobs_parity_and_order():
    base = _bookstore_spec()
    counts = (20, 40)
    serial = run_sweep(base, counts, jobs=1)
    parallel = run_sweep(base, counts, jobs=4)
    assert asdict(parallel) == asdict(serial)
    assert [p.clients for p in parallel.points] == list(counts)


def test_run_figure_jobs_parity_and_series_order():
    book = _bookstore_spec()
    php = replace(book, config=WS_PHP_DB,
                  profile=get_profiles("bookstore")[WS_PHP_DB.profile_flavor])
    specs = {WS_SERVLET_DB.name: book, WS_PHP_DB.name: php}
    counts = {WS_SERVLET_DB.name: (20,), WS_PHP_DB.name: (20, 40)}
    serial = run_figure("t", "bookstore/shopping", specs, counts, jobs=1)
    parallel = run_figure("t", "bookstore/shopping", specs, counts, jobs=3)
    assert asdict(parallel) == asdict(serial)
    assert list(parallel.series) == list(serial.series)
