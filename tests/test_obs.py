"""Tests for request-level tracing (repro.obs): span trees, attribution,
exports, and the guarantee that tracing never perturbs the simulation."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.faults import FaultEvent, FaultPlan
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.profiles import profile_application
from repro.obs import (
    Tracer,
    build_report,
    chrome_trace,
    flame_summary,
    render_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim import Simulator
from repro.topology.configs import WS_SEP_SERVLET_DB, WS_SERVLET_DB
from repro.workload.client import RetryPolicy

EPS = 1e-9


@pytest.fixture(scope="module")
def app():
    return BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))


@pytest.fixture(scope="module")
def servlet_profile(app):
    return profile_application(app, app.deploy_servlet(), "servlet",
                               repetitions=2)


def _tiny_spec(app, profile, **overrides):
    base = ExperimentSpec(
        config=WS_SERVLET_DB, profile=profile, mix=app.mix("shopping"),
        clients=20, ramp_up=15.0, measure=45.0, ramp_down=5.0, seed=7,
        ssl_interactions=app.SSL_INTERACTIONS, app_name="bookstore")
    return replace(base, **overrides)


# -- span-tree structural properties (hypothesis) -----------------------------

_ops = st.lists(
    st.tuples(st.sampled_from(["push", "pop", "pop_deep"]),
              st.floats(min_value=0.0, max_value=3.0)),
    max_size=40)


def _assert_well_formed(root):
    """Every span closed, children nested in time, exclusive sums add up."""
    for span in root.walk():
        assert span.end is not None, f"unclosed span {span.name}"
        assert span.end >= span.start
        covered = 0.0
        for child in span.children:
            assert child.parent is span
            assert child.start >= span.start - EPS
            assert child.end <= span.end + EPS
            covered += child.wall
        # Stack discipline makes siblings sequential, so child walls
        # can never cover more than the parent's wall...
        assert covered <= span.wall + EPS
        # ... and exclusive() is exactly the uncovered remainder.
        assert abs(span.exclusive() - max(0.0, span.wall - covered)) <= EPS


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_span_trees_are_well_formed(ops):
    """Whatever push/pop/advance sequence a request performs -- including
    popping a span several levels below the top of the stack, as an
    interrupted generator's finally-unwind does -- the finished tree is
    properly nested and every span is closed."""
    sim = Simulator()
    tracer = Tracer(sim)
    done = {}

    def request():
        rc = tracer.begin_request("req", 0)
        open_spans = []
        for op, dt in ops:
            if dt > 0.0:
                yield dt
            if op == "push":
                open_spans.append(rc.push(
                    f"s{rc.span_count}", "cpu", "t",
                    meta={"demand": 0.0}))
            elif op == "pop" and open_spans:
                rc.pop(open_spans.pop())
            elif op == "pop_deep" and open_spans:
                # Pop an arbitrary open span: everything pushed above
                # it must be force-closed with it.
                idx = len(open_spans) // 2
                rc.pop(open_spans[idx])
                del open_spans[idx:]
        yield 0.5
        rc.close()
        done["rc"] = rc

    sim.spawn(request())
    sim.run()
    rc = done["rc"]
    assert rc.closed
    _assert_well_formed(rc.root)
    # The tracer folded exactly the spans the tree holds and no request
    # context is left open.
    assert tracer.spans_folded == rc.span_count
    assert not tracer._by_proc
    assert tracer.requests == [rc]


def test_pop_is_robust_to_unwound_spans():
    """Popping a parent closes the children still open above it; popping
    an already-unwound span is a no-op."""
    sim = Simulator()
    tracer = Tracer(sim)

    def request():
        rc = tracer.begin_request("req", 0)
        a = rc.push("a", "phase", "t")
        b = rc.push("b", "phase", "t")
        c = rc.push("c", "phase", "t")
        yield 1.0
        rc.pop(a)                   # closes c, b, then a
        assert a.end == b.end == c.end == sim.now
        rc.pop(b)                   # already unwound: no effect
        rc.close()

    sim.spawn(request())
    sim.run()


# -- tracing is a pure observer ------------------------------------------------

def test_traced_run_matches_untraced_run(app, servlet_profile):
    """Tracing on vs off: every declared report field is identical --
    same virtual-time results, same kernel event count (tracing adds no
    events, no RNG draws) -- except the trace-only bottleneck verdict."""
    untraced = run_experiment(_tiny_spec(app, servlet_profile))
    traced = run_experiment(_tiny_spec(app, servlet_profile, trace=True))

    as_untraced = asdict(untraced)
    as_traced = asdict(traced)
    assert as_traced.pop("bottleneck") is not None
    as_untraced.pop("bottleneck")
    assert as_traced == as_untraced
    assert traced.kernel_events == untraced.kernel_events

    # The traced point carries the full aggregates.
    tracer = traced.tracer
    assert not tracer._by_proc
    assert tracer.n_requests > 0
    report = traced.bottleneck_report
    assert report.bottleneck == traced.bottleneck
    assert "bottleneck:" in render_report(report)


def test_trace_cpu_matches_sampler_within_one_percent(app, servlet_profile):
    """The trace-derived busy fraction (sum of clipped cpu-span demands
    over the window) must agree with the sysstat sampler's mean CPU on
    both machines of the canonical fig06-style point."""
    point = run_experiment(_tiny_spec(app, servlet_profile, trace=True))
    tracer = point.tracer
    assert abs(tracer.busy_fraction("web") - point.cpu.web_server) <= 0.01
    assert abs(tracer.busy_fraction("db") - point.cpu.database) <= 0.01


# -- closure by quiescence under fault plans ----------------------------------

_crashes = st.lists(
    st.tuples(st.sampled_from(["web", "servlet", "db"]),
              st.floats(min_value=16.0, max_value=40.0),
              st.floats(min_value=0.5, max_value=6.0)),
    min_size=1, max_size=2)


@settings(max_examples=8, deadline=None)
@given(drawn=_crashes)
def test_spans_close_by_quiescence_under_crash_plans(drawn):
    """Whatever tier crashes mid-measurement, once the run drains every
    request context is closed and every retained span has an end time."""
    app_, profile = test_spans_close_by_quiescence_under_crash_plans.inputs
    plan = FaultPlan(tuple(FaultEvent("crash", tier, at, duration)
                           for tier, at, duration in drawn))
    point = run_experiment(_tiny_spec(
        app_, profile, config=WS_SEP_SERVLET_DB, clients=8, trace=True,
        fault_plan=plan,
        retry=RetryPolicy(deadline=3.0, max_retries=1, backoff_base=0.25,
                          backoff_cap=1.0, retry_budget=10)))
    tracer = point.tracer
    assert not tracer._by_proc
    for rc in tracer.requests:
        assert rc.closed
        _assert_well_formed(rc.root)


@pytest.fixture(scope="module", autouse=True)
def _attach_crash_inputs(app, servlet_profile):
    test_spans_close_by_quiescence_under_crash_plans.inputs = \
        (app, servlet_profile)
    yield


# -- attribution and exports ---------------------------------------------------

def test_bottleneck_report_shape(app, servlet_profile):
    point = run_experiment(_tiny_spec(app, servlet_profile, trace=True))
    report = build_report(point.tracer, configuration="WsServlet-DB",
                          interaction_mix="bookstore", clients=20)
    assert report.bottleneck
    shares = report.critical_path_shares()
    assert shares
    # Shares are fractions of total request time.
    assert all(0.0 <= s <= 1.0 + EPS for s in shares.values())
    assert sum(shares.values()) <= 1.0 + 1e-6


def test_chrome_trace_export_validates(app, servlet_profile, tmp_path):
    point = run_experiment(_tiny_spec(app, servlet_profile, trace=True))
    payload = chrome_trace(point.tracer.requests)
    validate_chrome_trace(payload)
    events = payload["traceEvents"]
    assert events
    assert {e["ph"] for e in events} <= {"X", "M"}
    assert any(e["ph"] == "X" for e in events)

    out = tmp_path / "trace.json"
    n = write_chrome_trace(point.tracer, str(out))
    assert n == len(events)
    validate_chrome_trace(json.loads(out.read_text()))

    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "X"}]})


def test_flame_summary_mentions_hot_paths(app, servlet_profile):
    point = run_experiment(_tiny_spec(app, servlet_profile, trace=True))
    text = flame_summary(point.tracer.requests)
    assert "db.query" in text or "web.http" in text
    # Every interaction of the mix that ran shows up under its own name.
    assert any(name in text for name in app.interaction_names())
