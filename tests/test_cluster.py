"""Unit and property tests for the scale-out subsystem (repro.cluster):
cluster specs/naming, the load balancer, and primary/replica
replication with read-your-writes routing."""

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cluster import (
    DbInstance,
    LoadBalancer,
    ReplicatedDb,
    SessionState,
)
from repro.faults.errors import TierDown
from repro.machine.machine import Machine
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.topology.configs import ALL_CONFIGURATIONS, Configuration
from repro.topology.spec import (
    TopologySpec,
    clustered,
    parse_topology,
    topology,
)

# -- spec and naming -----------------------------------------------------------


def test_cluster_name_spells_out_the_shape():
    config = clustered("Ws-Servlet-DB(sync)", web=2, gen=4, db_replicas=2)
    assert config.name == "Ws{2}-Servlet{4}-DB(sync)(1+2)"
    assert config.base_name == "Ws-Servlet-DB(sync)"
    assert config.flavor == "servlet_sync"


def test_trivial_cluster_keeps_paper_machines():
    for base in ALL_CONFIGURATIONS:
        config = clustered(base)
        assert config.cluster.trivial
        assert config.name == base.name + "(1+0)"
        assert config.machine_names() == base.machine_names()
        assert config.base_configuration == base


def test_pool_members_and_replica_names():
    config = clustered("Ws-Servlet-DB", web=2, gen=3, db_replicas=2)
    assert config.pool("web") == ["web", "web#2"]
    assert config.pool("gen") == ["servlet", "servlet#2", "servlet#3"]
    assert config.pool("db") == ["db"]          # writes: primary only
    assert config.machine_names() == [
        "web", "web#2", "servlet", "servlet#2", "servlet#3",
        "db", "db.r1", "db.r2"]


def test_colocated_pool_sized_by_web():
    config = clustered("WsPhp-DB", web=3)
    assert config.cluster.gen == 3              # auto-matched
    assert config.pool("gen") == ["web", "web#2", "web#3"]
    with pytest.raises(ValueError, match="colocates"):
        clustered("WsServlet-DB", web=3, gen=2)


def test_ejb_machine_is_never_pooled():
    config = clustered("Ws-Servlet-EJB-DB", web=2, gen=2, db_replicas=1)
    assert config.machine_names().count("ejb") == 1
    assert "ejb#2" not in config.machine_names()
    with pytest.raises(KeyError, match="cannot be pooled"):
        parse_topology("Ws-Servlet-EJB{2}-DB(1+0)")


def test_cluster_name_round_trip():
    for base in ALL_CONFIGURATIONS:
        for kwargs in ({"web": 2, "db_replicas": 1},
                       {"web": 2, "gen": 4, "db_replicas": 3}):
            if base.colocated("web", "gen") and "gen" in kwargs:
                continue
            config = topology(base, **kwargs)
            parsed = parse_topology(config.name)
            assert parsed.name == config.name
            assert parsed.cluster == config.cluster
            assert parsed.base_name == base.name
        # The always-clustered spelling of the trivial shape parses back
        # to the paper configuration itself.
        assert parse_topology(clustered(base).name) is base


def test_parse_topology_spans_both_namespaces():
    paper = parse_topology("WsPhp-DB")
    assert isinstance(paper, Configuration)
    assert not hasattr(paper, "cluster")
    cluster = parse_topology("Ws-Servlet-DB(1+2)")
    assert cluster.cluster.db_replicas == 2
    with pytest.raises(KeyError):
        parse_topology("NoSuchThing")


def test_spec_validation():
    with pytest.raises(ValueError):
        TopologySpec(web=0).validate()
    with pytest.raises(ValueError):
        TopologySpec(db_replicas=-1).validate()
    with pytest.raises(ValueError):
        TopologySpec(web_policy="random").validate()
    TopologySpec(web=2, gen=2, db_replicas=4).validate()


# -- load balancer units -------------------------------------------------------


def test_round_robin_rotates_and_skips_down():
    down = set()
    lb = LoadBalancer("web", ["a", "b", "c"], policy="round_robin",
                      is_up=lambda name: name not in down)
    assert [lb.pick() for __ in range(4)] == ["a", "b", "c", "a"]
    down.add("b")
    # rotation continues from where it left off, skipping the dead member
    assert [lb.pick() for __ in range(3)] == ["c", "a", "c"]


def test_least_connections_picks_emptiest():
    lb = LoadBalancer("web", ["a", "b"], policy="least_connections")
    first = lb.acquire()
    second = lb.acquire()
    assert {first, second} == {"a", "b"}
    lb.release(first)
    assert lb.pick() == first                  # the emptier one
    with pytest.raises(ValueError):
        lb.release(first)                      # idle: nothing to release


def test_affinity_sticks_until_crash_then_rebinds():
    down = set()
    lb = LoadBalancer("web", ["a", "b"], policy="affinity",
                      is_up=lambda name: name not in down)
    bound = lb.pick(session_key=7)
    assert all(lb.pick(session_key=7) == bound for __ in range(5))
    down.add(bound)
    rebound = lb.pick(session_key=7)
    assert rebound != bound
    down.clear()
    assert lb.pick(session_key=7) == rebound    # binding moved for good
    lb.forget_session(7)
    # after forget, the session binds afresh (rotation continues)
    assert lb.pick(session_key=7) in ("a", "b")


def test_all_backends_down_raises_tierdown():
    lb = LoadBalancer("web", ["a", "b"], is_up=lambda __: False)
    with pytest.raises(TierDown):
        lb.pick()


# -- balancer properties -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5),
       downs=st.sets(st.integers(0, 4)),
       policy=st.sampled_from(["round_robin", "least_connections",
                               "affinity"]),
       picks=st.lists(st.integers(0, 9), min_size=1, max_size=30),
       seed=st.integers(0, 2**16))
def test_balancer_never_routes_to_crashed_member(n, downs, policy,
                                                 picks, seed):
    """Whatever the policy, crash set, and session keys: a pick is
    always a live backend, or TierDown when none is live."""
    backends = [f"m{i}" for i in range(n)]
    down = {f"m{i}" for i in downs if i < n}
    lb = LoadBalancer("pool", backends, policy=policy,
                      rng=RngStreams(seed).stream("test.lb"),
                      is_up=lambda name: name not in down)
    for key in picks:
        if len(down) == n:
            with pytest.raises(TierDown):
                lb.pick(session_key=key)
        else:
            assert lb.pick(session_key=key) not in down


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.integers(0, 6), min_size=1, max_size=60),
       seed=st.integers(0, 2**16))
def test_least_connections_counts_are_conserved(ops, seed):
    """acquire/release bookkeeping: in_flight totals always equal
    outstanding acquisitions and never go negative."""
    lb = LoadBalancer("pool", ["a", "b", "c"],
                      policy="least_connections",
                      rng=RngStreams(seed).stream("test.lb"))
    held = []
    for op in ops:
        if op % 3 == 0 and held:
            lb.release(held.pop())
        else:
            held.append(lb.acquire(session_key=op))
        assert sum(lb.in_flight.values()) == len(held)
        assert all(count >= 0 for count in lb.in_flight.values())
        # least-connections keeps the pool balanced within one request
        counts = sorted(lb.in_flight.values())
        assert counts[-1] - counts[0] <= 1
    for backend in held:
        lb.release(backend)
    assert sum(lb.in_flight.values()) == 0


# -- replication: read-your-writes under random lag ----------------------------


def _replicated_db(sim, n_replicas, lag, apply_cost_factor=0.5):
    class _Site:
        down = set()
    primary = DbInstance(sim, Machine(sim, "db"), write_priority=True,
                         table_locks={}, is_primary=True)
    replicas = [DbInstance(sim, Machine(sim, f"db.r{i + 1}"),
                           write_priority=True)
                for i in range(n_replicas)]
    balancer = LoadBalancer(
        "db.read", [r.machine.name for r in replicas] or ["db"],
        policy="least_connections",
        rng=RngStreams(1).stream("cluster.lb.db"),
        is_up=lambda __: True)
    return ReplicatedDb(sim, _Site(), primary, replicas,
                        replication_lag=lag,
                        apply_cost_factor=apply_cost_factor,
                        balancer=balancer)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(
           st.tuples(st.floats(min_value=0.0, max_value=2.0),   # gap
                     st.booleans()),                            # write?
           min_size=1, max_size=25),
       lag=st.floats(min_value=0.0, max_value=3.0),
       n_replicas=st.integers(1, 3))
def test_read_your_writes_holds_under_random_lag(script, lag, n_replicas):
    """However writes, reads, and replication lag interleave, a session
    read never lands on an instance that has not applied the session's
    last write -- and all replicas converge once the run drains."""
    sim = Simulator()
    repl = _replicated_db(sim, n_replicas, lag)
    session = SessionState(client_id=0)
    violations = []

    def driver():
        for gap, is_write in script:
            if gap:
                yield gap
            if is_write:
                repl.commit_write(session, ("items",), db_cpu=0.001)
            else:
                instance, token = repl.route_read(session)
                if instance.applied_seq < session.last_write_seq:
                    violations.append((sim.now, instance.machine.name))
                if token is not None:
                    repl.release_read(token)

    proc = sim.spawn(driver())
    horizon = sum(gap for gap, __ in script) + lag + 10.0
    sim.run(until=horizon)
    assert proc.finished
    assert not violations
    for replica in repl.replicas:
        assert replica.applied_seq == repl.commit_seq
        assert replica.applied_writes == repl.commit_seq
    assert sum(repl.balancer.in_flight.values()) == 0


def test_zero_replicas_is_pure_bookkeeping():
    """The identity guarantee's core: with no replicas, commits and
    read routing schedule no events and spawn no processes."""
    sim = Simulator()
    repl = _replicated_db(sim, 0, lag=0.5)
    session = SessionState(client_id=3)
    repl.commit_write(session, ("items", "orders"), db_cpu=0.01)
    instance, token = repl.route_read(session)
    assert instance is repl.primary
    assert token is None
    assert session.last_write_seq == 1
    assert sim.events_processed == 0
    assert repl.lag_fallbacks == 0 and repl.down_fallbacks == 0


def test_lagging_replicas_fall_back_to_primary():
    sim = Simulator()
    repl = _replicated_db(sim, 2, lag=5.0)
    session = SessionState(client_id=0)
    seen = []

    def driver():
        repl.commit_write(session, ("items",), db_cpu=0.001)
        instance, token = repl.route_read(session)   # replicas lag: primary
        seen.append(instance.machine.name)
        if token is not None:
            repl.release_read(token)
        yield 6.0                                    # lag passes
        instance, token = repl.route_read(session)
        seen.append(instance.machine.name)
        if token is not None:
            repl.release_read(token)

    sim.spawn(driver())
    sim.run(until=20.0)
    assert seen[0] == "db"
    assert seen[1].startswith("db.r")
    assert repl.lag_fallbacks == 1


def test_fresh_session_reads_spread_over_replicas():
    sim = Simulator()
    repl = _replicated_db(sim, 2, lag=0.1)
    session = SessionState(client_id=0)

    def driver():
        for __ in range(10):
            instance, token = repl.route_read(session)
            assert not instance.is_primary
            repl.release_read(token)
            yield 0.01

    sim.spawn(driver())
    sim.run(until=1.0)
    assert all(r.reads_served > 0 for r in repl.replicas)
