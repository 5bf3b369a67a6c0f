"""Tests for the unified topology API (repro.topology.spec):
TopologySpec, the one name grammar (pools + replicas + cache tier),
round-tripping, canonicalization, CLI validation, and the legacy
repro.cluster aliases."""

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.topology.configs import ALL_CONFIGURATIONS, configuration_by_name
from repro.topology.spec import (
    GRAMMAR_HELP,
    TopologyConfiguration,
    TopologySpec,
    parse_topology,
    topology,
    validate_config_names,
)

FREE_BASES = ("Ws-Servlet-DB", "Ws-Servlet-DB(sync)", "Ws-Servlet-EJB-DB")
COLOCATED_BASES = ("WsPhp-DB", "WsServlet-DB", "WsServlet-DB(sync)")


# -- naming and parsing --------------------------------------------------------


def test_cache_segment_in_the_name():
    config = topology("Ws-Servlet-DB", TopologySpec(cache_nodes=2))
    assert config.name == "Ws-Servlet-Cache{2}-DB"
    assert config.cache_node_names() == ["cache", "cache#2"]
    # Cache nodes sit between the generation tier and the database.
    assert config.machine_names() == ["web", "servlet", "cache",
                                      "cache#2", "db"]


def test_bare_cache_segment_is_one_node():
    config = parse_topology("WsPhp-Cache-DB")
    assert config.cluster.cache_nodes == 1
    assert config.name == "WsPhp-Cache-DB"
    assert topology("WsPhp-DB", cache_nodes=1).name == "WsPhp-Cache-DB"


def test_everything_composes_in_one_name():
    config = parse_topology("Ws{2}-Servlet{2}-Cache{2}-DB(1+1)")
    spec = config.cluster
    assert (spec.web, spec.gen, spec.cache_nodes, spec.db_replicas) \
        == (2, 2, 2, 1)
    assert config.machine_names() == [
        "web", "web#2", "servlet", "servlet#2", "cache", "cache#2",
        "db", "db.r1"]
    assert config.base_name == "Ws-Servlet-DB"


def test_trivial_shapes_canonicalize_to_the_paper_configuration():
    plain = configuration_by_name("Ws-Servlet-DB")
    assert parse_topology("Ws-Servlet-DB") is plain
    assert parse_topology("Ws-Servlet-Cache{0}-DB") is plain
    assert parse_topology("Ws-Servlet-DB(1+0)") is plain
    assert topology("Ws-Servlet-DB", TopologySpec()) is plain


def test_paper_names_still_resolve():
    for config in ALL_CONFIGURATIONS:
        assert parse_topology(config.name) is config


def test_parse_rejects_garbage_with_the_grammar():
    with pytest.raises(KeyError, match="not a configuration name"):
        parse_topology("NoSuchConfig")
    with pytest.raises(KeyError, match="one write primary"):
        parse_topology("Ws-Servlet-DB(2+1)")
    with pytest.raises(KeyError, match="cannot be pooled"):
        parse_topology("Ws-Servlet-EJB{2}-DB")
    with pytest.raises(KeyError, match="no paper configuration"):
        parse_topology("Ws-Nope-DB")


def test_spec_validation_covers_the_cache_axis():
    with pytest.raises(ValueError, match="cache mode"):
        TopologySpec(cache_nodes=1, cache_mode="modulo").validate()
    with pytest.raises(ValueError, match="cache_mb"):
        TopologySpec(cache_nodes=1, cache_mb=0).validate()
    with pytest.raises(ValueError, match="cache granularity"):
        TopologySpec(cache_nodes=1, cache_granularity="row").validate()
    with pytest.raises(ValueError):
        TopologySpec(cache_nodes=-1).validate()


def test_shard_segment_in_the_name():
    config = topology("Ws-Servlet-DB", db_shards=2, db_replicas=1)
    assert config.name == "Ws-Servlet-DB[2](1+1)"
    # Shard 1 keeps the paper names; shard 2 gets its own replica set.
    assert config.machine_names() == ["web", "servlet", "db", "db.r1",
                                      "db.s2", "db.s2.r1"]
    assert config.db_shard_names() == ["db", "db.s2"]
    assert config.shard_replica_names("db.s2") == ["db.s2.r1"]


def test_shard_trivial_and_rejections():
    plain = configuration_by_name("Ws-Servlet-DB")
    assert parse_topology("Ws-Servlet-DB[1]") is plain
    with pytest.raises(KeyError, match="at least one shard"):
        parse_topology("Ws-Servlet-DB[0]")
    with pytest.raises(ValueError, match="db_shards"):
        TopologySpec(db_shards=0).validate()
    with pytest.raises(ValueError, match="shard strategy"):
        TopologySpec(db_shards=2, shard_strategy="modulo").validate()


# -- the round-trip property ---------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(base=st.sampled_from(FREE_BASES),
       web=st.integers(min_value=1, max_value=5),
       gen=st.integers(min_value=1, max_value=5),
       replicas=st.integers(min_value=0, max_value=4),
       cache_nodes=st.integers(min_value=0, max_value=4),
       shards=st.integers(min_value=1, max_value=5))
def test_name_round_trips_every_counted_axis(base, web, gen, replicas,
                                             cache_nodes, shards):
    """spec -> name -> spec is the identity on everything the name
    encodes (counts; policies/TTLs/sizes parse back to defaults).
    Covers the shard arm composed with every other axis: DB[N],
    DB[N](1+r), Cache{c}-DB[N](1+r), pooled fronts over all of them."""
    spec = TopologySpec(web=web, gen=gen, db_replicas=replicas,
                        cache_nodes=cache_nodes, db_shards=shards)
    config = topology(base, spec)
    if spec.trivial:
        assert config is configuration_by_name(base)
        return
    parsed = parse_topology(config.name)
    assert isinstance(parsed, TopologyConfiguration)
    assert parsed.cluster == spec
    assert parsed.name == config.name
    assert parsed.base_name == base
    assert parsed.machine_names() == config.machine_names()
    # Shard 1 keeps the paper primary name; replicas are per shard.
    assert parsed.db_shard_names()[0] == parsed.machine_of("db")
    assert len(parsed.db_shard_names()) == shards
    for primary in parsed.db_shard_names():
        assert len(parsed.shard_replica_names(primary)) == replicas


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(COLOCATED_BASES),
       web=st.integers(min_value=1, max_value=5),
       cache_nodes=st.integers(min_value=0, max_value=3))
def test_colocated_round_trip(base, web, cache_nodes):
    config = topology(base, web=web, cache_nodes=cache_nodes)
    if web == 1 and cache_nodes == 0:
        assert config is configuration_by_name(base)
        return
    parsed = parse_topology(config.name)
    assert parsed.cluster == config.cluster
    assert parsed.cluster.gen == web        # colocation auto-matched


def test_colocated_base_rejects_independent_gen_pool():
    with pytest.raises(ValueError, match="colocates"):
        topology("WsPhp-DB", web=2, gen=3)


# -- CLI validation ------------------------------------------------------------


def test_validate_config_names_accepts_grammar_and_paper_names():
    assert validate_config_names(["Ws-Servlet-Cache{2}-DB",
                                  "WsPhp-DB"]) == []
    assert validate_config_names(["WsPhp-DB"], paper_only=True) == []


def test_validate_config_names_reports_with_grammar():
    errors = validate_config_names(["NoSuchConfig"])
    text = "\n".join(errors)
    assert "unknown configuration 'NoSuchConfig'" in text
    assert "known configurations:" in text
    assert "WsPhp-DB" in text
    assert GRAMMAR_HELP in text


def test_validate_config_names_paper_only_rejects_topologies():
    errors = validate_config_names(["Ws-Servlet-Cache{2}-DB"],
                                   paper_only=True)
    assert errors and "unknown configuration" in errors[0]


# -- clustered(): topology() without the trivial-spec shortcut -----------------


def test_clustered_always_spells_the_replica_suffix():
    from repro.topology.spec import clustered

    config = clustered("Ws-Servlet-DB", web=2)
    assert isinstance(config, TopologyConfiguration)
    assert config.name == "Ws{2}-Servlet-DB(1+0)"
    assert parse_topology(config.name).cluster == config.cluster


def test_topology_kwargs_and_spec_are_exclusive():
    with pytest.raises(ValueError, match="not both"):
        topology("Ws-Servlet-DB", TopologySpec(web=2), web=2)
