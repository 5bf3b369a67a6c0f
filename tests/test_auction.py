"""Tests for the auction application across all three architectures."""

import random

import pytest

from repro.apps.auction import (
    AuctionApp,
    BIDDING_MIX,
    BROWSING_MIX,
    build_auction_database,
)
from repro.apps.auction.logic import INTERACTIONS, STATIC_INTERACTIONS
from repro.apps.auction.mixes import (
    AuctionState,
    choose_interaction,
    make_request,
)
from repro.web.http import HttpRequest


def _read_write_fraction(mix):
    """Share of the mix's interactions that write."""
    return sum(weight for name, weight in mix.items()
               if not INTERACTIONS[name][1]) / sum(mix.values())


@pytest.fixture(scope="module")
def app():
    return AuctionApp(build_auction_database(scale=0.0005, tiny=True))


@pytest.fixture(scope="module")
def php(app):
    return app.deploy_php()


def _state(app):
    return AuctionState.from_database(app.database, random.Random(3))


def test_database_has_nine_tables(app):
    assert sorted(app.database.tables) == sorted([
        "categories", "regions", "users", "items", "old_items", "bids",
        "comments", "buy_now", "ids"])


def test_sizing_follows_paper_ratios(app):
    db = app.database
    items = len(db.table("items"))
    assert len(db.table("bids")) == 10 * items        # 10 bids per item
    assert len(db.table("categories")) == 40
    assert len(db.table("regions")) == 62
    old = len(db.table("old_items"))
    assert len(db.table("comments")) == pytest.approx(0.95 * old, rel=0.02)
    assert len(db.table("buy_now")) == pytest.approx(0.05 * old, rel=0.05)


def test_all_twentysix_interactions_render_on_php(app, php):
    rng = random.Random(1)
    state = _state(app)
    for name in INTERACTIONS:
        response, trace = php.handle(make_request(name, rng, state))
        assert response.ok(), f"{name}: {response.status} {response.body[:90]}"
        assert response.body_bytes > 250, name


def test_static_interactions_issue_no_queries(app, php):
    rng = random.Random(2)
    state = _state(app)
    for name in STATIC_INTERACTIONS:
        __, trace = php.handle(make_request(name, rng, state))
        assert trace.query_count() == 0, name


def test_interaction_count_is_26():
    assert len(INTERACTIONS) == 26


def test_store_bid_updates_denormalized_counters(app, php):
    db = app.database
    state = _state(app)
    before = db.execute(
        "SELECT nb_of_bids, max_bid FROM items WHERE id = 7").first()
    request = HttpRequest("/store_bid", params={
        "item_id": 7, "bid": before[1] + 10.0, "max_bid": before[1] + 20.0,
        "qty": 1, **state.credentials()})
    response, trace = php.handle(request)
    assert response.ok()
    after = db.execute(
        "SELECT nb_of_bids, max_bid FROM items WHERE id = 7").first()
    assert after[0] == before[0] + 1
    assert after[1] == before[1] + 10.0
    # The bid row itself exists.
    top = db.execute(
        "SELECT MAX(bid) FROM bids WHERE item_id = 7").scalar()
    assert top == before[1] + 10.0


def test_store_bid_rejects_low_bid(app, php):
    state = _state(app)
    response, __ = php.handle(HttpRequest("/store_bid", params={
        "item_id": 8, "bid": 0.5, "qty": 1, **state.credentials()}))
    assert response.status == 409


def test_store_bid_requires_auth(app, php):
    response, __ = php.handle(HttpRequest("/store_bid", params={
        "item_id": 8, "bid": 10_000.0, "nickname": "user1",
        "password": "wrong"}))
    assert response.status == 401


def test_buy_now_closes_auction_when_sold_out(app, php):
    db = app.database
    state = _state(app)
    item_id = 11
    qty = db.execute("SELECT quantity FROM items WHERE id = ?",
                     (item_id,)).scalar()
    response, __ = php.handle(HttpRequest("/store_buy_now", params={
        "item_id": item_id, "qty": qty, **state.credentials()}))
    assert response.ok()
    end_date = db.execute("SELECT end_date, quantity FROM items "
                          "WHERE id = ?", (item_id,)).first()
    assert end_date[1] == 0
    assert end_date[0] < 1_000_000_000.0  # closed


def test_store_comment_updates_rating(app, php):
    db = app.database
    state = _state(app)
    to_user = 42
    rating_before = db.execute(
        "SELECT rating FROM users WHERE id = ?", (to_user,)).scalar()
    response, __ = php.handle(HttpRequest("/store_comment", params={
        "to_user": to_user, "item_id": state.n_items + 1, "rating": 1,
        "comment": "smooth deal", **state.credentials()}))
    assert response.ok()
    rating_after = db.execute(
        "SELECT rating FROM users WHERE id = ?", (to_user,)).scalar()
    assert rating_after == rating_before + 1


def test_register_user_via_ids_counter(app, php):
    db = app.database
    counter_before = db.execute(
        "SELECT value FROM ids WHERE name = 'users'").scalar()
    response, trace = php.handle(HttpRequest("/register_user", params={
        "nickname": "fresh_nickname_001", "region_name": "REGION05"}))
    assert response.ok()
    counter_after = db.execute(
        "SELECT value FROM ids WHERE name = 'users'").scalar()
    assert counter_after == counter_before + 1
    new_user = db.execute(
        "SELECT id, region FROM users WHERE nickname = 'fresh_nickname_001'"
    ).first()
    assert new_user[0] == counter_after
    assert new_user[1] == 5


def test_register_user_duplicate_nickname(app, php):
    response, __ = php.handle(HttpRequest("/register_user", params={
        "nickname": "user1"}))
    assert response.status == 409


def test_register_item_appears_in_category(app, php):
    db = app.database
    state = _state(app)
    response, __ = php.handle(HttpRequest("/register_item", params={
        "name": "SHINY NEW THING", "initial_price": 42.0, "category": 3,
        **state.credentials()}))
    assert response.ok()
    found = db.execute(
        "SELECT COUNT(*) FROM items WHERE name = 'SHINY NEW THING'").scalar()
    assert found == 1


def test_view_item_falls_back_to_old_items(app, php):
    state = _state(app)
    old_id = state.n_items + 3
    response, __ = php.handle(HttpRequest("/view_item",
                                          params={"item_id": old_id}))
    assert response.ok()
    assert "auction has ended" in response.body


def test_about_me_shows_all_sections(app, php):
    state = _state(app)
    response, __ = php.handle(make_request("about_me", random.Random(5),
                                           state))
    assert response.ok()
    for section in ("Your current bids", "Items you are selling",
                    "Comments about you", "Your buy-now purchases"):
        assert section in response.body


def test_php_and_servlet_issue_identical_sql():
    app1 = AuctionApp(build_auction_database(scale=0.0005, tiny=True))
    app2 = AuctionApp(build_auction_database(scale=0.0005, tiny=True))
    php = app1.deploy_php()
    servlet = app2.deploy_servlet()
    rng1, rng2 = random.Random(7), random.Random(7)
    s1 = AuctionState.from_database(app1.database, random.Random(5))
    s2 = AuctionState.from_database(app2.database, random.Random(5))
    for name in INTERACTIONS:
        __, t1 = php.handle(make_request(name, rng1, s1))
        __, t2 = servlet.handle(make_request(name, rng2, s2))
        assert [q.sql for q in t1.queries()] == \
            [q.sql for q in t2.queries()], name


def test_sync_servlet_has_no_lock_statements(app):
    sync = app.deploy_servlet(sync_locking=True)
    rng = random.Random(11)
    state = _state(app)
    for name in INTERACTIONS:
        __, trace = sync.handle(make_request(name, rng, state))
        assert trace.lock_statement_count() == 0, name
        if name in ("store_bid", "store_buy_now", "store_comment",
                    "register_item", "register_user"):
            assert trace.sync_spans() >= 1 or \
                trace.response.status in (401, 409), name


def test_ejb_all_interactions_render(app):
    presentation, container = app.deploy_ejb()
    rng = random.Random(13)
    state = _state(app)
    for name in INTERACTIONS:
        response, __ = presentation.handle(make_request(name, rng, state))
        assert response.ok(), f"{name}: {response.status}"


def test_ejb_bid_matches_php_semantics(app):
    presentation, __ = app.deploy_ejb()
    db = app.database
    state = _state(app)
    before = db.execute(
        "SELECT nb_of_bids, max_bid FROM items WHERE id = 20").first()
    response, trace = presentation.handle(HttpRequest("/store_bid", params={
        "item_id": 20, "bid": before[1] + 7.0, "max_bid": before[1] + 9.0,
        "qty": 1, **state.credentials()}))
    assert response.ok()
    after = db.execute(
        "SELECT nb_of_bids, max_bid FROM items WHERE id = 20").first()
    assert after[0] == before[0] + 1
    assert after[1] == before[1] + 7.0
    assert trace.rmi_calls()


def test_ejb_query_flood_on_short_interactions(app):
    php = app.deploy_php()
    presentation, __ = app.deploy_ejb()
    rng1, rng2 = random.Random(17), random.Random(17)
    s1 = _state(app)
    s2 = _state(app)
    php_total = ejb_total = 0
    for name in ("view_bid_history", "about_me", "view_user_info",
                 "search_items_in_category"):
        __, t1 = php.handle(make_request(name, rng1, s1))
        __, t2 = presentation.handle(make_request(name, rng2, s2))
        php_total += t1.query_count()
        ejb_total += t2.query_count()
    assert ejb_total > 4 * php_total


# ------------------------------------------------------------------- mixes

def test_bidding_mix_is_15_percent_read_write():
    assert _read_write_fraction(BIDDING_MIX) == pytest.approx(0.15, abs=0.005)
    assert sum(BIDDING_MIX.values()) == pytest.approx(100.0, abs=0.5)


def test_browsing_mix_is_read_only():
    assert _read_write_fraction(BROWSING_MIX) == 0.0
    assert sum(BROWSING_MIX.values()) == pytest.approx(100.0, abs=0.5)


def test_mix_names_are_valid_interactions():
    for mix in (BIDDING_MIX, BROWSING_MIX):
        assert set(mix) <= set(INTERACTIONS)


def test_choose_interaction_distribution():
    rng = random.Random(0)
    counts = {name: 0 for name in BIDDING_MIX}
    n = 20_000
    for __ in range(n):
        counts[choose_interaction(BIDDING_MIX, rng)] += 1
    assert counts["view_item"] / n == pytest.approx(0.127, abs=0.01)
    assert counts["store_bid"] / n == pytest.approx(0.075, abs=0.01)
