"""Tests for the bookstore application across all three architectures."""

import random

import pytest

from repro.apps.bookstore import (
    BROWSING_MIX,
    ORDERING_MIX,
    SHOPPING_MIX,
    BookstoreApp,
    build_bookstore_database,
)
from repro.apps.bookstore.logic import INTERACTIONS
from repro.apps.bookstore.mixes import (
    BookstoreState,
    choose_interaction,
    make_request,
)
from repro.web.http import HttpRequest


@pytest.fixture(scope="module")
def app():
    return BookstoreApp(build_bookstore_database(scale=0.005, tiny=True))


@pytest.fixture(scope="module")
def php(app):
    return app.deploy_php()


def _state(app):
    return BookstoreState.from_database(app.database, random.Random(3))


def test_database_has_eight_tables(app):
    assert sorted(app.database.tables) == sorted([
        "countries", "address", "customers", "orders", "order_line",
        "credit_info", "items", "authors"])


def test_scaling_keeps_relation_sizes(app):
    db = app.database
    orders = len(db.table("orders"))
    lines = len(db.table("order_line"))
    assert lines == 3 * orders
    assert len(db.table("countries")) == 92


def test_all_fourteen_interactions_render_on_php(app, php):
    rng = random.Random(1)
    state = _state(app)
    for name in INTERACTIONS:
        request = make_request(name, rng, state)
        response, trace = php.handle(request)
        assert response.ok(), f"{name} failed: {response.status}"
        assert response.body_bytes > 300, name
        if name != "search_request":
            assert trace.query_count() >= 1, name


def test_search_request_is_static(app, php):
    __, trace = php.handle(HttpRequest("/search_request"))
    assert trace.query_count() == 0


def test_read_only_interactions_do_not_write(app, php):
    rng = random.Random(2)
    state = _state(app)
    for name, (handler, read_only) in INTERACTIONS.items():
        if not read_only:
            continue
        __, trace = php.handle(make_request(name, rng, state))
        assert not trace.tables_written(), name


def test_read_write_interactions_write(app, php):
    rng = random.Random(3)
    state = _state(app)
    for name in ("shopping_cart", "buy_request", "order_inquiry",
                 "customer_registration", "admin_confirm"):
        __, trace = php.handle(make_request(name, rng, state))
        assert trace.tables_written(), name


def test_purchase_pipeline_end_to_end(app, php):
    state = _state(app)
    c_id = state.c_id
    # Add two items to the cart.
    for i_id in (1, 2):
        response, __ = php.handle(HttpRequest(
            "/shopping_cart", params={"c_id": c_id, "i_id": i_id, "qty": 2}))
        assert response.ok()
    # Buy.
    response, trace = php.handle(HttpRequest(
        "/buy_confirm", params={"c_id": c_id}))
    assert response.ok()
    assert "placed" in response.body
    assert {"orders", "order_line", "credit_info", "items", "customers"} \
        <= {t for q in trace.queries() for t in q.tables_written} | \
        {t for q in trace.queries() if q.kind == "lock"
         for t, m in q.lock_set}
    # The cart is gone (status flipped to pending).
    again, __ = php.handle(HttpRequest("/buy_confirm", params={"c_id": c_id}))
    assert again.status == 409


def test_buy_confirm_decrements_stock(app, php):
    db = app.database
    state = _state(app)
    c_id = state.c_id + 1
    stock_before = db.execute(
        "SELECT stock FROM items WHERE id = 5").scalar()
    php.handle(HttpRequest("/shopping_cart",
                           params={"c_id": c_id, "i_id": 5, "qty": 1}))
    php.handle(HttpRequest("/buy_confirm", params={"c_id": c_id}))
    stock_after = db.execute("SELECT stock FROM items WHERE id = 5").scalar()
    expected = stock_before - 1
    if expected < 10:
        expected += 21
    assert stock_after == expected


def test_registration_creates_customer(app, php):
    before = app.database.execute("SELECT COUNT(*) FROM customers").scalar()
    response, __ = php.handle(HttpRequest(
        "/customer_registration", params={"new_uname": "brand_new_user_xyz"}))
    assert response.ok()
    after = app.database.execute("SELECT COUNT(*) FROM customers").scalar()
    assert after == before + 1


def test_best_sellers_ranks_by_quantity(app, php):
    response, trace = php.handle(HttpRequest(
        "/best_sellers", params={"subject": "SUBJECT01"}))
    assert response.ok()
    # The heavy aggregate touched orders, order_line, items, authors.
    tables = set()
    for q in trace.queries():
        tables.update(q.tables_read)
    assert {"orders", "order_line", "items", "authors"} <= tables


def test_php_and_servlet_issue_identical_sql():
    # Two identical, independent databases: both passes see the same state.
    app1 = BookstoreApp(build_bookstore_database(scale=0.005, tiny=True))
    app2 = BookstoreApp(build_bookstore_database(scale=0.005, tiny=True))
    php = app1.deploy_php()
    servlet = app2.deploy_servlet(sync_locking=False)
    rng1, rng2 = random.Random(7), random.Random(7)
    s1 = BookstoreState.from_database(app1.database, random.Random(5))
    s2 = BookstoreState.from_database(app2.database, random.Random(5))
    for name in INTERACTIONS:
        r1 = make_request(name, rng1, s1)
        r2 = make_request(name, rng2, s2)
        __, t1 = php.handle(r1)
        __, t2 = servlet.handle(r2)
        assert [q.sql for q in t1.queries()] == \
            [q.sql for q in t2.queries()], name


def test_sync_servlet_drops_all_lock_statements(app):
    sync = app.deploy_servlet(sync_locking=True)
    rng = random.Random(11)
    state = _state(app)
    for name in INTERACTIONS:
        __, trace = sync.handle(make_request(name, rng, state))
        assert trace.lock_statement_count() == 0, name
        read_only = INTERACTIONS[name][1]
        if name in ("shopping_cart", "buy_confirm", "order_inquiry",
                    "buy_request", "customer_registration", "admin_confirm"):
            assert trace.sync_spans() >= 1, name
        elif read_only:
            assert trace.sync_spans() == 0, name


def test_ejb_all_interactions_render(app):
    presentation, container = app.deploy_ejb()
    rng = random.Random(13)
    state = _state(app)
    for name in INTERACTIONS:
        response, trace = presentation.handle(make_request(name, rng, state))
        assert response.ok(), name
        if name not in ("search_request",):
            # Every dynamic page went through RMI at least once...
            if name == "customer_registration":
                continue  # form display path has no RMI
            assert trace.rmi_calls(), name


def test_ejb_issues_many_more_queries_than_php(app):
    """The paper's EJB pathology: short-query flood per interaction."""
    php = app.deploy_php()
    presentation, container = app.deploy_ejb()
    rng1, rng2 = random.Random(17), random.Random(17)
    s1 = BookstoreState.from_database(app.database, random.Random(19))
    s2 = BookstoreState.from_database(app.database, random.Random(19))
    php_total = ejb_total = 0
    for name in ("new_products", "product_detail", "best_sellers",
                 "order_display"):
        __, t1 = php.handle(make_request(name, rng1, s1))
        __, t2 = presentation.handle(make_request(name, rng2, s2))
        php_total += t1.query_count()
        ejb_total += t2.query_count()
    assert ejb_total > 5 * php_total


def test_ejb_never_issues_lock_tables(app):
    presentation, __ = app.deploy_ejb()
    rng = random.Random(23)
    state = _state(app)
    for name in INTERACTIONS:
        __, trace = presentation.handle(make_request(name, rng, state))
        assert trace.lock_statement_count() == 0, name


def test_ejb_purchase_matches_php_semantics(app):
    """EJB and PHP implement the same business rules."""
    presentation, __ = app.deploy_ejb()
    db = app.database
    c_id = 3
    stock_before = db.execute("SELECT stock FROM items WHERE id = 9").scalar()
    presentation.handle(HttpRequest(
        "/shopping_cart", params={"c_id": c_id, "i_id": 9, "qty": 1}))
    response, __t = presentation.handle(
        HttpRequest("/buy_confirm", params={"c_id": c_id}))
    assert response.ok()
    stock_after = db.execute("SELECT stock FROM items WHERE id = 9").scalar()
    expected = stock_before - 1
    if expected < 10:
        expected += 21
    assert stock_after == expected


# ------------------------------------------------------------------- mixes

def test_mix_read_only_fractions_match_tpcw():
    def read_only_fraction(mix):
        return sum(weight for name, weight in mix.items()
                   if INTERACTIONS[name][1]) / sum(mix.values())

    assert read_only_fraction(BROWSING_MIX) == pytest.approx(0.95, abs=0.005)
    assert read_only_fraction(SHOPPING_MIX) == pytest.approx(0.80, abs=0.005)
    assert read_only_fraction(ORDERING_MIX) == pytest.approx(0.50, abs=0.005)


def test_mixes_cover_all_interactions():
    for mix in (BROWSING_MIX, SHOPPING_MIX, ORDERING_MIX):
        assert set(mix) == set(INTERACTIONS)
        assert sum(mix.values()) == pytest.approx(100.0, abs=0.5)


def test_choose_interaction_follows_frequencies():
    rng = random.Random(0)
    counts = {name: 0 for name in SHOPPING_MIX}
    n = 20_000
    for __ in range(n):
        counts[choose_interaction(SHOPPING_MIX, rng)] += 1
    assert counts["home"] / n == pytest.approx(0.16, abs=0.01)
    assert counts["search_request"] / n == pytest.approx(0.20, abs=0.01)


def test_make_request_unknown_interaction():
    with pytest.raises(KeyError):
        make_request("ghost", random.Random(0), None)
