"""Tests for the bulletin-board extension application."""

import random

import pytest

from repro.apps.bboard import (
    BulletinBoardApp,
    READING_MIX,
    SUBMISSION_MIX,
    build_bboard_database,
)
from repro.apps.bboard.logic import INTERACTIONS, STATIC_INTERACTIONS
from repro.apps.bboard.mixes import (
    BboardState,
    make_request,
)
from repro.web.http import HttpRequest


def _read_write_fraction(mix):
    """Share of the mix's interactions that write."""
    return sum(weight for name, weight in mix.items()
               if not INTERACTIONS[name][1]) / sum(mix.values())


@pytest.fixture(scope="module")
def app():
    return BulletinBoardApp(build_bboard_database(scale=0.0002, tiny=True))


@pytest.fixture(scope="module")
def php(app):
    return app.deploy_php()


def _state(app):
    return BboardState.from_database(app.database, random.Random(3))


def test_database_has_seven_tables(app):
    assert sorted(app.database.tables) == sorted([
        "categories", "users", "stories", "old_stories", "comments",
        "old_comments", "moderations"])


def test_sizing_ratios(app):
    db = app.database
    stories = len(db.table("stories"))
    assert len(db.table("comments")) == 10 * stories
    assert len(db.table("categories")) == 15
    # Denormalized counter matches reality at load time.
    count = db.execute(
        "SELECT COUNT(*) FROM comments WHERE story_id = 1").scalar()
    nb = db.execute(
        "SELECT nb_comments FROM stories WHERE id = 1").scalar()
    assert count == nb == 10


def test_all_sixteen_interactions_render(app, php):
    rng = random.Random(1)
    state = _state(app)
    for name in INTERACTIONS:
        response, trace = php.handle(make_request(name, rng, state))
        assert response.ok(), f"{name}: {response.status} {response.body[:80]}"


def test_static_pages_issue_no_queries(app, php):
    rng = random.Random(2)
    state = _state(app)
    for name in STATIC_INTERACTIONS:
        __, trace = php.handle(make_request(name, rng, state))
        assert trace.query_count() == 0, name


def test_home_lists_newest_first(app, php):
    response, trace = php.handle(HttpRequest("/home"))
    assert response.ok()
    # Single short query over the live stories table only.
    assert trace.query_count() == 1
    assert trace.queries()[0].tables_read == ("stories",)


def test_post_comment_updates_denormalized_counter(app, php):
    db = app.database
    state = _state(app)
    before = db.execute(
        "SELECT nb_comments FROM stories WHERE id = 3").scalar()
    response, __ = php.handle(HttpRequest("/post_comment", params={
        "story_id": 3, "subject": "hot take", **state.credentials()}))
    assert response.ok()
    after = db.execute(
        "SELECT nb_comments FROM stories WHERE id = 3").scalar()
    assert after == before + 1
    real = db.execute(
        "SELECT COUNT(*) FROM comments WHERE story_id = 3").scalar()
    assert real == after


def test_post_comment_to_archived_story_rejected(app, php):
    state = _state(app)
    archived = state.n_stories + 5
    response, __ = php.handle(HttpRequest("/post_comment", params={
        "story_id": archived, **state.credentials()}))
    assert response.status == 409


def test_moderation_updates_comment_and_author(app, php):
    db = app.database
    state = _state(app)   # state.user_id is a moderator
    target = db.execute(
        "SELECT id, author, rating FROM comments WHERE id = 7").first()
    author_rating = db.execute(
        "SELECT rating FROM users WHERE id = ?", (target[1],)).scalar()
    response, __ = php.handle(HttpRequest("/moderate_comment", params={
        "comment_id": 7, "vote": 1, **state.credentials()}))
    assert response.ok()
    assert db.execute("SELECT rating FROM comments WHERE id = 7").scalar() \
        == target[2] + 1
    assert db.execute("SELECT rating FROM users WHERE id = ?",
                      (target[1],)).scalar() == author_rating + 1
    assert db.execute("SELECT COUNT(*) FROM moderations "
                      "WHERE comment_id = 7").scalar() >= 1


def test_non_moderator_cannot_moderate(app, php):
    response, __ = php.handle(HttpRequest("/moderate_comment", params={
        "comment_id": 7, "vote": 1, "nickname": "reader1",
        "password": "word1"}))
    assert response.status == 403


def test_submit_story_appears_on_home(app, php):
    state = _state(app)
    response, __ = php.handle(HttpRequest("/submit_story", params={
        "title": "VERY FRESH HEADLINE", **state.credentials()}))
    assert response.ok()
    home, __t = php.handle(HttpRequest("/home"))
    assert "VERY FRESH HEADLINE" in home.body


def test_view_story_falls_back_to_archive(app, php):
    state = _state(app)
    response, trace = php.handle(HttpRequest("/view_story", params={
        "story_id": state.n_stories + 2}))
    assert response.ok()
    tables = {t for q in trace.queries() for t in q.tables_read}
    assert "old_stories" in tables and "old_comments" in tables


def test_register_user(app, php):
    response, __ = php.handle(HttpRequest("/register_user", params={
        "nickname": "fresh_bboard_user"}))
    assert response.ok()
    dup, __t = php.handle(HttpRequest("/register_user", params={
        "nickname": "fresh_bboard_user"}))
    assert dup.status == 409


def test_php_and_servlet_issue_identical_sql():
    app1 = BulletinBoardApp(build_bboard_database(scale=0.0002, tiny=True))
    app2 = BulletinBoardApp(build_bboard_database(scale=0.0002, tiny=True))
    php = app1.deploy_php()
    servlet = app2.deploy_servlet()
    rng1, rng2 = random.Random(7), random.Random(7)
    s1 = BboardState.from_database(app1.database, random.Random(5))
    s2 = BboardState.from_database(app2.database, random.Random(5))
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


def test_ejb_all_interactions_render(app):
    presentation, __ = app.deploy_ejb()
    rng = random.Random(13)
    state = _state(app)
    for name in INTERACTIONS:
        response, __t = presentation.handle(make_request(name, rng, state))
        assert response.ok(), f"{name}: {response.status}"


def test_ejb_moderation_matches_php_semantics(app):
    presentation, __ = app.deploy_ejb()
    db = app.database
    state = _state(app)
    before = db.execute("SELECT rating FROM comments WHERE id = 9").scalar()
    response, trace = presentation.handle(
        HttpRequest("/moderate_comment", params={
            "comment_id": 9, "vote": -1, **state.credentials()}))
    assert response.ok()
    assert db.execute("SELECT rating FROM comments WHERE id = 9").scalar() \
        == before - 1
    assert trace.rmi_calls()


def test_mixes_are_well_formed():
    assert sum(SUBMISSION_MIX.values()) == pytest.approx(100.0, abs=0.5)
    assert sum(READING_MIX.values()) == pytest.approx(100.0, abs=0.5)
    assert _read_write_fraction(SUBMISSION_MIX) == pytest.approx(
        0.15, abs=0.005)
    assert _read_write_fraction(READING_MIX) == 0.0
    assert set(SUBMISSION_MIX) == set(INTERACTIONS)
    assert set(READING_MIX) <= set(INTERACTIONS)


def test_interaction_count_is_16():
    assert len(INTERACTIONS) == 16
