"""Golden guard for speed-only changes to ``repro.db`` (test + generator).

``tests/golden/db_exec_stats.json`` pins what ``repro.db`` *reports* about every statement
of a fixed tiny-scale page stream, so an executor change that claims to
be speed-only can be checked statement by statement:

* ``pages`` -- bookstore and auction, every interaction once, through
  php / servlet_sync / ejb.  Per page: the statement count and a SHA-256 over
  one record per statement -- SQL text, parameters, result-row digest,
  every :class:`ExecStats` field, and ``repr`` of the priced
  ``cpu_seconds`` / ``scaled_rows_examined`` / ``result_bytes`` (``repr``
  round-trips a float exactly, so a reordered float sum shows up).
* ``profile_sha256`` / ``auction_profile_sha256`` -- ``profile_all_flavors``
  of the tiny bookstore / auction serialised through
  :mod:`repro.harness.profile_io`.
* ``ejb_best_sellers_records_sha256`` -- ``repr`` of every
  :class:`QueryRecord` the trace of one EJB ``best_sellers`` page holds
  (the ~20 K single-field CMP loads), so the recording layers are pinned
  field by field as well.

Regenerate (only when statement semantics or pricing change on
purpose)::

    PYTHONPATH=src python tests/test_golden_db_exec.py

``statement_records`` is importable so a failing page can be diffed
record by record against another checkout.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "db_exec_stats.json"

APPS = ("bookstore", "auction")
ARCHS = ("php", "servlet_sync", "ejb")
SEED = 1203
PROFILE_REPETITIONS = 2


@contextmanager
def _fresh_registration_tags():
    """Registration usernames -- statement parameters and, in profiles,
    sync-lock keys -- embed a process-wide counter (apps/*/mixes.py);
    restart it so the digests do not depend on what ran before."""
    from repro.apps.auction import mixes as auction
    from repro.apps.bookstore import mixes as bookstore

    saved = auction._NEXT_TAG, bookstore._NEXT_TAG
    auction._NEXT_TAG = bookstore._NEXT_TAG = 10000
    try:
        yield
    finally:
        auction._NEXT_TAG, bookstore._NEXT_TAG = saved


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()).hexdigest()


def _stats_record(stats) -> dict:
    """Every ExecStats field, dict keys flattened to sorted lists."""
    out = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            value = sorted([list(k) if isinstance(k, tuple) else k, v]
                           for k, v in value.items())
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def statement_records(app_name: str, arch: str) -> list:
    """[(interaction, [statement record, ...]), ...] for one stack."""
    from repro.apps import build_app

    app = build_app(app_name, tiny=True)
    tier = app.deploy(arch)
    handle = (tier[0] if arch == "ejb" else tier).handle
    database = app.database
    inner = database.execute
    records: list = []

    def recording_execute(sql, params=(), session=None):
        result = inner(sql, params, session)
        records.append({
            "sql": sql,
            "params": [repr(p) for p in params],
            "kind": result.kind,
            "columns": list(result.columns),
            "rows": _sha([[repr(v) for v in row] for row in result.rows]),
            "last_insert_id": result.last_insert_id,
            "stats": _stats_record(result.stats),
            "cpu_seconds": repr(result.cost.cpu_seconds),
            "scaled_rows_examined": repr(result.cost.scaled_rows_examined),
            "result_bytes": result.cost.result_bytes,
        })
        return result

    database.execute = recording_execute
    rng = random.Random(f"{SEED}/{app_name}/{arch}")
    state = app.make_state(rng)
    pages = []
    for name in app.interaction_names():
        del records[:]
        response, __trace = handle(app.make_request(name, rng, state))
        pages.append((name, response.status, list(records)))
    return pages


def page_digests() -> dict:
    out = {}
    with _fresh_registration_tags():
        for app_name in APPS:
            for arch in ARCHS:
                out[f"{app_name}/{arch}"] = [
                    {"page": name, "status": status,
                     "statements": len(records), "sha256": _sha(records)}
                    for name, status, records
                    in statement_records(app_name, arch)]
    return out


def profile_digest(app_name: str = "bookstore") -> str:
    from repro.apps import build_app
    from repro.harness.profile_io import profile_to_dict
    from repro.harness.profiles import profile_all_flavors

    with _fresh_registration_tags():
        profiles = profile_all_flavors(build_app(app_name, tiny=True),
                                       repetitions=PROFILE_REPETITIONS)
    return _sha({flavor: profile_to_dict(profile)
                 for flavor, profile in profiles.items()})


def ejb_best_sellers_records() -> list:
    """``repr`` of each QueryRecord of one EJB ``best_sellers`` page."""
    from repro.apps import build_app

    with _fresh_registration_tags():
        app = build_app("bookstore", tiny=True)
        presentation, __container = app.deploy("ejb")
        rng = random.Random(f"{SEED}/bookstore/ejb/best_sellers")
        state = app.make_state(rng)
        __response, trace = presentation.handle(
            app.make_request("best_sellers", rng, state))
    return [repr(record) for record in trace.queries()]


def test_every_statement_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())["pages"]
    got = page_digests()
    assert list(got) == list(golden)
    for stack, pages in got.items():
        for page, want in zip(pages, golden[stack]):
            assert page == want, (
                f"{stack}/{page['page']}: rows, ExecStats or priced cost of "
                f"some statement diverged from the golden (diff "
                f"statement_records({stack!r}) against the parent commit)")


def test_tiny_bookstore_profiles_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())["profile_sha256"]
    assert profile_digest() == golden, (
        "profile_all_flavors(tiny bookstore) is no longer bit-identical")


def test_tiny_auction_profiles_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())["auction_profile_sha256"]
    assert profile_digest("auction") == golden, (
        "profile_all_flavors(tiny auction) is no longer bit-identical")


def test_ejb_best_sellers_query_records_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    records = ejb_best_sellers_records()
    assert len(records) == golden["ejb_best_sellers_records"]
    assert _sha(records) == golden["ejb_best_sellers_records_sha256"], (
        "some QueryRecord of the EJB best_sellers page changed a field")


if __name__ == "__main__":
    best_sellers = ejb_best_sellers_records()
    GOLDEN_PATH.write_text(json.dumps(
        {"pages": page_digests(), "profile_sha256": profile_digest(),
         "auction_profile_sha256": profile_digest("auction"),
         "ejb_best_sellers_records": len(best_sellers),
         "ejb_best_sellers_records_sha256": _sha(best_sellers)},
        indent=1) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    print(f"wrote {GOLDEN_PATH}: "
          f"{sum(len(v) for v in golden['pages'].values())} pages, "
          f"{sum(p['statements'] for v in golden['pages'].values() for p in v)}"
          f" statements")
