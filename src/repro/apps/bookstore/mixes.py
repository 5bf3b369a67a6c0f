"""TPC-W workload mixes and request-parameter generation.

The three mixes (browsing / shopping / ordering) use TPC-W's web
interaction frequencies; their defining property -- the ratio of
read-only to read-write interactions (95% / 80% / 50%) -- is asserted by
tests against the interaction classification in logic.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.apps.bookstore.logic import INTERACTIONS
from repro.apps.bookstore.schema import SUBJECTS
from repro.web.http import HttpRequest

BOOKSTORE_INTERACTIONS = tuple(INTERACTIONS)

# Interaction frequencies (percent) from the TPC-W specification's mix
# tables, normalized to the fourteen implemented interactions.
BROWSING_MIX: Dict[str, float] = {
    "home": 29.00, "new_products": 11.00, "best_sellers": 11.00,
    "product_detail": 21.00, "search_request": 12.00,
    "search_results": 11.00, "shopping_cart": 2.00,
    "customer_registration": 0.82, "buy_request": 0.75,
    "buy_confirm": 0.69, "order_inquiry": 0.30, "order_display": 0.25,
    "admin_request": 0.10, "admin_confirm": 0.09,
}

SHOPPING_MIX: Dict[str, float] = {
    "home": 16.00, "new_products": 5.00, "best_sellers": 5.00,
    "product_detail": 17.00, "search_request": 20.00,
    "search_results": 17.00, "shopping_cart": 11.60,
    "customer_registration": 3.00, "buy_request": 2.60,
    "buy_confirm": 1.20, "order_inquiry": 0.75, "order_display": 0.66,
    "admin_request": 0.10, "admin_confirm": 0.09,
}

ORDERING_MIX: Dict[str, float] = {
    "home": 9.12, "new_products": 0.46, "best_sellers": 0.46,
    "product_detail": 12.35, "search_request": 14.53,
    "search_results": 13.08, "shopping_cart": 13.53,
    "customer_registration": 12.86, "buy_request": 12.73,
    "buy_confirm": 10.18, "order_inquiry": 0.25, "order_display": 0.22,
    "admin_request": 0.12, "admin_confirm": 0.11,
}

MIXES: Dict[str, Dict[str, float]] = {
    "browsing": BROWSING_MIX,
    "shopping": SHOPPING_MIX,
    "ordering": ORDERING_MIX,
}


# Registration usernames embed a per-state tag so they stay unique even
# when states draw from identically-seeded RNGs (profiling does exactly
# that per flavor).  Tags used to seed from the state's address, but the
# *digit count* of the tag reaches the rendered registration page and
# therefore the profiled reply bytes -- any state whose address landed
# below 10000 mod 100000 shifted EJB service demands by a byte and made
# whole runs diverge at the ulp level.  A deterministic counter starting
# in the five-digit range reproduces the canonical (five-digit) results
# bit-for-bit and is stable run to run.
_NEXT_TAG = 10000


def _fresh_tag(state) -> int:
    global _NEXT_TAG
    tag = _NEXT_TAG
    _NEXT_TAG += 1
    return tag


@dataclass
class BookstoreState:
    """Per-session client state used to generate request parameters."""

    n_items: int
    n_customers: int
    c_id: int = 1
    registered: int = 0
    tag: int = -1
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag < 0:
            self.tag = _fresh_tag(self)

    @classmethod
    def from_database(cls, db, rng: random.Random) -> "BookstoreState":
        n_items = len(db.table("items"))
        n_customers = len(db.table("customers"))
        return cls(n_items=n_items, n_customers=n_customers,
                   c_id=1 + rng.randrange(n_customers))


def make_request(name: str, rng: random.Random,
                 state: BookstoreState) -> HttpRequest:
    """Build the HTTP request for one interaction."""
    if name not in INTERACTIONS:
        raise KeyError(f"unknown bookstore interaction {name!r}")
    params: dict = {}
    if name == "home":
        params = {"c_id": state.c_id, "subject": rng.choice(SUBJECTS)}
    elif name in ("new_products", "best_sellers"):
        params = {"subject": rng.choice(SUBJECTS)}
    elif name in ("product_detail", "admin_request"):
        params = {"i_id": 1 + rng.randrange(state.n_items)}
    elif name == "search_results":
        kind = rng.choice(["subject", "author", "title"])
        if kind == "subject":
            term = rng.choice(SUBJECTS)
        elif kind == "author":
            term = f"AuthLast{rng.randrange(500):03d}"
        else:
            term = f"BOOK TITLE {rng.randrange(300):03d}"
        params = {"search_type": kind, "search_string": term}
    elif name == "shopping_cart":
        params = {"c_id": state.c_id,
                  "i_id": 1 + rng.randrange(state.n_items),
                  "qty": 1 + rng.randrange(3)}
    elif name == "customer_registration":
        state.registered += 1
        params = {"new_uname": f"newcust_{state.tag}_"
                               f"{state.registered}_{rng.randrange(10**9)}"}
    elif name in ("buy_request", "buy_confirm", "order_inquiry"):
        params = {"c_id": state.c_id}
    elif name == "order_display":
        params = {"uname": f"customer{1 + rng.randrange(state.n_customers)}"}
    elif name == "admin_confirm":
        params = {"i_id": 1 + rng.randrange(state.n_items),
                  "cost": 10.0 + rng.randrange(50)}
    return HttpRequest(path=f"/{name}", params=params)


def choose_interaction(mix: Dict[str, float], rng: random.Random) -> str:
    """Draw the next interaction from the mix's frequencies."""
    total = sum(mix.values())
    pick = rng.random() * total
    acc = 0.0
    for name, weight in mix.items():
        acc += weight
        if pick <= acc:
            return name
    return next(reversed(mix))  # numeric edge: return the last entry
