"""Auction workload mixes and request generation.

Two mixes per the paper: a browsing mix of read-only interactions and a
bidding mix with 15% read-write interactions (the representative one).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.apps.auction.logic import INTERACTIONS
from repro.apps.auction.schema import NUM_CATEGORIES, NUM_REGIONS
from repro.web.http import HttpRequest

AUCTION_INTERACTIONS = tuple(INTERACTIONS)

# Bidding mix: 15% of interactions are read-write (register_user,
# store_buy_now, store_bid, store_comment, register_item).
BIDDING_MIX: Dict[str, float] = {
    "home": 3.00, "register": 1.20, "register_user": 1.05,
    "browse": 5.00, "browse_categories": 5.10,
    "search_items_in_category": 12.70, "browse_regions": 2.50,
    "browse_categories_in_region": 2.30, "search_items_in_region": 5.30,
    "view_item": 12.70, "view_user_info": 4.30, "view_bid_history": 2.50,
    "buy_now_auth": 1.40, "buy_now": 1.30, "store_buy_now": 1.00,
    "put_bid_auth": 8.30, "put_bid": 8.00, "store_bid": 7.50,
    "put_comment_auth": 0.60, "put_comment": 0.55, "store_comment": 1.00,
    "sell": 2.20, "select_category_to_sell": 2.10, "sell_item_form": 2.00,
    "register_item": 4.45, "about_me": 1.95,
}

# Browsing mix: read-only interactions only.
BROWSING_MIX: Dict[str, float] = {
    "home": 5.00, "browse": 8.00, "browse_categories": 9.00,
    "search_items_in_category": 27.00, "browse_regions": 5.00,
    "browse_categories_in_region": 4.00, "search_items_in_region": 11.00,
    "view_item": 20.00, "view_user_info": 5.00, "view_bid_history": 4.00,
    "about_me": 2.00,
}

MIXES: Dict[str, Dict[str, float]] = {
    "bidding": BIDDING_MIX,
    "browsing": BROWSING_MIX,
}


# Registration nicknames embed a per-state tag; a deterministic counter
# in the five-digit range keeps them unique across identically-seeded
# RNG streams without depending on object addresses (see the bookstore
# mixes for the full story).
_NEXT_TAG = 10000


def _fresh_tag(state) -> int:
    global _NEXT_TAG
    tag = _NEXT_TAG
    _NEXT_TAG += 1
    return tag


@dataclass
class AuctionState:
    """Per-session client state for parameter generation."""

    n_users: int
    n_items: int
    n_old_items: int
    user_id: int = 1
    registered: int = 0
    tag: int = -1
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag < 0:
            self.tag = _fresh_tag(self)

    @classmethod
    def from_database(cls, db, rng: random.Random) -> "AuctionState":
        n_users = len(db.table("users"))
        return cls(n_users=n_users,
                   n_items=len(db.table("items")),
                   n_old_items=len(db.table("old_items")),
                   user_id=1 + rng.randrange(n_users))

    def credentials(self) -> dict:
        return {"nickname": f"user{self.user_id}",
                "password": f"password{self.user_id}"}


def make_request(name: str, rng: random.Random,
                 state: AuctionState) -> HttpRequest:
    if name not in INTERACTIONS:
        raise KeyError(f"unknown auction interaction {name!r}")
    params: dict = {}
    active_item = lambda: 1 + rng.randrange(state.n_items)  # noqa: E731
    if name in ("search_items_in_category",):
        params = {"category": 1 + rng.randrange(NUM_CATEGORIES),
                  "page": rng.randrange(3)}
    elif name == "browse_categories_in_region":
        params = {"region": 1 + rng.randrange(NUM_REGIONS)}
    elif name == "search_items_in_region":
        params = {"category": 1 + rng.randrange(NUM_CATEGORIES),
                  "region": 1 + rng.randrange(NUM_REGIONS),
                  "page": rng.randrange(2)}
    elif name in ("view_item", "view_bid_history"):
        params = {"item_id": active_item()}
    elif name == "view_user_info":
        params = {"user_id": 1 + rng.randrange(state.n_users)}
    elif name in ("buy_now", "put_bid"):
        params = {"item_id": active_item(), **state.credentials()}
    elif name == "store_buy_now":
        params = {"item_id": active_item(), "qty": 1,
                  **state.credentials()}
    elif name == "store_bid":
        params = {"item_id": active_item(), "bid": 5000.0 + rng.random(),
                  "max_bid": 6000.0, "qty": 1, **state.credentials()}
    elif name == "put_comment":
        params = {"to_user": 1 + rng.randrange(state.n_users),
                  "item_id": state.n_items + 1 +
                  rng.randrange(state.n_old_items),
                  **state.credentials()}
    elif name == "store_comment":
        params = {"to_user": 1 + rng.randrange(state.n_users),
                  "item_id": state.n_items + 1 +
                  rng.randrange(state.n_old_items),
                  "rating": rng.choice([-1, 0, 1]),
                  **state.credentials()}
    elif name == "register_item":
        params = {"name": f"FRESH ITEM {rng.randrange(10**6)}",
                  "initial_price": 10.0 + rng.randrange(100),
                  "category": 1 + rng.randrange(NUM_CATEGORIES),
                  **state.credentials()}
    elif name == "register_user":
        state.registered += 1
        params = {"nickname": f"newuser_{state.tag}_"
                              f"{state.registered}_{rng.randrange(10**9)}",
                  "region_name": f"REGION{1 + rng.randrange(NUM_REGIONS):02d}"}
    elif name == "about_me":
        params = dict(state.credentials())
    return HttpRequest(path=f"/{name}", params=params)


def choose_interaction(mix: Dict[str, float], rng: random.Random) -> str:
    total = sum(mix.values())
    pick = rng.random() * total
    acc = 0.0
    for name, weight in mix.items():
        acc += weight
        if pick <= acc:
            return name
    return next(reversed(mix))
