"""Bulletin-board workload mixes and request generation.

Two mixes mirroring the auction site's: a read-only *reading* mix and a
*submission* mix with 15% read-write interactions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.apps.bboard.logic import INTERACTIONS
from repro.apps.bboard.schema import NUM_CATEGORIES
from repro.web.http import HttpRequest

BBOARD_INTERACTIONS = tuple(INTERACTIONS)

SUBMISSION_MIX: Dict[str, float] = {
    "home": 14.00, "browse_categories": 7.00, "stories_by_category": 12.00,
    "older_stories": 5.00, "view_story": 16.00, "view_comment": 8.00,
    "author_info": 4.00, "search_stories": 3.00,
    "submit_story_form": 2.00, "submit_story": 1.50,
    "post_comment_form": 8.00, "post_comment": 8.50,
    "moderate_form": 4.25, "moderate_comment": 4.00,
    "register_form": 1.75, "register_user": 1.00,
}

READING_MIX: Dict[str, float] = {
    "home": 22.00, "browse_categories": 9.00, "stories_by_category": 22.00,
    "older_stories": 8.00, "view_story": 24.00, "view_comment": 9.00,
    "author_info": 4.00, "search_stories": 2.00,
}

MIXES: Dict[str, Dict[str, float]] = {
    "submission": SUBMISSION_MIX,
    "reading": READING_MIX,
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
class BboardState:
    """Per-session client state for parameter generation."""

    n_users: int
    n_stories: int
    n_old_stories: int
    n_comments: int
    user_id: int = 1
    registered: int = 0
    tag: int = -1
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag < 0:
            self.tag = _fresh_tag(self)

    @classmethod
    def from_database(cls, db, rng: random.Random) -> "BboardState":
        n_users = len(db.table("users"))
        # Session users are moderators often enough that moderation
        # interactions succeed (moderators are every 50th user).
        user_id = 50 * (1 + rng.randrange(max(1, n_users // 50)))
        return cls(n_users=n_users,
                   n_stories=len(db.table("stories")),
                   n_old_stories=len(db.table("old_stories")),
                   n_comments=len(db.table("comments")),
                   user_id=user_id)

    def credentials(self) -> dict:
        return {"nickname": f"reader{self.user_id}",
                "password": f"word{self.user_id}"}


def make_request(name: str, rng: random.Random,
                 state: BboardState) -> HttpRequest:
    if name not in INTERACTIONS:
        raise KeyError(f"unknown bulletin-board interaction {name!r}")
    params: dict = {}
    if name == "stories_by_category":
        params = {"category": 1 + rng.randrange(NUM_CATEGORIES),
                  "page": rng.randrange(2)}
    elif name == "older_stories":
        params = {"page": rng.randrange(5)}
    elif name == "view_story":
        params = {"story_id": 1 + rng.randrange(state.n_stories)}
    elif name == "view_comment":
        params = {"comment_id": 1 + rng.randrange(state.n_comments)}
    elif name == "author_info":
        params = {"user_id": 1 + rng.randrange(state.n_users)}
    elif name == "search_stories":
        params = {"search_string": f"STORY HEADLINE {rng.randrange(300):03d}"}
    elif name == "submit_story":
        params = {"title": f"BREAKING {rng.randrange(10**6)}",
                  "category": 1 + rng.randrange(NUM_CATEGORIES),
                  **state.credentials()}
    elif name == "post_comment":
        params = {"story_id": 1 + rng.randrange(state.n_stories),
                  "subject": "Re: breaking", **state.credentials()}
    elif name == "moderate_comment":
        params = {"comment_id": 1 + rng.randrange(state.n_comments),
                  "vote": rng.choice([-1, 1, 1]), **state.credentials()}
    elif name == "register_user":
        state.registered += 1
        params = {"nickname": f"newreader_{state.tag}_"
                              f"{state.registered}_{rng.randrange(10**9)}"}
    return HttpRequest(path=f"/{name}", params=params)
