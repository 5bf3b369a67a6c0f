"""Bulletin-board benchmark (extension).

The paper's related-work section references the authors' third dynamic
web benchmark -- a Slashdot-style bulletin board (WWC-5, [3]) -- and
predicts: "the Web server CPU is the bottleneck for the bulletin board.
Therefore, we expect the results for the bulletin board to be similar
to the auction site."  This package implements that benchmark so the
prediction can be tested (``python -m repro figure extb1``).
"""

from repro.apps.bboard.app import BulletinBoardApp, build_bboard_database
from repro.apps.bboard.mixes import (
    BBOARD_INTERACTIONS,
    READING_MIX,
    SUBMISSION_MIX,
)

__all__ = [
    "BulletinBoardApp",
    "build_bboard_database",
    "BBOARD_INTERACTIONS",
    "READING_MIX",
    "SUBMISSION_MIX",
]
