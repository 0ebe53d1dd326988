"""Deliberate bug injection for exercising the hunter.

The hunter is only trustworthy if it demonstrably *catches* bugs, so
this module provides controlled breakage: context managers that corrupt
exactly one engine path and restore it on exit.  The test suite (and
anyone smoke-testing a hunt locally) wraps a hunt in one of these and
asserts a divergence + diagnosis report comes out the other side.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Set

from ..analysis import planner as _planner
from ..logic.database import DisjunctiveDatabase
from ..logic.interpretation import Interpretation


@contextmanager
def injected_planner_bug() -> Iterator[None]:
    """Corrupt the planned engine's Horn fast path.

    Monkeypatches ``repro.analysis.planner.horn_least_model`` so the
    least model silently loses one *derived* atom (a head atom that is
    not a fact — dropping a fact would be caught by trivial cases too
    easily; dropping a derived atom specifically breaks the fixpoint
    propagation the planner's Horn dispatch relies on).  Only the
    ``planned`` engine consults this symbol, so brute/oracle/cached
    stay correct and the four-engine differential stack must flag the
    disagreement.
    """
    original = _planner.horn_least_model

    def corrupted(db: DisjunctiveDatabase):
        model, consistent = original(db)
        facts: Set[str] = set()
        for clause in db.clauses:
            if not clause.body_pos and not clause.body_neg:
                facts |= clause.head
        derived = sorted(set(model) - facts)
        if not derived:
            return model, consistent
        dropped = derived[0]
        return Interpretation(set(model) - {dropped}), consistent

    _planner.horn_least_model = corrupted
    try:
        yield
    finally:
        _planner.horn_least_model = original
