"""Unit tests for the delta-debugging witness minimizer.

Scripted (engine-free) failure predicates pin the three guarantees the
diagnosis pipeline leans on: the returned witness is **1-minimal**, the
walk is **deterministic** under a fixed seed, and the search respects
its **predicate-call budget**.
"""

from __future__ import annotations

import pytest

from repro.adversary.minimize import (
    MinimizationResult,
    erase_atom,
    minimize_database,
)
from repro.logic.parser import parse_database


def contains_atom(atom):
    """Predicate: the database still mentions ``atom`` anywhere."""

    def predicate(db):
        return any(atom in clause.atoms for clause in db.clauses)

    return predicate


def test_minimizes_to_single_clause():
    db = parse_database("a | b. c :- a. d :- b, not c. e. f :- e.")
    result = minimize_database(db, contains_atom("d"))
    assert result.complete
    assert len(result.db.clauses) == 1
    (clause,) = result.db.clauses
    assert "d" in clause.atoms


def test_result_is_1_minimal():
    """No single clause removal or atom erasure preserves the failure."""
    db = parse_database("a | b. c :- a, b. d :- c. e :- d, not a.")
    predicate = contains_atom("c")
    result = minimize_database(db, predicate)
    assert result.complete
    witness = result.db
    for clause in witness.clauses:
        smaller = type(witness)(witness.clauses - {clause},
                                witness.vocabulary)
        assert not predicate(smaller), clause
    for atom in witness.vocabulary:
        assert not predicate(erase_atom(witness, atom)), atom


def test_deterministic_under_fixed_seed():
    db = parse_database(
        "a | b. c :- a. d :- b. e :- c, d. f | g :- e. h :- f, not g."
    )
    predicate = contains_atom("e")
    first = minimize_database(db, predicate, seed=42)
    second = minimize_database(db, predicate, seed=42)
    assert first.db == second.db
    assert first.checks == second.checks
    assert first.removed_clauses == second.removed_clauses
    assert first.removed_atoms == second.removed_atoms


def test_respects_check_budget():
    db = parse_database(
        "a | b. c :- a. d :- b. e :- c, d. f | g :- e. h :- f, not g."
    )
    calls = []

    def counting(db_):
        calls.append(1)
        return True  # everything "fails": maximal shrinking pressure

    result = minimize_database(db, counting, max_checks=7)
    assert result.checks == 7
    assert len(calls) == 7
    assert not result.complete  # budget ran out before the fixpoint


def test_rejects_non_failing_input():
    db = parse_database("a. b :- a.")
    with pytest.raises(ValueError):
        minimize_database(db, lambda _db: False)


def test_raising_predicate_counts_as_failure_gone():
    """A predicate that raises on a candidate treats it as healthy, so
    minimization never crashes on shrinks that leave the predicate's
    syntactic regime."""
    db = parse_database("a. b :- a. c :- b.")

    def touchy(candidate):
        if len(candidate.clauses) < 2:
            raise RuntimeError("regime violated")
        return True

    result = minimize_database(db, touchy)
    assert len(result.db.clauses) == 2  # shrunk to the raise boundary


def test_erase_atom_strips_everywhere_and_drops_empty():
    db = parse_database("a | b :- c, not d. a. :- a, b.")
    erased = erase_atom(db, "a")
    assert "a" not in erased.vocabulary
    assert all("a" not in clause.atoms for clause in erased.clauses)
    # The fact `a.` became empty and must be gone entirely.
    assert len(erased.clauses) == 2


def test_erased_head_becomes_integrity_clause():
    db = parse_database("a :- b, c.")
    erased = erase_atom(db, "a")
    (clause,) = erased.clauses
    assert not clause.head  # now `:- b, c.` — still a legal witness
    assert clause.body_pos == frozenset({"b", "c"})


def test_render_mentions_budget_state():
    done = MinimizationResult(db=parse_database("a."), complete=True)
    capped = MinimizationResult(db=parse_database("a."), complete=False)
    assert "1-minimal" in done.render()
    assert "budget-capped" in capped.render()


def test_atom_erasure_can_beat_clause_removal():
    """A failure living in an atom (not a clause) still minimizes: clause
    removal alone cannot touch `v`'s co-occurrence, erasure can."""
    db = parse_database("v :- w. w :- x. x :- v.")

    def predicate(candidate):  # fails while the cycle has >= 2 atoms
        return sum(
            1 for c in candidate.clauses if len(c.atoms) >= 2
        ) >= 1

    result = minimize_database(db, predicate)
    assert result.complete
    assert len(result.db.clauses) == 1
    assert result.removed_atoms >= 1
