"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.logic.clause import Clause
from repro.logic.database import DisjunctiveDatabase
from repro.logic.parser import parse_database
from repro.sat.incremental import DEFAULT_POOL_MAXSIZE, configure_solver_pool

# Project-wide hypothesis profile: no deadline (SAT calls vary in time),
# modest example counts to keep the suite quick.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI profile: derandomized (a red build must mean a regression, not a
# lucky draw) with a smaller example budget.
settings.register_profile(
    "ci",
    deadline=None,
    max_examples=15,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))

#: Small atom pool used by random strategies.
ATOMS = ["a", "b", "c", "d", "e"]


@st.composite
def clauses(draw, atoms=None, allow_neg=True, allow_ic=True):
    """Hypothesis strategy for random clauses over a small pool."""
    pool = atoms or ATOMS
    head_size = draw(
        st.integers(min_value=0 if allow_ic else 1, max_value=2)
    )
    head = draw(
        st.lists(st.sampled_from(pool), min_size=head_size,
                 max_size=head_size, unique=True)
    )
    body_pool = [a for a in pool if a not in head]
    body_pos = draw(
        st.lists(st.sampled_from(body_pool or pool), max_size=2, unique=True)
    ) if body_pool else []
    body_neg = []
    if allow_neg and body_pool:
        body_neg = draw(
            st.lists(
                st.sampled_from(body_pool), max_size=1, unique=True
            )
        )
    if not head and not body_pos and not body_neg:
        body_pos = [pool[0]]
    return Clause.rule(head, body_pos, body_neg)


@st.composite
def databases(draw, allow_neg=True, allow_ic=True, max_clauses=5):
    """Hypothesis strategy for small random databases."""
    count = draw(st.integers(min_value=1, max_value=max_clauses))
    clause_list = [
        draw(clauses(allow_neg=allow_neg, allow_ic=allow_ic))
        for _ in range(count)
    ]
    return DisjunctiveDatabase(clause_list, ATOMS)


@st.composite
def positive_databases(draw, max_clauses=5):
    """Strategy for Table 1 regime databases (no ICs, no negation)."""
    return draw(databases(allow_neg=False, allow_ic=False,
                          max_clauses=max_clauses))


@pytest.fixture
def cold_pool():
    """Run the test with the process solver pool at ``maxsize`` 0, so
    every oracle call builds a cold solver and parks nothing; restores
    :data:`~repro.sat.incremental.DEFAULT_POOL_MAXSIZE` afterwards."""
    configure_solver_pool(0)
    try:
        yield
    finally:
        configure_solver_pool(DEFAULT_POOL_MAXSIZE)


@pytest.fixture
def simple_db() -> DisjunctiveDatabase:
    """``a | b.  c :- a.`` — the running example."""
    return parse_database("a | b. c :- a.")


@pytest.fixture
def example_31() -> DisjunctiveDatabase:
    """Example 3.1 from the paper."""
    return parse_database("a | b. :- a, b. c :- a, b.")


@pytest.fixture
def stratified_db() -> DisjunctiveDatabase:
    """A small DSDB with two strata."""
    return parse_database("a | b. c :- a. d :- b, not c.")


@pytest.fixture
def unstratified_db() -> DisjunctiveDatabase:
    """The even negative loop (no stratification)."""
    return parse_database("a :- not b. b :- not a.")


def random_small_db(seed: int, allow_neg=True, allow_ic=True,
                    atoms=4, clause_count=5) -> DisjunctiveDatabase:
    """Deterministic small random database for table-driven tests."""
    rng = random.Random(seed)
    pool = [f"v{i}" for i in range(1, atoms + 1)]
    built = []
    for _ in range(clause_count):
        head_size = rng.randint(0 if allow_ic else 1, 2)
        head = rng.sample(pool, head_size)
        rest = [a for a in pool if a not in head]
        body_pos = rng.sample(rest, min(len(rest), rng.randint(0, 2)))
        body_neg = []
        if allow_neg and rest:
            body_neg = rng.sample(rest, min(len(rest), rng.randint(0, 1)))
        if not head and not body_pos and not body_neg:
            body_pos = [pool[0]]
        built.append(Clause.rule(head, body_pos, body_neg))
    return DisjunctiveDatabase(built, pool)
