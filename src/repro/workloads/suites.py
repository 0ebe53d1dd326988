"""Named, versioned instance suites (reproducibility stamps).

The evidence in EXPERIMENTS.md quantifies over generated instances; this
module freezes the exact suites behind names and content digests so that
a rerun — on another machine, after a refactor — can assert it measured
the *same* inputs.  The digest is a SHA-256 over a canonical rendering;
the regression tests pin the current digests, so any accidental change
to a generator's sampling behaviour is caught immediately.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..logic.database import DisjunctiveDatabase
from .random_db import (
    random_deductive_db,
    random_normal_db,
    random_positive_db,
    random_stratified_db,
)


@dataclass(frozen=True)
class Suite:
    """A named, frozen list of databases."""

    name: str
    instances: Tuple[DisjunctiveDatabase, ...]

    def digest(self) -> str:
        """SHA-256 over the canonical rendering of every instance."""
        hasher = hashlib.sha256()
        for db in self.instances:
            hasher.update(str(db).encode())
            hasher.update(b"\x00")
            hasher.update(",".join(sorted(db.vocabulary)).encode())
            hasher.update(b"\x01")
        return hasher.hexdigest()

    def stats(self) -> Dict[str, int]:
        """Aggregate structural statistics."""
        totals = {"instances": len(self.instances), "clauses": 0,
                  "atoms": 0, "integrity": 0, "with_negation": 0}
        for db in self.instances:
            s = db.stats()
            totals["clauses"] += s["clauses"]
            totals["atoms"] += s["atoms"]
            totals["integrity"] += s["integrity"]
            totals["with_negation"] += s["with_negation"]
        return totals


def table1_suite(count: int = 8, atoms: int = 5, clauses: int = 6) -> Suite:
    """The positive-DDB regime (Table 1)."""
    return Suite(
        "table1-positive",
        tuple(
            random_positive_db(atoms, clauses, seed=seed)
            for seed in range(count)
        ),
    )


def table2_suite(count: int = 8, atoms: int = 5, clauses: int = 6) -> Suite:
    """The with-integrity-clauses regime (Table 2, closure rows)."""
    return Suite(
        "table2-deductive-ics",
        tuple(
            random_deductive_db(atoms, clauses, seed=seed)
            for seed in range(count)
        ),
    )


def stratified_suite(
    count: int = 8, atoms: int = 5, clauses: int = 6
) -> Suite:
    """The DSDB regime (ICWA row)."""
    return Suite(
        "table2-stratified",
        tuple(
            random_stratified_db(atoms, clauses, seed=seed)
            for seed in range(count)
        ),
    )


def normal_suite(count: int = 8, atoms: int = 5, clauses: int = 6) -> Suite:
    """The DNDB regime (PERF/DSM/PDSM rows)."""
    return Suite(
        "table2-normal",
        tuple(
            random_normal_db(
                atoms, clauses, neg_fraction=0.4, ic_fraction=0.15,
                seed=seed,
            )
            for seed in range(count)
        ),
    )


ALL_SUITES: Dict[str, Callable[[], Suite]] = {
    "table1-positive": table1_suite,
    "table2-deductive-ics": table2_suite,
    "table2-stratified": stratified_suite,
    "table2-normal": normal_suite,
}


def suite_digests() -> Dict[str, str]:
    """Current digests of every registered suite (at default sizes)."""
    return {name: build().digest() for name, build in ALL_SUITES.items()}
