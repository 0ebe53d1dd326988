"""NP-hardness of model existence with integrity clauses (Table 2).

A CNF formula becomes a disjunctive deductive database clause-for-clause:
positive literals go to the head, negated variables to the positive body
(an all-negative CNF clause becomes an integrity clause).  The classical
models coincide, so:

* ``EGCWA(DB) = MM(DB) ≠ ∅`` iff the CNF is satisfiable — the Table 2
  NP-completeness of EGCWA (and ECWA/GCWA/CCWA) model existence;
* the same instance exercises the coNP-hardness of consistency-dependent
  reasoning for DDR/PWS with integrity clauses.
"""

from __future__ import annotations

from typing import List

from ...logic.clause import Clause
from ...logic.cnf import Cnf
from ...logic.database import DisjunctiveDatabase

#: A CNF for this module is a sequence of clauses, each a sequence of
#: (atom, positive) pairs — or repro's symbolic ``Cnf``.


def cnf_to_database(cnf: Cnf) -> DisjunctiveDatabase:
    """Translate a symbolic CNF into an equivalent DDB (with ICs for
    all-negative clauses).  Model sets coincide exactly."""
    clauses: List[Clause] = []
    for cnf_clause in cnf:
        head = frozenset(l.atom for l in cnf_clause if l.positive)
        body = frozenset(l.atom for l in cnf_clause if not l.positive)
        clauses.append(Clause(head, body, frozenset()))
    return DisjunctiveDatabase(clauses)


def database_to_cnf_clauses(db: DisjunctiveDatabase) -> Cnf:
    """The inverse direction (for round-trip tests)."""
    return [frozenset(c.to_classical_literals()) for c in db.clauses]
