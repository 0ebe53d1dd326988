"""Instrumented oracles.

The paper's upper-bound proofs are algorithms for oracle Turing machines:
"polynomial time with an NP oracle", "O(log n) calls to a Σ₂ᵖ oracle",
"a guess verified in polynomial time with an NP oracle".  NP-oracle
(SAT ``solve``) calls are counted by :func:`repro.obs.accounting.observe`
windows (``np_calls``); this module makes the rest *observable*:

* :class:`Sigma2Oracle` — a Σ₂ᵖ oracle whose queries are "is there a
  (P;Z)-minimal model of this database satisfying this condition?" (the
  primitive all of the paper's Σ₂ᵖ upper bounds factor through), with a
  per-instance query counter;
* :class:`OracleProfile` — the record the benchmark harness prints.

The point is not performance: it is that the *shape* of the oracle usage
(constant, linear, logarithmic in ``|V|``) matches the claimed class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not
from ..logic.interpretation import Interpretation
from ..obs.accounting import observe
from ..runtime.budget import check_deadline
from ..sat.minimal import MinimalModelSolver, PZMinimalModelSolver


class Sigma2Oracle:
    """A Σ₂ᵖ oracle for minimal-model queries, with query counting.

    Every query is of the form "∃ a ``(P;Z)``-minimal model ``M`` of
    ``db`` with ``M |= condition``?" — a guess (``M`` plus the condition's
    helper atoms) verifiable with one NP-oracle call, hence a Σ₂ᵖ
    predicate.  Each :meth:`query` increments :attr:`queries` by one,
    regardless of how many SAT calls the realization spends internally
    (an oracle answers in one step; the realization's internal NP calls
    are reported separately as ``inner_sat_calls``).
    """

    def __init__(self) -> None:
        self.queries = 0
        self.inner_sat_calls = 0

    def query(
        self,
        db: DisjunctiveDatabase,
        condition: Formula,
        p: Optional[Iterable[str]] = None,
        z: Iterable[str] = (),
    ) -> bool:
        """Answer "∃ M ∈ MM(db; P; Z): M |= condition".

        ``p`` defaults to the whole vocabulary (plain subset-minimality).
        """
        return self.witness(db, condition, p=p, z=z) is not None

    def witness(
        self,
        db: DisjunctiveDatabase,
        condition: Formula,
        p: Optional[Iterable[str]] = None,
        z: Iterable[str] = (),
    ) -> Optional[Interpretation]:
        """Like :meth:`query` but returning the witnessing model."""
        check_deadline()
        self.queries += 1
        with observe() as window:
            if p is None or frozenset(p) == frozenset(db.vocabulary):
                witness = MinimalModelSolver(db).find_minimal_satisfying(
                    condition
                )
            else:
                witness = PZMinimalModelSolver(
                    db, p, z
                ).find_minimal_satisfying(condition)
        self.inner_sat_calls += window.np_calls
        return witness

    def entails(
        self,
        db: DisjunctiveDatabase,
        formula: Formula,
        p: Optional[Iterable[str]] = None,
        z: Iterable[str] = (),
    ) -> bool:
        """The Π₂ᵖ complement: ``MM(db;P;Z) |= formula`` (one query)."""
        return not self.query(db, Not(formula), p=p, z=z)


@dataclass
class OracleProfile:
    """Measured oracle usage of one decision-procedure run."""

    answer: bool
    sat_calls: int = 0
    sigma2_calls: int = 0
    detail: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"answer={self.answer}"]
        if self.sigma2_calls:
            parts.append(f"Σ2-calls={self.sigma2_calls}")
        parts.append(f"SAT-calls={self.sat_calls}")
        parts += [f"{k}={v}" for k, v in self.detail.items()]
        return ", ".join(parts)


def profile(callable_, *args, **kwargs) -> OracleProfile:
    """Run ``callable_`` and record the NP-oracle calls it made."""
    with observe() as window:
        answer = callable_(*args, **kwargs)
    return OracleProfile(answer=bool(answer), sat_calls=window.np_calls)
