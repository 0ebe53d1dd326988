"""EGCWA — the Extended Generalized Closed World Assumption.

Yahya & Henschen [30].  Model-theoretic characterization (paper,
Section 3.3): ``EGCWA(DB) = MM(DB)`` — the selected models are exactly the
subset-minimal models, so inference is *minimal-model entailment*.
That is ECWA with ``Q = Z = ∅`` (paper, Section 3.3), so :class:`Egcwa`
is :class:`~repro.semantics.ecwa.Ecwa` with the partition fixed to its
default: every decision procedure is ECWA's.

Complexity (paper, Tables 1 and 2):

* literal / formula inference: Π₂ᵖ-complete (already for positive DDBs),
* model existence: ``O(1)`` for positive DDBs (always yes),
  NP-complete with integrity clauses (``MM(DB) ≠ ∅`` iff DB satisfiable).
"""

from __future__ import annotations

from .base import register
from .ecwa import Ecwa


@register
class Egcwa(Ecwa):
    """Extended GCWA: entailment over the minimal models ``MM(DB)``."""

    name = "egcwa"
    aliases = ("extended-gcwa",)
    description = "Extended Generalized CWA (Yahya & Henschen)"

    def __init__(self, engine: str = "oracle"):
        # No ``p``/``z``: the partition is fixed to minimize everything.
        super().__init__(engine=engine)
