"""Seeded known-bad fixture: a coNP-classified semantics running GCWA's
batched free-for-negation sweep.

Never imported at runtime — analyzed statically by
``tests/test_static_check.py``, which asserts the whole-program checker
reports RPR101 at the ``infers`` definition below (the declared ``ddr``
row forbids Σ₂ᵖ dispatch in every regime, yet
``infers -> free_for_negation -> MinimalModelSolver.free_atoms ->
_sweep_witness`` dispatches it once per vocabulary atom).
"""

from repro.semantics.base import Semantics
from repro.semantics.gcwa import free_for_negation


class LeakyDdr(Semantics):
    """Declares the coNP ``ddr`` row but negates the atoms of the
    Σ₂ᵖ closure sweep — the leak the sweep's direct loop lets the
    checker see."""

    name = "ddr"

    def infers(self, db, formula):
        return not free_for_negation(db)
