"""Seeded known-bad fixture: a coNP-classified semantics whose one search
dispatches the Σ₂ᵖ primitive.

Never imported at runtime — analyzed statically by
``tests/test_static_check.py``, which asserts the whole-program checker
reports RPR101 for the inherited ``infers()`` and ``infers_literal()``
at the class line below (the declared ``pws`` row forbids Σ₂ᵖ dispatch
in every regime, yet ``Semantics.infers -> counter_model ->
selected_model -> find_minimal_satisfying``).  The class defines no
entry point of its own: the leak is only visible through the base
class's derivation of every query from ``selected_model``.
"""

from repro.sat.minimal import MinimalModelSolver
from repro.semantics.base import Semantics


class LeakyPwsSearch(Semantics):
    """Declares the coNP ``pws`` row but searches for its selected model
    with minimal-model dispatch."""

    name = "pws"

    def model_set(self, db):
        return frozenset()

    def selected_model(self, db, condition):
        with MinimalModelSolver(db) as solver:
            return solver.find_minimal_satisfying(condition)
