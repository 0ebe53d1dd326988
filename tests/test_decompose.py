"""Unit tests for connected-component decomposition.

Covers the clause-graph partition itself, the ``MM`` / ``MM(;P;Z)``
product laws against the undecomposed enumerators, free atoms as
singleton components, and the node-count asymptotics that make
decomposition worthwhile (work grows with the largest component, not the
whole vocabulary).
"""

from __future__ import annotations

import pytest

from repro.logic.interpretation import Interpretation
from repro.logic.parser import parse_database
from repro.models.enumeration import (
    minimal_models_brute,
    pz_minimal_models_brute,
)
from repro.runtime.budget import Budget, budget_scope
from repro.sat.decompose import (
    connected_components,
    decompose,
    product_interpretations,
)
from repro.sat.minimal import MinimalModelSolver
from repro.workloads.families import disjoint_components, disjunctive_chain


class TestConnectedComponents:
    def test_disjoint_families_split_exactly(self):
        db = disjoint_components(3, component_size=2)
        components = connected_components(db)
        assert len(components) == 3
        assert all(len(c) == 4 for c in components)  # a1,b1,a2,b2 each
        prefixes = sorted(min(c)[:3] for c in components)
        assert prefixes == ["c1_", "c2_", "c3_"]

    def test_components_partition_vocabulary(self):
        db = disjoint_components(4, component_size=3)
        components = connected_components(db)
        union = set()
        for component in components:
            assert not union & component, "components overlap"
            union |= component
        assert union == set(db.vocabulary)

    def test_free_atoms_are_singletons(self):
        db = parse_database("a | b.", vocabulary=["a", "b", "x", "y"])
        components = connected_components(db)
        assert frozenset({"a", "b"}) in components
        assert frozenset({"x"}) in components
        assert frozenset({"y"}) in components

    def test_connected_database_does_not_decompose(self):
        assert decompose(disjunctive_chain(4)) is None

    def test_empty_database_does_not_decompose(self):
        assert decompose(parse_database("")) is None

    def test_parts_carry_component_vocabularies(self):
        db = disjoint_components(2, component_size=2)
        parts = decompose(db)
        assert parts is not None
        assert sorted(min(p.vocabulary) for p in parts) == [
            "c1_a1",
            "c2_a1",
        ]
        for part in parts:
            for clause in part.clauses:
                assert clause.atoms <= part.vocabulary


class TestProductLaw:
    @pytest.mark.parametrize("copies,size", [(2, 2), (3, 2), (2, 3)])
    def test_mm_products_match_monolithic(self, copies, size):
        db = disjoint_components(copies, component_size=size)
        decomposed = minimal_models_brute(db, decompose=True)
        monolithic = minimal_models_brute(db, decompose=False)
        assert decomposed == monolithic  # same list: set AND order

    def test_mm_product_counts_multiply(self):
        base = len(minimal_models_brute(disjunctive_chain(3)))
        db = disjoint_components(3, component_size=3)
        assert len(minimal_models_brute(db)) == base**3

    @pytest.mark.parametrize("copies", [2, 3])
    def test_pz_products_match_monolithic(self, copies):
        db = disjoint_components(copies, component_size=2)
        atoms = sorted(db.vocabulary)
        p = frozenset(atoms[::2])
        z = frozenset(atoms[1::4])
        decomposed = pz_minimal_models_brute(db, p, z, decompose=True)
        monolithic = pz_minimal_models_brute(db, p, z, decompose=False)
        assert decomposed == monolithic

    def test_solver_enumeration_decomposes_equally(self):
        db = disjoint_components(2, component_size=3)
        with MinimalModelSolver(db) as solver:
            from_solver = set(solver.iter_minimal_models())
        assert from_solver == set(minimal_models_brute(db, decompose=False))

    def test_pz_solver_enumeration_decomposes_equally(self):
        db = disjoint_components(2, component_size=2)
        atoms = sorted(db.vocabulary)
        p, z = frozenset(atoms[:4]), frozenset(atoms[6:])
        with MinimalModelSolver(db, [p], z) as solver:
            from_solver = set(solver.iter_minimal_models())
        assert from_solver == set(
            pz_minimal_models_brute(db, p, z, decompose=False)
        )

    def test_inconsistent_component_kills_product(self):
        db = parse_database(":- a. a. x | y.")
        assert minimal_models_brute(db) == []

    def test_product_interpretations_empty_part(self):
        parts = [[Interpretation({"a"})], []]
        assert list(product_interpretations(parts)) == []

    def test_product_interpretations_unions(self):
        parts = [
            [Interpretation(set()), Interpretation({"a"})],
            [Interpretation({"b"})],
        ]
        assert list(product_interpretations(parts)) == [
            Interpretation({"b"}),
            Interpretation({"a", "b"}),
        ]


class TestAsymptotics:
    def _nodes(self, db, decompose_flag):
        from repro.engine.cache import ENGINE_CACHE

        ENGINE_CACHE.clear()
        with budget_scope(Budget()) as scope:
            minimal_models_brute(db, decompose=decompose_flag)
        return scope.nodes

    def test_decomposed_nodes_track_largest_component(self):
        # Adding a copy multiplies monolithic work by 2^size but only
        # adds one more component sweep to the decomposed enumerator.
        two = self._nodes(disjoint_components(2, 3), True)
        three = self._nodes(disjoint_components(3, 3), True)
        assert three < two * 2, "decomposed growth is additive"
        mono_two = self._nodes(disjoint_components(2, 3), False)
        mono_three = self._nodes(disjoint_components(3, 3), False)
        assert mono_three > mono_two * 16, "monolithic growth is 2^size"

    def test_decomposition_wins_by_orders_of_magnitude(self):
        db = disjoint_components(3, component_size=3)
        assert self._nodes(db, False) > 100 * self._nodes(db, True)
