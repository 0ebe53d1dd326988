"""Tests for the semantics registry and the one-call API."""

import pytest

from repro import has_model, infer, infers_literal, model_set, parse_database, parse_formula
from repro.errors import ReproError
from repro.logic.atoms import Literal
from repro.engine import DIFFERENTIAL_ENGINES
from repro.semantics import ENGINES, SEMANTICS, get_semantics, resolve_name
from repro.serve import QueryService
from repro.session import DatabaseSession
from repro.semantics.base import literal_formula


class TestRegistry:
    def test_all_ten_semantics_registered(self):
        expected = {
            "gcwa", "ccwa", "egcwa", "ecwa",
            "ddr", "pws", "perf", "icwa", "dsm", "pdsm",
        }
        assert expected <= set(SEMANTICS)
        # CIRC = ECWA propositionally: an alias, not a second engine.
        assert "circ" not in SEMANTICS

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("wgcwa", "ddr"),
            ("weak-gcwa", "ddr"),
            ("pms", "pws"),
            ("circ", "ecwa"),
            ("circumscription", "ecwa"),
            ("stable", "dsm"),
            ("partial-stable", "pdsm"),
            ("perfect", "perf"),
            ("GCWA", "gcwa"),  # case-insensitive
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_name(alias) == canonical

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError):
            resolve_name("nonsense")

    def test_get_semantics_passes_kwargs(self):
        semantics = get_semantics("ecwa", p=["a"], z=["b"], engine="brute")
        assert semantics.engine == "brute"
        assert semantics.p == {"a"}

    def test_invalid_engine_rejected(self):
        with pytest.raises(ReproError):
            get_semantics("egcwa", engine="quantum")

    def test_engine_lists(self):
        assert ENGINES == ("oracle", "brute", "cached", "resilient", "planned")
        assert DIFFERENTIAL_ENGINES == ("brute", "oracle", "cached", "planned")

    @pytest.mark.parametrize("engine", ["fresh", "kernel", "orcale"])
    def test_constructors_reject_unknown_engines(self, engine):
        """A bad engine name fails at construction, naming the valid
        ones — not at the first query, blamed on the client."""
        db = parse_database("a | b.")
        for build in (
            lambda: DatabaseSession(db, engine=engine),
            lambda: QueryService(engine=engine),
        ):
            with pytest.raises(ReproError, match="oracle, brute, cached"):
                build()


class TestConvenienceApi:
    def test_infer(self, simple_db):
        assert infer(simple_db, parse_formula("~a | ~b"), "egcwa")
        assert not infer(simple_db, parse_formula("~a | ~b"), "gcwa")

    def test_infers_literal_accepts_strings(self, simple_db):
        assert not infers_literal(simple_db, "not c", "egcwa")
        assert infers_literal(simple_db, "a | b" if False else "c",
                              "egcwa") is False
        assert infers_literal(simple_db, Literal("c"), "egcwa") is False

    def test_has_model(self, simple_db):
        assert has_model(simple_db, "dsm")

    def test_model_set(self, simple_db):
        models = model_set(simple_db, "egcwa")
        assert {frozenset(m) for m in models} == {
            frozenset({"b"}), frozenset({"a", "c"})
        }

    def test_inconsistent_db_entails_everything(self):
        db = parse_database("a. :- a.")
        assert infer(db, parse_formula("false"), "egcwa")
        assert not has_model(db, "egcwa")


def test_literal_formula_polarity():
    assert literal_formula(Literal("a")).evaluate({"a"})
    assert literal_formula(Literal("a", False)).evaluate(set())
