"""Tests for DatabaseSession and JSON serialization."""

import json

import pytest
from hypothesis import given

from repro.logic.parser import parse_database, parse_formula
from repro.logic.serialize import (
    clause_from_dict,
    clause_to_dict,
    database_from_dict,
    database_to_dict,
    formula_from_dict,
    formula_to_dict,
)
from repro.session import DatabaseSession

from conftest import databases
from test_formula import formulas


class TestSession:
    def test_basic_ask(self, simple_db):
        session = DatabaseSession(simple_db)
        assert session.ask("~a | ~b")
        assert not session.ask("~a | ~b", semantics="gcwa")

    def test_answer_carries_accounting(self, simple_db):
        session = DatabaseSession(simple_db)
        answer = session.ask("a | b")
        assert answer.verdict and answer.sat_calls >= 1
        assert "EGCWA" in answer.render()

    def test_certificate_on_negative_answer(self, simple_db):
        session = DatabaseSession(simple_db)
        answer = session.ask("c")
        assert not answer
        assert answer.certificate is not None
        assert answer.certificate.check(simple_db)
        assert "counter-model" in answer.render()

    def test_certificates_can_be_disabled(self, simple_db):
        session = DatabaseSession(simple_db, certificates=False)
        assert session.ask("c").certificate is None

    def test_brave_mode(self, simple_db):
        session = DatabaseSession(simple_db)
        assert session.ask("c", mode="brave")
        assert not session.ask("b & c", mode="brave")

    def test_unknown_mode_rejected(self, simple_db):
        with pytest.raises(ValueError):
            DatabaseSession(simple_db).ask("a", mode="optimistic")

    def test_ask_literal(self, simple_db):
        session = DatabaseSession(simple_db, default_semantics="gcwa")
        assert not session.ask_literal("not c")
        assert session.ask_literal("not c", semantics="egcwa") is not None

    def test_models_and_existence(self, simple_db):
        session = DatabaseSession(simple_db)
        assert len(session.models()) == 2
        assert session.has_model("dsm")

    def test_stats_accumulate(self, simple_db):
        session = DatabaseSession(simple_db)
        session.ask("a")
        session.ask("b", semantics="dsm")
        stats = session.stats()
        assert stats["queries_answered"] == 2
        assert stats["semantics_cached"] == 2
        assert stats["total_sat_calls"] >= 2
        assert stats["certificates_checked"] == 2
        assert stats["certificate_violations"] == 0

    def test_extended_session_is_new(self, simple_db):
        from repro.logic.clause import Clause

        session = DatabaseSession(simple_db)
        extended = session.extended([Clause.integrity(["b"])])
        assert extended.ask_literal("a")          # b now impossible
        assert not session.ask_literal("a")       # original untouched

    def test_extended_session_keeps_certifier(self, simple_db):
        from repro.logic.clause import Clause
        from repro.obs.certify import Certifier

        strict = Certifier(strict=True)
        session = DatabaseSession(simple_db, certifier=strict)
        extended = session.extended([Clause.integrity(["b"])])
        assert extended.certifier is strict
        assert DatabaseSession(simple_db, certifier=None).extended(
            [Clause.integrity(["b"])]
        ).certifier is None

    def test_alias_resolution(self, simple_db):
        session = DatabaseSession(simple_db, default_semantics="stable")
        assert session.default_semantics == "dsm"


class TestClauseSerialization:
    def test_round_trip(self):
        from repro.logic.clause import Clause

        clause = Clause.rule(["a", "b"], ["c"], ["d"])
        assert clause_from_dict(clause_to_dict(clause)) == clause

    def test_json_compatible(self, simple_db):
        payload = json.dumps(database_to_dict(simple_db))
        assert database_from_dict(json.loads(payload)) == simple_db

    @given(databases())
    def test_database_round_trip(self, db):
        assert database_from_dict(database_to_dict(db)) == db

    def test_vocabulary_preserved(self):
        db = parse_database("a.").with_vocabulary(["z"])
        assert database_from_dict(database_to_dict(db)).vocabulary == {
            "a", "z"
        }


class TestFormulaSerialization:
    @given(formulas())
    def test_round_trip(self, formula):
        assert formula_from_dict(formula_to_dict(formula)) == formula

    def test_json_compatible(self):
        formula = parse_formula("(a & ~b) -> (c <-> true)")
        payload = json.dumps(formula_to_dict(formula))
        assert formula_from_dict(json.loads(payload)) == formula

    def test_bad_tag_rejected(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            formula_from_dict({"op": "xor", "args": []})

    def test_bad_var_rejected(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            formula_from_dict({"op": "var"})

    def test_binary_arity_enforced(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            formula_from_dict({"op": "implies", "args": [{"op": "true"}]})
