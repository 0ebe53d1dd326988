"""Tests for the interactive REPL (I/O injected)."""

import io

from repro.logic.parser import parse_database
from repro.repl import Repl


def run_lines(*lines, db=None, semantics="egcwa"):
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    repl = Repl(db=db, semantics=semantics, stdin=stdin, stdout=stdout)
    repl.run()
    return stdout.getvalue()


class TestQueries:
    def test_cautious_query(self, simple_db):
        out = run_lines("~a | ~b", db=simple_db)
        assert "EGCWA |= " in out and "True" in out

    def test_negative_answer_shows_counter_model(self, simple_db):
        out = run_lines("c", db=simple_db)
        assert "False" in out
        assert "counter-model: {b}" in out

    def test_brave_mode(self, simple_db):
        out = run_lines(":mode brave", "c", db=simple_db)
        assert "mode: brave" in out
        assert "True" in out

    def test_semantics_switch(self, simple_db):
        out = run_lines(":semantics gcwa", "~a | ~b", db=simple_db)
        assert "semantics: gcwa" in out
        assert "GCWA |= " in out and "False" in out

    def test_parse_error_is_friendly(self, simple_db):
        out = run_lines("a &", db=simple_db)
        assert "error:" in out


class TestCommands:
    def test_add_and_models(self):
        out = run_lines(":add a | b.", ":models")
        assert "added: a | b." in out
        assert "2 model(s)" in out

    def test_db_command(self, simple_db):
        out = run_lines(":db", db=simple_db)
        assert "a | b." in out

    def test_empty_db_message(self):
        out = run_lines(":db")
        assert "(empty database)" in out

    def test_exists(self, simple_db):
        out = run_lines(":exists", db=simple_db)
        assert "True" in out

    def test_closure(self):
        db = parse_database("a. a | b. c :- d.")
        out = run_lines(":closure", db=db)
        assert "WGCWA: c, d" in out
        assert "GCWA:  b, c, d" in out

    def test_closure_rejects_negation(self, unstratified_db):
        out = run_lines(":closure", db=unstratified_db)
        assert "deductive" in out

    def test_stratify(self, stratified_db):
        out = run_lines(":stratify", db=stratified_db)
        assert "S1:" in out and "S2:" in out

    def test_stratify_negative(self, unstratified_db):
        out = run_lines(":stratify", db=unstratified_db)
        assert "not stratified" in out

    def test_stats(self, simple_db):
        out = run_lines("a | b", ":stats", db=simple_db)
        assert "queries_answered: 1" in out

    def test_load(self, tmp_path):
        path = tmp_path / "db.ddb"
        path.write_text("x | y.\n")
        out = run_lines(f":load {path}", ":models")
        assert "loaded 1 clauses" in out
        assert "{x}" in out

    def test_load_missing_file(self):
        out = run_lines(":load /nonexistent.ddb")
        assert "error:" in out

    def test_unknown_command(self):
        out = run_lines(":frobnicate")
        assert "unknown command" in out

    def test_help(self):
        out = run_lines(":help")
        assert ":semantics NAME" in out

    def test_quit_stops_processing(self, simple_db):
        out = run_lines(":quit", ":models", db=simple_db)
        assert "model(s)" not in out

    def test_mode_validation(self):
        out = run_lines(":mode optimistic")
        assert "must be" in out


class TestExplainCommand:
    def test_counter_model_shown(self, simple_db):
        out = run_lines(":explain c", db=simple_db)
        assert "counter-model" in out
        assert "derivation of c" in out  # c is possibly true

    def test_inferred_query(self, simple_db):
        out = run_lines(":explain a | b", db=simple_db)
        assert "no counter-model exists" in out

    def test_underivable_atom(self):
        db = parse_database("a. b :- c.")
        out = run_lines(":explain b", db=db)
        assert "not possibly true" in out

    def test_usage_message(self):
        out = run_lines(":explain")
        assert "usage" in out
