"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.ddb"
    path.write_text("a | b.\nc :- a.\n")
    return str(path)


class TestModelsCommand:
    def test_default_semantics(self, db_file, capsys):
        assert main(["models", db_file]) == 0
        out = capsys.readouterr().out
        assert "EGCWA selects 2 model(s)" in out
        assert "{a, c}" in out and "{b}" in out

    def test_alias_and_engine(self, db_file, capsys):
        assert main(["models", db_file, "-s", "stable",
                     "--engine", "brute"]) == 0
        assert "DSM" in capsys.readouterr().out

    def test_partitioned_semantics(self, db_file, capsys):
        assert main(["models", db_file, "-s", "ecwa",
                     "--p", "a,b", "--z", "c"]) == 0


class TestInferCommand:
    def test_inferred_returns_zero(self, db_file):
        assert main(["infer", db_file, "-q", "~a | ~b", "-s", "egcwa"]) == 0

    def test_not_inferred_returns_one(self, db_file):
        assert main(["infer", db_file, "-q", "~a | ~b", "-s", "gcwa"]) == 1

    def test_bad_semantics_returns_two(self, db_file):
        assert main(["infer", db_file, "-q", "a", "-s", "bogus"]) == 2

    def test_parse_error_returns_two(self, db_file):
        assert main(["infer", db_file, "-q", "a &"]) == 2


class TestSolveCommand:
    def test_sat(self, db_file, capsys):
        assert main(["solve", db_file]) == 0
        assert "SATISFIABLE" in capsys.readouterr().out

    def test_unsat(self, tmp_path, capsys):
        path = tmp_path / "bad.ddb"
        path.write_text("a. :- a.\n")
        assert main(["solve", str(path)]) == 1
        assert "UNSAT" in capsys.readouterr().out


class TestStratifyCommand:
    def test_stratified(self, tmp_path, capsys):
        path = tmp_path / "s.ddb"
        path.write_text("a. b :- not a.\n")
        assert main(["stratify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "S1" in out and "S2" in out

    def test_unstratified(self, tmp_path, capsys):
        path = tmp_path / "u.ddb"
        path.write_text("a :- not b. b :- not a.\n")
        assert main(["stratify", str(path)]) == 1


class TestTablesCommand:
    def test_claims_only(self, capsys):
        assert main(["tables", "--regime", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Pi2p-complete" in out

    def test_both_regimes(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out


class TestClosureCommand:
    def test_closures_printed(self, capsys, tmp_path):
        path = tmp_path / "c.ddb"
        path.write_text("a. a | b. c :- d.\n")
        assert main(["closure", str(path)]) == 0
        out = capsys.readouterr().out
        assert "WGCWA/DDR adds: not c, not d" in out
        assert "not b" in out  # GCWA negates b, WGCWA does not

    def test_rejects_negation(self, tmp_path, capsys):
        path = tmp_path / "n.ddb"
        path.write_text("a :- not b.\n")
        assert main(["closure", str(path)]) == 2


class TestGroundCommand:
    def test_grounds_program(self, tmp_path, capsys):
        path = tmp_path / "g.lp"
        path.write_text("e(a, b). r(X) :- e(X, Y).\n")
        assert main(["ground", str(path)]) == 0
        out = capsys.readouterr().out
        assert "r(a) :- e(a,b)." in out

    def test_unsafe_rule_errors(self, tmp_path):
        path = tmp_path / "u.lp"
        path.write_text("p(X).\n")
        assert main(["ground", str(path)]) == 2


def test_missing_file_returns_two():
    assert main(["solve", "/nonexistent/file.ddb"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["query", "{db}", "-q", "c", "--timeout-ms", "-5"], "wall_ms"),
        (["query", "{db}", "-q", "c", "--max-sat-calls", "-1"],
         "max_sat_calls"),
        (["faults", "--sat-fault-rate", "1.5"], "sat_fault_rate"),
        (["faults", "--retries", "-1"], "max_retries"),
        (["serve", "--workers", "0"], "workers"),
    ],
    ids=["timeout-ms", "max-sat-calls", "sat-fault-rate", "retries",
         "workers"],
)
def test_rejected_flag_value_returns_two(argv, message, db_file, capsys):
    """A flag value a constructor rejects is a usage error (exit 2, one
    ``error:`` line), not a negative verdict (exit 1) with a traceback."""
    argv = [arg.format(db=db_file) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
