"""Integration tests: every example script runs and prints what its
narrative promises."""

import importlib.util
import pathlib
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "EGCWA infers 'not both suspects': True" in out
    assert "GCWA  infers 'not both suspects': False" in out
    assert "Minimal models" in out


def test_diagnosis(capsys):
    out = _run_example("diagnosis", capsys)
    assert "faults: ['ab1']" in out
    assert "faults: ['ab2']" in out
    assert "circ resolves to: ECWA" in out


def test_game_stratified(capsys):
    out = _run_example("game_stratified", capsys)
    assert "position 1: LOST" in out
    assert "position 2: WON" in out
    assert "PERF models: none" in out  # cyclic games
    assert "win1=1/2" in out  # PDSM partial model on the odd cycle


def test_complexity_tour(capsys):
    out = _run_example("complexity_tour", capsys)
    assert "NP-oracle calls: 0" in out  # the tractable cell
    assert "Σ2 calls" in out
    assert "valid (CEGAR 2QBF solver): True" in out
    assert "True )" in out  # reduction contract confirmed


def test_graph_coloring(capsys):
    out = _run_example("graph_coloring", capsys)
    assert "not 2-colorable" in out  # the triangle
    assert "2 proper colorings" in out  # the path / even cycle


def test_scaling_study(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["scaling_study.py", "3"])
    out = _run_example("scaling_study", capsys)
    assert "P-cell" in out
    assert "logarithmically" in out
    assert "P-cell ms" in out


def test_suppliers(capsys):
    out = _run_example("suppliers", capsys)
    assert "'not both shipped the nuts': True" in out
    assert "GCWA cannot tell: False" in out
    assert "certain=False  possible=True" in out
    assert "stays open: minimal model" in out
