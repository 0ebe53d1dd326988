"""Rendering Tables 1 and 2: the paper's claims next to our evidence.

:func:`render_table` prints the same rows the paper reports (semantics ×
{literal inference, formula inference, model existence}) with each cell's
claimed complexity class, and optionally a second evidence block with the
measurements of :mod:`repro.tables.evidence`.
"""

from __future__ import annotations

from typing import List

from ..complexity.classes import ROW_LABELS, ROW_ORDER, Regime, Task, table
from .evidence import measure_cell

_TASKS = (Task.LITERAL, Task.FORMULA, Task.EXISTS_MODEL)


def _format_grid(rows: List[List[str]]) -> str:
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(rows[0]))
    ]
    lines = []
    for index, row in enumerate(rows):
        line = "  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ).rstrip()
        lines.append(line)
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def claims_grid(regime: Regime) -> str:
    """The claims table alone, in the paper's layout."""
    claims = table(regime)
    rows: List[List[str]] = [
        ["Semantics", "Inference of literal", "Inference of formula",
         "Exists model"]
    ]
    for row_key in ROW_ORDER:
        cells = [ROW_LABELS[row_key]]
        for task in _TASKS:
            claim = claims.get((row_key, task))
            cells.append(claim.render() if claim else "")
        rows.append(cells)
    return _format_grid(rows)


def render_table(
    regime: Regime,
    with_evidence: bool = False,
    instances: int = 4,
    atoms: int = 5,
    clauses: int = 6,
    hardness_instances: int = 3,
) -> str:
    """The full table; with ``with_evidence`` each cell is re-measured."""
    title = (
        "Table 1: positive propositional DDBs "
        "(no integrity clauses, no negation)"
        if regime is Regime.POSITIVE
        else "Table 2: propositional DDBs (with integrity clauses)"
    )
    output = [title, "=" * len(title), "", claims_grid(regime)]
    if with_evidence:
        output += ["", "Measured evidence", "-" * 17]
        for row_key in ROW_ORDER:
            for task in _TASKS:
                if (row_key, task) not in table(regime):
                    continue
                evidence = measure_cell(
                    row_key,
                    task,
                    regime,
                    instances=instances,
                    atoms=atoms,
                    clauses=clauses,
                    hardness_instances=hardness_instances,
                )
                status = "ok " if evidence.ok else "FAIL"
                output.append(
                    f"[{status}] {ROW_LABELS[row_key]:14s} {task.value:21s}"
                    f" -> {evidence.render()}"
                )
    return "\n".join(output)


def render_both_tables(with_evidence: bool = False, **kwargs) -> str:
    """Tables 1 and 2 back to back (the paper's presentation)."""
    return (
        render_table(Regime.POSITIVE, with_evidence=with_evidence, **kwargs)
        + "\n\n"
        + render_table(Regime.WITH_ICS, with_evidence=with_evidence, **kwargs)
    )
