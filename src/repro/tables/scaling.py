"""Programmatic scaling study: the tables' separation as data.

Used by ``examples/scaling_study.py`` and the benchmark suite; returns
plain rows so callers can render, plot, or assert on them.  One cell per
complexity class, swept over the exclusive-pairs family (``2^n`` minimal
models at size ``n``):

* P cell — DDR negative-literal inference (expected: 0 oracle calls);
* coNP cell — DDR formula inference (expected: exactly 1 call);
* Π₂ᵖ cell — EGCWA formula inference (calls grow with the model space);
* Θ cell — GCWA formula inference by the binary-search machine
  (Σ₂ᵖ calls ≤ ``ceil(log2(|P|+1)) + 1``) vs the naive linear machine
  (= ``|P|`` queries).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

from ..complexity.machines import linear_inference, theta_inference
from ..logic.parser import parse_formula
from ..obs.accounting import observe
from ..semantics import get_semantics
from ..workloads import exclusive_pairs


@dataclass
class ScalingRow:
    """Measurements for one instance size."""

    size: int
    atoms: int
    p_ms: float
    p_calls: int
    conp_ms: float
    conp_calls: int
    pi2_ms: float
    pi2_calls: int
    theta_ms: float
    theta_sigma2: int
    theta_bound: int
    naive_sigma2: int

    def shape_ok(self) -> bool:
        """Whether the oracle profile matches the claimed classes."""
        return (
            self.p_calls == 0
            and self.conp_calls == 1
            and self.theta_sigma2 <= self.theta_bound
            and self.naive_sigma2 == 2 * self.size
        )


def _timed(callable_: Callable[[], object]) -> "tuple[float, int]":
    with observe() as window:
        start = time.perf_counter()
        callable_()
        elapsed = (time.perf_counter() - start) * 1000.0
    return elapsed, window.np_calls


def measure_size(size: int) -> ScalingRow:
    """All four cells at one size of the exclusive-pairs family."""
    db = exclusive_pairs(size)
    ddr = get_semantics("ddr")
    egcwa = get_semantics("egcwa")
    query = parse_formula("x1 | y1")
    exclusive = parse_formula("~x1 | ~y1")

    p_ms, p_calls = _timed(lambda: ddr.infers_literal(db, "not x1"))
    conp_ms, conp_calls = _timed(lambda: ddr.infers(db, query))
    pi2_ms, pi2_calls = _timed(lambda: egcwa.infers(db, exclusive))

    holder: dict = {}

    def run_theta() -> None:
        holder["theta"] = theta_inference(db, query)

    theta_ms, _ = _timed(run_theta)
    theta_result = holder["theta"]
    naive = linear_inference(db, query)

    return ScalingRow(
        size=size,
        atoms=len(db.vocabulary),
        p_ms=p_ms,
        p_calls=p_calls,
        conp_ms=conp_ms,
        conp_calls=conp_calls,
        pi2_ms=pi2_ms,
        pi2_calls=pi2_calls,
        theta_ms=theta_ms,
        theta_sigma2=theta_result.sigma2_calls,
        theta_bound=theta_result.call_bound,
        naive_sigma2=naive.sigma2_calls,
    )


def run_scaling_study(
    min_size: int = 2, max_size: int = 6
) -> List[ScalingRow]:
    """Measure every size in ``[min_size, max_size]``."""
    return [measure_size(size) for size in range(min_size, max_size + 1)]


def render_rows(rows: List[ScalingRow]) -> str:
    """The fixed-width table used by the example script."""
    header = (
        f"{'n':>3} {'|V|':>4} "
        f"{'P-cell ms':>10} {'calls':>6} "
        f"{'coNP ms':>9} {'calls':>6} "
        f"{'Pi2 ms':>8} {'calls':>6} "
        f"{'Theta ms':>9} {'Σ2':>4} {'naive Σ2':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.size:>3} {row.atoms:>4} "
            f"{row.p_ms:>10.2f} {row.p_calls:>6} "
            f"{row.conp_ms:>9.2f} {row.conp_calls:>6} "
            f"{row.pi2_ms:>8.2f} {row.pi2_calls:>6} "
            f"{row.theta_ms:>9.2f} {row.theta_sigma2:>4} "
            f"{row.naive_sigma2:>9}"
        )
    return "\n".join(lines)
