"""Empirical validation of reductions.

A polynomial-time many-one reduction is a program; its correctness claim
is "source answer = target answer on every instance".  This harness runs
a reduction over a batch of instances, computes both answers (the source
one with a trusted/brute decision procedure), and reports agreement.
Tests use it with exhaustive small instances, the benchmark harness with
random ones — together they are the executable form of the paper's
hardness proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, TypeVar

SourceInstance = TypeVar("SourceInstance")


@dataclass
class ReductionReport:
    """Outcome of validating one reduction over a batch of instances."""

    name: str
    total: int = 0
    yes_instances: int = 0
    disagreements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every instance agreed."""
        return not self.disagreements

    #: How many disagreements :meth:`render` spells out before eliding.
    RENDER_LIMIT = 3

    def render(self) -> str:
        status = "OK" if self.ok else "FAIL"
        text = (
            f"{self.name}: {status} on {self.total} instances "
            f"({self.yes_instances} yes / {self.total - self.yes_instances}"
            f" no)"
        )
        if not self.ok:
            shown = self.disagreements[: self.RENDER_LIMIT]
            text += " — " + "; ".join(shown)
            hidden = len(self.disagreements) - len(shown)
            if hidden > 0:
                text += f" …and {hidden} more"
        return text


def check_reduction(
    name: str,
    instances: Iterable[SourceInstance],
    source_decides: Callable[[SourceInstance], bool],
    reduce_and_decide: Callable[[SourceInstance], bool],
    describe: Callable[[SourceInstance], str] = repr,
) -> ReductionReport:
    """Validate ``source(i) == target(reduce(i))`` over ``instances``.

    Args:
        name: label for the report.
        instances: source instances to test.
        source_decides: trusted decision procedure for the source problem.
        reduce_and_decide: applies the reduction and decides the target.
        describe: renders an instance for disagreement messages.
    """
    report = ReductionReport(name=name)
    for instance in instances:
        expected = source_decides(instance)
        actual = reduce_and_decide(instance)
        report.total += 1
        if expected:
            report.yes_instances += 1
        if expected != actual:
            report.disagreements.append(
                f"{describe(instance)}: source={expected} target={actual}"
            )
    return report
