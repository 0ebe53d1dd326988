"""ICWA — the Iterated Closed World Assumption.

Gelfond, Przymusinska & Przymusinski [12], introduced "for capturing PERF
under stratified negation".  Given a stratified database with
stratification ``S = ⟨S1, ..., Sr⟩`` and a partition ``⟨P; Q; Z⟩`` whose
``P`` splits along the strata into ``P1 > P2 > ... > Pr``, ICWA applies
ECWA iteratedly along the strata.  The paper (after [12, Section 6])
characterizes the result as an intersection of ECWAs::

    ICWA_{P1>..>Pr; Z}(DB) = ⋂_i  ECWA_{P_i ; P_{i+1} ∪ .. ∪ P_r ∪ Z}(DB⁺)

where ``DB⁺`` moves each negative body literal into the head (classical
models are unchanged).  Being ``(P_i;·)``-minimal for every level ``i``
with the higher levels fixed and the lower ones floating is exactly
*lexicographic* (prioritized) minimality, which is how the oracle engine
decides it; the intersection form is also implemented
(:func:`icwa_models_by_intersection`) and the two are cross-validated in
the tests.

Complexity (paper, Section 4): formula inference in Π₂ᵖ (Thm 4.1),
literal inference Π₂ᵖ-hard already for positive databases via the trivial
stratification ``S = ⟨V⟩`` (Thm 4.2, where ICWA = ECWA = EGCWA); model
existence O(1) — "stratifiability asserts consistency".
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence

from ..errors import NotStratifiedError
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..logic.transform import shift_negation_to_head
from ..models.enumeration import (
    prioritized_minimal_models_brute,
    pz_minimal_models_brute,
)
from ..sat.minimal import PrioritizedMinimalModelSolver
from .base import Semantics, ground_query, register
from .stratification import Stratification, require_stratification


def priority_levels(
    stratification: Stratification,
    p: FrozenSet[str],
) -> List[FrozenSet[str]]:
    """Split ``P`` along the strata: ``P_i = P ∩ S_i`` (empty levels kept
    out), lowest stratum first (highest priority)."""
    levels = [stratum & p for stratum in stratification.strata]
    return [level for level in levels if level]


def icwa_models_by_intersection(
    db: DisjunctiveDatabase,
    levels: Sequence[FrozenSet[str]],
    z: FrozenSet[str],
) -> FrozenSet[Interpretation]:
    """The intersection-of-ECWAs characterization, by brute enumeration
    (ground truth for the lexicographic engine)."""
    shifted = shift_negation_to_head(db)
    result: Optional[set] = None
    for index, level in enumerate(levels):
        floating = frozenset().union(*levels[index + 1:], z) if (
            levels[index + 1:] or z
        ) else frozenset()
        stage = frozenset(pz_minimal_models_brute(shifted, level, floating))
        result = stage if result is None else (result & stage)
    if result is None:  # no priority levels: every model qualifies
        from ..models.enumeration import all_models

        return frozenset(all_models(shifted))
    return frozenset(result)


@register
class Icwa(Semantics):
    """Iterated CWA over a stratification.

    Args:
        p: minimized atoms (default: whole vocabulary minus ``z``).
        z: floating atoms (default: none).
        stratification: an explicit stratification to use; by default the
            canonical one is computed (raising
            :class:`~repro.errors.NotStratifiedError` when none exists).
        engine: see :class:`~repro.semantics.base.Semantics`.
    """

    name = "icwa"
    aliases = ("iterated-cwa",)
    description = "Iterated CWA (Gelfond, Przymusinska & Przymusinski)"

    def __init__(
        self,
        p: Optional[Iterable[str]] = None,
        z: Iterable[str] = (),
        stratification: Optional[Stratification] = None,
        engine: str = "oracle",
    ):
        super().__init__(engine=engine)
        self.p = None if p is None else frozenset(p)
        self.z = frozenset(z)
        self.stratification = stratification

    def _setup(self, db: DisjunctiveDatabase):
        stratification = self.stratification or require_stratification(db)
        p = frozenset(db.vocabulary) - self.z if self.p is None else self.p
        q = frozenset(db.vocabulary) - p - self.z
        db.check_partition(p, q, self.z)
        levels = priority_levels(stratification, p)
        shifted = shift_negation_to_head(db)
        return shifted, levels

    def validate(self, db: DisjunctiveDatabase) -> None:
        if self.stratification is None:
            require_stratification(db)

    def cache_params(self) -> "tuple":
        # An explicit stratification changes the iteration order, so it
        # participates in the memo key (by the strata themselves, not
        # object identity).
        strata = (
            None
            if self.stratification is None
            else tuple(self.stratification.strata)
        )
        return ("p", self.p, "z", self.z, "strata", strata)

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        shifted, levels = self._setup(db)
        if self.engine == "brute":
            return frozenset(
                prioritized_minimal_models_brute(shifted, levels, self.z)
            )
        from ..sat.enumerate import iter_models

        with PrioritizedMinimalModelSolver(shifted, levels, self.z) as solver:
            return frozenset(
                m
                for m in iter_models(shifted, project=shifted.vocabulary)
                if solver.is_minimal(m)
            )

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        formula = ground_query(db, formula)
        shifted, levels = self._setup(db)
        if self.engine == "brute":
            models = prioritized_minimal_models_brute(
                shifted, levels, self.z
            )
            return all(m.satisfies(formula) for m in models)
        with PrioritizedMinimalModelSolver(shifted, levels, self.z) as solver:
            return solver.entails(formula)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        # Paper, Table 2: O(1) — "stratifiability asserts consistency";
        # validate() has already established a stratification exists, and
        # the shifted positive database always has models, hence
        # prioritized-minimal ones.
        self.validate(db)
        return True
