"""Adversarial scenario factory: mutate, hunt, diagnose.

Three cooperating layers (see :mod:`repro.adversary.hunter` for the
pipeline):

* :mod:`repro.adversary.mutators` — semantics-preserving metamorphic
  mutations and fragment-boundary nudges, each with a documented
  preservation contract;
* :mod:`repro.adversary.hunter` — the seeded, budgeted search loop
  driving mutants through the four-engine differential stack;
* :mod:`repro.adversary.minimize` / :mod:`.report` / :mod:`.corpus` —
  delta-debugged witnesses, markdown diagnosis reports, and the
  checked-in regression corpus the differential suite replays.
"""

from .corpus import (
    DEFAULT_CORPUS_PATH,
    CorpusEntry,
    corpus_databases,
    corpus_id,
    fold_survivors,
    load_corpus,
)
from .hunter import (
    Divergence,
    HuntConfig,
    HuntReport,
    build_case,
    hunt,
    run_case,
)
from .inject import injected_planner_bug
from .minimize import (
    DEFAULT_MAX_CHECKS,
    MinimizationResult,
    erase_atom,
    minimize_database,
)
from .mutators import (
    MUTATORS,
    MUTATORS_BY_NAME,
    MutationResult,
    Mutator,
    applicable_semantics,
    boundary_mutators,
    boundary_target_met,
    fresh_atom,
    metamorphic_mutators,
    rename_formula,
)
from .report import render_diagnosis, write_diagnosis_report

__all__ = [
    "DEFAULT_CORPUS_PATH",
    "DEFAULT_MAX_CHECKS",
    "CorpusEntry",
    "Divergence",
    "HuntConfig",
    "HuntReport",
    "MUTATORS",
    "MUTATORS_BY_NAME",
    "MinimizationResult",
    "MutationResult",
    "Mutator",
    "applicable_semantics",
    "boundary_mutators",
    "boundary_target_met",
    "build_case",
    "corpus_databases",
    "corpus_id",
    "erase_atom",
    "fold_survivors",
    "fresh_atom",
    "hunt",
    "injected_planner_bug",
    "load_corpus",
    "metamorphic_mutators",
    "minimize_database",
    "render_diagnosis",
    "rename_formula",
    "run_case",
    "write_diagnosis_report",
]
