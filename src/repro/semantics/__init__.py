"""The ten disjunctive-database semantics studied by the paper.

Importing this package populates the registry in
:mod:`repro.semantics.base`; use :func:`get_semantics` /
:func:`infer` / :func:`infers_literal` / :func:`has_model` /
:func:`model_set` for the one-call API.
"""

from .base import (
    ENGINES,
    SEMANTICS,
    Semantics,
    get_semantics,
    has_model,
    infer,
    infers_literal,
    literal_formula,
    model_set,
    register,
    resolve_name,
)

# Importing the modules registers the classes.
from .gcwa import Gcwa, augmented_database, free_for_negation
from .ccwa import Ccwa
from .egcwa import Egcwa
from .ecwa import Ecwa, PartitionedSemantics
from .ddr import Ddr, possibly_true_atoms
from .pws import Pws, is_possible_model, possible_models_by_splits
from .stratification import (
    Stratification,
    is_stratified,
    require_stratification,
    stratify,
)
from .perf import Perf, PriorityRelation, is_perfect, preferable
from .icwa import Icwa, icwa_models_by_intersection, priority_levels
from .dsm import Dsm, is_stable_model, is_stable_model_brute
from .pdsm import Pdsm, is_partial_stable, is_partial_stable_brute
from .cwa import (
    Cwa,
    cwa_closure,
    cwa_consistent_linear,
    cwa_consistent_theta,
    cwa_free_atoms,
)
from .supported import (
    Supported,
    clark_completion,
    is_supported_model,
    is_tight,
)
from .wfs import well_founded_model
from .explain import (
    ClosureExplanation,
    CounterModelCertificate,
    Derivation,
    derivation_of,
    explain_closure_literal,
    explain_non_inference,
)
from .equivalence import (
    classical_difference_witness,
    classically_equivalent,
    difference_witness_under,
    equivalent_under,
)
from .state import (
    disjunctive_state,
    minimal_state_atoms,
    egcwa_closure_clauses,
    gcwa_closure_literals,
    state_atoms,
    wgcwa_closure_literals,
)

__all__ = [
    "ENGINES",
    "SEMANTICS",
    "Semantics",
    "get_semantics",
    "has_model",
    "infer",
    "infers_literal",
    "literal_formula",
    "model_set",
    "register",
    "resolve_name",
    "Gcwa",
    "augmented_database",
    "free_for_negation",
    "Ccwa",
    "Egcwa",
    "Ecwa",
    "PartitionedSemantics",
    "Ddr",
    "possibly_true_atoms",
    "Pws",
    "is_possible_model",
    "possible_models_by_splits",
    "Stratification",
    "is_stratified",
    "require_stratification",
    "stratify",
    "Perf",
    "PriorityRelation",
    "is_perfect",
    "preferable",
    "Icwa",
    "icwa_models_by_intersection",
    "priority_levels",
    "Dsm",
    "is_stable_model",
    "is_stable_model_brute",
    "Pdsm",
    "is_partial_stable",
    "is_partial_stable_brute",
    "Cwa",
    "cwa_closure",
    "cwa_consistent_linear",
    "cwa_consistent_theta",
    "cwa_free_atoms",
    "ClosureExplanation",
    "CounterModelCertificate",
    "Derivation",
    "derivation_of",
    "explain_closure_literal",
    "explain_non_inference",
    "classical_difference_witness",
    "classically_equivalent",
    "difference_witness_under",
    "equivalent_under",
    "Supported",
    "clark_completion",
    "is_supported_model",
    "is_tight",
    "well_founded_model",
    "disjunctive_state",
    "minimal_state_atoms",
    "egcwa_closure_clauses",
    "gcwa_closure_literals",
    "state_atoms",
    "wgcwa_closure_literals",
]
