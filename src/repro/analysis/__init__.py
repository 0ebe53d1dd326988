"""Static analysis, in two prongs.

**Input analysis** (:mod:`repro.analysis.fragment`,
:mod:`repro.analysis.cost`, :mod:`repro.analysis.planner`): classify a
:class:`~repro.logic.database.DisjunctiveDatabase` into the syntactic
fragment lattice (definite ⊂ Horn ⊂ acyclic-deductive ⊂ head-cycle-free
deductive ⊂ deductive ⊂ stratified-normal ⊂ stratified ⊂ general) in
one linear pass, then dispatch each (semantics, task) query to the
*cheapest sound* procedure by calibrated cost comparison — every
candidate gets a predicted NP-call / Σ₂ᵖ-dispatch / node estimate from
the profile, and a specialized procedure is never chosen unless its
estimate beats the default engine's.  Horn collapses to a
unit-propagation least-model path with zero SAT calls, stratified
normal databases to the iterated per-stratum least model,
head-cycle-free deductive databases replace the Σ₂ᵖ minimality
primitive by a polynomial foundedness check (the Ben-Eliyahu–Dechter
criterion).  The planner is exposed as
``get_semantics(name, engine="planned")`` and through
:class:`~repro.session.DatabaseSession`; the chosen
:class:`~repro.analysis.planner.QueryPlan` is recorded on every
:class:`~repro.session.Answer` and tightens the certifier envelope for
the query (a Horn-planned query that issues even one NP call is a
certificate violation).

**Codebase analysis** (:mod:`repro.analysis.static`): one static
analyzer over one call graph of the package, enforcing statically the
oracle-call discipline the certifier checks dynamically — no ad-hoc
``SatSolver()`` outside the sanctioned modules, every Σ₂ᵖ primitive
realization decorated for accounting, no Σ₂ᵖ machinery referenced or
reached from coNP-classified semantics modules, deadline checks in
solver loops, every registered semantics tied to a Table 1/2 row — plus
lock discipline over the shared singletons.  Run it as ``repro-ddb
check`` (alias ``repro-ddb lint``).
"""

from .cost import COST_MODEL, CostEstimate, CostModel
from .fragment import (
    FragmentAnalyzer,
    FragmentProfile,
    fragment_of,
    fragment_profile,
)
from .planner import FragmentPlanner, PlannedSemantics, QueryPlan

__all__ = [
    "COST_MODEL",
    "CostEstimate",
    "CostModel",
    "FragmentAnalyzer",
    "FragmentProfile",
    "fragment_of",
    "fragment_profile",
    "FragmentPlanner",
    "PlannedSemantics",
    "QueryPlan",
]
