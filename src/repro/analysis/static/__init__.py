"""The one static analyzer for the ``repro`` package.

Every rule runs over one import-aware call graph (:mod:`.callgraph`),
built from one parse of the tree:

* :mod:`.conventions` — the local disciplines the oracle accounting
  rests on: no ad-hoc solvers, Σ₂ᵖ primitives wrapped in accounting,
  deadline checks in solver loops, registered semantics with a table
  claim, cached stratification.  Rules RPR001, RPR002, RPR004–RPR006.
* :mod:`.complexity` — **Pass 1**: proves every semantics entry point
  can only reach primitive realizations (NP ``solve()``, Σ₂ᵖ
  ``find_minimal_satisfying``, EXP brute enumerators) consistent with
  its Table 1/2 class as claimed in :mod:`repro.obs.certify`, and keeps
  Σ₂ᵖ machinery out of coNP semantics modules.  Rules RPR101–RPR103;
  dynamic-dispatch conservatism surfaces as RPR100 warnings.
* :mod:`.races` — **Pass 2**: lock-discipline race detection over the
  shared singletons (engine cache, solver pool, metrics registry,
  runtime counters, tracer, query service).  Rules RPR201–RPR204.

:mod:`.checker` drives them all (``repro-ddb check``, alias ``lint``)
with one waiver mark (``# lint: ok``) and the baseline/diff machinery
of :mod:`repro.analysis.baseline`.
"""

from .callgraph import FALLBACK_MARK, CallGraph, CallSite, Finding, FunctionNode
from .checker import RULES, Report, build_graph, check, default_target
from .complexity import check_complexity, sigma2_allowed
from .conventions import check_conventions
from .races import check_races

__all__ = [
    "CallGraph",
    "CallSite",
    "Finding",
    "FunctionNode",
    "FALLBACK_MARK",
    "RULES",
    "Report",
    "build_graph",
    "check",
    "check_complexity",
    "check_conventions",
    "check_races",
    "default_target",
    "sigma2_allowed",
]
