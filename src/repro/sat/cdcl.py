"""A conflict-driven clause-learning SAT solver.

This is the package's NP oracle.  It is a from-scratch, MiniSat-style CDCL
solver:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS variable activities (exponentially decayed, heap-based selection),
* phase saving,
* Luby-sequence restarts,
* periodic learned-clause database reduction,
* incremental solving under assumptions.

All literals are integers in DIMACS convention (see
:mod:`repro.sat.types`).  Wrap it with :class:`repro.sat.solver.SatSolver`
to work with named atoms.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..errors import BudgetExceededError, SolverError
from ..runtime.budget import BudgetExceeded, check_deadline
from .types import SolverStats, check_int_clause, clause_is_tautology

#: Main-loop iterations between cooperative deadline polls.  One
#: iteration is one propagation batch / decision / conflict, so a hard
#: instance is cut off within a bounded amount of search work.
DEADLINE_POLL_INTERVAL = 64

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class _Clause:
    """A clause with watch bookkeeping; ``literals[0:2]`` are watched."""

    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: List[int], learned: bool):
        self.literals = literals
        self.learned = learned
        self.activity = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "L" if self.learned else "O"
        return f"_Clause[{kind}]({self.literals})"


def luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-based index)."""
    x = index - 1
    size, level = 1, 0
    while size < x + 1:
        level += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        level -= 1
        x %= size
    return 1 << level


class CdclSolver:
    """CDCL solver over integer literals.

    Args:
        max_conflicts: optional global conflict budget; exceeding it raises
            :class:`~repro.errors.BudgetExceededError`.  ``None`` = unbounded.

    Usage::

        solver = CdclSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        if solver.solve():
            model = solver.model()       # set of true variables
    """

    _RESTART_BASE = 100
    _VAR_DECAY = 1.0 / 0.95
    _CLAUSE_DECAY = 1.0 / 0.999
    _ACTIVITY_LIMIT = 1e100

    def __init__(self, max_conflicts: Optional[int] = None):
        self.stats = SolverStats()
        self.max_conflicts = max_conflicts
        self._num_vars = 0
        self._values: List[int] = [_UNASSIGNED]  # index 0 unused
        self._levels: List[int] = [0]
        self._reasons: List[Optional[_Clause]] = [None]
        self._saved_phase: List[int] = [_FALSE]
        self._activity: List[float] = [0.0]
        self._seen: List[bool] = [False]
        self._watches: Dict[int, List[_Clause]] = {}
        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._propagate_head = 0
        self._heap: List[tuple] = []
        self._var_inc = 1.0
        self._clause_inc = 1.0
        self._unsat = False
        self._max_learned = 4000
        self._assumptions: List[int] = []
        self._assumed_count = 0
        self._stored_model: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """The highest variable allocated so far."""
        return self._num_vars

    def ensure_var(self, var: int) -> None:
        """Allocate all variables up to ``var``."""
        if var <= 0:
            raise SolverError("variables must be positive")
        while self._num_vars < var:
            self._num_vars += 1
            self._values.append(_UNASSIGNED)
            self._levels.append(0)
            self._reasons.append(None)
            self._saved_phase.append(_FALSE)
            self._activity.append(0.0)
            self._seen.append(False)
            self._watches[self._num_vars] = []
            self._watches[-self._num_vars] = []
            heapq.heappush(self._heap, (0.0, self._num_vars))

    def value(self, literal: int) -> int:
        """Current value of a literal: 1 true, -1 false, 0 unassigned."""
        value = self._values[abs(literal)]
        return value if literal > 0 else -value

    def reset_phases(self) -> None:
        """Reset every variable's saved phase to false.

        A warm solver's phases are biased toward the last model it
        found, which is counterproductive for minimal-model shrink
        loops (a false-biased first model is already near-minimal).
        Resetting at query start restores the fresh solver's behavior
        while keeping learned clauses and activities."""
        self._saved_phase = [_FALSE] * len(self._saved_phase)

    # ------------------------------------------------------------------
    # Clause addition
    # ------------------------------------------------------------------
    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause.  Returns ``False`` if the solver became trivially
        unsatisfiable (empty clause, or conflicting units at level 0)."""
        if self._unsat:
            return False
        clause = check_int_clause(literals)
        if clause_is_tautology(clause):
            return True
        for literal in clause:
            self.ensure_var(abs(literal))
        if self._trail_lim:
            # Adding clauses mid-search is not supported; callers always
            # add between solve() calls, where the trail holds only
            # level-0 facts.
            raise SolverError("cannot add clauses during search")
        # Remove literals already false at level 0; detect satisfaction.
        filtered: List[int] = []
        for literal in clause:
            value = self.value(literal)
            if value == _TRUE:
                return True  # satisfied forever
            if value == _UNASSIGNED:
                filtered.append(literal)
        if not filtered:
            self._unsat = True
            return False
        if len(filtered) == 1:
            return self._enqueue_root_unit(filtered[0])
        stored = _Clause(filtered, learned=False)
        self._clauses.append(stored)
        self._attach(stored)
        return True

    def _enqueue_root_unit(self, literal: int) -> bool:
        if self.value(literal) == _FALSE:
            self._unsat = True
            return False
        if self.value(literal) == _UNASSIGNED:
            self._assign(literal, None)
            conflict = self._propagate()
            if conflict is not None:
                self._unsat = True
                return False
        return True

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.literals[0]].append(clause)
        self._watches[clause.literals[1]].append(clause)

    # ------------------------------------------------------------------
    # Clause removal
    # ------------------------------------------------------------------
    def remove_clauses_with(self, literal: int) -> int:
        """Physically delete every stored clause containing ``literal``.

        This *retracts* those clauses from the theory — input and
        learned alike.  It is only sound when every learned clause that
        was derived *using* one of the removed clauses also contains
        ``literal`` and is therefore removed with them.  The incremental
        layer guarantees exactly that: a retired scope's clauses are the
        ones guarded by its negated selector, nothing ever implies a
        selector positively, so resolution can never eliminate the
        negated selector from a derived clause.  The complementary
        literal must not be true at level 0 (then some removed clause
        may have propagated a surviving root fact).

        Returns the number of clauses removed.
        """
        if self._trail_lim:
            raise SolverError("cannot remove clauses during search")
        if self._unsat:
            return 0  # solver is dead; clause storage is irrelevant
        if abs(literal) > self._num_vars:
            return 0  # never allocated: no clause can contain it
        if self.value(literal) == _FALSE:
            raise SolverError(
                "remove_clauses_with requires the literal to be true or "
                "unassigned at level 0 (a falsified guard means the "
                "clauses may have propagated surviving facts)"
            )
        kept_input: List[_Clause] = []
        kept_learned: List[_Clause] = []
        removed_clauses: List[_Clause] = []
        for clause in self._clauses:
            (
                removed_clauses
                if literal in clause.literals
                else kept_input
            ).append(clause)
        for clause in self._learned:
            (
                removed_clauses
                if literal in clause.literals
                else kept_learned
            ).append(clause)
        if not removed_clauses:
            return 0
        removed_ids = {id(c) for c in removed_clauses}
        self._clauses = kept_input
        self._learned = kept_learned
        for clause in removed_clauses:
            for watch in clause.literals[:2]:
                watchers = self._watches.get(watch)
                if watchers:
                    self._watches[watch] = [
                        c for c in watchers if id(c) not in removed_ids
                    ]
        # A removed clause may be the recorded reason of a level-0 trail
        # literal (e.g. the guarded clause that propagated the negated
        # selector itself).  Conflict analysis never dereferences
        # level-0 reasons, but clear them anyway so no dangling
        # reference survives.  A clause can only be the reason of a
        # literal it contains, so checking the removed clauses' own
        # variables suffices (no trail scan).
        for clause in removed_clauses:
            for lit in clause.literals:
                var = abs(lit)
                if self._reasons[var] is clause:
                    self._reasons[var] = None
        return len(removed_clauses)

    # ------------------------------------------------------------------
    # Assignment / trail
    # ------------------------------------------------------------------
    def _assign(self, literal: int, reason: Optional[_Clause]) -> None:
        var = abs(literal)
        self._values[var] = _TRUE if literal > 0 else _FALSE
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(literal)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        for literal in reversed(self._trail[boundary:]):
            var = abs(literal)
            self._saved_phase[var] = self._values[var]
            self._values[var] = _UNASSIGNED
            self._reasons[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._propagate_head = min(self._propagate_head, len(self._trail))
        self._assumed_count = min(self._assumed_count, level)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or ``None``."""
        while self._propagate_head < len(self._trail):
            literal = self._trail[self._propagate_head]
            self._propagate_head += 1
            false_literal = -literal
            watchers = self._watches[false_literal]
            index = 0
            while index < len(watchers):
                clause = watchers[index]
                literals = clause.literals
                # Make sure the false literal is in slot 1.
                if literals[0] == false_literal:
                    literals[0], literals[1] = literals[1], literals[0]
                first = literals[0]
                if self.value(first) == _TRUE:
                    index += 1
                    continue
                # Look for a replacement watch.
                found = False
                for slot in range(2, len(literals)):
                    if self.value(literals[slot]) != _FALSE:
                        literals[1], literals[slot] = literals[slot], literals[1]
                        self._watches[literals[1]].append(clause)
                        watchers[index] = watchers[-1]
                        watchers.pop()
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                if self.value(first) == _FALSE:
                    self._propagate_head = len(self._trail)
                    return clause
                self._assign(first, clause)
                self.stats.propagations += 1
                index += 1
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: _Clause) -> "tuple[List[int], int]":
        learned: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = self._seen
        counter = 0
        literal = 0
        clause: Optional[_Clause] = conflict
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            if clause is None:  # pragma: no cover - invariant guard
                raise SolverError("reached a decision without a reason mid-analysis")
            if clause.learned:
                self._bump_clause(clause)
            for other in clause.literals:
                # Skip the variable being resolved on (the reason clause
                # holds its complement).
                if literal != 0 and abs(other) == abs(literal):
                    continue
                var = abs(other)
                if seen[var] or self._levels[var] == 0:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self._levels[var] >= current_level:
                    counter += 1
                else:
                    learned.append(other)
            # Pick the next literal to resolve on from the trail.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            literal = -self._trail[trail_index]
            var = abs(literal)
            clause = self._reasons[var]
            seen[var] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
        learned[0] = literal

        # Minimize: drop literals implied by the rest (simple self-subsume).
        minimized = [learned[0]]
        for lit in learned[1:]:
            if not self._redundant(lit):
                minimized.append(lit)
        for lit in minimized:
            self._seen[abs(lit)] = False
        for lit in learned:
            self._seen[abs(lit)] = False

        if len(minimized) == 1:
            backjump = 0
        else:
            # Find the highest level among non-asserting literals.
            best_slot = 1
            for slot in range(2, len(minimized)):
                if (
                    self._levels[abs(minimized[slot])]
                    > self._levels[abs(minimized[best_slot])]
                ):
                    best_slot = slot
            minimized[1], minimized[best_slot] = minimized[best_slot], minimized[1]
            backjump = self._levels[abs(minimized[1])]
        return minimized, backjump

    def _redundant(self, literal: int) -> bool:
        """Local redundancy test: a literal is redundant if its reason's
        other literals are all already in the learned clause (seen) or at
        level 0."""
        reason = self._reasons[abs(literal)]
        if reason is None:
            return False
        for other in reason.literals:
            var = abs(other)
            if var == abs(literal):
                continue
            if not self._seen[var] and self._levels[var] != 0:
                return False
        return True

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > self._ACTIVITY_LIMIT:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100
        heapq.heappush(self._heap, (-self._activity[var], var))

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._clause_inc
        if clause.activity > self._ACTIVITY_LIMIT:
            for learned in self._learned:
                learned.activity *= 1e-100
            self._clause_inc *= 1e-100

    def _decay_activities(self) -> None:
        self._var_inc *= self._VAR_DECAY
        self._clause_inc *= self._CLAUSE_DECAY

    # ------------------------------------------------------------------
    # Learned clause database reduction
    # ------------------------------------------------------------------
    def _reduce_learned(self) -> None:
        if len(self._learned) <= self._max_learned:
            return
        locked = {id(self._reasons[abs(l)]) for l in self._trail}
        ranked = sorted(self._learned, key=lambda c: c.activity)
        keep_from = len(ranked) // 2
        removed = []
        for clause in ranked[:keep_from]:
            if id(clause) in locked or len(clause.literals) <= 2:
                continue
            removed.append(clause)
        removed_ids = {id(c) for c in removed}
        for clause in removed:
            for watch in clause.literals[:2]:
                watchers = self._watches[watch]
                self._watches[watch] = [
                    c for c in watchers if id(c) not in removed_ids
                ]
        self._learned = [c for c in self._learned if id(c) not in removed_ids]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int:
        while self._heap:
            _, var = heapq.heappop(self._heap)
            if self._values[var] == _UNASSIGNED:
                return var
        for var in range(1, self._num_vars + 1):  # pragma: no cover - fallback
            if self._values[var] == _UNASSIGNED:
                return var
        return 0

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()) -> bool:
        """Decide satisfiability under the given assumption literals.

        The solver state (learned clauses, activities, phases) persists
        across calls, enabling incremental use.
        """
        self.stats.solve_calls += 1
        if self._unsat:
            return False
        self._assumptions = list(assumptions)
        for literal in self._assumptions:
            self.ensure_var(abs(literal))
        self._backtrack(0)
        self._assumed_count = 0
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return False

        restart_index = 1
        conflicts_until_restart = self._RESTART_BASE * luby(restart_index)
        conflicts_this_restart = 0
        poll_countdown = DEADLINE_POLL_INTERVAL

        while True:
            poll_countdown -= 1
            if poll_countdown <= 0:
                poll_countdown = DEADLINE_POLL_INTERVAL
                try:
                    check_deadline()
                except BudgetExceeded:
                    # Leave the solver reusable: drop the partial trail.
                    self._backtrack(0)
                    raise
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_this_restart += 1
                if (
                    self.max_conflicts is not None
                    and self.stats.conflicts > self.max_conflicts
                ):
                    self._backtrack(0)
                    raise BudgetExceededError(
                        f"conflict budget {self.max_conflicts} exceeded"
                    )
                if self._decision_level() == 0:
                    self._unsat = True
                    return False
                if self._decision_level() <= self._assumed_count:
                    # Conflict depends only on assumptions.
                    self._backtrack(0)
                    return False
                learned, backjump = self._analyze(conflict)
                backjump = max(backjump, self._assumed_count)
                self._backtrack(backjump)
                self._install_learned(learned)
                self._decay_activities()
                self._reduce_learned()
                continue

            if conflicts_this_restart >= conflicts_until_restart:
                self.stats.restarts += 1
                restart_index += 1
                conflicts_until_restart = self._RESTART_BASE * luby(restart_index)
                conflicts_this_restart = 0
                self._backtrack(self._assumed_count)
                continue

            # Extend with pending assumptions (one decision level each so
            # that the level <-> assumption-index invariant holds), then
            # branch on a free variable.
            if self._assumed_count < len(self._assumptions):
                literal = self._assumptions[self._assumed_count]
                value = self.value(literal)
                if value == _FALSE:
                    self._backtrack(0)
                    return False
                self._new_decision_level()
                self._assumed_count += 1
                if value == _UNASSIGNED:
                    self._assign(literal, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                # Full assignment, no conflict: store the model and leave
                # the solver at level 0 so clauses can be added afterwards.
                # Every assignment goes through the trail, so the trail's
                # positive literals are exactly the true variables.
                self._stored_model = {
                    lit for lit in self._trail if lit > 0
                }
                self._backtrack(0)
                return True
            self.stats.decisions += 1
            phase = self._saved_phase[var]
            literal = var if phase == _TRUE else -var
            self._new_decision_level()
            self._assign(literal, None)

    def _install_learned(self, learned: List[int]) -> None:
        self.stats.learned_clauses += 1
        if len(learned) == 1:
            self._assign(learned[0], None)
            return
        clause = _Clause(learned, learned=True)
        self._learned.append(clause)
        self._attach(clause)
        self._assign(learned[0], clause)

    # ------------------------------------------------------------------
    # Model extraction
    # ------------------------------------------------------------------
    def model(self) -> Set[int]:
        """The set of true variables found by the last successful
        :meth:`solve` call."""
        if self._stored_model is None:
            raise SolverError("no model available; call solve() first")
        return set(self._stored_model)

    def learned_clauses(self) -> List[List[int]]:
        """Snapshots of the currently retained learned clauses (each is
        a logical consequence of the input clauses — property-tested)."""
        return [list(clause.literals) for clause in self._learned]