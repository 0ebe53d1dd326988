"""Grounding: non-ground programs → propositional disjunctive databases.

The grounder instantiates safe rules over the *active domain* (constants
occurring in the program, optionally extended by the caller) using
relevance-guided backtracking over the positive body: a binding is only
extended with instantiations of the next positive literal that are
*possibly derivable* (their predicate can appear in a head with matching
constants, or they are facts), which keeps the ground program close to
what a semi-naive Datalog grounder would emit without implementing full
stratified evaluation.

Ground atoms become propositional atom names via
:meth:`~repro.ground.terms.PredicateAtom.ground_name` (``move(a,b)``),
which the propositional parser accepts back — grounding round-trips.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..errors import ReproError
from ..logic.clause import Clause
from ..logic.database import DisjunctiveDatabase
from .rules import Rule, parse_rules
from .terms import PredicateAtom, is_variable


class Grounder:
    """Grounds a set of safe rules over a finite constant domain.

    Args:
        rules: the non-ground program.
        extra_constants: constants to add to the active domain (useful
            when the program mentions none, or for typed domains).
    """

    def __init__(
        self, rules: Iterable[Rule], extra_constants: Iterable[str] = ()
    ):
        self.rules: List[Rule] = list(rules)
        constants: Set[str] = set(extra_constants)
        for rule in self.rules:
            for atom in rule.head + rule.body_pos + rule.body_neg:
                constants.update(
                    t for t in atom.terms if not is_variable(t)
                )
        self.constants: Tuple[str, ...] = tuple(sorted(constants))
        # Head templates per predicate, for the possibly-derivable filter.
        self._head_templates: Dict[str, List[PredicateAtom]] = {}
        for rule in self.rules:
            for atom in rule.head:
                self._head_templates.setdefault(
                    atom.predicate, []
                ).append(atom)

    # ------------------------------------------------------------------
    def _may_be_derivable(self, atom: PredicateAtom) -> bool:
        """Whether a ground atom could ever be made true: some head
        template of its predicate matches it."""
        for template in self._head_templates.get(atom.predicate, ()):
            if len(template.terms) != len(atom.terms):
                continue
            binding: Dict[str, str] = {}
            ok = True
            for pattern, value in zip(template.terms, atom.terms):
                if is_variable(pattern):
                    bound = binding.setdefault(pattern, value)
                    if bound != value:
                        ok = False
                        break
                elif pattern != value:
                    ok = False
                    break
            if ok:
                return True
        return False

    def _instantiations(
        self, rule: Rule
    ) -> Iterator[Dict[str, str]]:
        """All bindings of the rule's variables, pruned by derivability
        of the positive body under the partial binding."""
        variables = sorted(rule.variables)
        if not variables:
            yield {}
            return

        positives = list(rule.body_pos)

        def extend(binding: Dict[str, str], remaining: List[str]
                   ) -> Iterator[Dict[str, str]]:
            if not remaining:
                yield dict(binding)
                return
            variable = remaining[0]
            for constant in self.constants:
                binding[variable] = constant
                # Prune: every fully-bound positive literal must be
                # possibly derivable.
                consistent = True
                for atom in positives:
                    grounded = atom.substitute(binding)
                    if grounded.is_ground and not self._may_be_derivable(
                        grounded
                    ):
                        consistent = False
                        break
                if consistent:
                    yield from extend(binding, remaining[1:])
            del binding[variable]

        yield from extend({}, variables)

    def ground(self) -> DisjunctiveDatabase:
        """The ground propositional database."""
        if any(r.variables for r in self.rules) and not self.constants:
            raise ReproError(
                "program has variables but the active domain is empty; "
                "pass extra_constants"
            )
        clauses: List[Clause] = []
        for rule in self.rules:
            for binding in self._instantiations(rule):
                head = frozenset(
                    a.substitute(binding).ground_name() for a in rule.head
                )
                body_pos = frozenset(
                    a.substitute(binding).ground_name()
                    for a in rule.body_pos
                )
                body_neg = frozenset(
                    a.substitute(binding).ground_name()
                    for a in rule.body_neg
                )
                clause = Clause(head, body_pos, body_neg)
                if clause.is_tautology():
                    continue
                clauses.append(clause)
        return DisjunctiveDatabase(clauses)


def ground_program(
    text: str, extra_constants: Iterable[str] = ()
) -> DisjunctiveDatabase:
    """Parse and ground a non-ground program in one call."""
    return Grounder(parse_rules(text), extra_constants).ground()
