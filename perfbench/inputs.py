"""Seeded inputs and reference answers for the three workloads.

Every generator here is a pure function of its arguments: the same seed
gives byte-identical database texts and queries (``selftest.py`` checks
this).  The program under test only ever receives the rendered texts and
query strings, never a seed.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.logic.atoms import Literal
from repro.logic.interpretation import Interpretation
from repro.logic.parser import parse_database, parse_formula
from repro.logic.transform import rename_atoms
from repro.models.enumeration import models_entail_brute
from repro.semantics import get_semantics
from repro.workloads import (
    random_deductive_db,
    random_horn_db,
    random_normal_db,
    random_positive_db,
    random_query_formula,
    random_stratified_db,
)

SEMANTICS = ("gcwa", "egcwa", "dsm")


@dataclass(frozen=True)
class Query:
    """One query as the serve API names it."""

    semantics: str
    task: str
    query: Optional[str] = None

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"task": self.task, "semantics": self.semantics}
        if self.query is not None:
            out["query"] = self.query
        return out


@dataclass(frozen=True)
class DbCase:
    """One database (surface text plus its vocabulary) and its queries."""

    text: str
    vocabulary: Tuple[str, ...]
    queries: Tuple[Query, ...]

    def database(self):
        """The database exactly as the serve layer parses it."""
        return parse_database(self.text).with_vocabulary(self.vocabulary)

    def as_json(self) -> Dict[str, Any]:
        return {
            "text": self.text,
            "vocabulary": list(self.vocabulary),
            "queries": [[q.semantics, q.task, q.query] for q in self.queries],
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "DbCase":
        return DbCase(
            data["text"],
            tuple(data["vocabulary"]),
            tuple(Query(*q) for q in data["queries"]),
        )


def _case(db, queries) -> DbCase:
    return DbCase(str(db), tuple(sorted(db.vocabulary)), tuple(queries))


# ----------------------------------------------------------------------
# serve-warm: a fixed working set; the seed only orders the arrivals.
# ----------------------------------------------------------------------
_WARM_REGIMES = (
    lambda s: random_positive_db(4, 4, seed=s),
    lambda s: random_deductive_db(4, 5, seed=s),
    lambda s: random_stratified_db(4, 5, seed=s),
    lambda s: random_normal_db(4, 5, ic_fraction=0.15, seed=s),
)


def warm_set() -> List[DbCase]:
    """12 databases (4 regimes x 3 seeds) x 3 semantics x 4 tasks = 144
    queries, the working set of ``benchmarks/bench_serve.py``."""
    cases = []
    for build in _WARM_REGIMES:
        for db_seed in range(3):
            db = build(db_seed)
            atoms = sorted(db.vocabulary)
            formula = str(random_query_formula(atoms, depth=2, seed=db_seed))
            queries = []
            for semantics in SEMANTICS:
                queries += [
                    Query(semantics, "infers", formula),
                    Query(semantics, "infers_literal", f"~{atoms[0]}"),
                    Query(semantics, "has_model"),
                    Query(semantics, "model_set"),
                ]
            cases.append(_case(db, queries))
    return cases


def warm_order(seed: int, connections: int) -> List[List[Tuple[int, int]]]:
    """Per connection, a seeded permutation of every (database, query)
    pair; each connection cycles through its own permutation."""
    pairs = [
        (d, q) for d in range(12) for q in range(len(SEMANTICS) * 4)
    ]
    orders = []
    for conn in range(connections):
        rng = random.Random(f"serve-warm:{seed}:{conn}")
        order = list(pairs)
        rng.shuffle(order)
        orders.append(order)
    return orders


# ----------------------------------------------------------------------
# Streams of never-seen databases: a fixed cycle of structures under
# fresh atom names.  With independently drawn structures, how many hard
# databases a seed drew moved the figures by up to a fifth (a heavy tail
# of first-closure queries on session-sigma2); this way every seed, and
# every part of a run, measures the same mix of hard and easy databases.
# ----------------------------------------------------------------------
def fresh_names(rng: random.Random, atoms: List[str]) -> Dict[str, str]:
    """An order-preserving renaming of ``atoms`` onto seeded new names.

    The renamed database is new to every cache of the program (their keys
    hold the atom names), while the sorted atom order, and with it the
    variable numbering, clause order and search of every engine, is that
    of the original: the work a database costs does not depend on the
    seed."""
    numbers = sorted(rng.sample(range(100000), len(atoms)))
    return {
        atom: f"v{number:05d}" for atom, number in zip(sorted(atoms), numbers)
    }


# ----------------------------------------------------------------------
# serve-churn: never-seen 6-atom databases, five generators round-robin.
# ----------------------------------------------------------------------
_CHURN_GENERATORS = (
    lambda r: random_horn_db(6, 7, seed=r),
    lambda r: random_positive_db(6, 6, seed=r),
    lambda r: random_deductive_db(6, 7, seed=r),
    lambda r: random_stratified_db(6, 7, seed=r),
    lambda r: random_normal_db(6, 7, ic_fraction=0.15, seed=r),
)
#: Database structures per churn cycle, a multiple of the generators.
CHURN_CYCLE = 100


def churn_case(seed: int, index: int) -> DbCase:
    """The ``index``-th database of the churn stream: a literal, a
    formula and a has_model query under each of gcwa, egcwa and dsm.

    The stream cycles through ``CHURN_CYCLE`` structures, the same for
    every seed; the seed and ``index`` rename the atoms."""
    rng = random.Random(f"serve-churn:{index % CHURN_CYCLE}")
    db = _CHURN_GENERATORS[index % len(_CHURN_GENERATORS)](rng)
    names = fresh_names(
        random.Random(f"serve-churn:{seed}:{index}"), sorted(db.vocabulary)
    )
    literal = f"~{names[rng.choice(sorted(db.vocabulary))]}"
    db = rename_atoms(db, names)
    atoms = sorted(db.vocabulary)
    formula = str(random_query_formula(atoms, depth=2, seed=rng.randrange(1 << 30)))
    queries = []
    for semantics in SEMANTICS:
        queries += [
            Query(semantics, "infers_literal", literal),
            Query(semantics, "infers", formula),
            Query(semantics, "has_model"),
        ]
    return _case(db, queries)


# ----------------------------------------------------------------------
# session-sigma2: never-seen 10-atom databases, Table 1 and Table 2.
# ----------------------------------------------------------------------
#: Database structures per session-sigma2 cycle (half Table 1, half 2).
SIGMA2_CYCLE = 64


def sigma2_case(seed: "int | str", index: int, corpus: str = "stream") -> DbCase:
    """Alternately a positive database (Table 1) and a normal one with
    integrity clauses (Table 2): GCWA literal inference on two literals,
    EGCWA and DSM cautious formula inference.

    The stream cycles through ``SIGMA2_CYCLE`` structures of ``corpus``,
    the same for every seed; the seed and ``index`` rename the atoms."""
    rng = random.Random(f"session-sigma2:{corpus}:{index % SIGMA2_CYCLE}")
    if index % 2 == 0:
        db = random_positive_db(10, 10, seed=rng)
    else:
        db = random_normal_db(10, 10, ic_fraction=0.15, seed=rng)
    names = fresh_names(
        random.Random(f"session-sigma2:{corpus}:{seed}:{index}"),
        sorted(db.vocabulary),
    )
    first, second = (names[a] for a in rng.sample(sorted(db.vocabulary), 2))
    db = rename_atoms(db, names)
    atoms = sorted(db.vocabulary)
    formula = str(random_query_formula(atoms, depth=2, seed=rng.randrange(1 << 30)))
    return _case(db, [
        Query("gcwa", "infers_literal", f"~{first}"),
        Query("gcwa", "infers_literal", f"~{second}"),
        Query("egcwa", "infers", formula),
        Query("dsm", "infers", formula),
    ])


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------
def stable_models(db) -> List[Interpretation]:
    """Disjunctive stable models straight from the definition, on masks.

    ``M`` is stable iff it is a minimal model of the reduct ``DB^M``.
    Only classical models of ``DB`` can be stable, and minimality only
    needs the proper subsets of ``M``, so this is far cheaper than the
    ``brute`` engine's all-pairs sweep while sharing none of its code.
    """
    atoms = sorted(db.vocabulary)
    bit = {atom: 1 << i for i, atom in enumerate(atoms)}

    def pack(names) -> int:
        mask = 0
        for name in names:
            mask |= bit[name]
        return mask

    clauses = [
        (pack(c.head), pack(c.body_pos), pack(c.body_neg)) for c in db.clauses
    ]
    stable = []
    for model in range(1 << len(atoms)):
        if any(
            pos & model == pos and not neg & model and not head & model
            for head, pos, neg in clauses
        ):
            continue
        reduct = [(head, pos) for head, pos, neg in clauses if not neg & model]
        sub = model
        while sub:
            sub = (sub - 1) & model
            if all(pos & sub != pos or head & sub for head, pos in reduct):
                break
        else:
            stable.append(
                Interpretation(a for a in atoms if model & bit[a])
            )
    return stable


def reference_answer(db, query: Query, stable=None):
    """The answer of an engine that shares no search code with the
    oracle, planned or cached engines: ``brute`` for gcwa/egcwa and the
    mask definition above for dsm."""
    if query.semantics == "dsm":
        if stable is None:
            stable = stable_models(db)
        if query.task == "has_model":
            return bool(stable)
        if query.task == "infers_literal":
            literal = Literal.parse(query.query)
            return all((literal.atom in m) == literal.positive for m in stable)
        return models_entail_brute(stable, parse_formula(query.query))
    engine = get_semantics(query.semantics, engine="brute")
    if query.task == "has_model":
        return engine.has_model(db)
    if query.task == "infers_literal":
        return engine.infers_literal(db, Literal.parse(query.query))
    return engine.infers(db, parse_formula(query.query))


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def canonical_case(case: DbCase) -> DbCase:
    """``case`` with its atoms renamed to a0, a1, ... in sorted order.

    Every semantics here answers a renamed database and renamed queries
    as it answers the original, so cases that differ only in atom names
    (``fresh_names``) share one canonical case and one reference
    (``structure_reference``)."""
    mapping = {atom: f"a{i}" for i, atom in enumerate(sorted(case.vocabulary))}

    def rename(text: str) -> str:
        return _WORD.sub(lambda m: mapping.get(m.group(), m.group()), text)

    return DbCase(
        rename(case.text),
        tuple(sorted(mapping.values())),
        tuple(
            Query(q.semantics, q.task, None if q.query is None else rename(q.query))
            for q in case.queries
        ),
    )


def reference_answers(case: DbCase) -> List[Any]:
    """Reference answers for every query of ``case``, in order."""
    db = case.database()
    stable = (
        stable_models(db)
        if any(q.semantics == "dsm" for q in case.queries)
        else None
    )
    return [reference_answer(db, q, stable) for q in case.queries]


@functools.lru_cache(maxsize=None)
def _canonical_reference(canonical: DbCase) -> Tuple[Any, ...]:
    return tuple(reference_answers(canonical))


def structure_reference(case: DbCase) -> List[Any]:
    """``reference_answers(case)``, computed once per structure."""
    return list(_canonical_reference(canonical_case(case)))


def warm_reference(cases: List[DbCase]) -> List[List[Any]]:
    """The serve-warm answers of a single-threaded ``cached`` session
    per (database, semantics), as ``bench_serve.py`` precomputes them."""
    from repro.session import DatabaseSession

    out = []
    for case in cases:
        db = case.database()
        session = DatabaseSession(db, engine="cached")
        answers = []
        for q in case.queries:
            if q.task == "infers":
                answers.append(session.ask(q.query, semantics=q.semantics).verdict)
            elif q.task == "infers_literal":
                answers.append(session.ask_literal(q.query, q.semantics).verdict)
            elif q.task == "has_model":
                answers.append(session.has_model(q.semantics))
            else:
                answers.append(
                    sorted(sorted(m) for m in session.models(q.semantics))
                )
        out.append(answers)
    return out
