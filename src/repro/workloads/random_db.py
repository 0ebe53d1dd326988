"""Random database generators.

The paper's tables quantify over syntactic regimes ("positive
propositional DDBs", "DDBs with integrity clauses", DSDBs, DNDBs); these
generators realize each regime as a parameterized random family so that
the decision procedures can be exercised and profiled.  All generators
are deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Union

#: Generators accept either an integer seed or a caller-owned
#: ``random.Random`` instance.
Seed = Union[int, random.Random]

from ..logic.clause import Clause
from ..logic.database import DisjunctiveDatabase
from ..semantics.stratification import is_stratified


def _atoms(count: int, prefix: str = "v") -> List[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _rng(seed: Seed) -> random.Random:
    """A generator RNG: an explicit ``random.Random`` is used as-is (and
    advanced by the generator), an integer seeds a fresh one.  Either way
    the sampled clauses are a pure function of the RNG state, so equal
    seeds produce byte-identical databases across runs and platforms."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_positive_db(
    num_atoms: int,
    num_clauses: int,
    max_head: int = 3,
    max_body: int = 2,
    seed: Seed = 0,
    fact_fraction: float = 0.3,
) -> DisjunctiveDatabase:
    """A random *positive* DDB (Table 1 regime: no ICs, no negation).

    Args:
        num_atoms: vocabulary size.
        num_clauses: number of clauses.
        max_head: maximum head width (heads are nonempty).
        max_body: maximum positive-body width.
        seed: integer seed or an explicit ``random.Random`` instance.
        fact_fraction: fraction of clauses generated with empty bodies.
    """
    rng = _rng(seed)
    atoms = _atoms(num_atoms)
    clauses: List[Clause] = []
    for _ in range(num_clauses):
        head_width = rng.randint(1, min(max_head, num_atoms))
        head = rng.sample(atoms, head_width)
        if rng.random() < fact_fraction:
            body: Sequence[str] = ()
        else:
            body_width = rng.randint(0, min(max_body, num_atoms))
            body = [a for a in rng.sample(atoms, body_width) if a not in head]
        clauses.append(Clause.rule(head, body))
    return DisjunctiveDatabase(clauses, atoms)


def random_horn_db(
    num_atoms: int,
    num_clauses: int,
    max_body: int = 2,
    seed: Seed = 0,
    fact_fraction: float = 0.3,
) -> DisjunctiveDatabase:
    """A random *Horn* DDB (single-atom heads, positive bodies, no ICs).

    The Horn cell is the fragment planner's polynomial fast path
    (:func:`repro.analysis.procedures.horn_least_model`), so the
    adversarial hunter draws base databases here both to exercise that
    dispatch directly and to feed the barely-non-Horn boundary mutators.
    """
    rng = _rng(seed)
    atoms = _atoms(num_atoms)
    clauses: List[Clause] = []
    for _ in range(num_clauses):
        head = [rng.choice(atoms)]
        if rng.random() < fact_fraction:
            body: Sequence[str] = ()
        else:
            body_width = rng.randint(0, min(max_body, num_atoms))
            body = [a for a in rng.sample(atoms, body_width) if a not in head]
        clauses.append(Clause.rule(head, body))
    return DisjunctiveDatabase(clauses, atoms)


def random_deductive_db(
    num_atoms: int,
    num_clauses: int,
    max_head: int = 3,
    max_body: int = 2,
    ic_fraction: float = 0.25,
    seed: Seed = 0,
) -> DisjunctiveDatabase:
    """A random DDDB *with integrity clauses* (Table 2 regime)."""
    rng = _rng(seed)
    atoms = _atoms(num_atoms)
    clauses: List[Clause] = []
    for _ in range(num_clauses):
        if rng.random() < ic_fraction:
            body_width = rng.randint(1, min(max_body + 1, num_atoms))
            clauses.append(Clause.integrity(rng.sample(atoms, body_width)))
            continue
        head_width = rng.randint(1, min(max_head, num_atoms))
        head = rng.sample(atoms, head_width)
        body_width = rng.randint(0, min(max_body, num_atoms))
        body = [a for a in rng.sample(atoms, body_width) if a not in head]
        clauses.append(Clause.rule(head, body))
    return DisjunctiveDatabase(clauses, atoms)


def random_stratified_db(
    num_atoms: int,
    num_clauses: int,
    num_strata: int = 3,
    max_head: int = 2,
    max_body: int = 2,
    neg_fraction: float = 0.4,
    seed: Seed = 0,
) -> DisjunctiveDatabase:
    """A random DSDB, stratified *by construction*: atoms are spread over
    ``num_strata`` layers; heads of one clause share a layer, positive
    body atoms come from the same or lower layers, negated atoms from
    strictly lower layers."""
    rng = _rng(seed)
    atoms = _atoms(num_atoms)
    layer_of = {a: rng.randrange(num_strata) for a in atoms}
    by_layer: List[List[str]] = [[] for _ in range(num_strata)]
    for a in atoms:
        by_layer[layer_of[a]].append(a)
    clauses: List[Clause] = []
    for _ in range(num_clauses):
        layer = rng.randrange(num_strata)
        pool = by_layer[layer]
        if not pool:
            continue
        head = rng.sample(pool, rng.randint(1, min(max_head, len(pool))))
        lower_or_same = [a for a in atoms if layer_of[a] <= layer]
        strictly_lower = [a for a in atoms if layer_of[a] < layer]
        body_pos: List[str] = []
        body_neg: List[str] = []
        for _ in range(rng.randint(0, max_body)):
            if strictly_lower and rng.random() < neg_fraction:
                body_neg.append(rng.choice(strictly_lower))
            elif lower_or_same:
                candidate = rng.choice(lower_or_same)
                if candidate not in head:
                    body_pos.append(candidate)
        clauses.append(Clause.rule(head, body_pos, body_neg))
    db = DisjunctiveDatabase(clauses, atoms)
    assert is_stratified(db), "generator invariant violated"
    return db


def random_normal_db(
    num_atoms: int,
    num_clauses: int,
    max_head: int = 2,
    max_body: int = 2,
    neg_fraction: float = 0.4,
    ic_fraction: float = 0.0,
    seed: Seed = 0,
) -> DisjunctiveDatabase:
    """A random DNDB: arbitrary negation (possibly unstratified), optional
    integrity clauses."""
    rng = _rng(seed)
    atoms = _atoms(num_atoms)
    clauses: List[Clause] = []
    for _ in range(num_clauses):
        make_ic = rng.random() < ic_fraction
        head: Sequence[str] = ()
        if not make_ic:
            head = rng.sample(atoms, rng.randint(1, min(max_head, num_atoms)))
        body_pos: List[str] = []
        body_neg: List[str] = []
        width = rng.randint(1 if make_ic else 0, max_body)
        for _ in range(width):
            atom = rng.choice(atoms)
            if atom in head:
                continue
            if rng.random() < neg_fraction:
                body_neg.append(atom)
            else:
                body_pos.append(atom)
        if make_ic and not body_pos and not body_neg:
            body_pos.append(rng.choice(atoms))
        clauses.append(Clause.rule(head, body_pos, body_neg))
    return DisjunctiveDatabase(clauses, atoms)
