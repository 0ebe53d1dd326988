"""Propositional logic core: atoms, clauses, databases, formulas, CNF.

This package is the substrate everything else builds on.  The central
types are :class:`~repro.logic.clause.Clause` (a disjunctive database
clause), :class:`~repro.logic.database.DisjunctiveDatabase`, the formula
AST in :mod:`repro.logic.formula`, and the 2-/3-valued interpretations in
:mod:`repro.logic.interpretation`.
"""

from .atoms import Literal, atoms_of, is_valid_atom
from .clause import Clause
from .cnf import (
    Cnf,
    CnfClause,
    cnf_atoms,
    database_to_cnf,
    formula_to_cnf_naive,
    tseitin,
)
from .database import DisjunctiveDatabase, database
from .dimacs import from_dimacs, to_dimacs
from .formula import (
    BOTTOM,
    FALSE3,
    TOP,
    TRUE3,
    UNDEF3,
    And,
    Bottom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Var,
    conj,
    disj,
    lit,
    negation_normal_form,
)
from .interpretation import (
    Interpretation,
    ThreeValuedInterpretation,
    all_interpretations,
    all_three_valued,
    interp,
)
from .parser import parse_clause, parse_database, parse_formula
from .serialize import (
    clause_from_dict,
    clause_to_dict,
    database_from_dict,
    database_to_dict,
    formula_from_dict,
    formula_to_dict,
)
from .transform import (
    ValuedClause,
    gl_reduct,
    rename_atoms,
    shift_negation_to_head,
    split_count,
    split_programs,
    three_valued_reduct,
)

__all__ = [
    "Literal",
    "atoms_of",
    "is_valid_atom",
    "Clause",
    "Cnf",
    "CnfClause",
    "cnf_atoms",
    "database_to_cnf",
    "formula_to_cnf_naive",
    "tseitin",
    "DisjunctiveDatabase",
    "database",
    "from_dimacs",
    "to_dimacs",
    "BOTTOM",
    "FALSE3",
    "TOP",
    "TRUE3",
    "UNDEF3",
    "And",
    "Bottom",
    "Formula",
    "Iff",
    "Implies",
    "Not",
    "Or",
    "Top",
    "Var",
    "conj",
    "disj",
    "lit",
    "negation_normal_form",
    "Interpretation",
    "ThreeValuedInterpretation",
    "all_interpretations",
    "all_three_valued",
    "interp",
    "clause_from_dict",
    "clause_to_dict",
    "database_from_dict",
    "database_to_dict",
    "formula_from_dict",
    "formula_to_dict",
    "parse_clause",
    "parse_database",
    "parse_formula",
    "ValuedClause",
    "gl_reduct",
    "rename_atoms",
    "shift_negation_to_head",
    "split_count",
    "split_programs",
    "three_valued_reduct",
]
