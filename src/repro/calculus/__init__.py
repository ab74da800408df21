"""The constraint specification language CL (paper Section 4.1).

CL is a tuple relational calculus: terms (value constants, attribute
selections ``x.i``, arithmetic, aggregate and counting function
applications), atomic formulas (comparisons, set membership ``x in R``,
tuple equality), and well-formed formulas built with ``not/and/or/=>`` and
the quantifiers ``forall``/``exists`` (paper Defs 4.1-4.4).

Submodules:

* :mod:`repro.calculus.ast` — the formula AST;
* :mod:`repro.calculus.parser` — text form (ASCII and the paper's Unicode
  symbols both accepted);
* :mod:`repro.calculus.analysis` — free variables, closedness, safety
  (range restriction), variable typing;
* :mod:`repro.calculus.evaluation` — the direct evaluator: the ground-truth
  integrity checker kept as the *test oracle* and the evaluator of last
  resort for untranslatable residue;
* :mod:`repro.calculus.planned` — compiles any range-restricted sentence
  through TransC/CalcToAlg into its check program (one ``alarm`` per CNF
  clause, run by cached physical plans) — the single runtime evaluation
  path;
* :mod:`repro.calculus.pretty` — rendering back to CL text.
"""

from repro.calculus.ast import (
    AggTerm,
    And,
    ArithTerm,
    AttrSel,
    CntTerm,
    Compare,
    Const,
    Exists,
    Forall,
    Implies,
    Member,
    MltTerm,
    Not,
    Or,
    TupleEq,
)
from repro.calculus.parser import parse_constraint
from repro.calculus.analysis import (
    check_closed,
    check_safety,
    free_variables,
    relation_names,
    variable_ranges,
)
from repro.calculus.evaluation import evaluate_constraint
from repro.calculus.planned import (
    compile_constraint,
    evaluate_constraint_planned,
)
from repro.calculus.pretty import render_constraint

__all__ = [
    "AggTerm",
    "And",
    "ArithTerm",
    "AttrSel",
    "CntTerm",
    "Compare",
    "Const",
    "Exists",
    "Forall",
    "Implies",
    "Member",
    "MltTerm",
    "Not",
    "Or",
    "TupleEq",
    "check_closed",
    "check_safety",
    "compile_constraint",
    "evaluate_constraint",
    "evaluate_constraint_planned",
    "free_variables",
    "parse_constraint",
    "relation_names",
    "render_constraint",
    "variable_ranges",
]
