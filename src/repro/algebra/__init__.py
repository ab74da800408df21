"""Extended relational algebra (paper Def 2.4, Def 5.1).

The extended relational algebra extends the standard algebra with statements
for the operational specification of actions against a database: assignment,
insert, delete, and update statements, plus the ``alarm`` statement the paper
adds for aborting integrity programs (Def 5.1); a ``guard`` block runs a
compensating action only where its Δ-checks find a violation.

This package provides:

* :mod:`repro.algebra.predicates` — scalar expressions and predicates;
* :mod:`repro.algebra.expressions` — relation-valued expression AST;
* :mod:`repro.algebra.statements` — the statement AST;
* :mod:`repro.algebra.programs` — programs, concatenation ``⊕``, and the
  transaction (de)bracketing operators of Alg 5.1;
* :mod:`repro.algebra.evaluation` — evaluation of expressions against a
  name-resolution context;
* :mod:`repro.algebra.planner` — compilation of expressions into cached
  physical query plans (the default evaluation backend);
* :mod:`repro.algebra.physical` — the physical operator DAGs the planner
  emits (hash joins, index-accelerated selections);
* :mod:`repro.algebra.parser` — text forms for expressions, programs, and
  whole transactions;
* :mod:`repro.algebra.optimizer` — algebraic rewrites;
* :mod:`repro.algebra.pretty` — rendering ASTs back to text.
"""

from repro.algebra.predicates import (
    And,
    Arith,
    ColRef,
    Comparison,
    Const,
    FalsePred,
    IsNull,
    Not,
    Or,
    TruePred,
)
from repro.algebra.expressions import (
    Aggregate,
    AntiJoin,
    Count,
    Delta,
    Difference,
    Intersection,
    Join,
    Literal,
    Multiplicity,
    Product,
    Project,
    RelationRef,
    Rename,
    Select,
    SemiJoin,
    Union,
)
from repro.algebra.statements import (
    Abort,
    Alarm,
    Assign,
    Delete,
    Guard,
    Insert,
    Update,
)
from repro.algebra.programs import (
    EMPTY_PROGRAM,
    Program,
    bracket,
    concat,
    debracket,
)
from repro.algebra.evaluation import evaluate_expression, StandaloneContext
from repro.algebra.planner import (
    compile_expression,
    explain,
    get_plan,
)
from repro.algebra.parser import (
    parse_expression,
    parse_predicate,
    parse_program,
    parse_statement,
    parse_transaction,
)
from repro.algebra.pretty import render_expression, render_program, render_statement

__all__ = [
    "Abort",
    "Aggregate",
    "Alarm",
    "And",
    "AntiJoin",
    "Arith",
    "Assign",
    "ColRef",
    "Comparison",
    "Const",
    "Count",
    "Delete",
    "Delta",
    "Difference",
    "EMPTY_PROGRAM",
    "FalsePred",
    "Guard",
    "Insert",
    "Intersection",
    "IsNull",
    "Join",
    "Literal",
    "Multiplicity",
    "Not",
    "Or",
    "Product",
    "Program",
    "Project",
    "RelationRef",
    "Rename",
    "Select",
    "SemiJoin",
    "StandaloneContext",
    "TruePred",
    "Union",
    "Update",
    "bracket",
    "compile_expression",
    "concat",
    "debracket",
    "evaluate_expression",
    "explain",
    "get_plan",
    "parse_expression",
    "parse_predicate",
    "parse_program",
    "parse_statement",
    "parse_transaction",
    "render_expression",
    "render_program",
    "render_statement",
]
