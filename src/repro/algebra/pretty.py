"""Rendering algebra ASTs back to text.

Two styles are provided:

* :func:`render_expression` / :func:`render_statement` /
  :func:`render_program` produce the parseable functional notation of
  :mod:`repro.algebra.parser` (round-trip property: parsing the rendering
  yields a structurally equal AST) — for every statement a user writes;
  the two only transaction modification emits, a repair's guard and a
  residue check, render in the same style but do not parse;
* :func:`render_mathy` produces the paper's blackboard notation
  (``σ``, ``π``, ``⋈``, ``⋉``, ``⊳``, ``−``, ``∪``) used when regenerating
  Table 1 for side-by-side comparison with the paper.
"""

from __future__ import annotations

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra import statements as S
from repro.algebra.programs import Program
from repro.engine.types import NULL


def _render_value(value) -> str:
    if value is NULL:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)


def render_scalar(expr: P.ScalarExpr) -> str:
    if isinstance(expr, P.Const):
        return _render_value(expr.value)
    if isinstance(expr, P.ColRef):
        prefix = f"{expr.side}." if expr.side else ""
        return f"{prefix}{expr.attr}"
    if isinstance(expr, P.Arith):
        return f"({render_scalar(expr.left)} {expr.op} {render_scalar(expr.right)})"
    raise TypeError(f"cannot render scalar {expr!r}")


def render_predicate(predicate: P.Predicate) -> str:
    if isinstance(predicate, P.TruePred):
        return "true"
    if isinstance(predicate, P.FalsePred):
        return "false"
    if isinstance(predicate, P.Comparison):
        return (
            f"{render_scalar(predicate.left)} {predicate.op} "
            f"{render_scalar(predicate.right)}"
        )
    if isinstance(predicate, P.And):
        return (
            f"({render_predicate(predicate.left)} and "
            f"{render_predicate(predicate.right)})"
        )
    if isinstance(predicate, P.Or):
        return (
            f"({render_predicate(predicate.left)} or "
            f"{render_predicate(predicate.right)})"
        )
    if isinstance(predicate, P.Not):
        return f"not {render_predicate(predicate.operand)}"
    if isinstance(predicate, P.IsNull):
        return f"isnull({render_scalar(predicate.operand)})"
    raise TypeError(f"cannot render predicate {predicate!r}")


def render_expression(expr: E.Expression) -> str:
    """Functional (parseable) rendering of an expression."""
    if isinstance(expr, E.RelationRef):
        return expr.name
    if isinstance(expr, E.Delta):
        # Rendered via the auxiliary naming convention; re-parsing yields an
        # equivalent RelationRef (same resolution, weaker structure).
        return expr.name
    if isinstance(expr, E.Literal):
        rows = ", ".join(
            "(" + ", ".join(_render_value(v) for v in row) + ")"
            for row in expr.rows
        )
        return "{" + rows + "}"
    if isinstance(expr, E.Select):
        return (
            f"select({render_expression(expr.input)}, "
            f"{render_predicate(expr.predicate)})"
        )
    if isinstance(expr, E.Project):
        items = ", ".join(
            render_scalar(item.expr) + (f" as {item.name}" if item.name else "")
            for item in expr.items
        )
        return f"project({render_expression(expr.input)}, [{items}])"
    if isinstance(expr, E.Union):
        return f"union({render_expression(expr.left)}, {render_expression(expr.right)})"
    if isinstance(expr, E.Difference):
        return f"diff({render_expression(expr.left)}, {render_expression(expr.right)})"
    if isinstance(expr, E.Intersection):
        return (
            f"intersect({render_expression(expr.left)}, "
            f"{render_expression(expr.right)})"
        )
    if isinstance(expr, E.Product):
        return (
            f"product({render_expression(expr.left)}, "
            f"{render_expression(expr.right)})"
        )
    if isinstance(expr, E.Join):
        return (
            f"join({render_expression(expr.left)}, {render_expression(expr.right)}, "
            f"{render_predicate(expr.predicate)})"
        )
    if isinstance(expr, E.SemiJoin):
        return (
            f"semijoin({render_expression(expr.left)}, "
            f"{render_expression(expr.right)}, {render_predicate(expr.predicate)})"
        )
    if isinstance(expr, E.AntiJoin):
        return (
            f"antijoin({render_expression(expr.left)}, "
            f"{render_expression(expr.right)}, {render_predicate(expr.predicate)})"
        )
    if isinstance(expr, E.Rename):
        if expr.attributes:
            attrs = ", ".join(expr.attributes)
            return f"rename({render_expression(expr.input)}, {expr.name}, [{attrs}])"
        return f"rename({render_expression(expr.input)}, {expr.name})"
    if isinstance(expr, E.Aggregate):
        return f"{expr.func.lower()}({render_expression(expr.input)}, {expr.attr})"
    if isinstance(expr, E.Count):
        return f"cnt({render_expression(expr.input)})"
    if isinstance(expr, E.Multiplicity):
        return f"mlt({render_expression(expr.input)})"
    raise TypeError(f"cannot render expression {expr!r}")


def render_statement(statement: S.Statement) -> str:
    """Functional (parseable) rendering of a statement."""
    if isinstance(statement, S.Assign):
        return f"{statement.name} := {render_expression(statement.expr)}"
    if isinstance(statement, S.Insert):
        source = render_expression(statement.expr)
        if isinstance(statement.expr, E.Literal) and len(statement.expr.rows) == 1:
            source = source[1:-1]  # single-tuple sugar: drop the braces
        return f"insert({statement.relation}, {source})"
    if isinstance(statement, S.Delete):
        return f"delete({statement.relation}, {render_expression(statement.expr)})"
    if isinstance(statement, S.Update):
        assignments = ", ".join(
            f"{attr} := {render_scalar(expr)}" for attr, expr in statement.assignments
        )
        return (
            f"update({statement.relation}, "
            f"{render_predicate(statement.predicate)}, {assignments})"
        )
    if isinstance(statement, S.Alarm):
        if statement.message:
            return (
                f"alarm({render_expression(statement.expr)}, "
                f"{_render_value(statement.message)})"
            )
        return f"alarm({render_expression(statement.expr)})"
    if isinstance(statement, S.Abort):
        if statement.message:
            return f"abort {_render_value(statement.message)}"
        return "abort"
    if isinstance(statement, S.Guard):
        return _render_guard(statement, render_expression, render_statement)
    from repro.core.translation import CheckConstraint

    if isinstance(statement, CheckConstraint):
        from repro.calculus.pretty import render_constraint

        arguments = [render_constraint(statement.formula)]
        if statement.message:
            arguments.append(_render_value(statement.message))
        return f"check({', '.join(arguments)})"
    raise TypeError(f"cannot render statement {statement!r}")


def _render_guard(guard: S.Guard, expression, statement) -> str:
    checks = ", ".join(map(expression, guard.checks))
    body = "; ".join(map(statement, guard.body))
    return f"guard({checks}) {{ {body} }}"


def render_program(program: Program, indent: str = "") -> str:
    """Render a program, one statement per line."""
    return "\n".join(
        f"{indent}{render_statement(statement)};" for statement in program
    )


def render_transaction(transaction) -> str:
    """Render a transaction as ``begin ... end`` text."""
    from repro.algebra.programs import debracket

    body = render_program(debracket(transaction), indent="    ")
    if body:
        return f"begin\n{body}\nend"
    return "begin\nend"


# ---------------------------------------------------------------------------
# Paper-style (mathy) rendering for Table 1 regeneration
# ---------------------------------------------------------------------------


def _mathy_scalar(expr: P.ScalarExpr) -> str:
    if isinstance(expr, P.Const):
        return _render_value(expr.value)
    if isinstance(expr, P.ColRef):
        if expr.side == "left":
            return f"x.{expr.attr}"
        if expr.side == "right":
            return f"y.{expr.attr}"
        return str(expr.attr)
    if isinstance(expr, P.Arith):
        return f"{_mathy_scalar(expr.left)}{expr.op}{_mathy_scalar(expr.right)}"
    raise TypeError(f"cannot render scalar {expr!r}")


def _mathy_predicate(predicate: P.Predicate) -> str:
    if isinstance(predicate, P.Comparison):
        op = {"!=": "≠", "<=": "≤", ">=": "≥"}.get(predicate.op, predicate.op)
        return f"{_mathy_scalar(predicate.left)}{op}{_mathy_scalar(predicate.right)}"
    if isinstance(predicate, P.And):
        return f"{_mathy_predicate(predicate.left)}∧{_mathy_predicate(predicate.right)}"
    if isinstance(predicate, P.Or):
        return f"{_mathy_predicate(predicate.left)}∨{_mathy_predicate(predicate.right)}"
    if isinstance(predicate, P.Not):
        return f"¬({_mathy_predicate(predicate.operand)})"
    if isinstance(predicate, P.TruePred):
        return "true"
    if isinstance(predicate, P.FalsePred):
        return "false"
    if isinstance(predicate, P.IsNull):
        return f"isnull({_mathy_scalar(predicate.operand)})"
    raise TypeError(f"cannot render predicate {predicate!r}")


def render_mathy(expr: E.Expression) -> str:
    """Blackboard-notation rendering (σ, π, ⋈, ⋉, ⊳) for reports."""
    if isinstance(expr, E.RelationRef):
        return expr.name
    if isinstance(expr, E.Delta):
        sign = "⁺" if expr.kind == E.DELTA_PLUS else "⁻"
        return f"Δ{sign}{expr.relation}"
    if isinstance(expr, E.Select):
        return f"σ[{_mathy_predicate(expr.predicate)}]({render_mathy(expr.input)})"
    if isinstance(expr, E.Project):
        items = ",".join(_mathy_scalar(item.expr) for item in expr.items)
        return f"π[{items}]({render_mathy(expr.input)})"
    if isinstance(expr, E.Union):
        return f"({render_mathy(expr.left)} ∪ {render_mathy(expr.right)})"
    if isinstance(expr, E.Difference):
        return f"({render_mathy(expr.left)} − {render_mathy(expr.right)})"
    if isinstance(expr, E.Intersection):
        return f"({render_mathy(expr.left)} ∩ {render_mathy(expr.right)})"
    if isinstance(expr, E.Product):
        return f"({render_mathy(expr.left)} × {render_mathy(expr.right)})"
    if isinstance(expr, E.Join):
        return (
            f"({render_mathy(expr.left)} ⋈[{_mathy_predicate(expr.predicate)}] "
            f"{render_mathy(expr.right)})"
        )
    if isinstance(expr, E.SemiJoin):
        return (
            f"({render_mathy(expr.left)} ⋉[{_mathy_predicate(expr.predicate)}] "
            f"{render_mathy(expr.right)})"
        )
    if isinstance(expr, E.AntiJoin):
        return (
            f"({render_mathy(expr.left)} ⊳[{_mathy_predicate(expr.predicate)}] "
            f"{render_mathy(expr.right)})"
        )
    if isinstance(expr, E.Rename):
        return f"ρ[{expr.name}]({render_mathy(expr.input)})"
    if isinstance(expr, E.Aggregate):
        return f"{expr.func}({render_mathy(expr.input)}, {expr.attr})"
    if isinstance(expr, E.Count):
        return f"CNT({render_mathy(expr.input)})"
    if isinstance(expr, E.Multiplicity):
        return f"MLT({render_mathy(expr.input)})"
    if isinstance(expr, E.Literal):
        return render_expression(expr)
    raise TypeError(f"cannot render expression {expr!r}")


def render_mathy_statement(statement: S.Statement) -> str:
    """Blackboard-notation rendering of a statement (for Table 1 rows)."""
    if isinstance(statement, S.Alarm):
        return f"alarm({render_mathy(statement.expr)})"
    if isinstance(statement, S.Assign):
        return f"{statement.name} := {render_mathy(statement.expr)}"
    if isinstance(statement, S.Insert):
        return f"insert({statement.relation}, {render_mathy(statement.expr)})"
    if isinstance(statement, S.Delete):
        return f"delete({statement.relation}, {render_mathy(statement.expr)})"
    if isinstance(statement, S.Abort):
        return "abort"
    if isinstance(statement, S.Guard):
        return _render_guard(statement, render_mathy, render_mathy_statement)
    return render_statement(statement)
