"""Text forms for algebra expressions, programs, and transactions.

This is the concrete syntax used by examples, tests, the RL rule language's
``THEN`` clauses, and the session facade.  It is a functional notation (the
paper's blackboard symbols ``σ π ⋈ ⋉`` rendered as keywords):

.. code-block:: text

    begin
        insert(beer, ("exportgold", "stout", "guineken", 6));
        temp := diff(project(beer, [brewery]), project(brewery, [name]));
        insert(brewery, project(temp, [brewery as name, null, null]));
        alarm(select(beer, alcohol < 0));
    end

Expression grammar (keywords are case-insensitive):

.. code-block:: text

    rexpr    := select(rexpr, pred) | project(rexpr, [item, ...])
              | union(rexpr, rexpr) | diff(rexpr, rexpr)
              | intersect(rexpr, rexpr) | product(rexpr, rexpr)
              | join(rexpr, rexpr, pred) | semijoin(rexpr, rexpr, pred)
              | antijoin(rexpr, rexpr, pred)
              | sum(rexpr, attr) | avg(rexpr, attr) | min(rexpr, attr)
              | max(rexpr, attr) | cnt(rexpr) | mlt(rexpr)
              | rename(rexpr, name [, [name, ...]])
              | { (v, ...), ... } | NAME
    item     := scalar [as NAME]
    pred     := disjunction over and/not/comparisons; true | false
    scalar   := arithmetic over constants, attr names, left.attr, right.attr,
                positional left.2 / right.3, null

Statements: ``NAME := rexpr``, ``insert(R, E|tuple|{tuples})``,
``delete(R, E|tuple|{tuples}|where pred)``, ``update(R, pred, a := e, ...)``,
``alarm(E [, "message"])``, ``abort ["message"]``.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra import predicates as P
from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.programs import Program, bracket
from repro.engine.transaction import Transaction
from repro.engine.types import NULL
from repro.errors import ParseError
from repro.lex import TokenStream

_BINARY_OPS = {
    "union": E.Union,
    "diff": E.Difference,
    "intersect": E.Intersection,
    "product": E.Product,
}
_JOIN_OPS = {
    "join": E.Join,
    "semijoin": E.SemiJoin,
    "antijoin": E.AntiJoin,
}
_AGG_NAMES = ("sum", "avg", "min", "max")
_LITERAL_KINDS = ("INT", "FLOAT", "STRING")

_RESERVED = frozenset(
    [
        "select",
        "project",
        "union",
        "diff",
        "intersect",
        "product",
        "join",
        "semijoin",
        "antijoin",
        "sum",
        "avg",
        "min",
        "max",
        "cnt",
        "mlt",
        "rename",
        "insert",
        "delete",
        "update",
        "alarm",
        "abort",
        "begin",
        "end",
        "where",
        "as",
        "and",
        "or",
        "not",
        "true",
        "false",
        "null",
        "isnull",
        "left",
        "right",
    ]
)


class _Parser:
    def __init__(self, text: str):
        self.stream = TokenStream(text)

    # -- expressions ------------------------------------------------------------

    def expression(self) -> E.Expression:
        stream = self.stream
        if stream.at("OP", "{"):
            return self.set_literal()
        token = stream.current
        if token.kind != "NAME":
            raise ParseError(
                f"expected an expression at position {token.position}, "
                f"found {token.text!r}"
            )
        keyword = token.value.lower()
        if keyword == "select":
            stream.advance()
            stream.expect("OP", "(")
            source = self.expression()
            stream.expect("OP", ",")
            predicate = self.predicate()
            stream.expect("OP", ")")
            return E.Select(source, predicate)
        if keyword == "project":
            stream.advance()
            stream.expect("OP", "(")
            source = self.expression()
            stream.expect("OP", ",")
            stream.expect("OP", "[")
            items = [self.project_item()]
            while stream.accept("OP", ","):
                items.append(self.project_item())
            stream.expect("OP", "]")
            stream.expect("OP", ")")
            return E.Project(source, tuple(items))
        if keyword in _BINARY_OPS:
            stream.advance()
            stream.expect("OP", "(")
            left = self.expression()
            stream.expect("OP", ",")
            right = self.expression()
            stream.expect("OP", ")")
            return _BINARY_OPS[keyword](left, right)
        if keyword in _JOIN_OPS:
            stream.advance()
            stream.expect("OP", "(")
            left = self.expression()
            stream.expect("OP", ",")
            right = self.expression()
            stream.expect("OP", ",")
            predicate = self.predicate()
            stream.expect("OP", ")")
            return _JOIN_OPS[keyword](left, right, predicate)
        if keyword in _AGG_NAMES:
            stream.advance()
            stream.expect("OP", "(")
            source = self.expression()
            stream.expect("OP", ",")
            attr = self.attribute_ref()
            stream.expect("OP", ")")
            return E.Aggregate(source, keyword.upper(), attr)
        if keyword == "cnt":
            stream.advance()
            stream.expect("OP", "(")
            source = self.expression()
            stream.expect("OP", ")")
            return E.Count(source)
        if keyword == "mlt":
            stream.advance()
            stream.expect("OP", "(")
            source = self.expression()
            stream.expect("OP", ")")
            return E.Multiplicity(source)
        if keyword == "rename":
            stream.advance()
            stream.expect("OP", "(")
            source = self.expression()
            stream.expect("OP", ",")
            new_name = stream.expect("NAME").value
            attrs = None
            if stream.accept("OP", ","):
                stream.expect("OP", "[")
                names = [stream.expect("NAME").value]
                while stream.accept("OP", ","):
                    names.append(stream.expect("NAME").value)
                stream.expect("OP", "]")
                attrs = tuple(names)
            stream.expect("OP", ")")
            return E.Rename(source, new_name, attrs)
        if keyword in _RESERVED:
            raise ParseError(
                f"reserved word {token.value!r} cannot be a relation name "
                f"(position {token.position})"
            )
        stream.advance()
        return E.RelationRef(token.value)

    def project_item(self) -> E.ProjectItem:
        expr = self.scalar()
        name = None
        if self.stream.accept_name("as"):
            name = self.stream.expect("NAME").value
        return E.ProjectItem(expr, name)

    def set_literal(self) -> E.Literal:
        stream = self.stream
        stream.expect("OP", "{")
        rows = []
        if not stream.at("OP", "}"):
            rows.append(self.tuple_literal())
            while stream.accept("OP", ","):
                rows.append(self.tuple_literal())
        stream.expect("OP", "}")
        return E.Literal(tuple(rows))

    def tuple_literal(self) -> tuple:
        # The bulk of a small transaction's tokens are literal rows: the
        # cursor is read through locals here and written back once.
        stream = self.stream
        stream.expect("OP", "(")
        tokens = stream.tokens
        index = stream.index
        values = []
        kind, value, _, _ = tokens[index]
        while True:
            if kind in _LITERAL_KINDS:
                index += 1
            else:
                stream.index = index
                value = self.constant()
                index = stream.index
            values.append(value)
            kind, value, _, _ = tokens[index]
            if kind != "OP" or value != ",":
                break
            index += 1
            kind, value, _, _ = tokens[index]
            if kind == "OP" and value == ")":
                break  # Python-style trailing comma: (1,)
        stream.index = index
        stream.expect("OP", ")")
        return tuple(values)

    def constant(self):
        stream = self.stream
        token = stream.current
        if token.kind in _LITERAL_KINDS:
            stream.advance()
            return token.value
        if stream.accept_name("null"):
            return NULL
        if stream.accept_name("true"):
            return True
        if stream.accept_name("false"):
            return False
        if stream.accept("OP", "-"):
            value = self.constant()
            if isinstance(value, (int, float)):
                return -value
            raise ParseError("'-' must precede a numeric constant")
        raise ParseError(
            f"expected a constant at position {token.position}, "
            f"found {token.text!r}"
        )

    def attribute_ref(self):
        token = self.stream.current
        if token.kind == "NAME":
            self.stream.advance()
            return token.value
        if token.kind == "INT":
            self.stream.advance()
            return token.value
        raise ParseError(
            f"expected an attribute name or position at {token.position}"
        )

    # -- predicates ----------------------------------------------------------------

    def predicate(self) -> P.Predicate:
        left = self.and_predicate()
        while self.stream.accept_name("or"):
            right = self.and_predicate()
            left = P.Or(left, right)
        return left

    def and_predicate(self) -> P.Predicate:
        left = self.unary_predicate()
        while self.stream.accept_name("and"):
            right = self.unary_predicate()
            left = P.And(left, right)
        return left

    def unary_predicate(self) -> P.Predicate:
        stream = self.stream
        if stream.accept_name("not"):
            return P.Not(self.unary_predicate())
        if stream.accept_name("isnull"):
            stream.expect("OP", "(")
            operand = self.scalar()
            stream.expect("OP", ")")
            return P.IsNull(operand)
        if stream.at_name("true") and not self._starts_comparison_after_const():
            stream.advance()
            return P.TruePred()
        if stream.at_name("false") and not self._starts_comparison_after_const():
            stream.advance()
            return P.FalsePred()
        if stream.at("OP", "("):
            # Could be a parenthesized predicate or a parenthesized scalar
            # beginning a comparison; backtrack on failure.
            mark = stream.index
            stream.advance()
            try:
                inner = self.predicate()
                stream.expect("OP", ")")
                if self._at_comparison_op():
                    raise ParseError("scalar context")
                return inner
            except ParseError:
                stream.index = mark
        return self.comparison()

    def _starts_comparison_after_const(self) -> bool:
        ahead = self.stream.peek()
        return ahead.kind == "OP" and ahead.value in ("<", "<=", "=", "!=", "<>", ">=", ">")

    def _at_comparison_op(self) -> bool:
        token = self.stream.current
        return token.kind == "OP" and token.value in (
            "<",
            "<=",
            "=",
            "!=",
            "<>",
            ">=",
            ">",
        )

    def comparison(self) -> P.Comparison:
        left = self.scalar()
        token = self.stream.current
        if not self._at_comparison_op():
            raise ParseError(
                f"expected a comparison operator at position {token.position}, "
                f"found {token.text!r}"
            )
        op = "!=" if token.value == "<>" else token.value
        self.stream.advance()
        right = self.scalar()
        return P.Comparison(op, left, right)

    # -- scalar expressions --------------------------------------------------------

    def scalar(self) -> P.ScalarExpr:
        left = self.scalar_term()
        while self.stream.at("OP", "+") or self.stream.at("OP", "-"):
            op = self.stream.advance().value
            right = self.scalar_term()
            left = P.Arith(op, left, right)
        return left

    def scalar_term(self) -> P.ScalarExpr:
        left = self.scalar_factor()
        while self.stream.at("OP", "*") or self.stream.at("OP", "/"):
            op = self.stream.advance().value
            right = self.scalar_factor()
            left = P.Arith(op, left, right)
        return left

    def scalar_factor(self) -> P.ScalarExpr:
        stream = self.stream
        token = stream.current
        if token.kind in _LITERAL_KINDS:
            stream.advance()
            return P.Const(token.value)
        if stream.accept("OP", "-"):
            operand = self.scalar_factor()
            if isinstance(operand, P.Const) and isinstance(
                operand.value, (int, float)
            ):
                return P.Const(-operand.value)
            return P.Arith("-", P.Const(0), operand)
        if stream.accept("OP", "("):
            inner = self.scalar()
            stream.expect("OP", ")")
            return inner
        if token.kind == "NAME":
            lowered = token.value.lower()
            if lowered == "null":
                stream.advance()
                return P.Const(NULL)
            if lowered == "true":
                stream.advance()
                return P.Const(True)
            if lowered == "false":
                stream.advance()
                return P.Const(False)
            if lowered in ("left", "right"):
                stream.advance()
                stream.expect("OP", ".")
                attr = self.attribute_ref()
                return P.ColRef(attr, lowered)
            stream.advance()
            return P.ColRef(token.value, None)
        raise ParseError(
            f"expected a scalar expression at position {token.position}, "
            f"found {token.text!r}"
        )

    # -- statements -------------------------------------------------------------------

    def statement(self) -> S.Statement:
        stream = self.stream
        token = stream.tokens[stream.index]
        if token.kind != "NAME":
            raise ParseError(
                f"expected a statement at position {token.position}, "
                f"found {token.text!r}"
            )
        keyword = token.value.lower()
        if keyword == "insert":
            stream.advance()
            stream.expect("OP", "(")
            relation = stream.expect("NAME").value
            stream.expect("OP", ",")
            source = self.insert_source()
            stream.expect("OP", ")")
            return S.Insert(relation, source)
        if keyword == "delete":
            stream.advance()
            stream.expect("OP", "(")
            relation = stream.expect("NAME").value
            stream.expect("OP", ",")
            if stream.accept_name("where"):
                predicate = self.predicate()
                source: E.Expression = E.Select(E.RelationRef(relation), predicate)
            else:
                source = self.insert_source()
            stream.expect("OP", ")")
            return S.Delete(relation, source)
        if keyword == "update":
            stream.advance()
            stream.expect("OP", "(")
            relation = stream.expect("NAME").value
            stream.expect("OP", ",")
            predicate = self.predicate()
            assignments = []
            while stream.accept("OP", ","):
                attr = self.attribute_ref()
                stream.expect("OP", ":=")
                assignments.append((attr, self.scalar()))
            stream.expect("OP", ")")
            if not assignments:
                raise ParseError("update needs at least one 'attr := expr'")
            return S.Update(relation, predicate, tuple(assignments))
        if keyword == "alarm":
            stream.advance()
            stream.expect("OP", "(")
            expr = self.expression()
            message: Optional[str] = None
            if stream.accept("OP", ","):
                message = stream.expect("STRING").value
            stream.expect("OP", ")")
            return S.Alarm(expr, message)
        if keyword == "abort":
            stream.advance()
            message = None
            if stream.at("STRING"):
                message = stream.advance().value
            return S.Abort(message)
        # assignment: NAME := expr
        if stream.peek().kind == "OP" and stream.peek().value == ":=":
            if keyword in _RESERVED:
                raise ParseError(
                    f"reserved word {token.value!r} cannot be a temporary name"
                )
            stream.advance()
            stream.expect("OP", ":=")
            return S.Assign(token.value, self.expression())
        raise ParseError(
            f"unknown statement {token.value!r} at position {token.position}"
        )

    def insert_source(self) -> E.Expression:
        stream = self.stream
        if stream.at("OP", "("):
            return E.Literal((self.tuple_literal(),))
        return self.expression()

    # -- programs and transactions ------------------------------------------------------

    def program(self, stop_keyword: Optional[str] = None) -> Program:
        statements = []
        stream = self.stream
        tokens = stream.tokens
        while True:
            kind, value, _, _ = tokens[stream.index]
            if kind == "EOF":
                break
            if stop_keyword and kind == "NAME" and value.lower() == stop_keyword:
                break
            statements.append(self.statement())
            kind, value, _, _ = tokens[stream.index]
            if kind != "OP" or value != ";":
                break
            stream.index += 1
        return Program(statements)

    def transaction(self) -> Transaction:
        self.stream.expect_name("begin")
        body = self.program(stop_keyword="end")
        self.stream.expect_name("end")
        return bracket(body)


def _parse(text: str, production):
    """Run one production of the grammar over the whole of ``text``."""
    parser = _Parser(text)
    try:
        result = production(parser)
    except RecursionError:
        raise ParseError(
            "nesting too deep: the text nests further than the parser can "
            f"recurse (near position {parser.stream.current.position})"
        ) from None
    parser.stream.expect_eof()
    return result


def _single_statement(parser: _Parser) -> S.Statement:
    statement = parser.statement()
    parser.stream.accept("OP", ";")
    return statement


def parse_expression(text: str) -> E.Expression:
    """Parse a relation-valued expression."""
    return _parse(text, _Parser.expression)


def parse_predicate(text: str) -> P.Predicate:
    """Parse a selection/join predicate."""
    return _parse(text, _Parser.predicate)


def parse_statement(text: str) -> S.Statement:
    """Parse a single statement."""
    return _parse(text, _single_statement)


def parse_program(text: str) -> Program:
    """Parse a semicolon-separated statement sequence."""
    return _parse(text, _Parser.program)


def parse_transaction(text: str) -> Transaction:
    """Parse a ``begin ... end`` transaction."""
    return _parse(text, _Parser.transaction)
