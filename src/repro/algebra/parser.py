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

import re
from functools import partial
from operator import itemgetter
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
_CONSTANT_WORDS = {"null": NULL, "true": True, "false": False}

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


_COMPARISON_OPS = ("<", "<=", "=", "!=", "<>", ">=", ">")


class _Parser:
    """Recursive descent over the token columns.

    The productions read ``kinds[index]`` / ``values[index]`` and step the
    stream's ``index``; no :class:`~repro.lex.Token` is built while the
    text conforms.  A mismatch is handed to the stream (``expect``,
    ``current``), which words the error and only then asks for positions.
    """

    def __init__(self, text: str):
        self.stream = stream = TokenStream(text)
        self.kinds = stream.kinds
        self.values = stream.values
        # Where literal rows' values came from, for :class:`TransactionShape`:
        # per cell, the index of the token placed verbatim, ``~index`` of a
        # negated INT (``-5``), None for any other constant; and every
        # literal built of such rows, with the number of its first cell.
        self.cells: list = []
        self.literals: list = []

    # -- the cursor -------------------------------------------------------------

    def _accept_op(self, op: str) -> bool:
        stream = self.stream
        index = stream.index
        if self.values[index] == op and self.kinds[index] == "OP":
            stream.index = index + 1
            return True
        return False

    def _op(self, op: str) -> None:
        stream = self.stream
        index = stream.index
        if self.values[index] == op and self.kinds[index] == "OP":
            stream.index = index + 1
        else:
            stream.expect("OP", op)

    def _accept_keyword(self, keyword: str) -> bool:
        stream = self.stream
        index = stream.index
        if self.kinds[index] == "NAME" and self.values[index].lower() == keyword:
            stream.index = index + 1
            return True
        return False

    def _keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            self.stream.expect_name(keyword)

    def _value(self, kind: str):
        """Step over a token of ``kind`` and return its value."""
        stream = self.stream
        index = stream.index
        if self.kinds[index] != kind:
            stream.expect(kind)
        stream.index = index + 1
        return self.values[index]

    # -- expressions ------------------------------------------------------------

    def expression(self) -> E.Expression:
        stream = self.stream
        index = stream.index
        kind = self.kinds[index]
        name = self.values[index]
        if kind == "OP" and name == "{":
            return self.set_literal()
        if kind != "NAME":
            token = stream.current
            raise ParseError(
                f"expected an expression at position {token.position}, "
                f"found {token.text!r}"
            )
        keyword = name.lower()
        if keyword not in _RESERVED:
            stream.index = index + 1
            return E.RelationRef(name)
        if keyword == "select":
            stream.index = index + 1
            self._op("(")
            source = self.expression()
            self._op(",")
            predicate = self.predicate()
            self._op(")")
            return E.Select(source, predicate)
        if keyword == "project":
            stream.index = index + 1
            self._op("(")
            source = self.expression()
            self._op(",")
            self._op("[")
            items = [self.project_item()]
            while self._accept_op(","):
                items.append(self.project_item())
            self._op("]")
            self._op(")")
            return E.Project(source, tuple(items))
        if keyword in _BINARY_OPS:
            stream.index = index + 1
            self._op("(")
            left = self.expression()
            self._op(",")
            right = self.expression()
            self._op(")")
            return _BINARY_OPS[keyword](left, right)
        if keyword in _JOIN_OPS:
            stream.index = index + 1
            self._op("(")
            left = self.expression()
            self._op(",")
            right = self.expression()
            self._op(",")
            predicate = self.predicate()
            self._op(")")
            return _JOIN_OPS[keyword](left, right, predicate)
        if keyword in _AGG_NAMES:
            stream.index = index + 1
            self._op("(")
            source = self.expression()
            self._op(",")
            attr = self.attribute_ref()
            self._op(")")
            return E.Aggregate(source, keyword.upper(), attr)
        if keyword == "cnt":
            stream.index = index + 1
            self._op("(")
            source = self.expression()
            self._op(")")
            return E.Count(source)
        if keyword == "mlt":
            stream.index = index + 1
            self._op("(")
            source = self.expression()
            self._op(")")
            return E.Multiplicity(source)
        if keyword == "rename":
            stream.index = index + 1
            self._op("(")
            source = self.expression()
            self._op(",")
            new_name = self._value("NAME")
            attrs = None
            if self._accept_op(","):
                self._op("[")
                names = [self._value("NAME")]
                while self._accept_op(","):
                    names.append(self._value("NAME"))
                self._op("]")
                attrs = tuple(names)
            self._op(")")
            return E.Rename(source, new_name, attrs)
        raise ParseError(
            f"reserved word {name!r} cannot be a relation name "
            f"(position {stream.current.position})"
        )

    def project_item(self) -> E.ProjectItem:
        expr = self.scalar()
        name = None
        if self._accept_keyword("as"):
            name = self._value("NAME")
        return E.ProjectItem(expr, name)

    def set_literal(self) -> E.Literal:
        self._op("{")
        first = len(self.cells)
        rows = []
        if not self._accept_op("}"):
            rows.append(self.tuple_literal())
            while self._accept_op(","):
                rows.append(self.tuple_literal())
            self._op("}")
        return self._literal(rows, first)

    def _literal(self, rows: list, first: int) -> E.Literal:
        literal = E.Literal(tuple(rows))
        self.literals.append((literal, first))
        return literal

    def tuple_literal(self) -> tuple:
        # The bulk of a small transaction's tokens are literal rows: the
        # cursor is read through locals here and written back once.
        self._op("(")
        stream = self.stream
        kinds = self.kinds
        values = self.values
        index = stream.index
        cells = self.cells
        row = []
        while True:
            if kinds[index] in _LITERAL_KINDS:
                row.append(values[index])
                cells.append(index)
                index += 1
            else:
                stream.index = index
                row.append(self.constant())
                start, index = index, stream.index
                negated = index == start + 2 and kinds[start + 1] == "INT"
                cells.append(~(start + 1) if negated else None)
            if values[index] != "," or kinds[index] != "OP":
                break
            index += 1
            if values[index] == ")" and kinds[index] == "OP":
                break  # Python-style trailing comma: (1,)
        stream.index = index
        self._op(")")
        return tuple(row)

    def constant(self):
        stream = self.stream
        index = stream.index
        kind = self.kinds[index]
        value = self.values[index]
        if kind in _LITERAL_KINDS:
            stream.index = index + 1
            return value
        if kind == "NAME":
            keyword = value.lower()
            if keyword in _CONSTANT_WORDS:
                stream.index = index + 1
                return _CONSTANT_WORDS[keyword]
        elif kind == "OP" and value == "-":
            stream.index = index + 1
            value = self.constant()
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return -value
            raise ParseError("'-' must precede a numeric constant")
        token = stream.current
        raise ParseError(
            f"expected a constant at position {token.position}, "
            f"found {token.text!r}"
        )

    def attribute_ref(self):
        stream = self.stream
        index = stream.index
        if self.kinds[index] in ("NAME", "INT"):
            stream.index = index + 1
            return self.values[index]
        raise ParseError(
            f"expected an attribute name or position at {stream.current.position}"
        )

    # -- predicates ----------------------------------------------------------------

    def predicate(self) -> P.Predicate:
        left = self.and_predicate()
        while self._accept_keyword("or"):
            right = self.and_predicate()
            left = P.Or(left, right)
        return left

    def and_predicate(self) -> P.Predicate:
        left = self.unary_predicate()
        while self._accept_keyword("and"):
            right = self.unary_predicate()
            left = P.And(left, right)
        return left

    def unary_predicate(self) -> P.Predicate:
        stream = self.stream
        index = stream.index
        kind = self.kinds[index]
        if kind == "NAME":
            keyword = self.values[index].lower()
            if keyword == "not":
                stream.index = index + 1
                return P.Not(self.unary_predicate())
            if keyword == "isnull":
                stream.index = index + 1
                self._op("(")
                operand = self.scalar()
                self._op(")")
                return P.IsNull(operand)
            if keyword in ("true", "false") and not self._at_comparison_op(index + 1):
                stream.index = index + 1
                return P.TruePred() if keyword == "true" else P.FalsePred()
        elif kind == "OP" and self.values[index] == "(":
            # Could be a parenthesized predicate or a parenthesized scalar
            # beginning a comparison; backtrack on failure.
            stream.index = index + 1
            try:
                inner = self.predicate()
                self._op(")")
                if self._at_comparison_op(stream.index):
                    raise ParseError("scalar context")
                return inner
            except ParseError:
                stream.index = index
        return self.comparison()

    def _at_comparison_op(self, index: int) -> bool:
        return self.kinds[index] == "OP" and self.values[index] in _COMPARISON_OPS

    def comparison(self) -> P.Comparison:
        left = self.scalar()
        stream = self.stream
        index = stream.index
        if not self._at_comparison_op(index):
            token = stream.current
            raise ParseError(
                f"expected a comparison operator at position {token.position}, "
                f"found {token.text!r}"
            )
        op = self.values[index]
        stream.index = index + 1
        right = self.scalar()
        return P.Comparison("!=" if op == "<>" else op, left, right)

    # -- scalar expressions --------------------------------------------------------

    def scalar(self) -> P.ScalarExpr:
        left = self.scalar_term()
        stream = self.stream
        while True:
            index = stream.index
            op = self.values[index]
            if (op != "+" and op != "-") or self.kinds[index] != "OP":
                return left
            stream.index = index + 1
            left = P.Arith(op, left, self.scalar_term())

    def scalar_term(self) -> P.ScalarExpr:
        left = self.scalar_factor()
        stream = self.stream
        while True:
            index = stream.index
            op = self.values[index]
            if (op != "*" and op != "/") or self.kinds[index] != "OP":
                return left
            stream.index = index + 1
            left = P.Arith(op, left, self.scalar_factor())

    def scalar_factor(self) -> P.ScalarExpr:
        stream = self.stream
        index = stream.index
        kind = self.kinds[index]
        value = self.values[index]
        if kind in _LITERAL_KINDS:
            stream.index = index + 1
            return P.Const(value)
        if kind == "NAME":
            stream.index = index + 1
            keyword = value.lower()
            if keyword in _CONSTANT_WORDS:
                return P.Const(_CONSTANT_WORDS[keyword])
            if keyword == "left" or keyword == "right":
                self._op(".")
                return P.ColRef(self.attribute_ref(), keyword)
            return P.ColRef(value, None)
        if kind == "OP" and value == "-":
            stream.index = index + 1
            operand = self.scalar_factor()
            if isinstance(operand, P.Const):
                if isinstance(operand.value, bool):
                    raise ParseError("'-' must precede a numeric constant")
                if isinstance(operand.value, (int, float)):
                    return P.Const(-operand.value)
            return P.Arith("-", P.Const(0), operand)
        if kind == "OP" and value == "(":
            stream.index = index + 1
            inner = self.scalar()
            self._op(")")
            return inner
        token = stream.current
        raise ParseError(
            f"expected a scalar expression at position {token.position}, "
            f"found {token.text!r}"
        )

    # -- statements -------------------------------------------------------------------

    def statement(self) -> S.Statement:
        stream = self.stream
        index = stream.index
        if self.kinds[index] != "NAME":
            token = stream.current
            raise ParseError(
                f"expected a statement at position {token.position}, "
                f"found {token.text!r}"
            )
        name = self.values[index]
        keyword = name.lower()
        if keyword == "insert":
            stream.index = index + 1
            self._op("(")
            relation = self._value("NAME")
            self._op(",")
            source = self.insert_source()
            self._op(")")
            return S.Insert(relation, source)
        if keyword == "delete":
            stream.index = index + 1
            self._op("(")
            relation = self._value("NAME")
            self._op(",")
            if self._accept_keyword("where"):
                predicate = self.predicate()
                source: E.Expression = E.Select(E.RelationRef(relation), predicate)
            else:
                source = self.insert_source()
            self._op(")")
            return S.Delete(relation, source)
        if keyword == "update":
            stream.index = index + 1
            self._op("(")
            relation = self._value("NAME")
            self._op(",")
            predicate = self.predicate()
            assignments = []
            while self._accept_op(","):
                attr = self.attribute_ref()
                self._op(":=")
                assignments.append((attr, self.scalar()))
            self._op(")")
            if not assignments:
                raise ParseError("update needs at least one 'attr := expr'")
            return S.Update(relation, predicate, tuple(assignments))
        if keyword == "alarm":
            stream.index = index + 1
            self._op("(")
            expr = self.expression()
            message: Optional[str] = None
            if self._accept_op(","):
                message = self._value("STRING")
            self._op(")")
            return S.Alarm(expr, message)
        if keyword == "abort":
            stream.index = index + 1
            message = None
            if self.kinds[index + 1] == "STRING":
                message = self._value("STRING")
            return S.Abort(message)
        # assignment: NAME := expr
        if self.kinds[index + 1] == "OP" and self.values[index + 1] == ":=":
            if keyword in _RESERVED:
                raise ParseError(
                    f"reserved word {name!r} cannot be a temporary name"
                )
            stream.index = index + 2
            return S.Assign(name, self.expression())
        raise ParseError(
            f"unknown statement {name!r} at position {stream.current.position}"
        )

    def insert_source(self) -> E.Expression:
        index = self.stream.index
        if self.values[index] == "(" and self.kinds[index] == "OP":
            first = len(self.cells)
            return self._literal([self.tuple_literal()], first)
        return self.expression()

    # -- programs and transactions ------------------------------------------------------

    def program(self, stop_keyword: Optional[str] = None) -> Program:
        statements = []
        stream = self.stream
        kinds = self.kinds
        values = self.values
        while True:
            index = stream.index
            kind = kinds[index]
            if kind == "EOF":
                break
            if stop_keyword and kind == "NAME" and values[index].lower() == stop_keyword:
                break
            statements.append(self.statement())
            if not self._accept_op(";"):
                break
        return Program(statements)

    def transaction(self) -> Transaction:
        self._keyword("begin")
        body = self.program(stop_keyword="end")
        self._keyword("end")
        return bracket(body)


def _parse(text: str, production):
    """Run one production of the grammar over the whole of ``text``."""
    return _run(_Parser(text), production)


def _run(parser: _Parser, production):
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
    parser._accept_op(";")
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


# -- transaction shapes ------------------------------------------------------------

#: The runs a shape leaves open: ASCII digit runs and quoted strings without
#: a backslash.  Splitting a text on them is one C-level pass (the lookahead
#: lets the engine skip to a run's first character); the segments between
#: the runs, whitespace and comments included, are its shape.
_RUNS = re.compile(r"""(?=[0-9"'])([0-9]+|"[^"\\]*"|'[^'\\]*')""")


def _negated(run: str) -> int:
    return -int(run)


def _quoted(run: str) -> str:
    if run[0] not in "\"'":
        raise ValueError(f"{run!r} is not a string literal")
    return run[1:-1]


_CONVERTERS = {"INT": int, "STRING": _quoted}


class TransactionShape:
    """A parsed transaction whose literal rows are slots for the next text
    of its shape.

    A text splits into runs (``_RUNS``) and the segments between them; the
    segments are the key a shape is filed under.  A run is a *slot* when
    the parse placed its token verbatim into a row of a literal that is a
    statement's source (an INT, possibly negated, or a STRING).  Every other
    run (digits in a name, a float's parts, a positional attribute, a
    message, a comment) is *fixed*: a text binds only if its fixed runs are
    this text's, character for character.  Such a text lexes token for
    token as this one did, with only the slot tokens' values changed, so
    its parse differs from this one only in those values: :meth:`bind`
    converts them and rebuilds the spine that holds them (transaction,
    program, statement, literal), sharing every other statement.
    """

    __slots__ = ("statements", "rebuilds", "fixed", "fixed_runs")

    def __init__(self, transaction: Transaction, parser: _Parser, parts: list):
        stream = parser.stream
        run_at = {}
        start = 0
        for number, part in enumerate(parts):
            if number % 2:
                run_at[start] = number
            start += len(part)

        def slot(cell):
            """``(part number, converter)`` of a cell's run, or None."""
            if cell is None:
                return None
            token = stream.token(cell if cell >= 0 else ~cell)
            number = run_at.get(token.position)
            convert = _CONVERTERS.get(token.kind)
            if number is None or convert is None or parts[number] != token.text:
                return None
            return number, convert if cell >= 0 else _negated

        firsts = {id(literal): first for literal, first in parser.literals}
        cells = parser.cells
        self.statements = transaction.statements
        self.rebuilds = []
        slotted = set()
        for position, statement in enumerate(self.statements):
            if type(statement) not in (S.Insert, S.Delete):
                continue
            literal = statement.expr
            first = firsts.get(id(literal))
            if first is None:
                continue
            rows = []
            for row in literal.rows:
                slots = []
                for column in range(len(row)):
                    found = slot(cells[first + column])
                    if found is not None:
                        slots.append((column, *found))
                        slotted.add(found[0])
                first += len(row)
                rows.append((row, tuple(slots)))
            if any(slots for _, slots in rows):
                make = partial(type(statement), statement.relation)
                self.rebuilds.append((position, make, rows))
        fixed = [n for n in range(1, len(parts), 2) if n not in slotted]
        self.fixed = itemgetter(*fixed) if fixed else None
        self.fixed_runs = self.fixed(parts) if fixed else None

    def bind(self, parts: list) -> Optional[Transaction]:
        """The transaction of the text split into ``parts`` (its key is this
        shape's), or None when its fixed runs differ or a slot's run does
        not convert (an integer too long, a string where an integer was)."""
        if self.fixed is not None and self.fixed(parts) != self.fixed_runs:
            return None
        statements = list(self.statements)
        for position, make, rows in self.rebuilds:
            built = []
            for row, slots in rows:
                if slots:
                    row = list(row)
                    for column, number, convert in slots:
                        try:
                            row[column] = convert(parts[number])
                        except ValueError:
                            return None
                    row = tuple(row)
                built.append(row)
            statements[position] = make(E.Literal(tuple(built)))
        return bracket(Program(statements))


def shaped_transaction(text: str, shapes) -> Transaction:
    """Parse a ``begin ... end`` transaction, or bind it into the
    :class:`TransactionShape` filed for its shape in ``shapes`` (a
    :class:`~repro.bounded.BoundedTable`).

    A text of a shape not yet filed is parsed in full, and its shape filed;
    one that fails to parse files nothing.  A text that does not bind into
    its filed shape is parsed in full too, so an error keeps the type,
    message and position :func:`parse_transaction` gives it.
    """
    parts = _RUNS.split(text)
    key = tuple(parts[0::2])
    shape = shapes.get(key)
    if shape is not None:
        transaction = shape.bind(parts)
        return transaction if transaction is not None else parse_transaction(text)
    parser = _Parser(text)
    transaction = _run(parser, _Parser.transaction)
    shapes.file(key, TransactionShape(transaction, parser, parts))
    return transaction
