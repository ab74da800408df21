"""Parser for the constraint language CL.

The concrete syntax accepts both plain ASCII and the paper's symbols:

.. code-block:: text

    (forall x)(x in beer => x.alcohol >= 0)
    (∀x)(x ∈ beer ⇒ x.alcohol ≥ 0)                     # same constraint
    (forall x in beer)(exists y in brewery)(x.brewery = y.name)
    (forall x, y)((x in emp and y in emp and x.dept = y.dept)
                  => x.grade <= y.grade + 2)
    CNT(beer) <= 1000
    SUM(account, balance) >= 0

Grammar (informal):

.. code-block:: text

    wff       := implication
    implication := disjunction [ '=>' implication ]        (right assoc)
    disjunction := conjunction { 'or' conjunction }
    conjunction := unary { 'and' unary }
    unary     := 'not' unary | quantified | group | atom
    quantified := '(' ('forall'|'exists') vars ['in' REL] ')' '(' wff ')'
    vars      := NAME { ',' NAME }
    atom      := NAME 'in' REL | term cmp term
    term      := arithmetic over: const | NAME '.' attr |
                 AGG '(' REL ',' attr ')' | CNT/MLT '(' REL ')'

A bounded quantifier ``(forall x in R)(W)`` desugars to
``(forall x)(x in R => W)``; ``(exists x in R)(W)`` to
``(exists x)(x in R and W)``; a variable list quantifies each variable in
turn, all bounded by the same relation when ``in REL`` is present.  A
comparison between two bare variables parses as tuple equality (Def 4.3).
"""

from __future__ import annotations

from typing import List

from repro.calculus import ast as C
from repro.errors import ParseError
from repro.lex import TokenStream

_CMP_OPS = ("<", "<=", "=", "!=", "<>", ">=", ">")
_RESERVED = frozenset(
    ["forall", "exists", "and", "or", "not", "in", "true", "false", "null"]
)


class _Parser:
    def __init__(self, text: str):
        self.stream = TokenStream(text)

    # -- formulas ---------------------------------------------------------------

    def wff(self) -> C.Formula:
        left = self.disjunction()
        if self.stream.accept("OP", "=>"):
            right = self.wff()  # right-associative
            return C.Implies(left, right)
        return left

    def disjunction(self) -> C.Formula:
        left = self.conjunction()
        while self.stream.accept_name("or"):
            left = C.Or(left, self.conjunction())
        return left

    def conjunction(self) -> C.Formula:
        left = self.unary()
        while self.stream.accept_name("and"):
            left = C.And(left, self.unary())
        return left

    def unary(self) -> C.Formula:
        stream = self.stream
        if stream.accept_name("not"):
            return C.Not(self.unary())
        if stream.at("OP", "("):
            ahead = stream.peek()
            if ahead.kind == "NAME" and ahead.value.lower() in ("forall", "exists"):
                return self.quantified()
            # '(' may open a sub-formula or a parenthesized term; backtrack.
            mark = stream.index
            stream.advance()
            try:
                inner = self.wff()
                stream.expect("OP", ")")
                if self._at_cmp_or_arith():
                    raise ParseError("term context")
                return inner
            except ParseError:
                stream.index = mark
        return self.atom()

    def _at_cmp_or_arith(self) -> bool:
        token = self.stream.current
        return token.kind == "OP" and token.value in _CMP_OPS + ("+", "-", "*", "/")

    def quantified(self) -> C.Formula:
        stream = self.stream
        stream.expect("OP", "(")
        kind = stream.expect_name("forall", "exists").value.lower()
        variables: List[str] = [self._variable()]
        while stream.accept("OP", ","):
            variables.append(self._variable())
        bound_relation = None
        if stream.accept_name("in"):
            bound_relation = stream.expect("NAME").value
        stream.expect("OP", ")")
        stream.expect("OP", "(")
        if stream.at_name("forall", "exists"):
            # Chained form (forall x)(exists y)(...): the '(' just consumed
            # opens the next quantifier group, not a plain body.  Rewind and
            # parse the chained quantifier as the whole body.
            stream.index -= 1
            body = self.quantified()
        else:
            body = self.wff()
            stream.expect("OP", ")")
        make = C.forall_in if kind == "forall" else C.exists_in
        plain = C.Forall if kind == "forall" else C.Exists
        result = body
        for var in reversed(variables):
            if bound_relation is not None:
                result = make(var, bound_relation, result)
            else:
                result = plain(var, result)
        return result

    def _variable(self) -> str:
        token = self.stream.expect("NAME")
        if token.value.lower() in _RESERVED:
            raise ParseError(
                f"reserved word {token.value!r} cannot be a variable name"
            )
        return token.value

    def atom(self) -> C.Formula:
        stream = self.stream
        # Membership: NAME in REL
        if stream.at("NAME") and stream.peek().kind == "NAME":
            ahead = stream.peek()
            if (
                ahead.value.lower() == "in"
                and stream.current.value.lower() not in _RESERVED
            ):
                var = stream.advance().value
                stream.advance()  # 'in'
                relation = stream.expect("NAME").value
                return C.Member(var, relation)
        left = self.term()
        token = stream.current
        if token.kind != "OP" or token.value not in _CMP_OPS:
            raise ParseError(
                f"expected a comparison operator at position {token.position}, "
                f"found {token.text or 'end of input'!r}"
            )
        op = "!=" if token.value == "<>" else token.value
        stream.advance()
        right = self.term()
        # A bare-variable equality is tuple equality (Def 4.3).
        if (
            op == "="
            and isinstance(left, C.AttrSel)
            and isinstance(right, C.AttrSel)
        ):
            pass  # attribute selections stay arithmetic comparisons
        if op == "=" and isinstance(left, _BareVar) and isinstance(right, _BareVar):
            return C.TupleEq(left.name, right.name)
        if isinstance(left, _BareVar) or isinstance(right, _BareVar):
            raise ParseError(
                "a bare tuple variable can only be compared with '=' to "
                "another tuple variable"
            )
        return C.Compare(op, left, right)

    # -- terms -----------------------------------------------------------------

    def term(self) -> C.Term:
        left = self.term_addend()
        while self.stream.at("OP", "+") or self.stream.at("OP", "-"):
            op = self.stream.advance().value
            right = self.term_addend()
            left = C.ArithTerm(op, _devar(left), _devar(right))
        return left

    def term_addend(self) -> C.Term:
        left = self.term_factor()
        while self.stream.at("OP", "*") or self.stream.at("OP", "/"):
            op = self.stream.advance().value
            right = self.term_factor()
            left = C.ArithTerm(op, _devar(left), _devar(right))
        return left

    def term_factor(self) -> C.Term:
        stream = self.stream
        token = stream.current
        if token.kind in ("INT", "FLOAT", "STRING"):
            stream.advance()
            return C.Const(token.value)
        if stream.accept("OP", "-"):
            operand = self.term_factor()
            if isinstance(operand, C.Const):
                if isinstance(operand.value, bool):
                    raise ParseError("'-' must precede a numeric constant")
                if isinstance(operand.value, (int, float)):
                    return C.Const(-operand.value)
            return C.ArithTerm("-", C.Const(0), _devar(operand))
        if stream.accept("OP", "("):
            inner = self.term()
            stream.expect("OP", ")")
            return inner
        if token.kind == "NAME":
            upper = token.value.upper()
            lower = token.value.lower()
            if upper in C.AGGREGATE_FUNCS:
                stream.advance()
                stream.expect("OP", "(")
                relation = stream.expect("NAME").value
                stream.expect("OP", ",")
                attr = self._attr()
                stream.expect("OP", ")")
                return C.AggTerm(upper, relation, attr)
            if upper in C.COUNTING_FUNCS:
                stream.advance()
                stream.expect("OP", "(")
                relation = stream.expect("NAME").value
                stream.expect("OP", ")")
                if upper == "CNT":
                    return C.CntTerm(relation)
                return C.MltTerm(relation)
            if lower == "true":
                stream.advance()
                return C.Const(True)
            if lower == "false":
                stream.advance()
                return C.Const(False)
            if lower == "null":
                stream.advance()
                from repro.engine.types import NULL

                return C.Const(NULL)
            if lower in _RESERVED:
                raise ParseError(
                    f"reserved word {token.value!r} cannot start a term "
                    f"(position {token.position})"
                )
            stream.advance()
            if stream.accept("OP", "."):
                attr = self._attr()
                return C.AttrSel(token.value, attr)
            return _BareVar(token.value)
        raise ParseError(
            f"expected a term at position {token.position}, "
            f"found {token.text or 'end of input'!r}"
        )

    def _attr(self):
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


class _BareVar(C.Term):
    """Parser-internal: a bare variable awaiting tuple-equality context."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


def _devar(term: C.Term) -> C.Term:
    if isinstance(term, _BareVar):
        raise ParseError(
            f"tuple variable {term.name!r} cannot appear in arithmetic; "
            f"select an attribute (e.g. {term.name}.1)"
        )
    return term


def parse_constraint(text: str) -> C.Formula:
    """Parse a CL well-formed formula from text."""
    parser = _Parser(text)
    try:
        formula = parser.wff()
    except RecursionError:
        raise ParseError(
            "nesting too deep: the formula nests further than the parser can "
            f"recurse (near position {parser.stream.current.position})"
        ) from None
    parser.stream.expect_eof()
    return formula
