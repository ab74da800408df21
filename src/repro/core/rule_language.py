"""Parser for the integrity rule language RL (paper Def 4.7).

Concrete syntax (keywords case-insensitive, sections in this order):

.. code-block:: text

    [RULE name]
    [WHEN INS(rel), DEL(rel), ...]
    IF NOT <CL constraint>
    [THEN abort | THEN [NONTRIGGERING] <algebra program>]

Omitted ``WHEN`` means the trigger set is generated from the condition
(Alg 5.7 — the paper recommends this as "more convenient and less
error-prone").  Omitted ``THEN`` defaults to ``abort``.  The
``NONTRIGGERING`` marker declares the compensating program non-triggering
(Def 6.2), the cycle-breaking device of Section 6.1.

The paper's Example 4.2, verbatim in this syntax:

.. code-block:: text

    RULE R2
    WHEN INS(beer), DEL(brewery)
    IF NOT (forall x)(x in beer =>
            (exists y)(y in brewery and x.brewery = y.name))
    THEN temp := diff(project(beer, [brewery]), project(brewery, [name]));
         insert(brewery, project(temp, [brewery as name, null, null]))
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.algebra.parser import parse_program
from repro.calculus.parser import parse_constraint
from repro.core.rules import ABORT_ACTION, IntegrityRule
from repro.core.triggers import make_trigger_set
from repro.errors import ParseError
from repro.lex import Token, tokenize

_OPENING = ("(", "[", "{")
_CLOSING = (")", "]", "}")


def parse_rule(text: str, name: Optional[str] = None) -> IntegrityRule:
    """Parse one RL rule."""
    tokens = tokenize(text)
    index = 0

    def current() -> Token:
        return tokens[index]

    def at_keyword(*words: str) -> bool:
        token = tokens[index]
        return token.kind == "NAME" and token.value.lower() in words

    # -- optional RULE name ---------------------------------------------------
    if at_keyword("rule"):
        index += 1
        if current().kind != "NAME":
            raise ParseError("expected a rule name after RULE")
        name = current().value
        index += 1

    # -- optional WHEN clause ---------------------------------------------------
    triggers = None
    if at_keyword("when"):
        index += 1
        specs: List[Tuple[str, str]] = []
        while True:
            if current().kind != "NAME" or current().value.upper() not in (
                "INS",
                "DEL",
            ):
                raise ParseError(
                    f"expected INS or DEL in WHEN clause, found "
                    f"{current().text!r}"
                )
            kind = current().value.upper()
            index += 1
            if not (current().kind == "OP" and current().value == "("):
                raise ParseError("expected '(' after update type")
            index += 1
            if current().kind != "NAME":
                raise ParseError("expected a relation name in trigger")
            relation = current().value
            index += 1
            if not (current().kind == "OP" and current().value == ")"):
                raise ParseError("expected ')' after trigger relation")
            index += 1
            specs.append((kind, relation))
            if current().kind == "OP" and current().value == ",":
                index += 1
                continue
            break
        triggers = make_trigger_set(specs)

    # -- IF NOT <condition> ------------------------------------------------------
    if not at_keyword("if"):
        raise ParseError("expected IF NOT <condition> in rule")
    index += 1
    if not at_keyword("not"):
        raise ParseError("expected NOT after IF (rules are 'IF NOT c')")
    index += 1
    condition_start = current().position

    # The condition extends to the first depth-0 THEN keyword (or the end).
    depth = 0
    then_index = None
    scan = index
    while tokens[scan].kind != "EOF":
        token = tokens[scan]
        if token.kind == "OP" and token.value in _OPENING:
            depth += 1
        elif token.kind == "OP" and token.value in _CLOSING:
            depth -= 1
        elif (
            token.kind == "NAME"
            and token.value.lower() == "then"
            and depth == 0
        ):
            then_index = scan
            break
        scan += 1
    if then_index is None:
        condition_text = text[condition_start:]
        action_tokens_start = None
    else:
        condition_text = text[condition_start : tokens[then_index].position]
        action_tokens_start = then_index + 1
    condition = parse_constraint(condition_text)

    # -- THEN action ---------------------------------------------------------------
    action = ABORT_ACTION
    non_triggering = False
    if action_tokens_start is not None:
        index = action_tokens_start
        if tokens[index].kind == "EOF":
            raise ParseError("THEN clause is empty")
        if (
            tokens[index].kind == "NAME"
            and tokens[index].value.lower() == "abort"
            and tokens[index + 1].kind == "EOF"
        ):
            action = ABORT_ACTION
        else:
            if (
                tokens[index].kind == "NAME"
                and tokens[index].value.lower() in ("nontriggering", "non_triggering")
            ):
                non_triggering = True
                index += 1
            program_text = text[tokens[index].position :]
            program = parse_program(program_text)
            if program.is_empty:
                raise ParseError("THEN clause is empty")
            action = program

    return IntegrityRule(
        condition,
        action=action,
        triggers=triggers,
        name=name,
        non_triggering=non_triggering,
    )


def parse_rules(text: str) -> List[IntegrityRule]:
    """Parse several rules, each after the first under its own header.

    The text is split where a rule header starts: the keyword ``RULE``
    outside all brackets, followed by a name and ``WHEN`` or ``IF``.  Any
    other ``rule`` — a relation, an attribute, a variable, a temporary —
    is part of the rule it stands in.  Only the first rule may go without
    a header.
    """
    tokens = tokenize(text)
    starts = []
    depth = 0
    for index, token in enumerate(tokens):
        if token.kind == "OP":
            depth += (token.value in _OPENING) - (token.value in _CLOSING)
        elif (
            depth == 0
            and token.kind == "NAME"
            and token.value.lower() == "rule"
            and tokens[index + 1].kind == "NAME"
            and tokens[index + 2].kind == "NAME"
            and tokens[index + 2].value.lower() in ("when", "if")
        ):
            starts.append(token.position)
    if not starts or starts[0] != tokens[0].position:
        starts.insert(0, 0)
    ends = starts[1:] + [len(text)]
    return [parse_rule(text[start:end]) for start, end in zip(starts, ends)]
