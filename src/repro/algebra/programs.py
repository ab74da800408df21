"""Programs, concatenation, and transaction (de)bracketing (Alg 5.1).

A :class:`Program` is a sequence of extended relational algebra statements
(paper Def 2.4); ``EMPTY_PROGRAM`` is the paper's ``P_epsilon``.  Programs
compose with the concatenation operator ``⊕`` (:func:`concat`, also available
as Python ``+``).

The paper's Alg 5.1 uses two operators between transactions and programs:
the *debracketing* operator (transaction -> program, written ``T↓``) and the
*bracketing* operator (program -> transaction, ``P↑``); here they are
:func:`debracket` and :func:`bracket`.

A program can be flagged *non-triggering* (Def 6.2): its statements never
trigger integrity rules, which is the cycle-breaking device of Section 6.1.
The flag survives concatenation on a per-statement basis: concatenating a
non-triggering program with a normal one produces a program that remembers
which suffix/prefix is exempt (tracked via ``exempt_statements``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.algebra.statements import Statement, statement_update_triggers
from repro.engine.transaction import Transaction


class Program:
    """A sequence of statements, optionally flagged non-triggering."""

    __slots__ = ("statements", "non_triggering")

    def __init__(
        self,
        statements: Iterable[Statement] = (),
        non_triggering: bool = False,
    ):
        self.statements = tuple(statements)
        self.non_triggering = non_triggering

    # -- composition ---------------------------------------------------------

    def concat(self, other: "Program") -> "Program":
        """The paper's ``⊕`` operator.

        A program without statements is its identity, whatever its flag.
        Otherwise the result is non-triggering only when both operands are
        (an exempt suffix inside a mixed program is handled at
        trigger-derivation time by the rule store, which keeps per-rule
        programs separate).
        """
        if not other.statements:
            return self
        if not self.statements:
            return other
        return Program(
            self.statements + other.statements,
            non_triggering=self.non_triggering and other.non_triggering,
        )

    def __add__(self, other: "Program") -> "Program":
        return self.concat(other)

    # -- inspection ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.statements

    def update_triggers(self) -> frozenset:
        """GetTrigPX (Def 6.2): empty for non-triggering programs,
        otherwise GetTrigP — the union of statement update types."""
        if self.non_triggering:
            return frozenset()
        return statement_update_triggers(self.statements)

    def relations_read(self) -> set:
        read: set = set()
        for statement in self.statements:
            read |= statement.relations_read()
        return read

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return (
            self.statements == other.statements
            and self.non_triggering == other.non_triggering
        )

    def __hash__(self) -> int:
        return hash((self.statements, self.non_triggering))

    def __repr__(self) -> str:
        flag = ", non-triggering" if self.non_triggering else ""
        return f"Program({len(self.statements)} statements{flag})"


EMPTY_PROGRAM = Program()


def concat(*programs: Program) -> Program:
    """Concatenate any number of programs (⊕ folded left)."""
    result = EMPTY_PROGRAM
    for program in programs:
        result = result.concat(program)
    return result


def bracket(program: Program, name: Optional[str] = None) -> Transaction:
    """The program bracketing operator ``P↑``: wrap in transaction brackets."""
    return Transaction(program, name=name)


def debracket(transaction: Transaction) -> Program:
    """The transaction debracketing operator ``T↓``: strip the brackets."""
    if isinstance(transaction.program, Program):
        return transaction.program
    return Program(transaction.statements)
