"""The alarm as it ran before emptiness tests: the oracle of ``Alarm``.

Before ``Alarm.violations``, an ``alarm`` statement built its whole
violation relation to ask whether it was empty.  :class:`MaterialisingAlarm`
is that statement, kept verbatim as the reference ``Alarm.execute`` must
agree with, and :func:`as_before` puts it in place of every alarm of a
transaction — a ``TransactionManager`` modifier, so both run through the
same statement loop: same outcome, same reason text, same
``statements_executed``, same error, same final state and the same index
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra import planner
from repro.algebra.statements import Alarm, Statement
from repro.engine.transaction import Transaction
from repro.errors import TransactionAborted


@dataclass(frozen=True)
class MaterialisingAlarm(Statement):
    """``alarm(E)`` as it ran: evaluate E, abort when it has a row."""

    alarm: Alarm

    def execute(self, context) -> None:
        result = planner.evaluate(self.alarm.expr, context)
        if len(result) > 0:
            reason = self.alarm.message or "integrity alarm"
            sample = result.sorted_rows()[:3]
            raise TransactionAborted(
                f"{reason} ({len(result)} violating tuple(s), e.g. {sample})"
            )


def as_before(transaction: Transaction) -> Transaction:
    """``transaction`` with each alarm evaluated as it was."""
    return Transaction(
        tuple(
            MaterialisingAlarm(statement) if type(statement) is Alarm else statement
            for statement in transaction.statements
        ),
        name=transaction.name,
    )
