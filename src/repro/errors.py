"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  The hierarchy mirrors the layers of
the system: schema/engine errors, language (parse/analysis) errors,
transaction outcomes, and integrity-subsystem errors.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Engine layer
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A schema definition is invalid (duplicate names, bad domain, ...)."""


class TypeMismatchError(ReproError):
    """A value or expression does not match the expected domain/type."""


class UnknownRelationError(ReproError):
    """A referenced relation does not exist in the database (or context)."""

    def __init__(self, name: str, context: str = "database"):
        super().__init__(f"unknown relation {name!r} in {context}")
        self.name = name


class UnknownAttributeError(ReproError):
    """A referenced attribute does not exist in a relation schema."""

    def __init__(self, attribute: object, relation: str = "?"):
        super().__init__(f"unknown attribute {attribute!r} of relation {relation!r}")
        self.attribute = attribute
        self.relation = relation


class DuplicateRelationError(SchemaError):
    """A relation with the same name already exists."""


class WalError(ReproError):
    """A durable commit-log operation failed (I/O, missing checkpoint, ...)."""


class EpochUnavailableError(ReproError):
    """A pinned epoch's reconstruction window was reclaimed.

    Raised when a reader asks for a fresh snapshot view of an epoch whose
    retained differentials were already garbage-collected — only possible
    after the pin was released.  Already-materialized snapshot relations
    are never affected.

    ``version`` is the commit-stream version that can no longer be
    reconstructed; ``epoch`` is its public epoch (commit sequence) when
    the raiser knows it — from a pin — and None when it only has the
    version.
    """

    def __init__(self, version: int, epoch: Optional[int] = None):
        if epoch is None:
            what = f"stream version {version}"
        else:
            what = f"epoch #{epoch} (stream version {version})"
        super().__init__(f"{what} is no longer reconstructible")
        self.version = version
        self.epoch = epoch


class ForeignSnapshotError(ReproError):
    """``Database.restore`` was given something other than a snapshot of
    that database: there is no batch to invert back to it."""


class OutOfBandMutationError(ReproError):
    """A database's base relation was written outside the commit stream.

    Every change to a base relation is one ``Database.apply_deltas`` batch
    (a commit, a ``load``, a ``restore``), which is what lets pinned
    readers reconstruct their state.  A direct ``insert``/``delete``/
    ``clear`` on ``database.relation(name)`` raises this before any row
    changes.
    """

    def __init__(self):
        super().__init__(
            "a database's base relation changes only through the commit "
            "stream: use load, apply_deltas or a transaction"
        )


class WalCorruptionError(WalError):
    """The durable commit log is corrupt beyond tail repair.

    Raised when a record in a *sealed* region fails its CRC, when a
    record's stored predecessor hash does not match the chain, or when a
    segment header is damaged — i.e. whenever recovery cannot prove the
    surviving prefix is exactly some commit boundary.  Carries the segment
    file name and byte offset of the first broken link.
    """

    def __init__(self, segment: str, offset: int, reason: str):
        super().__init__(f"{segment} @ byte {offset}: {reason}")
        self.segment = segment
        self.offset = offset
        self.reason = reason


# ---------------------------------------------------------------------------
# Language layer (CL constraint calculus, RL rules, algebra text forms)
# ---------------------------------------------------------------------------


class LanguageError(ReproError):
    """Base class for lexing/parsing/analysis errors."""


class LexError(LanguageError):
    """Invalid token in an input text."""

    def __init__(self, message: str, position: int, text: str):
        snippet = text[max(0, position - 20) : position + 20]
        super().__init__(f"{message} at position {position}: ...{snippet!r}...")
        self.position = position


class ParseError(LanguageError):
    """Input text does not conform to the grammar."""


class AnalysisError(LanguageError):
    """A well-formed formula fails a static check (safety, typing, scope)."""


class UnsafeFormulaError(AnalysisError):
    """A CL formula is not range-restricted (quantifier without a range)."""


class EvaluationError(ReproError):
    """A runtime error while evaluating an algebra or calculus expression
    (division by zero, aggregate over an empty relation, ...)."""


# ---------------------------------------------------------------------------
# Transaction layer
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction-execution problems."""


class TransactionAborted(TransactionError):
    """Raised internally to signal a transaction abort.

    User code normally observes aborts through
    :class:`repro.engine.transaction.TransactionResult`; this exception is the
    internal control-flow signal (raised by the ``abort`` statement and by
    ``alarm`` statements whose argument is non-empty).
    """

    def __init__(self, reason: str = "transaction aborted"):
        super().__init__(reason)
        self.reason = reason


class NoActiveTransactionError(TransactionError):
    """An operation that requires an open transaction found none."""


class NestedTransactionError(TransactionError):
    """A transaction was started while another one was active."""


# ---------------------------------------------------------------------------
# Integrity subsystem
# ---------------------------------------------------------------------------


class IntegrityError(ReproError):
    """Base class for integrity-subsystem errors."""


class ConstraintViolation(IntegrityError):
    """A constraint check failed (used by the direct-evaluation checker)."""

    def __init__(self, constraint_name: str, detail: str = ""):
        message = f"constraint {constraint_name!r} violated"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.constraint_name = constraint_name


class TriggerCycleError(IntegrityError):
    """The triggering graph of a rule set contains a cycle (Def 6.1)."""

    def __init__(self, cycles: list):
        names = "; ".join(" -> ".join(cycle) for cycle in cycles)
        super().__init__(f"triggering graph contains cycle(s): {names}")
        self.cycles = cycles


class RuleError(IntegrityError):
    """An integrity rule is malformed or cannot be translated."""


class TranslationError(IntegrityError):
    """A CL condition cannot be translated to the extended algebra."""


class FragmentationError(ReproError):
    """A fragmentation specification is invalid or inconsistent."""
