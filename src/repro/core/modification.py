"""Transaction modification: ModT / ModP / TrigP (paper Algs 5.1-5.3, 6.2).

The central recursion of the paper::

    ModT(T, J)  =  ModP(T↓, J)↑

    ModP(P, J)  =  P                          if TrigP(P, J) = Pε
                   P ⊕ ModP(TrigP(P, J), J)   otherwise

``TrigP`` produces the integrity-control program for the updates performed
by ``P``; because that program may itself contain updates, it is modified
recursively until a fixpoint (an appended program that triggers no rules).

Two selector back-ends implement ``TrigP``:

* :class:`DynamicSelector` — Alg 5.2/5.3 verbatim: ``SelRS`` picks the rules
  whose trigger set meets ``GetTrigP(P)``, and ``TrOptRS`` optimizes and
  translates them *on every modification* — the naive scheme the paper
  improves upon in §6.2;
* :class:`StaticSelector` — Alg 6.2: rules were compiled to integrity
  programs at definition time; ``SelPS``/``ConcatP`` just look them up.

The memo.  ``ModP(P, J) = P ⊕ rounds(GetTrigPX(P), J)``: the recursion
reads ``P`` only through the update types it performs (:func:`mod_rounds`),
and with precompiled programs (Alg 6.2) each round is a function of a
trigger set and the rule store alone.  So everything a modification
appends is derived once per *trigger set* and kept by the store
(:meth:`~repro.core.programs.IntegrityProgramStore.modification`; key =
``GetTrigPX(T↓)``, dropped when a program is added or removed), and
:func:`mod_t_memoised` is one ``GetTrigPX``, one dictionary probe and one
tuple concatenation — §6.2's "modification is just look-ups" taken to its
end.  It is the one path
:meth:`~repro.core.subsystem.IntegrityController.modify_transaction`
takes.  A cyclic store stores nothing and raises on every call.
:func:`mod_t` / :func:`mod_p` with a selector stay the unmemoised
algorithm: over a :class:`StaticSelector` the reference the memo is tested
against, over a :class:`DynamicSelector` the paper's per-modification
scheme, kept for comparison by the benchmarks and the parity suites.

Both selectors return the appended pieces individually — ``(rule name,
program, is it the rule's full-state program)`` — so the recursion can honour
per-piece non-triggering flags (Def 6.2) even after concatenation.

Termination: on an acyclic triggering graph the recursion reaches a
fixpoint; a cyclic rule set would recurse forever, so ``mod_p`` enforces a
round limit and reports the offending rules (Section 6.1 recommends
validating the graph up front — see
:mod:`repro.core.triggering_graph`).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import List, Optional, Sequence, Tuple

from repro.algebra.programs import Program, bracket, concat, debracket
from repro.core.triggers import TriggerSet, get_trig_px
from repro.engine.schema import DatabaseSchema
from repro.engine.transaction import Transaction
from repro.errors import IntegrityError

DEFAULT_MAX_ROUNDS = 64


@dataclass
class ModificationStats:
    """Observability of one ModT run (consumed by benches and tests).

    The name fields are tuples.  A record the program store files in its
    memo is :meth:`freeze`-d, so every caller handed it reads the same
    numbers and none can change them.
    """

    rounds: int = 0
    rules_selected: int = 0
    statements_appended: int = 0
    selected_rule_names: Tuple[str, ...] = ()
    # Appended residue checks (CheckConstraint statements, evaluated by the
    # model checker; see repro.calculus.planned) and the rules they check.
    fallback_statements: int = 0
    fallback_rule_names: Tuple[str, ...] = ()
    # Rules whose stored full-state program was appended as is, there being
    # no differential variant of it (aggregates, compensating actions that
    # read no violation expression of their condition, everything under
    # ``differential=False``): the enforcement work that can scale with |R|
    # instead of |Δ|.
    full_state_rule_names: Tuple[str, ...] = ()

    def freeze(self) -> "ModificationStats":
        """Make this record read-only; returns it."""
        object.__setattr__(self, "_frozen", True)
        return self

    def __setattr__(self, name: str, value) -> None:
        if "_frozen" in self.__dict__:
            raise FrozenInstanceError(
                f"cannot assign to field {name!r} of a filed ModificationStats"
            )
        object.__setattr__(self, name, value)


class DynamicSelector:
    """Alg 5.2/5.3: select, optimize, and translate rules per modification.

    ``SelRS(P, J) = {J in J | triggers(J) ∩ GetTrigP(P) ≠ ∅}`` followed by
    ``TrOptRS``: per-rule ``TransR(OptR(J))``, concatenated.
    """

    def __init__(self, rules: Sequence, db: DatabaseSchema, optimize: bool = True):
        self.rules = list(rules)
        self.db = db
        self.optimize = optimize

    def select(
        self, performed: TriggerSet, deferred: bool = False
    ) -> List[Tuple[str, Program, bool]]:
        from repro.core.optimization import opt_r
        from repro.core.translation import trans_r

        pieces: List[Tuple[str, Program, bool]] = []
        if deferred:
            return pieces  # rules are never deferred
        for rule in self.rules:
            if rule.triggers & performed:
                candidate = opt_r(rule) if self.optimize else rule
                program = trans_r(candidate, self.db)
                if self.optimize:
                    from repro.algebra.optimizer import optimize_program

                    program = optimize_program(program)
                pieces.append((rule.name, program, True))
        return pieces


class StaticSelector:
    """Alg 6.2: look up precompiled integrity programs (SelPS/ConcatP)."""

    def __init__(self, store):
        self.store = store

    def select(
        self, performed: TriggerSet, deferred: bool = False
    ) -> List[Tuple[str, Program, bool]]:
        """The pieces the stored programs append for ``performed``: those of
        the rules, or with ``deferred`` those of the deferred programs."""
        pieces: List[Tuple[str, Program, bool]] = []
        for integrity_program in self.store:
            if integrity_program.deferred != deferred:
                continue
            matched = integrity_program.triggers & performed
            if matched:
                piece = integrity_program.action_for(matched)
                if not piece.is_empty:
                    pieces.append(
                        (
                            integrity_program.name,
                            piece,
                            piece is integrity_program.program,
                        )
                    )
        return pieces


def mod_rounds(
    performed: TriggerSet,
    selector,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stats: Optional[ModificationStats] = None,
) -> Optional[Program]:
    """The rounds of ModP (Alg 5.1) for a program performing ``performed``.

    Returns the concatenation of everything the rounds append, or None
    when nothing triggers (the fixpoint is the program itself).  The
    deferred programs (view maintenance) follow the fixpoint, for every
    update type performed anywhere: a view's pieces read the net delta
    against a view still in its pre-state, so they follow the last write.
    """
    appended: List[Program] = []
    performed_anywhere = performed
    rounds = 0
    while performed:
        pieces = selector.select(performed)
        if not pieces:
            break
        rounds += 1
        if rounds > max_rounds:
            names = sorted({name for name, _, _ in pieces})
            raise IntegrityError(
                f"transaction modification did not reach a fixpoint after "
                f"{max_rounds} rounds; rules still triggering: {names} "
                f"(cyclic triggering graph? see TriggeringGraph.validate)"
            )
        if stats is not None:
            stats.rounds = rounds
        _append(pieces, appended, stats)
        # The next round reacts to the updates of the appended pieces only,
        # respecting each piece's own non-triggering flag.
        performed = frozenset().union(
            *[get_trig_px(piece) for _, piece, _ in pieces]
        )
        performed_anywhere |= performed
    _append(selector.select(performed_anywhere, deferred=True), appended, stats)
    return concat(*appended) if appended else None


def _append(pieces, appended: List[Program], stats) -> None:
    appended.extend(piece for _, piece, _ in pieces)
    if stats is None:
        return
    from repro.core.translation import CheckConstraint

    stats.rules_selected += len(pieces)
    stats.selected_rule_names += tuple(name for name, _, _ in pieces)
    for name, piece, full_state in pieces:
        stats.statements_appended += len(piece)
        if full_state and name not in stats.full_state_rule_names:
            stats.full_state_rule_names += (name,)
        fallbacks = sum(
            1 for statement in piece if isinstance(statement, CheckConstraint)
        )
        if fallbacks:
            stats.fallback_statements += fallbacks
            if name not in stats.fallback_rule_names:
                stats.fallback_rule_names += (name,)


def mod_p(
    program: Program,
    selector,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stats: Optional[ModificationStats] = None,
) -> Program:
    """ModP (Alg 5.1): extend ``program`` until no further rules trigger."""
    appended = mod_rounds(get_trig_px(program), selector, max_rounds, stats)
    if appended is None:
        return program
    return program.concat(appended)


def mod_t(
    transaction: Transaction,
    selector,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stats: Optional[ModificationStats] = None,
) -> Transaction:
    """ModT (Alg 5.1): ``ModP(T↓, J)↑`` — debracket, modify, rebracket."""
    body = debracket(transaction)
    modified = mod_p(body, selector, max_rounds=max_rounds, stats=stats)
    if modified is body:
        return transaction
    return bracket(modified, name=f"{transaction.name}+ic")


def mod_t_memoised(
    transaction: Transaction, store
) -> Tuple[Transaction, ModificationStats]:
    """ModT over a program store (Alg 6.2) through the store's memo.

    The same transaction and statistics as ``mod_t(transaction,
    StaticSelector(store), stats=...)``; the statistics are the memo's
    read-only record.
    """
    body = debracket(transaction)
    appended, stats = store.modification(get_trig_px(body))
    if appended is not None:
        modified = Program(body.statements + appended)
        transaction = bracket(modified, name=f"{transaction.name}+ic")
    return transaction, stats
