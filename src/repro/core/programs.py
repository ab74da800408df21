"""Integrity programs and the compiled program store (paper Section 6.2).

Translating and optimizing rules on every transaction (Alg 5.1-5.3) is
wasteful; Section 6.2 moves that work to rule-definition time.  An
*integrity program* (Def 6.3) is a pair ``K = (t, p)`` of a trigger set and
a translated extended-algebra program, "extended with a flag indicating
whether the program is non-triggering" — plus, here, the differential
variants from :mod:`repro.core.optimization` keyed by elementary update
type.

:class:`IntegrityProgramStore` is the constraint-enforcement-time side of
Alg 6.2: :class:`~repro.core.modification.StaticSelector` over it is
``SelPS`` (the programs whose trigger set meets the performed update
types) and ``ConcatP`` (their actions, concatenated).  The store keeps
insertion order, so modification output is deterministic.

Because Alg 6.2 selects by trigger set only, the whole ModP recursion over
a store is a function of the starting trigger set ``GetTrigPX(T↓)`` and the
stored programs.  The store memoises it
(:meth:`IntegrityProgramStore.modification`): one entry per trigger set,
all entries dropped by :meth:`~IntegrityProgramStore.add` and
:meth:`~IntegrityProgramStore.remove` — the only ways the stored programs
change.  See :mod:`repro.core.modification` for the premise and for what
stays unmemoised.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.algebra.programs import EMPTY_PROGRAM, Program, concat
from repro.algebra.statements import Guard
from repro.bounded import BoundedTable
from repro.core.modification import ModificationStats, StaticSelector, mod_rounds
from repro.core.triggers import TriggerSet
from repro.engine.schema import DatabaseSchema


class IntegrityProgram:
    """An integrity program ``(t, p)`` (Def 6.3) with differential variants.

    ``differentials`` maps each trigger to the condition's Δ-checks for it.
    For an aborting rule they are what is appended; a compensating rule has
    them only with a ``repair`` (:class:`~repro.core.optimization.DeltaRead`),
    its action reading those checks' Δ⁺ instead of the full state, and
    guarded by them (:class:`~repro.algebra.statements.Guard`).  A
    *deferred* one (view maintenance; non-triggering) is appended once,
    after ModP's fixpoint (:func:`~repro.core.modification.mod_rounds`).
    """

    __slots__ = (
        "name",
        "triggers",
        "program",
        "non_triggering",
        "differentials",
        "repair",
        "deferred",
    )

    def __init__(
        self,
        name: str,
        triggers: TriggerSet,
        program: Program,
        differentials: Optional[Dict[tuple, Program]] = None,
        deferred: bool = False,
        repair=None,
    ):
        if deferred and not program.non_triggering:
            raise ValueError(f"deferred program {name!r} must be non-triggering")
        self.name = name
        self.triggers = frozenset(triggers)
        self.program = program
        self.non_triggering = program.non_triggering
        self.differentials = differentials
        self.repair = repair
        self.deferred = deferred

    def differentials_for(self, matched: Iterable) -> Optional[Program]:
        """The union of the matched triggers' differential variants (a
        rule's Δ-checks, a view's maintenance pieces) — deduplicated, and
        skipping vacuous entries, which is the differential-test
        optimization of §5.2.1 — or None without variants (or for a
        trigger they do not cover)."""
        if self.differentials is None:
            return None
        pieces: List[Program] = []
        for trigger in sorted(matched):
            piece = self.differentials.get(trigger)
            if piece is None:
                return None
            if not piece.is_empty and piece not in pieces:
                pieces.append(piece)
        if not pieces:
            return EMPTY_PROGRAM
        return concat(*pieces)

    def action_for(self, matched: Iterable) -> Program:
        """The program to append given the matched trigger specs.

        Without differential variants this is the full program (the paper's
        ``action(K)``).  With them, an aborting rule appends its matched
        Δ-checks, and a compensating rule its action reading their Δ⁺ —
        once, however many triggers matched, guarded by those checks — or
        nothing when every matched check is vacuous.  The rule reads ``IF
        NOT C THEN action``, and under Def 3.5 C fails only where a matched
        Δ-check is non-empty, so the action runs exactly where it is owed.
        """
        checks = self.differentials_for(matched)
        if checks is None:
            return self.program
        if self.repair is None or checks.is_empty:
            return checks
        action = self.repair.action_for(matched)
        guard = Guard(
            tuple(dict.fromkeys(alarm.expr for alarm in checks)),
            action.statements,
        )
        return Program((guard,), non_triggering=action.non_triggering)

    def stored_pieces(self) -> Iterator[Program]:
        """Every program this one stores or appends for a single trigger:
        the full program, each trigger's differential variant and, for a
        repair, each trigger's guarded action — what definition time
        compiles plans and advises indexes for."""
        yield self.program
        yield from (self.differentials or {}).values()
        if self.repair is not None:
            for trigger in self.triggers:
                yield self.action_for((trigger,))

    def __repr__(self) -> str:
        from repro.core.triggers import format_trigger_set

        differential = ", differential" if self.differentials else ""
        return (
            f"IntegrityProgram({self.name}, "
            f"WHEN {format_trigger_set(self.triggers)}{differential})"
        )


def get_int_p(
    rule,
    db: DatabaseSchema,
    optimize: bool = True,
    differential: bool = False,
) -> IntegrityProgram:
    """GetIntP (Alg 6.1): compile one rule into an integrity program.

    ``GetIntP(J) = (triggers(J), TransR(OptR(J)))`` — with the differential
    specialization bolted on when requested: an aborting rule's per-trigger
    Δ-checks, or a compensating rule's
    :func:`~repro.core.optimization.differential_repair`.
    """
    from repro.algebra.optimizer import optimize_program
    from repro.core.optimization import (
        differential_programs,
        differential_repair,
        opt_r,
    )
    from repro.core.translation import trans_c, trans_r

    optimized_rule = opt_r(rule) if optimize else rule
    program = trans_r(optimized_rule, db)
    if optimize:
        program = optimize_program(program)
    differentials = repair = None
    if differential and rule.is_aborting:
        differentials = differential_programs(optimized_rule, program)
    elif differential:
        check = trans_c(optimized_rule.condition, db, name=rule.name)
        if optimize:
            check = optimize_program(check)
        found = differential_repair(optimized_rule, program, check, db)
        if found is not None:
            differentials, repair = found
    return IntegrityProgram(
        rule.name, rule.triggers, program, differentials, repair=repair
    )


class IntegrityProgramStore:
    """The stored set of compiled integrity programs (Section 6.2)."""

    def __init__(self):
        self._programs: List[IntegrityProgram] = []
        self._by_name: Dict[str, IntegrityProgram] = {}
        # GetTrigPX(T↓) -> (appended statements | None, ModificationStats).
        # A schema of ``n`` relations has ``4**n`` trigger sets; a workload
        # performs a handful.
        self._modifications = BoundedTable()

    def add(self, program: IntegrityProgram) -> IntegrityProgram:
        if program.name in self._by_name:
            raise KeyError(f"integrity program {program.name!r} already stored")
        self._programs.append(program)
        self._by_name[program.name] = program
        self._modifications.clear()
        return program

    def remove(self, name: str) -> None:
        program = self._by_name.pop(name)
        self._programs.remove(program)
        self._modifications.clear()

    def get(self, name: str) -> IntegrityProgram:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self._programs)

    def __iter__(self) -> Iterator[IntegrityProgram]:
        return iter(self._programs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def modification(
        self, performed: TriggerSet
    ) -> Tuple[Optional[tuple], ModificationStats]:
        """Everything ModP appends to a program performing ``performed``.

        ``(statements, stats)`` of :func:`~repro.core.modification.
        mod_rounds` over this store, memoised per trigger set; statements
        is None when nothing triggers.  Both belong to the memo; the
        statistics are frozen when filed, so callers hand them out as is.
        A store whose rounds do not terminate raises and memoises nothing.
        """
        entry = self._modifications.get(performed)
        if entry is None:
            stats = ModificationStats()
            appended = mod_rounds(performed, StaticSelector(self), stats=stats)
            entry = (
                None if appended is None else appended.statements,
                stats.freeze(),
            )
            self._modifications.file(performed, entry)
        return entry
