"""An interactive shell for the transaction modification subsystem.

Run with ``python -m repro`` (optionally piping a script).  The shell wires
together the whole stack — DDL, data loading, RL rules, CL constraints,
queries, and transactions with live transaction modification — and exposes
the subsystem's introspection (rule catalog, triggering graph, the modified
form of a transaction before execution).

Commands::

    relation NAME(attr domain [null], ...)   -- DDL, before any data exists
    load NAME (v, ...) (v, ...) ...          -- bulk-load rows (no checks)
    rule <RL text>                           -- register an integrity rule
    constraint NAME <CL text>                -- shorthand: aborting rule
    begin ... end                            -- run a transaction (modified)
    commit begin ... end                     -- optimistic commit + deferred audit
    query <algebra expression>               -- evaluate and print rows
    check <CL text>                          -- evaluate a constraint now
    show rules | graph | schema | db         -- introspection
    explain begin ... end                    -- print the modified form only
    audit                                    -- direct-check all rules
    audit-log [N]                            -- tail commit log + audit verdicts
    audit-log verify [DIR]                   -- verify the durable log's hash chain
    help                                     -- this text
    exit / quit

``python -m repro audit-log [script] [-n N]`` runs a script (or stdin)
non-interactively and tails the resulting commit log and audit verdicts —
the debugging window into the concurrent enforcement pipeline.

``python -m repro [--executor inline|thread|process] ...`` selects the
audit executor the shell's scheduler dispatches fan-out tasks to:
``inline`` runs every audit on the draining thread, ``thread`` (default)
overlaps them on a thread pool, ``process`` ships them to worker
processes holding shared-nothing database replicas (true multi-core).

``python -m repro --durable DIR ...`` layers a durable, hash-chained
write-ahead log under the shell's database: commits survive crashes, and
an existing log directory is recovered (checkpoint + replay) on startup.
``python -m repro recover DIR [--to SEQ]`` replays a log directory and
prints the recovered state; ``python -m repro audit-log --verify DIR``
walks the full hash chain and reports the first broken link (exit 1).
"""

from __future__ import annotations

import sys
from typing import Callable, List, Optional, TextIO

from repro import __version__
from repro.algebra import planner
from repro.algebra.pretty import render_transaction
from repro.calculus.parser import parse_constraint
from repro.calculus.planned import evaluate_constraint_planned
from repro.calculus.pretty import render_constraint
from repro.core.subsystem import IntegrityController
from repro.core.triggers import format_trigger_set
from repro.ddl import parse_relation_schema, render_relation_schema
from repro.engine import Database, DatabaseSchema, Session
from repro.engine.session import DatabaseView
from repro.errors import ReproError

PROMPT = "repro> "
CONTINUATION = "   ... "


class Shell:
    """The interactive shell state machine (testable: streams injectable)."""

    def __init__(
        self,
        stdin: Optional[TextIO] = None,
        stdout: Optional[TextIO] = None,
        interactive: bool = True,
        executor: str = "thread",
        durable: Optional[str] = None,
    ):
        self.stdin = stdin or sys.stdin
        self.stdout = stdout or sys.stdout
        self.interactive = interactive
        self.executor = executor
        self.schema = DatabaseSchema()
        self.database = Database(self.schema)
        if durable:
            self._open_durable(durable)
        self.controller = IntegrityController(self.schema)
        self.session = Session(self.database, self.controller)
        # Pin the executor choice now: the per-database scheduler is created
        # once (weakly cached) and commit/audit paths reuse it.
        self.controller.audit_scheduler(self.database, executor=executor)
        self.running = False

    def _open_durable(self, directory: str) -> None:
        """Attach (or recover from) a durable commit log at ``directory``.

        An already-populated log is recovered first — the shell resumes the
        committed history, with the log re-attached; an empty directory
        starts a fresh durable database.  Rules are not persisted: scripts
        re-register them each run.
        """
        from repro.engine.wal import WriteAheadLog

        wal = WriteAheadLog(directory)
        if wal.latest_checkpoint() is not None:
            wal.close()
            self.database = Database.recover(directory)
            self.schema = self.database.schema
            report = self.database.last_recovery
            self.write(f"recovered {report!r}")
        else:
            self.database.attach_wal(wal)

    # -- i/o helpers -----------------------------------------------------------

    def write(self, text: str = "") -> None:
        self.stdout.write(text + "\n")

    def _read_line(self, prompt: str) -> Optional[str]:
        if self.interactive:
            self.stdout.write(prompt)
            self.stdout.flush()
        line = self.stdin.readline()
        if not line:
            return None
        return line.rstrip("\n")

    def _read_block(self, first_line: str, end_token: str) -> str:
        """Collect lines until one ends with ``end_token`` (or is empty)."""
        lines = [first_line]
        while not _block_complete(lines, end_token):
            line = self._read_line(CONTINUATION)
            if line is None or line.strip() == "":
                break
            lines.append(line)
        return "\n".join(lines)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> int:
        self.running = True
        if self.interactive:
            self.write(f"repro {__version__} — transaction modification shell")
            self.write("type 'help' for commands")
        try:
            while self.running:
                line = self._read_line(PROMPT)
                if line is None:
                    break
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    self.dispatch(line)
                except ReproError as error:
                    self.write(f"error: {error}")
        finally:
            # Deterministic teardown: never leak audit worker threads or
            # processes past the shell's lifetime.
            self.controller.close_schedulers()
            if self.database.wal is not None:
                # DDL and bulk loads write no log record; a fresh
                # checkpoint makes them part of the next recovery too.
                self.database.wal.write_checkpoint(self.database)
                self.database.detach_wal()
        return 0

    # -- command dispatch -------------------------------------------------------------

    def dispatch(self, line: str) -> None:
        word = line.split(None, 1)[0].lower()
        rest = line[len(word):].strip()
        handlers: dict = {
            "relation": self.cmd_relation,
            "load": self.cmd_load,
            "rule": self.cmd_rule,
            "constraint": self.cmd_constraint,
            "begin": lambda _: self.cmd_begin(line),
            "commit": self.cmd_commit,
            "query": self.cmd_query,
            "check": self.cmd_check,
            "audit-log": self.cmd_audit_log,
            "show": self.cmd_show,
            "explain": self.cmd_explain,
            "audit": self.cmd_audit,
            "help": self.cmd_help,
            "exit": self.cmd_exit,
            "quit": self.cmd_exit,
        }
        handler = handlers.get(word)
        if handler is None:
            self.write(f"unknown command {word!r}; try 'help'")
            return
        handler(rest)

    def cmd_relation(self, rest: str) -> None:
        schema = parse_relation_schema(f"relation {rest}")
        self.database.add_relation(schema)
        self.write(f"created {render_relation_schema(schema)}")

    def cmd_load(self, rest: str) -> None:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            self.write("usage: load NAME (v, ...) (v, ...)")
            return
        name, rows_text = parts
        from repro.algebra.parser import parse_expression

        rows = []
        depth = 0
        current = ""
        for char in rows_text:
            current += char
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0:
                    rows.append(current.strip().strip(","))
                    current = ""
        literal = parse_expression("{" + ", ".join(rows) + "}")
        inserted = self.database.load(name, literal.rows)
        self.write(f"loaded {inserted} row(s) into {name}")

    def cmd_rule(self, rest: str) -> None:
        text = self._read_block(rest, end_token="")
        rule = self.controller.add_rule(text)
        kind = "aborting" if rule.is_aborting else "compensating"
        self.write(
            f"registered {rule.name} ({kind}), "
            f"WHEN {format_trigger_set(rule.triggers)}"
        )

    def cmd_constraint(self, rest: str) -> None:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            self.write("usage: constraint NAME <CL text>")
            return
        name, text = parts
        rule = self.controller.add_constraint(name, text)
        self.write(
            f"registered {rule.name} (aborting), "
            f"WHEN {format_trigger_set(rule.triggers)}"
        )

    def cmd_begin(self, line: str) -> None:
        text = self._read_block(line, end_token="end")
        result = self.session.execute(text)
        if result.committed:
            self.write(
                f"committed (t={result.post_time}; "
                f"+{result.tuples_inserted}/-{result.tuples_deleted} tuples)"
            )
        else:
            self.write(f"aborted: {result.reason}")

    def cmd_commit(self, rest: str) -> None:
        """Optimistic commit: run unmodified, audit through the pipeline."""
        text = self._read_block(rest, end_token="end")
        result = self.session.commit(text, audit="deferred")
        if result.committed:
            self.write(
                f"committed (t={result.post_time}; "
                f"+{result.tuples_inserted}/-{result.tuples_deleted} tuples; "
                f"audit deferred — see audit-log)"
            )
        else:
            self.write(f"aborted: {result.reason}")

    def cmd_explain(self, rest: str) -> None:
        text = self._read_block(rest, end_token="end")
        transaction = self.session.transaction(text)
        modified = self.controller.modify_transaction(transaction)
        self.write(render_transaction(modified))
        stats = self.controller.last_stats
        self.write(
            f"-- {stats.rounds} round(s), rules: "
            f"{', '.join(stats.selected_rule_names) or '(none)'}"
        )
        if stats.full_state_rule_names:
            self.write(
                f"-- checked on the full state, not the delta: "
                f"{', '.join(stats.full_state_rule_names)}"
            )
            for name in stats.full_state_rule_names:
                self._explain_indexes(name)

    def _explain_indexes(self, rule_name: str) -> None:
        """Which indexes a full-state rule's plans would read, which of them
        the database has built or declared, and which relations the rule
        scans — what it costs beyond |Δ|.  A declared index is built by the
        first plan that probes it; a relation read with no index hint, or
        whose hinted index is missing, is scanned.

        Static: the planner's hints for the stored program against
        ``Relation.indexes``; nothing is executed.
        """
        hints: set = set()
        read: set = set()
        for statement in self.controller.store.get(rule_name).program:
            read |= statement.relations_read()
            for expression in planner.statement_expressions(statement):
                hints |= planner.index_hints(expression)
        hinted = {relation for relation, _attrs in hints}
        scanned = {name for name in read - hinted if name in self.database}
        states = []
        for relation, attrs in sorted(hints, key=repr):
            if relation not in self.database:
                continue  # a temporary of the program
            target = self.database.relation(relation)
            positions = [target.schema.position_of(attr) - 1 for attr in attrs]
            index = target.indexes.get(positions) if target.indexes else None
            if index is None:
                state = "missing"
                scanned.add(relation)
            else:
                state = "built" if index.built else "declared"
            states.append(f"{relation}({', '.join(map(str, attrs))}) {state}")
        line = ", ".join(states)
        if scanned:
            scans = f"scans {', '.join(sorted(scanned))}"
            line = f"{line} -> {scans}" if line else scans
        if line:
            self.write(f"--   {rule_name}: {line}")

    def cmd_query(self, rest: str) -> None:
        rows = self.session.rows(rest)
        for row in rows:
            self.write(f"  {row}")
        self.write(f"({len(rows)} row(s))")

    def cmd_check(self, rest: str) -> None:
        formula = parse_constraint(rest)
        verdict = evaluate_constraint_planned(formula, DatabaseView(self.database))
        self.write("satisfied" if verdict else "VIOLATED")

    def cmd_audit(self, rest: str) -> None:
        violated = self.controller.violated_constraints(self.database)
        if violated:
            self.write(f"VIOLATED: {', '.join(violated)}")
        else:
            self.write("all constraints satisfied")

    def cmd_audit_log(self, rest: str) -> None:
        """Tail the commit log and the scheduler's audit verdicts."""
        limit = 10
        rest = rest.strip()
        if rest.split(None, 1)[:1] == ["verify"]:
            self.cmd_audit_log_verify(rest[len("verify"):].strip())
            return
        if rest:
            try:
                limit = max(int(rest), 1)
            except ValueError:
                self.write("usage: audit-log [N] | audit-log verify [DIR]")
                return
        log = self.database.commit_log
        self.write(f"commit log: {len(log)} record(s), next #{log.next_sequence}")
        for record in log.tail(limit):
            sizes = ", ".join(
                f"{base} +{plus}/-{minus}"
                for base, (plus, minus) in record.sizes().items()
            )
            self.write(
                f"  #{record.sequence} t={record.pre_time}->"
                f"{record.post_time} {sizes or '(empty)'}"
            )
        scheduler = self.controller.audit_scheduler(
            self.database, executor=self.executor
        )
        pending = scheduler.pending()
        if pending:
            self.write(f"auditing {pending} pending commit(s)...")
            if self.executor == "inline":
                scheduler.drain(coalesce=False)
            else:
                # Exercise the configured pool, then merge deterministically.
                scheduler.drain(asynchronous=True, coalesce=False)
                scheduler.wait()
        verdicts = scheduler.history[-limit * 4 :]
        self.write(f"audit verdicts ({len(scheduler.history)} total):")
        if not verdicts:
            self.write("  (none)")
        for outcome in verdicts:
            span = ",".join(f"#{seq}" for seq in outcome.sequences)
            if outcome.failed:
                state = f"FAILED: {outcome.error}"
            elif outcome.violated:
                sample = ", ".join(repr(row) for row in outcome.violations)
                state = f"VIOLATED ({sample})"
            else:
                state = "ok"
            self.write(
                f"  {span} {outcome.rule}: {state} "
                f"[{outcome.mode}/{outcome.executor}]"
            )

    def cmd_audit_log_verify(self, rest: str) -> None:
        """Verify the durable log's hash chain (attached or by directory)."""
        from repro.engine.wal import verify_directory

        directory = rest
        if not directory:
            if self.database.wal is None:
                self.write(
                    "no durable log attached (start with --durable DIR, "
                    "or: audit-log verify DIR)"
                )
                return
            self.database.wal.sync()
            directory = str(self.database.wal.directory)
        verification = verify_directory(directory)
        for line in render_verification(directory, verification):
            self.write(line)

    def cmd_show(self, rest: str) -> None:
        what = rest.strip().lower()
        if what == "rules":
            if not self.controller.rules:
                self.write("(no rules)")
            for rule in self.controller.rules:
                kind = "abort" if rule.is_aborting else "compensate"
                self.write(
                    f"  {rule.name}: WHEN {format_trigger_set(rule.triggers)} "
                    f"IF NOT {render_constraint(rule.condition)} [{kind}]"
                )
        elif what == "graph":
            graph = self.controller.triggering_graph()
            self.write(f"  {graph}")
            for edge in graph.edges:
                self.write(f"  {edge[0]} -> {edge[1]}")
            if not graph.is_acyclic:
                self.write(
                    f"  suggest non-triggering: "
                    f"{graph.suggest_non_triggering()}"
                )
        elif what == "schema":
            for relation_schema in self.schema:
                self.write(f"  {render_relation_schema(relation_schema)}")
        elif what == "db":
            self.write(f"  {self.database}")
        else:
            self.write("usage: show rules | graph | schema | db")

    def cmd_help(self, rest: str) -> None:
        self.write(__doc__.split("Commands::")[1])

    def cmd_exit(self, rest: str) -> None:
        self.running = False


def _block_complete(lines: List[str], end_token: str) -> bool:
    if not end_token:
        # Rule blocks end at a blank line (handled by the reader) or when
        # the text already parses on its own — single-line rules.
        text = "\n".join(lines)
        if "then" in text.lower() or "if" not in text.lower():
            return _parses_as_rule(text)
        return False
    stripped = lines[-1].strip().lower()
    return stripped == end_token or stripped.endswith(" " + end_token) or (
        len(lines) == 1 and stripped.endswith(end_token) and len(stripped) > len(end_token)
    ) or stripped.endswith(";" + end_token)


def _parses_as_rule(text: str) -> bool:
    from repro.core.rule_language import parse_rule

    try:
        parse_rule(text)
        return True
    except ReproError:
        return False


def render_verification(directory, verification) -> List[str]:
    """Human-readable lines for a hash-chain verification verdict."""
    lines = [
        f"audit log {directory}: {verification.segments} segment(s), "
        f"{verification.records} record(s)"
        + (
            f", last sequence #{verification.last_sequence}"
            if verification.last_sequence is not None
            else ""
        )
    ]
    if verification.torn_tail is not None:
        segment, offset, reason = verification.torn_tail
        lines.append(
            f"torn tail at {segment} @ byte {offset} ({reason}) — "
            f"crash residue; the next open repairs it"
        )
    if verification.ok:
        lines.append("hash chain OK")
    else:
        segment, offset, reason = verification.broken
        lines.append(
            f"hash chain BROKEN at {segment} @ byte {offset}: {reason}"
        )
    return lines


def verify_main(args: List[str]) -> int:
    """``python -m repro audit-log --verify DIR``: full hash-chain walk.

    Exit status 0 when the chain verifies end to end, 1 when a broken
    link was found (the first one is reported with segment and byte
    offset).  A torn tail — legitimate crash residue — is reported but
    does not fail verification.
    """
    from repro.engine.wal import verify_directory

    if len(args) != 1:
        sys.stderr.write("usage: python -m repro audit-log --verify DIR\n")
        return 2
    verification = verify_directory(args[0])
    for line in render_verification(args[0], verification):
        sys.stdout.write(line + "\n")
    return 0 if verification.ok else 1


def recover_main(args: List[str]) -> int:
    """``python -m repro recover DIR [--to SEQ]``: replay a durable log.

    Rebuilds the database (optionally only up to commit sequence SEQ) and
    prints the recovery report plus per-relation cardinalities.  Exit
    status 1 on a broken hash chain or an unusable log.
    """
    from repro.errors import WalError

    upto: Optional[int] = None
    paths: List[str] = []
    iterator = iter(args)
    for arg in iterator:
        if arg == "--to":
            try:
                upto = int(next(iterator))
            except (StopIteration, ValueError):
                sys.stderr.write("recover: --to needs an integer sequence\n")
                return 2
        else:
            paths.append(arg)
    if len(paths) != 1:
        sys.stderr.write("usage: python -m repro recover DIR [--to SEQ]\n")
        return 2
    try:
        database = Database.recover(paths[0], upto=upto)
    except WalError as error:
        sys.stderr.write(f"recover: {type(error).__name__}: {error}\n")
        return 1
    report = database.last_recovery
    sys.stdout.write(f"{report!r}\n")
    for relation_schema in database.schema:
        relation = database.relation(relation_schema.name)
        sys.stdout.write(f"  {relation_schema.name}: {len(relation)} row(s)\n")
    if database.wal is not None:
        database.detach_wal()
    return 0


def audit_log_main(args: List[str], executor: str = "thread") -> int:
    """``python -m repro audit-log [script] [-n N]``.

    Runs the script (or stdin) through a non-interactive shell, then tails
    the database's commit log and the scheduler's audit verdicts — i.e.
    what the concurrent enforcement pipeline saw and decided.

    ``python -m repro audit-log --verify DIR`` instead verifies the full
    hash chain of the durable log at DIR (see :func:`verify_main`).
    """
    if "--verify" in args:
        remaining = [arg for arg in args if arg != "--verify"]
        return verify_main(remaining)
    limit = 10
    paths: List[str] = []
    iterator = iter(args)
    for arg in iterator:
        if arg in ("-n", "--limit"):
            try:
                limit = max(int(next(iterator)), 1)
            except (StopIteration, ValueError):
                sys.stderr.write("audit-log: -n needs an integer\n")
                return 2
        else:
            paths.append(arg)
    if len(paths) > 1:
        sys.stderr.write("usage: python -m repro audit-log [script] [-n N]\n")
        return 2
    stream = open(paths[0]) if paths else sys.stdin
    try:
        shell = Shell(stdin=stream, interactive=False, executor=executor)
        shell.run()
        shell.cmd_audit_log(str(limit))
        shell.controller.close_schedulers()
    finally:
        if paths:
            stream.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    from repro.core.scheduler import EXECUTORS

    args = list(sys.argv[1:] if argv is None else argv)
    executor = "thread"
    while "--executor" in args:
        position = args.index("--executor")
        try:
            executor = args[position + 1]
        except IndexError:
            sys.stderr.write(
                f"--executor needs a value: one of {', '.join(EXECUTORS)}\n"
            )
            return 2
        del args[position : position + 2]
    if executor not in EXECUTORS:
        sys.stderr.write(
            f"unknown executor {executor!r}; expected one of "
            f"{', '.join(EXECUTORS)}\n"
        )
        return 2
    durable: Optional[str] = None
    while "--durable" in args:
        position = args.index("--durable")
        try:
            durable = args[position + 1]
        except IndexError:
            sys.stderr.write("--durable needs a log directory\n")
            return 2
        del args[position : position + 2]
    if args and args[0] == "audit-log":
        return audit_log_main(args[1:], executor=executor)
    if args and args[0] == "recover":
        return recover_main(args[1:])
    interactive = sys.stdin.isatty()
    shell = Shell(interactive=interactive, executor=executor, durable=durable)
    return shell.run()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
