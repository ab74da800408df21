"""The interactive shell, driven through injected streams."""

import io

import pytest

from repro.cli import Shell


def run_shell(script: str) -> str:
    stdin = io.StringIO(script)
    stdout = io.StringIO()
    shell = Shell(stdin=stdin, stdout=stdout, interactive=False)
    shell.run()
    return stdout.getvalue()


BEER_SETUP = """\
relation beer(name string, type string, brewery string, alcohol float)
relation brewery(name string, city string null, country string null)
load brewery ("heineken", "amsterdam", "nl")
constraint R1 (forall x in beer)(x.alcohol >= 0)
"""


class TestBasics:
    def test_ddl_and_load(self):
        output = run_shell(BEER_SETUP + "show db\nexit\n")
        assert "created relation beer" in output
        assert "loaded 1 row(s) into brewery" in output
        assert "brewery[1]" in output

    def test_constraint_registration_reports_triggers(self):
        output = run_shell(BEER_SETUP + "exit\n")
        assert "registered R1 (aborting), WHEN INS(beer)" in output

    def test_show_rules(self):
        output = run_shell(BEER_SETUP + "show rules\nexit\n")
        assert "IF NOT (forall x in beer)(x.alcohol >= 0)" in output

    def test_show_schema(self):
        output = run_shell(BEER_SETUP + "show schema\nexit\n")
        assert "relation brewery(name string, city string null" in output

    def test_help(self):
        output = run_shell("help\nexit\n")
        assert "begin ... end" in output

    def test_unknown_command(self):
        output = run_shell("frobnicate\nexit\n")
        assert "unknown command 'frobnicate'" in output

    def test_comments_and_blank_lines_ignored(self):
        output = run_shell("# a comment\n\nexit\n")
        assert "error" not in output


class TestTransactions:
    def test_commit(self):
        script = BEER_SETUP + (
            'begin insert(beer, ("pils", "lager", "heineken", 5.0)); end\n'
            "query beer\nexit\n"
        )
        output = run_shell(script)
        assert "committed (t=1; +1/-0 tuples)" in output
        assert "('pils', 'lager', 'heineken', 5.0)" in output

    def test_abort(self):
        script = BEER_SETUP + (
            'begin insert(beer, ("bad", "ale", "heineken", -1.0)); end\n'
            "query beer\nexit\n"
        )
        output = run_shell(script)
        assert "aborted: R1" in output
        assert "(0 row(s))" in output

    def test_multiline_transaction(self):
        script = BEER_SETUP + (
            "begin\n"
            '    insert(beer, ("pils", "lager", "heineken", 5.0));\n'
            '    insert(beer, ("extra", "stout", "heineken", 7.0));\n'
            "end\n"
            "exit\n"
        )
        output = run_shell(script)
        assert "committed (t=1; +2/-0 tuples)" in output

    def test_explain_shows_modified_form(self):
        script = BEER_SETUP + (
            'explain begin insert(beer, ("p", "l", "h", 5.0)); end\n'
            "exit\n"
        )
        output = run_shell(script)
        assert "alarm(select(beer@plus, alcohol < 0)" in output
        assert "rules: R1" in output

    def test_explain_names_the_indexes_a_full_state_rule_has_declares_and_lacks(self):
        # Two repairs with an aggregate clause in their condition: the
        # aggregate has no Δ-check, so each action keeps its full-state
        # read.  R2's two projections read rows and hint no index; R3's
        # antijoin probes beer(brewery) and builds on brewery(name).
        stdout = io.StringIO()
        shell = Shell(stdin=io.StringIO(), stdout=stdout, interactive=False)
        explain = 'explain begin insert(beer, ("new", "ale", "ghost", 5.0)); end'
        condition = (
            "IF NOT ((forall x in beer)(exists y in brewery)"
            "(x.brewery = y.name) and CNT(beer) <= 1000) "
        )
        for line in BEER_SETUP.splitlines() + [
            "rule RULE R2 " + condition
            + "THEN temp := diff(project(beer, [brewery]), "
            "project(brewery, [name])); insert(brewery, project(temp, "
            "[brewery as name, null, null]))",
            "rule RULE R3 " + condition
            + "THEN insert(brewery, project(antijoin(beer, brewery, "
            "left.brewery = right.name), [brewery as name, null, null]))",
            explain,
        ]:
            shell.dispatch(line)

        def explained() -> list:
            lines = stdout.getvalue().splitlines()
            return lines[-2:]

        assert (
            "-- checked on the full state, not the delta: R2, R3"
            in stdout.getvalue()
        )
        assert explained() == [
            "--   R2: scans beer, brewery",
            "--   R3: beer(brewery) missing, brewery(name) missing "
            "-> scans beer, brewery",
        ]
        shell.database.create_index("beer", ["brewery"])
        uses = shell.database.relation("beer").built_index((2,)).usage.uses
        shell.dispatch(explain)
        assert explained() == [
            "--   R2: scans beer, brewery",  # a projection reads rows
            "--   R3: beer(brewery) built, brewery(name) missing -> scans brewery",
        ]
        shell.controller.install_indexes(shell.database)
        shell.dispatch(explain)
        assert explained() == [
            "--   R2: scans beer, brewery",
            "--   R3: beer(brewery) built, brewery(name) declared",
        ]
        # Static: explaining executed nothing.
        assert shell.database.relation("beer").built_index((2,)).usage.uses == uses
        assert len(shell.database.relation("beer")) == 0
        # The first transaction the rules check builds what R3 probes.
        shell.dispatch(explain.removeprefix("explain "))
        shell.dispatch(explain)
        assert explained() == [
            "--   R2: scans beer, brewery",
            "--   R3: beer(brewery) built, brewery(name) built",
        ]
        shell.controller.close_schedulers()

    def test_compensating_rule_via_shell(self):
        script = BEER_SETUP + (
            "rule RULE R2 IF NOT (forall x in beer)(exists y in brewery)"
            "(x.brewery = y.name) THEN temp := diff(project(beer, [brewery]), "
            "project(brewery, [name])); insert(brewery, project(temp, "
            "[brewery as name, null, null]))\n"
            'begin insert(beer, ("new", "ale", "ghost", 5.0)); end\n'
            "query brewery\n"
            'explain begin insert(beer, ("old", "ale", "ghost", 5.0)); end\n'
            "exit\n"
        )
        output = run_shell(script)
        assert "registered R2 (compensating)" in output
        assert "('ghost', NULL, NULL)" in output
        # The repair reads the Δ⁺ of its condition's violations, guarded by
        # the Δ-check of the same violations.
        assert (
            "guard(antijoin(beer@plus, brewery, left.brewery = right.name)) "
            "{ temp := project(antijoin(beer@plus, brewery" in output
        )
        assert "checked on the full state" not in output


class TestChecksAndAudit:
    def test_check_satisfied_and_violated(self):
        script = BEER_SETUP + (
            "check CNT(beer) = 0\n"
            "check CNT(beer) = 5\n"
            "exit\n"
        )
        output = run_shell(script)
        assert "satisfied" in output
        assert "VIOLATED" in output

    def test_check_a_satisfied_formula(self):
        script = BEER_SETUP + (
            'load beer ("bock", "ale", "heineken", 6.5)\n'
            "check (forall x in beer)(exists y in brewery)(x.brewery = y.name)\n"
            "exit\n"
        )
        output = run_shell(script)
        assert "satisfied" in output and "VIOLATED" not in output

    def test_check_a_violated_formula(self):
        script = BEER_SETUP + (
            'load beer ("ghost", "ale", "phantom", 6.5)\n'
            "check (forall x in beer)(exists y in brewery)(x.brewery = y.name)\n"
            "exit\n"
        )
        output = run_shell(script)
        assert "VIOLATED" in output and "satisfied" not in output

    def test_check_an_open_formula_is_an_error(self):
        output = run_shell(
            BEER_SETUP + "check (forall x in beer)(y.alcohol >= 0)\nexit\n"
        )
        assert "error: integrity constraint must be closed" in output
        assert "satisfied" not in output and "VIOLATED" not in output

    def test_check_an_unknown_attribute_over_an_empty_relation_is_an_error(self):
        # The planned evaluator compiles against the schema before reading
        # a row, so an empty relation does not hide the typo.
        output = run_shell(
            BEER_SETUP + "check (forall x in beer)(x.nope >= 0)\nexit\n"
        )
        assert "error: unknown attribute 'nope'" in output
        assert "satisfied" not in output

    def test_audit_clean(self):
        output = run_shell(BEER_SETUP + "audit\nexit\n")
        assert "all constraints satisfied" in output

    def test_audit_detects_loaded_violations(self):
        # 'load' bypasses integrity control; audit exposes the damage.
        script = BEER_SETUP + (
            'load beer ("rogue", "ale", "heineken", -9.0)\n'
            "audit\nexit\n"
        )
        output = run_shell(script)
        assert "VIOLATED: R1" in output

    def test_show_graph(self):
        output = run_shell(BEER_SETUP + "show graph\nexit\n")
        assert "TriggeringGraph(1 rules, 0 edges, acyclic)" in output


def run_durable_shell(script: str, directory) -> str:
    stdin = io.StringIO(script)
    stdout = io.StringIO()
    shell = Shell(
        stdin=stdin, stdout=stdout, interactive=False, durable=str(directory)
    )
    shell.run()
    return stdout.getvalue()


class TestDurability:
    COMMIT = 'begin insert(beer, ("pils", "lager", "heineken", 5.0)); end\n'

    def test_shell_round_trip_resumes_committed_history(self, tmp_path):
        first = run_durable_shell(BEER_SETUP + self.COMMIT + "exit\n", tmp_path)
        assert "committed (t=1; +1/-0 tuples)" in first
        second = run_durable_shell("query beer\nquery brewery\nexit\n", tmp_path)
        assert "recovered RecoveryReport" in second
        assert "('pils', 'lager', 'heineken', 5.0)" in second
        # 'load'ed rows bypass the commit path but survive via the
        # checkpoint the shell writes on exit.
        assert "('heineken', 'amsterdam', 'nl')" in second

    def test_shell_verify_subcommand(self, tmp_path):
        output = run_durable_shell(
            BEER_SETUP + self.COMMIT + "audit-log verify\nexit\n", tmp_path
        )
        assert "hash chain OK" in output

    def test_shell_verify_without_durable_log(self):
        output = run_shell("audit-log verify\nexit\n")
        assert "no durable log attached" in output

    def test_recover_entry_point(self, tmp_path, capsys):
        from repro.cli import main

        run_durable_shell(BEER_SETUP + self.COMMIT + "exit\n", tmp_path)
        assert main(["recover", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "RecoveryReport" in out
        assert "beer: 1 row(s)" in out
        assert "brewery: 1 row(s)" in out

    def test_recover_usage_errors(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["recover"]) == 2
        assert main(["recover", str(tmp_path), "--to", "x"]) == 2

    def test_recover_unusable_log_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["recover", str(tmp_path / "nothing-here")]) == 1
        assert "recover:" in capsys.readouterr().err

    def test_verify_entry_point_clean(self, tmp_path, capsys):
        from repro.cli import main

        run_durable_shell(BEER_SETUP + self.COMMIT + "exit\n", tmp_path)
        assert main(["audit-log", "--verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hash chain OK" in out
        assert "segment(s)" in out

    def test_verify_reports_broken_link_with_location(self, tmp_path, capsys):
        from repro.cli import main
        from repro.engine import Database, DatabaseSchema, RelationSchema, Session
        from repro.engine.types import INT
        from repro.engine.wal import HEADER_SIZE, WriteAheadLog

        schema = DatabaseSchema(
            [RelationSchema("r", [("a", INT), ("b", INT)])]
        )
        database = Database(schema)
        # Tiny segments force rotation, so the damage lands in a *sealed*
        # segment — silent corruption, not repairable crash residue.
        database.attach_wal(WriteAheadLog(tmp_path, segment_bytes=256))
        session = Session(database)
        for i in range(8):
            assert session.execute(f"begin insert(r, ({i}, {i})); end").committed
        database.detach_wal()
        sealed = sorted(p for p in tmp_path.iterdir() if p.suffix == ".wal")[0]
        data = bytearray(sealed.read_bytes())
        data[HEADER_SIZE + 16] ^= 0x10
        sealed.write_bytes(bytes(data))
        assert main(["audit-log", "--verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "hash chain BROKEN at" in out
        assert sealed.name in out
        assert "@ byte" in out

    def test_recover_refuses_a_replay_gap(self, tmp_path, capsys):
        """Checkpoint #6 torn, a stale copy of #0 put back after the purge
        removed it with records #0..#5: recovery exits 1, naming the gap."""
        from repro.cli import main
        from repro.engine import Database, DatabaseSchema, RelationSchema, Session
        from repro.engine.types import INT
        from repro.engine.wal import WriteAheadLog

        schema = DatabaseSchema(
            [RelationSchema("r", [("a", INT), ("b", INT)])]
        )
        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path, segment_bytes=256))
        first = database.wal.latest_checkpoint()[1]
        saved = first.read_bytes()
        session = Session(database)
        for i in range(12):
            if i == 6:
                second = database.checkpoint()
            assert session.execute(f"begin insert(r, ({i}, {i})); end").committed
        database.detach_wal()
        assert not first.exists()
        first.write_bytes(saved)
        second.write_bytes(second.read_bytes()[: second.stat().st_size // 2])
        assert main(["recover", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("recover: WalError: replay gap")
        assert "after checkpoint #0" in err


class TestErrors:
    def test_parse_error_reported_not_fatal(self):
        output = run_shell("query select(\nshow db\nexit\n")
        assert "error:" in output
        assert "Database(t=0" in output  # shell kept running

    def test_duplicate_rule_reported(self):
        script = BEER_SETUP + (
            "constraint R1 (forall x in beer)(x.alcohol >= 0)\nexit\n"
        )
        output = run_shell(script)
        assert "error:" in output and "already registered" in output

    def test_unknown_relation_in_constraint(self):
        output = run_shell("constraint c (forall x in ghost)(x.a > 0)\nexit\n")
        assert "error:" in output

    def test_an_internal_bug_propagates_after_teardown(self, monkeypatch):
        # A non-ReproError is a bug, not a user error: the shell tears down
        # and re-raises it, so ``python -m repro < script`` exits non-zero.
        def broken(shell, rest):
            raise TypeError("a bug in show")

        monkeypatch.setattr(Shell, "cmd_show", broken)
        stdout = io.StringIO()
        shell = Shell(
            stdin=io.StringIO("show db\nquery pk\n"),
            stdout=stdout,
            interactive=False,
        )
        closed = []
        monkeypatch.setattr(
            shell.controller, "close_schedulers", lambda: closed.append(True)
        )
        with pytest.raises(TypeError, match="a bug in show"):
            shell.run()
        assert closed == [True]
        assert "error" not in stdout.getvalue()


class TestAuditPipeline:
    SETUP = (
        "relation fk(id int, ref int)\n"
        "relation pk(key int)\n"
        "load pk (1) (2) (3)\n"
        "constraint fk_ref (forall x)(x in fk => "
        "(exists y)(y in pk and x.ref = y.key))\n"
    )

    def test_commit_defers_audit(self):
        output = run_shell(
            self.SETUP + "commit begin insert(fk, (11, 99)); end\nexit\n"
        )
        assert "audit deferred" in output

    def test_audit_log_tails_commits_and_verdicts(self):
        output = run_shell(
            self.SETUP
            + "commit begin insert(fk, (10, 1)); end\n"
            + "commit begin insert(fk, (11, 99)); end\n"
            + "audit-log\nexit\n"
        )
        assert "commit log: 2 record(s), next #2" in output
        assert "#0 t=0->1 fk +1/-0" in output
        assert "#0 fk_ref: ok" in output
        assert "#1 fk_ref: VIOLATED ((11, 99))" in output

    def test_audit_log_lists_commits_caught_up_past_retain(self):
        commits = "".join(
            f"commit begin insert(fk, ({10 + i}, {99 if i % 2 else 1})); end\n"
            for i in range(5)
        )
        stdout = io.StringIO()
        shell = Shell(
            stdin=io.StringIO(self.SETUP + commits + "audit-log\nexit\n"),
            stdout=stdout,
            interactive=False,
            executor="inline",
        )
        shell.database.epochs.retain = 1
        shell.run()
        output = stdout.getvalue()
        # Four commits were audited by the committer, the last by audit-log.
        assert "auditing 1 pending commit(s)" in output
        assert "audit verdicts (5 total)" in output
        for i in range(5):
            state = "VIOLATED" if i % 2 else "ok"
            assert f"#{i} fk_ref: {state}" in output

    def test_audit_log_subcommand_entry_point(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "scenario.txt"
        script.write_text(
            self.SETUP + "commit begin insert(fk, (11, 99)); end\n"
        )
        assert main(["audit-log", str(script)]) == 0
        output = capsys.readouterr().out
        assert "commit log: 1 record(s)" in output
        assert "fk_ref: VIOLATED" in output

    def test_audit_log_rejects_bad_limit(self, capsys):
        from repro.cli import main

        assert main(["audit-log", "-n", "x"]) == 2
