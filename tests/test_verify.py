"""Tests for the verification subsystem (repro.verify).

Covers the static program linter (fixture programs with seeded bugs must
trigger exactly their expected rule ids), the happened-before trace
sanitizer (golden clean traces for every clock mode; corrupted traces
must trigger the right TRC rules), the ``sanitize=True`` hook that checks
the finished trace of a run, the pre-flight lint in the experiment workflow, the improved engine deadlock
error and the ``repro-lint`` CLI.
"""

import pytest

from repro.clocks import timestamp_trace
from repro.measure import MODES, Measurement
from repro.measure.config import LOGICAL_MODES
from repro.sim import Engine
from repro.sim.events import COLL_END, MPI_RECV, MPI_SEND
from repro.verify import (
    FIXTURES,
    Diagnostic,
    RULES,
    Severity,
    TraceInvariantError,
    VerificationError,
    check_timestamps,
    lint_program,
    make_fixture,
    sanitize_raw,
    sanitize_trace,
    worst_severity,
)
from repro.verify.dryrun import dry_run_program


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------


class TestRules:
    def test_registry_is_consistent(self):
        assert RULES, "registry must not be empty"
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.severity in (Severity.ERROR, Severity.WARNING, Severity.INFO)
            assert rule.summary
            assert rule.hint

    def test_families_present(self):
        families = {rid[:3] for rid in RULES}
        assert {"STR", "OMP", "MPI", "PRG", "TRC"} <= families

    def test_diagnostic_format_carries_context(self):
        d = Diagnostic("MPI002", "no matching send", rank=3,
                       call_path=("main", "exchange"))
        text = d.format()
        assert "MPI002" in text
        assert "rank 3" in text
        assert "main/exchange" in text
        assert "hint:" in text

    def test_worst_severity(self):
        assert worst_severity([]) is None
        warn = Diagnostic("STR004", "w")
        err = Diagnostic("MPI001", "e")
        assert worst_severity([warn]) == Severity.WARNING
        assert worst_severity([warn, err]) == Severity.ERROR


# ---------------------------------------------------------------------------
# static linter on the seeded-buggy fixtures
# ---------------------------------------------------------------------------


class TestLinterFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_triggers_exactly_expected_rules(self, name):
        fx = FIXTURES[name]
        report = lint_program(fx.make())
        assert report.rule_ids() == set(fx.expected_rules), report.format()

    def test_clean_fixture_report_is_ok(self):
        report = lint_program(make_fixture("clean"))
        assert report.ok
        assert not report.diagnostics
        assert "clean" in report.format()

    def test_unmatched_recv_diagnostic_context(self):
        report = lint_program(make_fixture("unmatched-recv"))
        d = next(d for d in report.diagnostics if d.rule_id == "MPI002")
        assert d.rank == 1
        assert d.call_path == ("main", "lonely_recv")

    def test_unknown_fixture_raises(self):
        with pytest.raises(KeyError, match="unknown fixture"):
            make_fixture("nope")

    def test_crashing_program_reports_prg001(self):
        fx = FIXTURES["clean"]

        def crash(ctx):
            yield from fx.make().make_rank(ctx)
            raise ValueError("boom")

        from repro.verify.fixtures import _TwoRankProgram

        report = lint_program(_TwoRankProgram("crash", crash))
        assert "PRG001" in report.rule_ids()

    def test_runaway_program_reports_prg002(self):
        from repro.sim.actions import Barrier
        from repro.verify.fixtures import _TwoRankProgram

        def runaway(ctx):
            while True:
                yield Barrier()

        report = lint_program(_TwoRankProgram("runaway", runaway),
                              max_actions=50)
        assert "PRG002" in report.rule_ids()

    def test_experiment_programs_lint_clean(self):
        from repro.experiments.configs import make_app

        for name in ("MiniFE-1", "TeaLeaf-1"):
            report = lint_program(make_app(name))
            assert report.ok, report.format()
            assert not report.diagnostics

    def test_dry_run_returns_per_rank_records(self):
        runs = dry_run_program(make_fixture("clean"))
        assert sorted(runs) == [0, 1]
        for run in runs.values():
            assert run.completed
            assert run.records
            # every record carries its call-path context
            assert all(isinstance(r.call_path, tuple) for r in run.records)


# ---------------------------------------------------------------------------
# trace sanitizer: golden clean traces
# ---------------------------------------------------------------------------


def _run_traced(quiet_cost, mode="tsc", fixture="clean", sanitize=False):
    prog = make_fixture(fixture)
    engine = Engine(prog, quiet_cost.cluster, quiet_cost,
                    measurement=Measurement(mode), sanitize=sanitize)
    return engine.run().trace


class TestSanitizerClean:
    @pytest.mark.parametrize("mode", MODES)
    def test_clean_trace_sanitizes_for_every_recording_mode(self, quiet_cost, mode):
        trace = _run_traced(quiet_cost, mode=mode)
        report = sanitize_trace(trace)
        assert report.ok, report.format()
        assert not report.diagnostics
        assert report.modes == MODES

    def test_mode_subset(self, quiet_cost):
        trace = _run_traced(quiet_cost)
        report = sanitize_trace(trace, modes=("tsc", "lt1"))
        assert report.ok
        assert report.modes == ("tsc", "lt1")

    def test_validate_passes_on_clean_trace(self, quiet_cost):
        _run_traced(quiet_cost).validate()


# ---------------------------------------------------------------------------
# trace sanitizer: corrupted traces
# ---------------------------------------------------------------------------


class TestSanitizerCorruption:
    def test_swapped_events_trigger_trc001(self, quiet_cost):
        trace = _run_traced(quiet_cost)
        evs = trace.events[0]
        evs[2], evs[5] = evs[5], evs[2]
        ids = sanitize_trace(trace).rule_ids()
        assert "TRC001" in ids
        with pytest.raises(AssertionError, match="TRC"):
            trace.validate()

    def test_dropped_recv_triggers_trc002(self, quiet_cost):
        trace = _run_traced(quiet_cost)
        for evs in trace.events:
            idx = next((i for i, e in enumerate(evs) if e.etype == MPI_RECV), None)
            if idx is not None:
                del evs[idx]
                break
        else:
            pytest.fail("no receive record found")
        report = sanitize_trace(trace)
        assert report.rule_ids() == {"TRC002"}
        with pytest.raises(AssertionError, match="TRC002"):
            trace.validate()

    def test_duplicated_recv_triggers_trc002(self, quiet_cost):
        trace = _run_traced(quiet_cost)
        for evs in trace.events:
            idx = next((i for i, e in enumerate(evs) if e.etype == MPI_RECV), None)
            if idx is not None:
                evs.insert(idx, evs[idx])
                break
        assert "TRC002" in sanitize_trace(trace).rule_ids()

    def test_tampered_collective_time_triggers_trc004(self, quiet_cost):
        trace = _run_traced(quiet_cost)
        for evs in trace.events:
            for i in range(len(evs) - 1, -1, -1):
                if evs[i].etype == COLL_END:
                    evs[i].t += 1.0
                    break
            else:
                continue
            break
        assert "TRC004" in sanitize_trace(trace).rule_ids()

    @pytest.mark.parametrize("mode", ["lt1", "ltbb"])
    def test_forged_logical_timestamp_triggers_trc003(self, quiet_cost, mode):
        trace = _run_traced(quiet_cost)
        tt = timestamp_trace(trace, mode)
        for loc, evs in enumerate(trace.events):
            idx = next((i for i, e in enumerate(evs) if e.etype == MPI_RECV), None)
            if idx is not None:
                # forge: a recv timestamped before its matching send
                tt.times[loc] = tt.times[loc].astype(float).copy()
                tt.times[loc][idx] = 0.0
                break
        else:
            pytest.fail("no receive record found")
        ids = {d.rule_id for d in check_timestamps(tt)}
        assert "TRC003" in ids
        assert "TRC005" in ids  # forged value also breaks monotonicity

    def test_lamport_condition_holds_on_clean_traces(self, quiet_cost):
        trace = _run_traced(quiet_cost)
        send_ts = {}
        for mode in LOGICAL_MODES:
            tt = timestamp_trace(trace, mode)
            send_ts.clear()
            for loc, evs in enumerate(trace.events):
                for i, ev in enumerate(evs):
                    if ev.etype == MPI_SEND:
                        send_ts[ev.aux[0]] = float(tt.times[loc][i])
            checked = 0
            for loc, evs in enumerate(trace.events):
                for i, ev in enumerate(evs):
                    if ev.etype == MPI_RECV:
                        assert tt.times[loc][i] >= send_ts[ev.aux] + 1.0
                        checked += 1
            assert checked > 0

    def test_structural_errors_suppress_timestamp_pass(self, quiet_cost):
        trace = _run_traced(quiet_cost)
        for evs in trace.events:
            idx = next((i for i, e in enumerate(evs) if e.etype == MPI_RECV), None)
            if idx is not None:
                del evs[idx]
                break
        report = sanitize_trace(trace)
        assert all(d.mode is None for d in report.diagnostics)


# ---------------------------------------------------------------------------
# sanitized runs: the engine hook checks the finished trace
# ---------------------------------------------------------------------------


def _corrupted_run(quiet_cost, edit):
    """A sanitized run of the clean fixture whose sinks pass each event's
    fields through ``edit(loc, index, fields)``, which returns the fields
    to record or ``None`` to drop the event."""
    from repro.measure.measurement import RECORD_WIDTH

    class Corrupting(Measurement):
        def sinks(self):
            def sink_of(loc, extend):
                seen = [0]

                def sink(fields):
                    out = []
                    for j in range(0, len(fields), RECORD_WIDTH):
                        ev = edit(loc, seen[0], fields[j:j + RECORD_WIDTH])
                        seen[0] += 1
                        out.extend(ev or ())
                    extend(out)
                return sink
            return [sink_of(loc, s) for loc, s in enumerate(super().sinks())]

    return Engine(make_fixture("clean"), quiet_cost.cluster, quiet_cost,
                  measurement=Corrupting("lt1"), sanitize=True).run()


def _first_of(etype):
    """An ``edit`` for :func:`_corrupted_run` that hands the first event of
    kind ``etype`` to ``change`` (fields -> fields or ``None``)."""
    def edit_with(change):
        done = []

        def edit(loc, i, fields):
            if fields[0] == etype and not done:
                done.append(i)
                return change(fields)
            return fields
        return edit
    return edit_with


class TestOnlineSanitizer:
    """``sanitize=True``: ``finish()`` runs the structural pass over the
    finished trace and raises on error findings."""

    def test_engine_runs_clean_with_sanitize(self, quiet_cost):
        trace = _run_traced(quiet_cost, mode="lt1", sanitize=True)
        assert trace.n_events > 0

    def test_sanitize_without_measurement_rejected(self, quiet_cost):
        with pytest.raises(ValueError, match="sanitize"):
            Engine(make_fixture("clean"), quiet_cost.cluster, quiet_cost,
                   sanitize=True)

    def test_finish_rejects_time_reversal(self, quiet_cost):
        def edit(loc, i, fields):
            if loc == 0 and i == 2:
                return fields[:2] + (-1.0,) + fields[3:]
            return fields

        with pytest.raises(TraceInvariantError, match="TRC001"):
            _corrupted_run(quiet_cost, edit)

    def test_finish_rejects_recv_without_send(self, quiet_cost):
        with pytest.raises(TraceInvariantError, match="TRC002") as exc:
            _corrupted_run(quiet_cost, _first_of(MPI_SEND)(lambda f: None))
        assert "has no MPI_SEND" in str(exc.value)

    def test_final_check_rejects_unclosed_region(self, quiet_cost):
        from repro.sim.events import LEAVE

        with pytest.raises(TraceInvariantError, match="TRC006") as exc:
            _corrupted_run(quiet_cost, _first_of(LEAVE)(lambda f: None))
        assert "never left" in str(exc.value)

    def test_recovered_run_sanitizes_at_finish(self):
        # one check of the finished trace covers every restart attempt
        from repro.experiments.faultsweep import default_fault_config
        from repro.machine import small_test_cluster
        from repro.machine.faults import FaultModel
        from repro.machine.noise import NoiseConfig, NoiseModel
        from repro.miniapps import MiniFE, MiniFEConfig
        from repro.sim import CostModel, run_with_recovery

        cluster = small_test_cluster(cores_per_numa=8, numa_per_socket=2)
        out = run_with_recovery(
            MiniFE(MiniFEConfig.tiny(nx=48, cg_iters=3)), cluster,
            lambda: CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=3)),
            FaultModel(default_fault_config(), seed=2),
            measurement=Measurement("ltbb", sanitize=True))
        assert out.n_restarts > 0
        assert sanitize_raw(out.result.trace) == []


# ---------------------------------------------------------------------------
# engine deadlock error
# ---------------------------------------------------------------------------


class TestDeadlockError:
    def test_reports_blocked_action_and_call_path_per_rank(self, quiet_cost):
        prog = make_fixture("deadlock-cycle")
        with pytest.raises(RuntimeError) as exc:
            Engine(prog, quiet_cost.cluster, quiet_cost).run()
        msg = str(exc.value)
        assert "deadlock" in msg
        assert "MPI008" in msg
        assert "rank 0" in msg and "rank 1" in msg
        assert "Recv(source=1, tag=1)" in msg
        assert "at main" in msg

    def test_reports_stuck_collective(self, quiet_cost):
        prog = make_fixture("collective-count-mismatch")
        with pytest.raises(RuntimeError) as exc:
            Engine(prog, quiet_cost.cluster, quiet_cost).run()
        msg = str(exc.value)
        assert "MPI008" in msg
        assert "MPI_Barrier" in msg


# ---------------------------------------------------------------------------
# workflow pre-flight
# ---------------------------------------------------------------------------


class TestPreflight:
    def test_preflight_passes_for_real_experiment(self):
        from repro.experiments.workflow import preflight_lint

        preflight_lint("MiniFE-1")

    def test_preflight_rejects_buggy_app(self, monkeypatch):
        from repro.experiments import workflow

        monkeypatch.setattr(
            workflow, "make_app", lambda name: make_fixture("unmatched-recv")
        )
        with pytest.raises(VerificationError, match="pre-flight"):
            workflow.preflight_lint("MiniFE-1")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_selftest_passes(self, capsys):
        from repro.cli import main_lint

        assert main_lint(["--selftest"]) == 0
        assert "15 fixtures ok" in capsys.readouterr().out

    def test_buggy_fixture_fails(self, capsys):
        from repro.cli import main_lint

        assert main_lint(["--fixture", "leaked-request"]) == 1
        assert "MPI003" in capsys.readouterr().out

    def test_warning_only_needs_strict(self, capsys):
        from repro.cli import main_lint

        assert main_lint(["--fixture", "bare-leave"]) == 0
        assert main_lint(["--fixture", "bare-leave", "--strict"]) == 1

    def test_json_output(self, capsys):
        import json

        from repro.cli import main_lint

        main_lint(["--fixture", "unmatched-recv", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert {d["rule"] for d in doc["diagnostics"]} == {"MPI002", "MPI008"}

    def test_trace_roundtrip(self, tmp_path, quiet_cost, capsys):
        from repro.cli import main_lint
        from repro.measure import write_trace

        trace = _run_traced(quiet_cost, mode="lt1")
        clean = tmp_path / "clean.trace.json.gz"
        write_trace(trace, clean)
        assert main_lint(["--trace", str(clean), "--mode", "tsc",
                          "--mode", "lt1"]) == 0

        for evs in trace.events:
            idx = next((i for i, e in enumerate(evs) if e.etype == MPI_RECV), None)
            if idx is not None:
                del evs[idx]
                break
        bad = tmp_path / "bad.trace.json.gz"
        write_trace(trace, bad)
        assert main_lint(["--trace", str(bad)]) == 1
        assert "TRC002" in capsys.readouterr().out

    def test_nothing_to_lint_is_usage_error(self):
        from repro.cli import main_lint

        with pytest.raises(SystemExit) as exc:
            main_lint([])
        assert exc.value.code == 2

    def test_corrupt_trace_archive_is_usage_error(self, tmp_path, capsys):
        import gzip

        from repro.cli import main_lint

        bad = tmp_path / "bad.trace.json.gz"
        bad.write_bytes(gzip.compress(b"garbage"))
        with pytest.raises(SystemExit) as exc:
            main_lint(["--trace", str(bad)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("repro-lint: error: ")
        assert str(bad) in err[-1]
