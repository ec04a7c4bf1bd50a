"""Tests for the determinism prover and the happened-before race detector.

Covers the static pass (repro.verify.determinism: DET rules, per-mode
bit-identity verdicts, the sha256-stamped certificate), the dynamic pass
(repro.verify.races: vector-clock RACE rules with witness paths on
simulated fixture traces), the faultsweep cross-check of certificates
against observed fingerprints for every clock mode, the online race
check in sanitized measurements, the workflow pre-flight extension, the
``repro-lint --determinism/--races`` CLI and the diagnostic-suppression
accounting.
"""

import json

import pytest

from repro.experiments.faultsweep import run_fault_sweep
from repro.machine.faults import FaultConfig
from repro.measure import MODES, Measurement
from repro.measure.config import NOISY_MODES
from repro.sim import Engine
from repro.verify import (
    BIT_IDENTICAL,
    FIXTURES,
    NOISE_SENSITIVE,
    RaceReport,
    TraceInvariantError,
    VerificationError,
    analyze_determinism,
    find_races,
    make_fixture,
)
from repro.verify.diagnostics import Diagnostic

#: fixtures whose simulated traces must trip RACE rules
_RACY_TRACES = ("wildcard-recv", "send-race", "omp-shared-write")


def _simulate(noisy_cost, name, mode="lt1", sanitize=False):
    prog = make_fixture(name)
    engine = Engine(prog, noisy_cost.cluster, noisy_cost,
                    measurement=Measurement(mode, sanitize=sanitize))
    return engine.run().trace


# ---------------------------------------------------------------------------
# static determinism prover
# ---------------------------------------------------------------------------


class TestDeterminismProver:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_trips_exactly_expected_det_rules(self, name):
        fx = FIXTURES[name]
        report = analyze_determinism(fx.make())
        got = {d.rule_id for d in report.diagnostics}
        assert got == set(fx.expected_det_rules), report.report()

    def test_clean_program_certified_bit_identical_for_logical_modes(self):
        report = analyze_determinism(make_fixture("clean"))
        assert report.order_deterministic
        assert report.mode_verdicts.keys() == set(MODES)
        for mode in MODES:
            expected = (NOISE_SENSITIVE if mode in NOISY_MODES
                        else BIT_IDENTICAL)
            assert report.mode_verdicts[mode] == expected

    def test_order_racy_program_voids_every_mode(self):
        report = analyze_determinism(make_fixture("send-race"))
        assert not report.order_deterministic
        assert set(report.mode_verdicts.values()) == {NOISE_SENSITIVE}
        # DET002 witness names the racing send sites and the reason
        det002 = next(d for d in report.diagnostics if d.rule_id == "DET002")
        assert len(det002.witness) >= 3
        assert any("happened-before" in step for step in det002.witness)

    def test_value_racy_program_keeps_bit_identity(self):
        # an OpenMP shared-write race corrupts *values*, not the event
        # sequence: logical traces stay bit-identical
        report = analyze_determinism(make_fixture("omp-shared-write"))
        assert {d.rule_id for d in report.diagnostics} == {"DET005"}
        assert report.order_deterministic
        assert report.mode_verdicts["lt1"] == BIT_IDENTICAL

    def test_nondet_generator_detected_with_witness(self):
        report = analyze_determinism(make_fixture("nondet-generator"))
        assert not report.generator_deterministic
        det003 = next(d for d in report.diagnostics if d.rule_id == "DET003")
        assert any("run 1" in step for step in det003.witness)
        assert any("run 2" in step for step in det003.witness)
        assert report.mode_verdicts["lt1"] == NOISE_SENSITIVE

    def test_every_diagnostic_carries_a_witness(self):
        for name in ("wildcard-recv", "send-race", "omp-shared-write"):
            report = analyze_determinism(make_fixture(name))
            assert report.diagnostics
            assert all(d.witness for d in report.diagnostics), name

    def test_certificate_is_stamped_and_reproducible(self):
        a = analyze_determinism(make_fixture("clean"))
        b = analyze_determinism(make_fixture("clean"))
        assert a.certificate["kind"] == "determinism-certificate"
        assert a.certificate["hash"] == b.certificate["hash"]
        cfg = a.certificate["config"]
        assert cfg["mode_verdicts"] == a.mode_verdicts
        assert cfg["order_deterministic"] is True
        # a racy program yields a different certificate
        c = analyze_determinism(make_fixture("send-race"))
        assert c.certificate["hash"] != a.certificate["hash"]
        assert c.certificate["config"]["racy_sites"]

    def test_miniapps_prove_deterministic(self):
        from repro.experiments.configs import make_app

        for name in ("MiniFE-1", "TeaLeaf-1"):
            report = analyze_determinism(make_app(name))
            assert not report.diagnostics, report.report()
            assert report.order_deterministic
            assert report.mode_verdicts["lt1"] == BIT_IDENTICAL

    def test_report_text(self):
        text = analyze_determinism(make_fixture("send-race")).report()
        assert "communication sites" in text
        assert "certificate sha256" in text
        for mode in MODES:
            assert mode in text


# ---------------------------------------------------------------------------
# dynamic race detector on simulated traces
# ---------------------------------------------------------------------------


class TestRaceDetector:
    @pytest.mark.parametrize("name", ("clean",) + _RACY_TRACES)
    def test_fixture_trace_trips_exactly_expected_race_rules(
        self, noisy_cost, name
    ):
        fx = FIXTURES[name]
        report = find_races(_simulate(noisy_cost, name))
        got = {d.rule_id for d in report.diagnostics}
        assert got == set(fx.expected_race_rules), report.format()

    def test_race001_witness_is_a_happened_before_path(self, noisy_cost):
        report = find_races(_simulate(noisy_cost, "send-race"))
        assert report.has_races
        d = next(d for d in report.diagnostics if d.rule_id == "RACE001")
        steps = "\n".join(d.witness)
        assert "send A" in steps and "send B" in steps
        assert "vc=" in steps  # vector clocks attached to each event
        assert "concurrent" in steps
        assert "consumed by" in steps

    def test_race002_reports_concurrent_shared_writes(self, noisy_cost):
        report = find_races(_simulate(noisy_cost, "omp-shared-write"))
        d = next(d for d in report.diagnostics if d.rule_id == "RACE002")
        assert "'acc'" in d.message
        assert any("write A" in s for s in d.witness)

    def test_single_sender_wildcard_is_benign_in_trace(self, noisy_cost):
        report = find_races(_simulate(noisy_cost, "wildcard-recv"))
        assert not report.has_races  # RACE003 is informational
        assert report.wildcard_sites.get("MPI_Recv_any") == 1

    def test_race_detection_works_on_every_mode(self, noisy_cost):
        # recording mode changes overheads, not the happened-before order
        for mode in ("tsc", "ltstmt"):
            report = find_races(_simulate(noisy_cost, "send-race", mode=mode))
            assert report.has_races, mode

    def test_report_caps_and_counts_suppressed(self):
        report = RaceReport(n_locations=2, n_events=0)
        for i in range(12):
            report.add(Diagnostic("RACE002", f"finding {i}"))
        assert len(report.diagnostics) == 8
        assert report.suppressed == {"RACE002": 4}
        assert "(+4 more suppressed)" in report.format()


# ---------------------------------------------------------------------------
# online race check in sanitized measurements
# ---------------------------------------------------------------------------


class TestOnlineRaceCheck:
    def test_clean_program_passes_sanitized_run(self, noisy_cost):
        _simulate(noisy_cost, "clean", sanitize=True)

    def test_racy_program_fails_sanitized_run(self, noisy_cost):
        with pytest.raises(TraceInvariantError, match="RACE001"):
            _simulate(noisy_cost, "send-race", sanitize=True)

    def test_unsanitized_run_records_the_race_silently(self, noisy_cost):
        trace = _simulate(noisy_cost, "send-race", sanitize=False)
        assert find_races(trace).has_races


# ---------------------------------------------------------------------------
# certificate vs. observed bit-identity (faultsweep cross-check)
# ---------------------------------------------------------------------------


class TestCertificateCrossCheck:
    def test_clean_fixture_certificate_agrees_for_all_six_modes(self):
        # deterministic program, no faults: every logical mode must be
        # observed bit-identical exactly as certified, both noisy modes
        # must diverge
        sweep = run_fault_sweep(
            reps=2, modes=MODES, fault_config=FaultConfig(),
            program=make_fixture("clean"),
        )
        assert sweep.certificate_verdicts.keys() == set(MODES)
        for mode in MODES:
            expected = (NOISE_SENSITIVE if mode in NOISY_MODES
                        else BIT_IDENTICAL)
            assert sweep.certificate_verdicts[mode] == expected
            assert sweep.identical(mode) == (mode not in NOISY_MODES)
        assert sweep.certificate_ok
        assert not sweep.certificate_mismatches()
        assert sweep.certificate_hash
        assert "agrees with observation" in sweep.report()

    def test_racy_program_diverges_as_certified(self):
        # the receiver branches on the matched source: even lt1
        # fingerprints differ across noise seeds, and the certificate
        # said so up front
        sweep = run_fault_sweep(
            reps=6, base_noise_seed=0, modes=("lt1",),
            fault_config=FaultConfig(), program=make_fixture("send-race"),
        )
        assert sweep.certificate_verdicts["lt1"] == NOISE_SENSITIVE
        assert len(set(sweep.fingerprints["lt1"])) >= 2
        assert sweep.certificate_ok  # prediction matched observation
        assert not sweep.deterministic_ok  # but bit-identity is gone

    def test_sweep_under_faults_keeps_certificate_agreement(self):
        sweep = run_fault_sweep(reps=2, modes=("tsc", "lt1"))
        assert sweep.deterministic_ok
        assert sweep.certificate_ok
        assert sweep.certificate_verdicts["lt1"] == BIT_IDENTICAL

    def test_wrong_verdict_is_detected(self):
        sweep = run_fault_sweep(
            reps=2, modes=("lt1",), fault_config=FaultConfig(),
            program=make_fixture("clean"),
        )
        # forge a refuted certificate: claim bit-identity where the
        # fingerprints differ
        sweep.fingerprints["lt1"][1] = "0" * 64
        mismatches = sweep.certificate_mismatches()
        assert mismatches and "lt1" in mismatches[0]
        assert sweep.certificate_ok is False
        assert "REFUTED" in sweep.report()

    def test_profile_divergence_refutes_the_certificate(self):
        sweep = run_fault_sweep(
            reps=2, modes=("lt1",), fault_config=FaultConfig(),
            program=make_fixture("clean"),
        )
        assert sweep.identical("lt1")
        # equal traces, forged profile: a certificate covers the profile
        sweep.profile_fingerprints["lt1"][1] = "0" * 64
        assert not sweep.identical("lt1")
        mismatches = sweep.certificate_mismatches()
        assert mismatches and "2 distinct profile fingerprints" in mismatches[0]
        assert "1 trace / 2 profile fingerprints" in sweep.report()

    def test_certify_false_skips_the_check(self):
        sweep = run_fault_sweep(
            reps=1, modes=("lt1",), fault_config=FaultConfig(),
            program=make_fixture("clean"), certify=False,
        )
        assert sweep.certificate_ok is None
        assert not sweep.certificate_verdicts


# ---------------------------------------------------------------------------
# workflow pre-flight
# ---------------------------------------------------------------------------


class TestPreflightDeterminism:
    def test_preflight_passes_for_real_experiment(self):
        from repro.experiments.workflow import preflight_lint

        preflight_lint("MiniFE-1")

    def test_preflight_rejects_order_racy_app(self, monkeypatch):
        from repro.experiments import workflow

        monkeypatch.setattr(
            workflow, "make_app", lambda name: make_fixture("send-race")
        )
        with pytest.raises(VerificationError, match="determinism"):
            workflow.preflight_lint("MiniFE-1")


# ---------------------------------------------------------------------------
# CLI: repro-lint --determinism / --races / --format json
# ---------------------------------------------------------------------------


class TestCliAnalysis:
    def test_miniapp_passes_with_full_analysis(self, capsys):
        from repro.cli import main_lint

        rc = main_lint(["MiniFE-1", "--determinism", "--races",
                        "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["ok"] is True
        assert doc["determinism"]["order_deterministic"] is True
        assert doc["determinism"]["mode_verdicts"]["lt1"] == BIT_IDENTICAL
        assert doc["determinism"]["certificate_sha256"]
        assert doc["races"]["has_races"] is False

    def test_racy_fixture_fails_with_witnessed_diagnostics(self, capsys):
        from repro.cli import main_lint

        rc = main_lint(["--fixture", "send-race", "--determinism",
                        "--races", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["ok"] is False
        rules = {d["rule"] for d in doc["diagnostics"]}
        assert {"DET001", "DET002", "RACE001"} <= rules
        for d in doc["diagnostics"]:
            assert d["hint"]  # every rule documents its fix
        race = next(d for d in doc["diagnostics"] if d["rule"] == "RACE001")
        assert race["witness"]

    def test_json_alias_matches_format_json(self, capsys):
        from repro.cli import main_lint

        main_lint(["--fixture", "wildcard-recv", "--determinism", "--json"])
        via_alias = capsys.readouterr().out
        main_lint(["--fixture", "wildcard-recv", "--determinism",
                   "--format", "json"])
        assert capsys.readouterr().out == via_alias

    def test_lint_errors_skip_the_race_simulation(self, capsys):
        from repro.cli import main_lint

        rc = main_lint(["--fixture", "deadlock-cycle", "--races"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "race check skipped" in out

    def test_text_report_shows_certificate(self, capsys):
        from repro.cli import main_lint

        assert main_lint(["--fixture", "clean", "--determinism"]) == 0
        out = capsys.readouterr().out
        assert "certificate sha256" in out
        assert "bit-identical" in out

    def test_usage_error_exit_code_is_2(self):
        from repro.cli import main_lint

        with pytest.raises(SystemExit) as exc:
            main_lint([])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# suppression accounting (no silent truncation)
# ---------------------------------------------------------------------------


class TestSuppressionAccounting:
    def test_sanitizer_surfaces_suppressed_counts(self, quiet_cost):
        from repro.verify import sanitize_trace

        prog = make_fixture("clean")
        engine = Engine(prog, quiet_cost.cluster, quiet_cost,
                        measurement=Measurement("tsc"))
        trace = engine.run().trace
        # corrupt far more events than the per-rule cap: shift every
        # other event on location 0 back in time
        evs = trace.events[0]
        for i in range(1, len(evs), 2):
            evs[i].t = -float(i)
        report = sanitize_trace(trace, modes=("tsc",))
        assert not report.ok
        assert report.n_suppressed > 0
        assert any(n > 0 for n in report.suppressed.values())
        text = report.format()
        assert "suppressed)" in text
        assert "more suppressed" in text

    def test_clean_trace_has_nothing_suppressed(self, quiet_cost):
        from repro.verify import sanitize_trace

        prog = make_fixture("clean")
        engine = Engine(prog, quiet_cost.cluster, quiet_cost,
                        measurement=Measurement("tsc"))
        report = sanitize_trace(engine.run().trace)
        assert report.ok
        assert report.n_suppressed == 0
        assert report.suppressed == {}
