"""Command-line tools.

* ``repro-run``      -- simulate one configuration under one mode and write
  the trace archive.
* ``repro-analyze``  -- analyze a trace archive into a Cube profile.
* ``repro-score``    -- generalized Jaccard score of two profiles.
* ``repro-report``   -- regenerate the paper's tables/figures.
* ``repro-lint``     -- statically lint experiment programs / sanitize
  trace archives (see ``docs/verify.md``).
* ``repro-bench``    -- time the toolchain's hot paths and write
  ``BENCH_repro.json`` (see ``docs/performance.md``).
* ``repro-obs``      -- summarize/export observability archives and diff
  provenance manifests (see ``docs/observability.md``).
* ``repro-faults``   -- run the fault sweep: fixed fault realization,
  varying noise, checks the logical timers' bit-identity (see
  ``docs/robustness.md``).
* ``repro-causal``   -- causal profiler: critical path + wait-state blame,
  cross-run trace alignment, what-if replay, delay propagation (see
  ``docs/causal.md``).
* ``repro-serve``    -- asyncio analysis service over the shared
  content-addressed result cache: single-flight coalescing, adaptive
  batching, backpressure, quotas (see ``docs/serving.md``).
* ``repro-ingest``   -- hardened ingestion of untrusted foreign traces:
  convert, replay, and fuzz (see ``docs/ingest.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main_run", "main_analyze", "main_score", "main_report", "main_lint",
           "main_bench", "main_obs", "main_faults", "main_causal",
           "main_serve", "main_ingest"]


def main_run(argv: Optional[List[str]] = None) -> int:
    """Simulate an experiment configuration and write its trace."""
    from repro.experiments.configs import experiment_names, make_app, make_cluster
    from repro.machine.noise import NoiseConfig, NoiseModel
    from repro.measure import MODES, Measurement, write_trace
    from repro.sim import CostModel, Engine

    parser = argparse.ArgumentParser(prog="repro-run", description=main_run.__doc__)
    parser.add_argument("experiment", choices=experiment_names())
    parser.add_argument("--mode", choices=list(MODES), default="tsc")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default=None, help="trace output (.json.gz)")
    args = parser.parse_args(argv)

    app = make_app(args.experiment)
    cluster = make_cluster(args.experiment)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=args.seed))
    result = Engine(app, cluster, cost, measurement=Measurement(args.mode)).run()
    print(f"{args.experiment} [{args.mode}] runtime {result.runtime:.4f}s, "
          f"{result.trace.n_events} events, {result.trace.n_locations} locations")
    for phase, dur in sorted(result.phase_times.items()):
        print(f"  phase {phase}: {dur:.4f}s")
    out = args.output or f"{args.experiment}-{args.mode}-s{args.seed}.trace.json.gz"
    from repro import obs

    manifest = obs.build_manifest(
        "trace",
        {
            "experiment": args.experiment,
            "mode": args.mode,
            "seed": args.seed,
            "version": obs.package_version(),
        },
        environment=obs.default_environment(),
    )
    write_trace(result.trace, out, manifest=manifest)
    print(f"trace written to {out} (manifest {manifest['hash'][:12]})")
    return 0


#: trace-archive suffixes, longest first (what :func:`_profile_path` strips)
_ARCHIVE_SUFFIXES = (".json.gz", ".shards", ".npz", ".gz", ".json")


def _profile_path(trace_path: str) -> str:
    """Default profile path of a trace archive: the archive suffix and a
    ``.trace`` infix replaced by ``.profile.json.gz`` (``run.npz`` ->
    ``run.profile.json.gz``, ``x.trace.json.gz`` -> ``x.profile.json.gz``)."""
    path = Path(trace_path)
    name = path.name
    for suffix in _ARCHIVE_SUFFIXES:
        if name.endswith(suffix):
            name = name[:-len(suffix)]
            break
    if name.endswith(".trace"):
        name = name[:-len(".trace")]
    return str(path.with_name(name + ".profile.json.gz"))


def main_analyze(argv: Optional[List[str]] = None) -> int:
    """Analyze a trace archive into a profile (Scalasca analogue)."""
    from repro.analysis import analyze_trace
    from repro.analysis.metrics import group_totals
    from repro.clocks import timestamp_trace
    from repro.cube import write_profile
    from repro.measure import TraceFormatError, read_trace

    parser = argparse.ArgumentParser(prog="repro-analyze", description=main_analyze.__doc__)
    parser.add_argument("trace", help="trace archive written by repro-run")
    parser.add_argument("--mode", default=None, help="override the timestamp mode")
    parser.add_argument("--counter-seed", type=int, default=0)
    parser.add_argument("-o", "--output", default=None, help="profile output (.json.gz)")
    parser.add_argument("--report", action="store_true",
                        help="print the full text report (metric tree, hot "
                             "call paths, load balance)")
    args = parser.parse_args(argv)
    out = args.output or _profile_path(args.trace)
    if Path(out).resolve() == Path(args.trace).resolve():
        parser.error(f"output {out} would overwrite the input trace")

    try:
        trace = read_trace(args.trace)
    except TraceFormatError as exc:
        parser.error(str(exc))
    tt = timestamp_trace(trace, args.mode, counter_seed=args.counter_seed)
    profile = analyze_trace(tt)
    print(f"analyzed {trace.n_events} events [{tt.mode}]")
    if args.report:
        from repro.analysis import render_report

        print(render_report(profile))
    else:
        for k, v in group_totals(profile).items():
            print(f"  {k:14s} {v:6.1f} %T")
    write_profile(profile, out)
    print(f"profile written to {out}")
    return 0


def main_score(argv: Optional[List[str]] = None) -> int:
    """Generalized Jaccard score J_(M,C) of two profiles."""
    from repro.cube import read_profile
    from repro.scoring import jaccard_metric_callpath

    parser = argparse.ArgumentParser(prog="repro-score", description=main_score.__doc__)
    parser.add_argument("profile_a")
    parser.add_argument("profile_b")
    args = parser.parse_args(argv)
    a = read_profile(args.profile_a)
    b = read_profile(args.profile_b)
    print(f"J_(M,C) = {jaccard_metric_callpath(a, b):.4f}")
    return 0


def main_report(argv: Optional[List[str]] = None) -> int:
    """Regenerate the paper's tables and figures (uses the result cache)."""
    from repro.experiments import reports

    all_items = {
        "table1": reports.table1_overheads,
        "table2": reports.table2_tealeaf,
        "fig1": lambda seed=0: reports.fig1_metric_tree(),
        "fig2": reports.fig2_minife_init,
        "fig3": reports.fig3_jaccard_minife_lulesh,
        "fig4": reports.fig4_jaccard_tealeaf,
        "fig5": reports.fig5_minife_comp,
        "fig6": reports.fig6_minife_waitnxn,
        "fig7": reports.fig7_minife2_paradigms,
        "fig8": reports.fig8_lulesh1_paradigms,
        "fig9": reports.fig9_lulesh1_comp_and_delay,
    }
    parser = argparse.ArgumentParser(prog="repro-report", description=main_report.__doc__)
    parser.add_argument("items", nargs="*", default=[],
                        choices=list(all_items) + [[]],
                        help="which tables/figures (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="processes per measurement campaign (default: "
                             "the REPRO_WORKERS environment variable, else 1)")
    args = parser.parse_args(argv)
    if args.workers is not None:
        import os

        os.environ["REPRO_WORKERS"] = str(args.workers)
    for item in args.items or list(all_items):
        _data, text = all_items[item](seed=args.seed)
        print(text)
        print()

    from repro import obs

    session = obs.active()
    if session is not None:
        # One counter block per experiment campaign the run touched,
        # plus the global span/manifest summary (docs/observability.md).
        print(session.summary_text())
    return 0


def _simulate_for_races(program, cluster=None):
    """Run ``program`` once and return its RawTrace.

    Used by ``repro-lint --races`` on program targets: the race detector
    works on recorded traces, so programs are executed first (fixed
    noise seed; vector-clock concurrency does not depend on the
    realization anyway).  ``cluster`` defaults to the small test
    cluster, which fits every fixture; experiment programs pass their
    configured cluster.
    """
    from repro.machine.noise import NoiseConfig, NoiseModel
    from repro.machine.presets import small_test_cluster
    from repro.measure import Measurement
    from repro.sim import CostModel, Engine

    if cluster is None:
        cluster = small_test_cluster()
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=0))
    engine = Engine(program, cluster, cost, measurement=Measurement("lt1"))
    return engine.run().trace


def main_lint(argv: Optional[List[str]] = None) -> int:
    """Static program linter, determinism prover and trace race detector.

    ``repro-lint NAME...`` dry-runs the named experiment programs (or
    lint fixtures via ``--fixture``) and reports MPI/OpenMP misuse;
    ``--determinism`` additionally runs the static determinism prover
    (DET rules + per-clock-mode bit-identity certificate) and
    ``--races`` the happened-before race detector (RACE rules) on a
    one-shot simulation of each program; ``repro-lint --trace ARCHIVE``
    sanitizes a recorded trace archive against the happened-before
    invariants for every clock mode (plus ``--races`` on the archive).
    Exit status: 0 clean, 1 findings of error severity (or warnings
    under ``--strict``), 2 usage error.
    """
    import json as _json

    from repro.verify import (
        FIXTURES,
        analyze_determinism,
        find_races,
        fixture_names,
        lint_program,
        make_fixture,
        sanitize_trace,
        worst_severity,
    )

    parser = argparse.ArgumentParser(prog="repro-lint", description=main_lint.__doc__)
    parser.add_argument("names", nargs="*",
                        help="experiment names to lint (see repro-run); "
                             "'all' lints every experiment")
    parser.add_argument("--trace", action="append", default=[],
                        metavar="ARCHIVE",
                        help="sanitize a trace archive written by repro-run "
                             "(repeatable)")
    parser.add_argument("--fixture", action="append", default=[],
                        metavar="NAME",
                        help="lint a built-in buggy fixture program "
                             f"(one of: {', '.join(fixture_names())})")
    parser.add_argument("--selftest", action="store_true",
                        help="lint every built-in fixture and check that "
                             "exactly the expected rules fire")
    parser.add_argument("--determinism", action="store_true",
                        help="also run the static determinism prover on "
                             "each program and print its certificate")
    parser.add_argument("--races", action="store_true",
                        help="also run the vector-clock race detector "
                             "(programs are simulated once; traces are "
                             "checked directly)")
    parser.add_argument("--mode", action="append", default=[],
                        help="restrict --trace timestamp checks to these "
                             "clock modes (repeatable; default: all)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--json", action="store_true",
                        help="alias for --format json")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    args = parser.parse_args(argv)

    if args.json:
        args.format = "json"
    if not (args.names or args.trace or args.fixture or args.selftest):
        parser.error("nothing to lint: give experiment names, --trace, "
                     "--fixture or --selftest")

    if args.selftest:
        selftest_ok = True
        for fx in FIXTURES.values():
            got = lint_program(fx.make()).rule_ids()
            if got != set(fx.expected_rules):
                selftest_ok = False
                print(f"selftest {fx.name}: expected "
                      f"{sorted(fx.expected_rules)}, got {sorted(got)}")
        print(f"selftest: {len(FIXTURES)} fixtures "
              f"{'ok' if selftest_ok else 'FAILED'}")
        if not selftest_ok:
            return 1

    # Collect program targets (label, Program) and trace targets.
    programs = []
    names = list(args.names)
    if "all" in names:
        from repro.experiments.configs import experiment_names

        names = experiment_names()
    clusters = {}  # label -> cluster for the --races simulation
    for name in names:
        from repro.experiments.configs import (
            experiment_names,
            make_app,
            make_cluster,
        )

        if name not in experiment_names():
            parser.error(f"unknown experiment {name!r}; "
                         f"known: {experiment_names()}")
        programs.append((name, make_app(name)))
        clusters[name] = make_cluster(name)
    for name in args.fixture:
        try:
            programs.append((f"fixture:{name}", make_fixture(name)))
        except KeyError as exc:
            parser.error(str(exc))

    from repro.measure.config import validate_mode

    try:
        modes = tuple(validate_mode(m) for m in args.mode) or None
    except ValueError as exc:
        parser.error(str(exc))

    failed = False
    results = []  # one dict per target, printed at the end

    def _diag_json(d):
        return {
            "rule": d.rule_id,
            "severity": d.severity,
            "message": d.message,
            "rank": d.rank,
            "location": d.location,
            "call_path": list(d.call_path),
            "action_index": d.action_index,
            "mode": d.mode,
            "witness": list(d.witness),
            "hint": d.hint,
        }

    for label, program in programs:
        diagnostics = []
        entry = {"target": label, "kind": "program"}
        text = []

        lint = lint_program(program)
        diagnostics.extend(lint.diagnostics)
        text.append(lint.format())

        if args.determinism:
            det = analyze_determinism(program)
            diagnostics.extend(det.diagnostics)
            text.append(det.report())
            entry["determinism"] = {
                "order_deterministic": det.order_deterministic,
                "generator_deterministic": det.generator_deterministic,
                "n_sites": len(det.sites),
                "n_racy_sites": det.n_racy_sites,
                "mode_verdicts": dict(det.mode_verdicts),
                "certificate_sha256": det.certificate.get("hash"),
            }

        if args.races:
            # Programs the linter rejects may not run to completion
            # (deadlocks hang) or record traces that break the
            # invariants the detector relies on, so only simulate
            # lint-clean programs.
            if any(d.severity == "error" for d in lint.diagnostics):
                text.append(f"{label}: race check skipped "
                            "(lint errors prevent simulation)")
                entry["races"] = {"skipped": "lint errors"}
            else:
                races = find_races(
                    _simulate_for_races(program, clusters.get(label))
                )
                diagnostics.extend(races.diagnostics)
                text.append(races.format())
                entry["races"] = {
                    "has_races": races.has_races,
                    "wildcard_sites": dict(races.wildcard_sites),
                    "suppressed": dict(races.suppressed),
                }

        worst = worst_severity(diagnostics)
        bad = worst == "error" or (args.strict and worst == "warning")
        failed |= bad
        entry["ok"] = not bad
        entry["diagnostics"] = [_diag_json(d) for d in diagnostics]
        results.append((entry, "\n".join(text)))

    for path in args.trace:
        from repro.measure import TraceFormatError, read_trace

        try:
            trace = read_trace(path)
        except TraceFormatError as exc:
            parser.error(str(exc))
        except OSError as exc:
            parser.error(f"cannot read trace archive {path!r}: {exc}")
        diagnostics = []
        entry = {"target": path, "kind": "trace"}
        text = []

        san = sanitize_trace(trace, modes=modes)
        diagnostics.extend(san.diagnostics)
        text.append(san.format())
        if san.suppressed:
            entry["suppressed"] = dict(san.suppressed)

        if args.races:
            races = find_races(trace)
            diagnostics.extend(races.diagnostics)
            text.append(races.format())
            entry["races"] = {
                "has_races": races.has_races,
                "wildcard_sites": dict(races.wildcard_sites),
                "suppressed": dict(races.suppressed),
            }

        worst = worst_severity(diagnostics)
        bad = worst == "error" or (args.strict and worst == "warning")
        failed |= bad
        entry["ok"] = not bad
        entry["diagnostics"] = [_diag_json(d) for d in diagnostics]
        results.append((entry, "\n".join(text)))

    for entry, text in results:
        if args.format == "json":
            print(_json.dumps(entry))
        else:
            print(text)
    return 1 if failed else 0


def main_bench(argv: Optional[List[str]] = None) -> int:
    """Time the toolchain's hot paths and write ``BENCH_repro.json``.

    With ``--baseline``, any gated wall-time more than ``--threshold``
    times its baseline value fails the run (exit 1) -- the CI smoke gate.
    """
    from repro.bench import (
        campaign_warnings,
        compare_to_baseline,
        load_bench,
        render_comparison_markdown,
        run_benchmarks,
        write_bench,
    )

    parser = argparse.ArgumentParser(prog="repro-bench", description=main_bench.__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller fixture and fewer repetitions (CI)")
    parser.add_argument("-o", "--output", default="BENCH_repro.json",
                        help="result file (default: %(default)s)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare against a committed baseline bench file")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="regression factor that fails the gate "
                             "(default: %(default)s)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count for the campaign benchmark "
                             "(default: %(default)s)")
    parser.add_argument("--compare", default=None, metavar="PATH",
                        help="write a markdown comparison table against this "
                             "baseline bench file (the CI artifact; does not "
                             "gate -- use --baseline for gating)")
    parser.add_argument("--compare-output", default="BENCH_compare.md",
                        metavar="PATH",
                        help="where --compare writes the markdown table "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    doc = run_benchmarks(quick=args.quick, workers=args.workers)
    write_bench(doc, Path(args.output))
    print(f"bench results written to {args.output}")
    for warning in campaign_warnings(doc):
        print(f"WARNING {warning}")

    if args.compare:
        compare_base = load_bench(Path(args.compare))
        if compare_base is None:
            print(f"cannot read comparison baseline {args.compare!r}")
            return 2
        md = render_comparison_markdown(doc, compare_base, args.threshold)
        Path(args.compare_output).write_text(md)
        print(f"comparison table written to {args.compare_output}")

    if args.baseline:
        baseline = load_bench(Path(args.baseline))
        if baseline is None:
            print(f"cannot read baseline {args.baseline!r}")
            return 2
        problems = compare_to_baseline(doc, baseline, args.threshold)
        if problems:
            for p in problems:
                print(f"REGRESSION {p}")
            return 1
        print(f"no regressions vs {args.baseline} "
              f"(threshold {args.threshold:g}x)")
    return 0


def _load_cli_manifest(path: str, parser: argparse.ArgumentParser) -> dict:
    """Provenance manifest of any supported artifact, for ``repro-obs diff``.

    Dispatches on the artifact: ``.npz``/gzipped/``.shards`` trace
    archives carry the manifest in their header, observability archives
    carry the manifests they collected (the first is compared), and plain
    JSON files are treated as raw manifest documents.  Anything else is
    a usage error (exit 2).
    """
    import json as _json

    from repro import obs

    try:
        if Path(path).suffix in (".npz", ".gz", ".shards"):
            from repro.measure import read_manifest

            manifest = read_manifest(path)
            if not isinstance(manifest, dict):
                parser.error(f"{path}: trace archive has no embedded manifest")
            return manifest
        doc = _json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read {path!r}: {exc}")
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == obs.MANIFEST_FORMAT:
        return doc
    if fmt == obs.ARCHIVE_FORMAT:
        manifests = doc.get("manifests", [])
        if not manifests:
            parser.error(f"{path}: observability archive collected no manifests")
        return manifests[0]
    parser.error(f"{path}: neither a manifest, an obs archive nor a trace "
                 f"archive (format={fmt!r})")


def main_obs(argv: Optional[List[str]] = None) -> int:
    """Inspect observability archives and provenance manifests.

    ``repro-obs summary ARCHIVE`` prints per-experiment counters, span
    wall times and collected manifests of an archive written via
    ``REPRO_OBS=1`` / ``ObsSession.save``; ``repro-obs export ARCHIVE
    --chrome`` converts it to Chrome trace-event JSON (load in
    ui.perfetto.dev or chrome://tracing); ``repro-obs diff A B`` compares
    the provenance manifests of two artifacts and exits 1 when their
    configuration hashes differ.
    """
    import json as _json

    from repro import obs

    parser = argparse.ArgumentParser(prog="repro-obs", description=main_obs.__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_sum = sub.add_parser("summary", help="per-experiment counters + span table")
    p_sum.add_argument("archive")
    p_exp = sub.add_parser("export", help="convert an archive for other tools")
    p_exp.add_argument("archive",
                       help="obs archive, or a .shards trace archive "
                            "(streams with --chrome)")
    p_exp.add_argument("--chrome", action="store_true",
                       help="write Chrome trace-event JSON (Perfetto)")
    p_exp.add_argument("-o", "--output", default=None,
                       help="output path (default: ARCHIVE.chrome.json)")
    p_diff = sub.add_parser("diff", help="compare two provenance manifests")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)

    if args.cmd == "summary":
        print(obs.summary_text(obs.load_archive(args.archive)))
        return 0
    if args.cmd == "export":
        if args.archive.endswith(".shards"):
            # an engine-trace shard archive, not an obs archive: stream
            # it shard-at-a-time into Chrome trace events
            if not args.chrome:
                parser.error(f"{args.archive}: shard archives only export "
                             "with --chrome")
            from repro.measure.shards import open_sharded_trace

            sharded = open_sharded_trace(args.archive)
            out = args.output or args.archive + ".chrome.json"
            n = obs.write_trace_chrome(out, [obs.trace_chrome_events(sharded)])
            print(f"chrome trace written to {out} ({n} events, peak "
                  f"{sharded.stats.peak_resident_rows} resident rows; "
                  "open in ui.perfetto.dev)")
            return 0
        doc = obs.load_archive(args.archive)
        if args.chrome:
            out = args.output or args.archive + ".chrome.json"
            Path(out).write_text(_json.dumps(obs.to_chrome(doc)) + "\n")
            print(f"chrome trace written to {out} (open in ui.perfetto.dev)")
        else:
            print(obs.span_table(doc))
            print()
            print(obs.metrics_table(doc))
        return 0
    # diff
    ma = _load_cli_manifest(args.a, parser)
    mb = _load_cli_manifest(args.b, parser)
    for line in obs.diff_manifests(ma, mb):
        print(line)
    if ma.get("hash") == mb.get("hash"):
        print(f"manifests match (hash {ma.get('hash', '')[:12]})")
        return 0
    return 1


def main_faults(argv: Optional[List[str]] = None) -> int:
    """Fault sweep: fixed fault realization, varying machine noise.

    Runs the checkpointed ring application through the simulated
    checkpoint/restart protocol under injected faults (crashes, message
    loss/duplication, degraded links, stragglers), once per noise seed,
    and reports whether each clock mode's recovered trace is
    bit-identical across the noise repetitions, cross-checked against
    the static determinism certificate.  Exit status: 0 when every
    deterministic logical mode is bit-identical, all traces sanitize
    cleanly and the certificate agrees with observation, 1 otherwise.
    """
    from repro.experiments.faultsweep import default_fault_config, run_fault_sweep
    from repro.machine.faults import FaultConfig
    from repro.measure import MODES
    from repro.measure.config import validate_mode

    parser = argparse.ArgumentParser(prog="repro-faults",
                                     description=main_faults.__doc__)
    parser.add_argument("--fault-seed", type=int, default=99,
                        help="seed of the fault realization "
                             "(default: %(default)s)")
    parser.add_argument("--reps", type=int, default=3,
                        help="noise repetitions per mode (default: %(default)s)")
    parser.add_argument("--noise-seed", type=int, default=3,
                        help="first noise seed; rep r uses noise-seed + r "
                             "(default: %(default)s)")
    parser.add_argument("--mode", action="append", default=[],
                        help="restrict to these clock modes (repeatable; "
                             "default: all)")
    parser.add_argument("--intensity", type=float, default=1.0,
                        help="scale every fault probability by this factor "
                             "(default: %(default)s)")
    parser.add_argument("--max-restarts", type=int, default=8,
                        help="give up past this many restarts per run "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    try:
        modes = tuple(validate_mode(m) for m in args.mode) or tuple(MODES)
    except ValueError as exc:
        parser.error(str(exc))
    config: FaultConfig = default_fault_config().scaled(args.intensity)
    result = run_fault_sweep(
        fault_seed=args.fault_seed,
        reps=args.reps,
        base_noise_seed=args.noise_seed,
        modes=modes,
        fault_config=config,
        max_restarts=args.max_restarts,
    )
    print(result.report())
    ok = result.deterministic_ok and result.certificate_ok is not False
    return 0 if ok else 1


def _load_trace_like(path: str):
    """Open a trace archive: ``.shards`` streams, ``.json.gz`` loads."""
    if str(path).endswith(".shards"):
        from repro.measure.shards import open_sharded_trace

        return open_sharded_trace(path)
    from repro.measure import read_trace

    return read_trace(path)


def main_causal(argv: Optional[List[str]] = None) -> int:
    """Causal profiler over recorded traces.

    ``repro-causal blame TRACE`` builds the happened-before DAG, extracts
    the critical path and attributes every wait state back to the
    compute/transfer edges that caused it (writes a JSON report and
    optionally a Cube blame profile for ``repro-score``/``cube.diff``).
    ``repro-causal align REF OTHER...`` warps other runs' timelines onto
    the reference run's collective markers and streams one overlaid
    Chrome trace (Perfetto-loadable).  ``repro-causal whatif TRACE
    --scale REGION=F ...`` predicts the edited run's logical timeline,
    optionally validated bit-for-bit against a full engine
    re-simulation.  ``repro-causal delayprop`` runs the delay
    propagation/decay experiment (Afzal/Hager/Wellein wavefront).  See
    ``docs/causal.md``.
    """
    import json as _json

    parser = argparse.ArgumentParser(prog="repro-causal",
                                     description=main_causal.__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_blame = sub.add_parser("blame", help="critical path + wait-state blame")
    p_blame.add_argument("trace", help="trace archive (.json.gz or .shards)")
    p_blame.add_argument("--mode", default=None,
                         help="clock mode (default: the trace's own)")
    p_blame.add_argument("--counter-seed", type=int, default=0)
    p_blame.add_argument("--top", type=int, default=10,
                         help="critical-path rows to print (default: %(default)s)")
    p_blame.add_argument("-o", "--output", default=None,
                         help="JSON report path (default: TRACE.blame.json)")
    p_blame.add_argument("--profile", default=None,
                         help="also write the Cube blame profile here")

    p_align = sub.add_parser("align", help="overlay runs on one timeline")
    p_align.add_argument("reference", help="reference trace archive")
    p_align.add_argument("others", nargs="+", help="trace archives to align")
    p_align.add_argument("-o", "--output", default="aligned.chrome.json",
                         help="Chrome trace output (default: %(default)s)")

    p_what = sub.add_parser("whatif", help="edited-cost replay prediction")
    p_what.add_argument("trace", help="trace archive (.json.gz or .shards)")
    p_what.add_argument("--mode", default=None,
                        help="replay mode (default: the trace's own; must be "
                             "a deterministic logical mode)")
    p_what.add_argument("--scale", action="append", default=[],
                        metavar="REGION=FACTOR",
                        help="scale a region's work (repeatable)")
    p_what.add_argument("--scale-rank", action="append", default=[],
                        metavar="RANK=FACTOR",
                        help="scale a whole rank's work (repeatable)")
    p_what.add_argument("--drop", action="append", default=[], metavar="REGION",
                        help="drop a region's work entirely (repeatable)")
    p_what.add_argument("--validate", default=None, metavar="EXPERIMENT",
                        help="validate against a fresh engine run of this "
                             "experiment configuration")
    p_what.add_argument("--seed", type=int, default=0,
                        help="noise seed of the validation re-run")
    p_what.add_argument("-o", "--output", default=None,
                        help="JSON result path (default: print only)")

    p_dp = sub.add_parser("delayprop", help="delay propagation/decay study")
    p_dp.add_argument("--mode", default="ltbb")
    p_dp.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p_dp.add_argument("--iters", type=int, default=10)
    p_dp.add_argument("--delay-rank", type=int, default=0)
    p_dp.add_argument("--delay-iter", type=int, default=2)
    p_dp.add_argument("--delay-units", type=float, default=200.0)
    p_dp.add_argument("--no-whatif", action="store_true",
                      help="skip the drop-region what-if cross-check")
    p_dp.add_argument("-o", "--output", default=None,
                      help="JSON result path (default: print only)")
    args = parser.parse_args(argv)

    if args.cmd == "blame":
        from repro.causal import blame_profile, build_dag, critical_path_table
        from repro.cube import write_profile

        trace = _load_trace_like(args.trace)
        dag = build_dag(trace, args.mode, counter_seed=args.counter_seed)
        prof = blame_profile(dag)
        cp = dag.critical_path()
        print(f"mode {dag.mode}: {dag.n_events} events, {dag.n_nodes} sync "
              f"nodes, makespan {dag.makespan:g}, total wait "
              f"{dag.total_wait():g}")
        print(f"critical path: {len(cp)} nodes, fingerprint "
              f"{dag.critical_path_fingerprint()[:16]}")
        rows = critical_path_table(dag, top=args.top)
        if rows:
            width = max(len(r[0]) for r in rows)
            print(f"{'call path':<{width}}  {'hops':>5}  "
                  f"{'work':>12}  {'wait':>12}")
            for path, hops, work, wait in rows:
                print(f"{path:<{width}}  {hops:>5}  {work:>12g}  {wait:>12g}")
        report = {
            "trace": args.trace,
            "mode": dag.mode,
            "makespan": dag.makespan,
            "total_wait": dag.total_wait(),
            "critical_path_len": len(cp),
            "critical_path_fingerprint": dag.critical_path_fingerprint(),
            "rows": [{"path": p, "hops": h, "work": wk, "wait": wt}
                     for p, h, wk, wt in rows],
            "blame": {
                metric: sum(prof.cells(metric).values())
                for metric in prof.metrics
            },
        }
        out = args.output or args.trace + ".blame.json"
        with open(out, "w") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"blame report written to {out}")
        if args.profile:
            write_profile(prof, args.profile)
            print(f"blame profile written to {args.profile}")
        return 0

    if args.cmd == "align":
        from repro.causal import ClockAligner
        from repro.obs import trace_chrome_events, write_trace_chrome

        reference = _load_trace_like(args.reference)
        aligner = ClockAligner(reference)
        if aligner.n_markers() == 0:
            parser.error(f"{args.reference}: no alignment markers "
                         "(collectives/restarts) in the reference trace")
        exports = [trace_chrome_events(reference, label="ref")]
        pid_stride = max(r for r, _t in reference.locations) + 1
        for k, path in enumerate(args.others):
            other = _load_trace_like(path)
            aligned = aligner.align(other, label=f"run{k + 1}")
            print(f"{path}: raw skew {aligner.raw_skew(other):g} -> residual "
                  f"{aligner.residual_skew(aligned):g} "
                  f"({len(aligner.ref_markers)} marker locations)")
            exports.append(trace_chrome_events(
                aligned.trace, map_t=aligned.map_t,
                pid_offset=(k + 1) * pid_stride, label=aligned.label))
        n = write_trace_chrome(args.output, exports)
        print(f"{n} events written to {args.output} (open in ui.perfetto.dev)")
        return 0

    if args.cmd == "whatif":
        from repro.causal import (
            drop_region,
            run_whatif,
            scale_rank,
            scale_region,
            validate_whatif,
        )

        edits = []
        try:
            for spec in args.scale:
                region, _, factor = spec.rpartition("=")
                edits.append(scale_region(region, float(factor)))
            for spec in args.scale_rank:
                rank, _, factor = spec.rpartition("=")
                edits.append(scale_rank(int(rank), float(factor)))
        except ValueError as exc:
            parser.error(f"bad edit spec: {exc}")
        edits.extend(drop_region(region) for region in args.drop)
        if not edits:
            parser.error("no edits given (--scale/--scale-rank/--drop)")
        trace = _load_trace_like(args.trace)
        result = run_whatif(trace, edits, args.mode)
        for e in result.edits:
            print(f"edit: {e.describe()}")
        print(f"mode {result.mode}: makespan {result.baseline_makespan:g} -> "
              f"{result.makespan:g} (speedup {result.speedup:.4g})")
        doc = result.to_json()
        if args.validate:
            from repro.experiments.configs import make_app, make_cluster
            from repro.machine.noise import NoiseConfig, NoiseModel
            from repro.measure import Measurement
            from repro.sim import CostModel, Engine

            def rerun():
                cluster = make_cluster(args.validate)
                cost = CostModel(cluster,
                                 noise=NoiseModel(NoiseConfig(),
                                                  seed=args.seed))
                return Engine(make_app(args.validate), cluster, cost,
                              measurement=Measurement(trace.mode)).run().trace

            v = validate_whatif(result, rerun)
            doc["validation"] = v.to_json()
            print(f"engine re-simulation oracle: "
                  f"{'bit-identical' if v.ok else 'MISMATCH'} "
                  f"(max |diff| {v.max_abs_diff:g})")
            if not v.ok:
                return 1
        if args.output:
            with open(args.output, "w") as fh:
                _json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"what-if result written to {args.output}")
        return 0

    # delayprop
    from repro.experiments.delayprop import run_delay_propagation
    from repro.measure.config import NOISY_MODES

    result = run_delay_propagation(
        mode=args.mode,
        seeds=args.seeds,
        iters=args.iters,
        delay_rank=args.delay_rank,
        delay_iter=args.delay_iter,
        delay_units=args.delay_units,
        check_whatif=not args.no_whatif,
    )
    print(result.report())
    if args.output:
        with open(args.output, "w") as fh:
            _json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"delayprop result written to {args.output}")
    ok = True
    if result.mode not in NOISY_MODES and not result.seed_invariant:
        ok = False
    if result.whatif_ok is not None and not all(result.whatif_ok.values()):
        ok = False
    return 0 if ok else 1


def main_serve(argv: Optional[List[str]] = None) -> int:
    """Run or exercise the analysis service (see ``docs/serving.md``).

    ``repro-serve run`` boots the asyncio HTTP service over the shared
    result cache; ``repro-serve load HOST:PORT EXPERIMENT`` drives the
    cold/warm/coalesced load phases against a running service and
    prints the latency/identity report.
    """
    import asyncio as _asyncio
    import json as _json

    parser = argparse.ArgumentParser(prog="repro-serve",
                                     description=main_serve.__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="boot the service")
    p_run.add_argument("--host", default="127.0.0.1")
    p_run.add_argument("--port", type=int, default=8337)
    p_run.add_argument("--workers", type=int, default=None,
                       help="pool size (default: REPRO_WORKERS, else 1)")
    p_run.add_argument("--cache-dir", default=None,
                       help="store root (default: the workflow cache)")
    p_run.add_argument("--cache-max-bytes", type=int, default=None,
                       help="LRU budget (default: REPRO_CACHE_MAX_BYTES)")
    p_run.add_argument("--queue-limit", type=int, default=64)
    p_run.add_argument("--tenant-rate", type=float, default=20.0,
                       help="quota tokens/second per tenant")
    p_run.add_argument("--tenant-burst", type=float, default=40.0)

    p_load = sub.add_parser("load", help="cold/warm/coalesced load phases")
    p_load.add_argument("target", help="HOST:PORT of a running service")
    p_load.add_argument("experiment")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--coalesce", type=int, default=4,
                        help="concurrent clients in the coalesced phase")
    p_load.add_argument("--json", action="store_true",
                        help="print the raw report document")
    args = parser.parse_args(argv)

    if args.cmd == "run":
        from repro.serve.service import ServeConfig, run_service

        run_service(ServeConfig(
            host=args.host, port=args.port, workers=args.workers,
            cache_dir=args.cache_dir, cache_max_bytes=args.cache_max_bytes,
            queue_limit=args.queue_limit, tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
        ))
        return 0

    # load
    from repro.serve.client import format_load_report, run_load

    host, _sep, port = args.target.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"target must be HOST:PORT, got {args.target!r}")
    report = _asyncio.run(run_load(host, int(port), args.experiment,
                                   seed=args.seed, coalesce=args.coalesce))
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_load_report(report))
    ok = report["warm_identical"] and report["coalesce_identical"] \
        and report["coalesce_statuses"] == [200]
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_report())


def main_ingest(argv: Optional[List[str]] = None) -> int:
    """Hardened ingestion of untrusted foreign traces (``docs/ingest.md``).

    ``repro-ingest convert INPUT`` parses/salvages a Chrome trace-event
    JSON or ``repro-commops-1`` file under hard resource caps, prints
    the ingest report and (for Chrome inputs) writes a canonical trace
    archive; rejected inputs are quarantined as ``*.corrupt-N``.
    ``repro-ingest replay INPUT`` additionally replays the result --
    logical-clock finals for traces, a full engine run for comm-op
    programs.  ``repro-ingest fuzz`` runs the seeded corpus-mutation
    fuzzer asserting the parse/repair/reject contract.

    Exit status: 0 accepted, 2 rejected, 1 contract violation (fuzz).
    """
    import json as _json

    parser = argparse.ArgumentParser(prog="repro-ingest",
                                     description=main_ingest.__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("input", help="foreign trace file (.json/.json.gz)")
        p.add_argument("--format", choices=("chrome", "commops"),
                       default=None, help="skip format sniffing")
        p.add_argument("--no-quarantine", action="store_true",
                       help="leave rejected inputs in place")
        p.add_argument("--max-bytes", type=int, default=None)
        p.add_argument("--max-events", type=int, default=None)
        p.add_argument("--timeout", type=float, default=None,
                       help="wall-clock cap in seconds")
        p.add_argument("--report", default=None,
                       help="write the JSON ingest report here")

    p_conv = sub.add_parser("convert", help="parse/salvage + archive")
    add_common(p_conv)
    p_conv.add_argument("-o", "--output", default=None,
                        help="canonical archive path "
                             "(default: INPUT.ingested.trace.json.gz)")

    p_rep = sub.add_parser("replay", help="ingest + replay")
    add_common(p_rep)
    p_rep.add_argument("--mode", default=None,
                       help="clock/measurement mode (default: the "
                            "trace's own; 'tsc' for programs)")
    p_rep.add_argument("--seed", type=int, default=1)

    p_fuzz = sub.add_parser("fuzz", help="corpus-mutation fuzzer")
    p_fuzz.add_argument("-n", "--n-per-corpus", type=int, default=200)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--json", action="store_true",
                        help="print machine-readable stats")

    args = parser.parse_args(argv)

    if args.cmd == "fuzz":
        from repro.ingest.fuzz import run_fuzz

        stats = run_fuzz(n_per_corpus=args.n_per_corpus, seed=args.seed,
                         progress=lambda msg: print(msg, file=sys.stderr))
        if args.json:
            print(_json.dumps({
                "n_inputs": stats.n_inputs,
                "accepted": stats.accepted,
                "repaired": stats.repaired,
                "rejected": stats.rejected,
                "rule_counts": stats.rule_counts,
                "failures": [f.reason for f in stats.failures],
            }, indent=2, sort_keys=True))
        else:
            print(stats.format())
        return 0 if stats.ok else 1

    from repro.ingest import IngestError, IngestLimits, ingest_file

    kw = {}
    if args.max_bytes is not None:
        kw["max_bytes"] = args.max_bytes
    if args.max_events is not None:
        kw["max_events"] = args.max_events
    if args.timeout is not None:
        kw["timeout_seconds"] = args.timeout
    limits = IngestLimits(**kw) if kw else IngestLimits()

    def emit(report):
        print(report.format())
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")

    try:
        result = ingest_file(args.input, fmt=args.format, limits=limits,
                             quarantine=not args.no_quarantine)
    except IngestError as exc:
        emit(exc.report)
        if exc.report.quarantine_path:
            print(f"quarantined: {exc.report.quarantine_path}",
                  file=sys.stderr)
        return 2
    emit(result.report)

    if args.cmd == "convert":
        if result.kind == "trace":
            from repro.measure import write_trace

            out = args.output or f"{args.input}.ingested.trace.json.gz"
            write_trace(result.trace, out)
            print(f"wrote {out}")
        else:
            from repro.ingest.commops import commops_doc

            out = args.output or f"{args.input}.ingested.commops.json"
            with open(out, "w", encoding="utf-8") as fh:
                _json.dump(commops_doc(result.program), fh)
                fh.write("\n")
            print(f"wrote {out}")
        return 0

    # replay
    if result.kind == "trace":
        from repro.ingest.replay import replay_clock_finals

        finals = replay_clock_finals(result.trace, mode=args.mode)
        mode = args.mode or result.trace.mode
        print(f"replayed {result.trace.n_locations} location(s) "
              f"under {mode}:")
        for loc, final in enumerate(finals):
            rank, thread = result.trace.locations[loc]
            print(f"  rank {rank} thread {thread}: final={final:.9g}")
    else:
        from repro.ingest.replay import replay_program

        sim = replay_program(result.program, mode=args.mode,
                             seed=args.seed)
        print(f"replayed {result.program.n_ranks}-rank program "
              f"({result.program.n_ops} op(s)): "
              f"runtime={sim.runtime:.9g}s")
    return 0
