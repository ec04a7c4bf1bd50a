"""Static program linting and happened-before trace sanitizing.

Two analysis passes guard the correctness assumptions everything else in
this repository rests on:

* the **static linter** (:func:`lint_program`) symbolically dry-runs each
  rank's generator program and flags MPI/OpenMP misuse -- unmatched
  point-to-point traffic, leaked requests, mismatched collective
  sequences, ``Enter``/``Leave`` imbalance and potential deadlock --
  before a single simulated second is spent;

* the **trace sanitizer** (:func:`sanitize_trace`) verifies recorded
  :class:`~repro.measure.trace.RawTrace` archives and the timestamps
  derived from them against the happened-before relation: per-location
  monotonicity under every clock mode, the Lamport condition on every
  send->recv edge, collective-epoch consistency and matching-id
  integrity;

* the **determinism prover** (:func:`analyze_determinism`) statically
  classifies every communication site of a program as
  order-deterministic or racy and emits a sha256-stamped certificate
  asserting which clock modes must produce bit-identical traces across
  noise (cross-checked empirically by the faultsweep harness);

* the **race detector** (:func:`find_races`) replays a recorded trace
  under vector clocks and reports happened-before-concurrent conflicting
  accesses -- wildcard message races and OpenMP shared-write races --
  each with a witness path.

Both report structured :class:`~repro.verify.diagnostics.Diagnostic`
objects carrying a rule id from :mod:`repro.verify.rules`, the rank or
location, the call path and a fix hint.  The ``repro-lint`` CLI and the
pre-flight check in :mod:`repro.experiments.workflow` wire the passes
into the measurement pipeline; ``Measurement(..., sanitize=True)`` (or
``Engine(..., sanitize=True)``) runs the sanitizer's structural pass and
the race detector on the finished trace.  See ``docs/verify.md`` for the
rule catalogue.
"""

from repro.verify.determinism import (
    BIT_IDENTICAL,
    NOISE_SENSITIVE,
    CommSite,
    DeterminismReport,
    analyze_determinism,
)
from repro.verify.diagnostics import (
    Diagnostic,
    TraceInvariantError,
    VerificationError,
    format_diagnostics,
    has_errors,
    worst_severity,
)
from repro.verify.dryrun import (
    ActionRecord,
    RankDryRun,
    dry_run_program,
    dry_run_rank,
)
from repro.verify.fixtures import FIXTURES, fixture_names, make_fixture
from repro.verify.linter import LintReport, lint_program
from repro.verify.races import RaceReport, find_races
from repro.verify.rules import RULES, Rule, Severity, rule
from repro.verify.sanitizer import (
    SanitizeReport,
    check_timestamps,
    sanitize_raw,
    sanitize_trace,
)

__all__ = [
    "ActionRecord",
    "BIT_IDENTICAL",
    "CommSite",
    "DeterminismReport",
    "Diagnostic",
    "FIXTURES",
    "LintReport",
    "NOISE_SENSITIVE",
    "RaceReport",
    "RankDryRun",
    "Rule",
    "RULES",
    "SanitizeReport",
    "Severity",
    "TraceInvariantError",
    "VerificationError",
    "analyze_determinism",
    "check_timestamps",
    "dry_run_program",
    "dry_run_rank",
    "find_races",
    "fixture_names",
    "format_diagnostics",
    "has_errors",
    "lint_program",
    "make_fixture",
    "rule",
    "sanitize_raw",
    "sanitize_trace",
    "worst_severity",
]
