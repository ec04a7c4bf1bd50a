"""The verification rule registry.

Every check the linter or the trace sanitizer can report is a
:class:`Rule` with a stable id, a severity and a fix hint.  Rules are
registered at import time; adding a new check is one :func:`rule` call
plus the code that emits its diagnostics.

Rule id families
----------------

=======  ==================================================================
``STR``  Call-path structure (``Enter``/``Leave`` discipline) in programs.
``OMP``  OpenMP construct misuse in programs.
``MPI``  MPI misuse in programs (matching, requests, collectives, deadlock).
``PRG``  Problems with the rank generator itself (crash, runaway).
``TRC``  Trace-level invariants (happened-before, matching, clock condition).
``DET``  Static determinism analysis (wildcards, send races, nondeterminism).
``RACE`` Happened-before races found in a recorded trace (vector clocks).
``ING``  Foreign-trace ingestion (:mod:`repro.ingest`): resource caps,
         parse/validation failures and salvage repairs on untrusted input.
=======  ==================================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Severity", "Rule", "RULES", "rule"]


class Severity:
    """Diagnostic severity levels, ordered by :func:`severity_rank`."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    _ORDER = {ERROR: 2, WARNING: 1, INFO: 0}

    @classmethod
    def rank(cls, severity: str) -> int:
        return cls._ORDER[severity]


@dataclass(frozen=True)
class Rule:
    """One registered check.

    Attributes
    ----------
    id:       stable identifier (``MPI002``); referenced by tests and docs
    severity: default severity of diagnostics carrying this rule
    summary:  one-line description of what the rule detects
    hint:     how to fix a typical violation
    """

    id: str
    severity: str
    summary: str
    hint: str = ""


#: id -> Rule for every registered check
RULES: Dict[str, Rule] = {}


def rule(rule_id: str, severity: str, summary: str, hint: str = "") -> Rule:
    """Register (and return) a rule; ids must be unique."""
    if rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    r = Rule(rule_id, severity, summary, hint)
    RULES[rule_id] = r
    return r


# ---------------------------------------------------------------------------
# call-path structure (static)
# ---------------------------------------------------------------------------

STR001 = rule(
    "STR001", Severity.ERROR,
    "Leave with an empty region stack",
    "every Leave must pair with an earlier Enter on the same rank",
)
STR002 = rule(
    "STR002", Severity.ERROR,
    "Leave(region) does not match the innermost Enter",
    "close regions in strict LIFO order; check for a missing or extra Leave",
)
STR003 = rule(
    "STR003", Severity.ERROR,
    "regions still open when the rank program ends",
    "add the missing Leave actions before the generator returns",
)
STR004 = rule(
    "STR004", Severity.WARNING,
    "bare Leave() without a region name",
    "pass the region name (Leave('region')) so mismatches are caught early",
)

# ---------------------------------------------------------------------------
# OpenMP (static)
# ---------------------------------------------------------------------------

OMP001 = rule(
    "OMP001", Severity.ERROR,
    "ParallelFor with invalid per-thread shares",
    "supply exactly n_threads non-negative shares with a positive sum",
)

# ---------------------------------------------------------------------------
# MPI (static)
# ---------------------------------------------------------------------------

MPI001 = rule(
    "MPI001", Severity.ERROR,
    "send without a matching receive",
    "post a Recv/Irecv with the same (source, tag) on the destination rank",
)
MPI002 = rule(
    "MPI002", Severity.ERROR,
    "receive without a matching send",
    "post a Send/Isend with the same (dest, tag) on the source rank",
)
MPI003 = rule(
    "MPI003", Severity.ERROR,
    "non-blocking request never completed by Wait/Waitall",
    "complete every Isend/Irecv request id with Wait or Waitall",
)
MPI004 = rule(
    "MPI004", Severity.ERROR,
    "Wait/Waitall on an unknown or already-completed request id",
    "wait exactly once on each request id returned by Isend/Irecv",
)
MPI005 = rule(
    "MPI005", Severity.ERROR,
    "ranks disagree on the collective operation at the same sequence position",
    "all ranks must issue the same collective (and root) in the same order",
)
MPI006 = rule(
    "MPI006", Severity.ERROR,
    "ranks issue different numbers of collective operations",
    "make every rank execute the same collective sequence (check rank-"
    "dependent branches around collectives)",
)
MPI007 = rule(
    "MPI007", Severity.ERROR,
    "point-to-point peer rank is invalid",
    "dest/source must name another rank in [0, n_ranks)",
)
MPI008 = rule(
    "MPI008", Severity.ERROR,
    "potential deadlock (communication cannot complete)",
    "break the wait-for cycle, e.g. order sends before receives on one "
    "side or switch to non-blocking communication",
)
MPI009 = rule(
    "MPI009", Severity.WARNING,
    "point-to-point message crosses a checkpoint boundary",
    "place Checkpoint actions at quiescent points: a message sent before "
    "a checkpoint but received after it is lost on rollback, so recovery "
    "would replay the job inconsistently",
)

# ---------------------------------------------------------------------------
# program execution (static dry-run)
# ---------------------------------------------------------------------------

PRG001 = rule(
    "PRG001", Severity.ERROR,
    "rank generator raised an exception during the dry-run",
    "fix the crash; the linter dry-runs programs with stub request ids",
)
PRG002 = rule(
    "PRG002", Severity.WARNING,
    "rank generator exceeded the dry-run action limit",
    "raise max_actions if the program is genuinely this long",
)

# ---------------------------------------------------------------------------
# trace invariants (sanitizer)
# ---------------------------------------------------------------------------

TRC001 = rule(
    "TRC001", Severity.ERROR,
    "physical timestamps decrease within one location",
    "events of one location must be recorded in non-decreasing time order",
)
TRC002 = rule(
    "TRC002", Severity.ERROR,
    "message-matching ids are inconsistent",
    "every match id must appear on exactly one MPI_SEND and one MPI_RECV",
)
TRC003 = rule(
    "TRC003", Severity.ERROR,
    "clock condition violated on a send->recv edge",
    "the receive timestamp must exceed the matching send timestamp "
    "(Lamport condition); the trace or its timestamps are corrupt",
)
TRC004 = rule(
    "TRC004", Severity.ERROR,
    "participants of one collective epoch have diverging timestamps",
    "all COLL_END/OBAR_LEAVE records of one instance must carry the group "
    "timestamp",
)
TRC005 = rule(
    "TRC005", Severity.ERROR,
    "derived timestamps decrease within one location",
    "logical clocks are monotone by construction; a decrease means the "
    "timestamp arrays were tampered with or the replay order is wrong",
)
TRC006 = rule(
    "TRC006", Severity.ERROR,
    "ENTER/LEAVE events are imbalanced on a location",
    "each LEAVE must close the innermost open ENTER of the same region",
)
TRC007 = rule(
    "TRC007", Severity.ERROR,
    "synchronisation group is incomplete or over-subscribed",
    "each collective/barrier instance must have exactly its group size of "
    "member events, and TEAM_BEGIN must follow its FORK",
)
TRC008 = rule(
    "TRC008", Severity.ERROR,
    "restart group is inconsistent across ranks",
    "a RESTART instance must appear exactly once per rank, all at the one "
    "common resume time; anything else means the recovery rollback "
    "truncated the per-location event lists inconsistently",
)
TRC009 = rule(
    "TRC009", Severity.WARNING,
    "FAULT event references a message without a receive record",
    "a fault marker's match id should belong to a message that completes "
    "in the trace; a dangling reference usually means the rollback kept "
    "the fault marker but discarded the message records",
)

# ---------------------------------------------------------------------------
# static determinism analysis (repro.verify.determinism)
# ---------------------------------------------------------------------------

DET001 = rule(
    "DET001", Severity.ERROR,
    "wildcard (ANY_SOURCE) receive makes message matching timing-dependent",
    "name the source rank explicitly, or accept that logical traces of "
    "this program are not bit-identical across noise realizations",
)
DET002 = rule(
    "DET002", Severity.ERROR,
    "multiple senders race for the same wildcard-receive channel",
    "the matched order depends on physical arrival times; serialise the "
    "senders (distinct tags or named receives) to restore determinism",
)
DET003 = rule(
    "DET003", Severity.ERROR,
    "rank generator is itself nondeterministic across dry-runs",
    "two dry-runs of the program yielded different action sequences; "
    "seed any randomness from the rank id, not wall-clock or global RNGs",
)
DET004 = rule(
    "DET004", Severity.WARNING,
    "non-commutative reduction: result value depends on combine order",
    "the event structure and timestamps stay deterministic, but the "
    "reduced value is order-sensitive; use a commutative operator or a "
    "fixed reduction tree if bit-identical values matter",
)
DET005 = rule(
    "DET005", Severity.ERROR,
    "OpenMP threads write shared state without synchronisation",
    "add a reduction clause / privatise the variable; the computed value "
    "is racy even though trace timestamps stay deterministic",
)

# ---------------------------------------------------------------------------
# happened-before races over a recorded trace (repro.verify.races)
# ---------------------------------------------------------------------------

RACE001 = rule(
    "RACE001", Severity.ERROR,
    "wildcard message race: concurrent sends matched by one receive site",
    "the two sends are not ordered by happened-before, so either could "
    "have matched first; the recorded order is one noise realization",
)
RACE002 = rule(
    "RACE002", Severity.ERROR,
    "concurrent unsynchronised writes to OpenMP shared state",
    "the writing regions are happened-before-concurrent on different "
    "locations; guard the writes or use a reduction",
)
RACE003 = rule(
    "RACE003", Severity.INFO,
    "wildcard receive whose candidate sends are totally ordered",
    "this wildcard is benign in the recorded trace: every candidate send "
    "is ordered by happened-before, so only one match was possible",
)

# ---------------------------------------------------------------------------
# foreign-trace ingestion (repro.ingest)
# ---------------------------------------------------------------------------

ING001 = rule(
    "ING001", Severity.ERROR,
    "input exceeds an ingestion resource cap",
    "raise the IngestLimits bound (max bytes/events/locations/regions/"
    "ranks) if the input is genuinely this large; caps exist so hostile "
    "input cannot exhaust memory",
)
ING002 = rule(
    "ING002", Severity.ERROR,
    "unrecognized or unparseable trace container",
    "supply Chrome trace-event JSON (object with a traceEvents array, a "
    "bare event array, or JSON lines) or a repro-commops-1 document",
)
ING003 = rule(
    "ING003", Severity.WARNING,
    "malformed record dropped during tolerant parsing",
    "the record was not valid JSON or failed schema validation; it was "
    "skipped and the rest of the input parsed normally",
)
ING004 = rule(
    "ING004", Severity.WARNING,
    "truncated tail discarded",
    "the input ends mid-record (interrupted capture or copy); the "
    "complete prefix was kept and the partial tail dropped",
)
ING005 = rule(
    "ING005", Severity.WARNING,
    "non-monotonic timestamps repaired",
    "per-location timestamps were clamped to non-decreasing order "
    "(recorder clock stepped backwards or a record was bit-flipped)",
)
ING006 = rule(
    "ING006", Severity.WARNING,
    "message matching repaired",
    "an orphaned or duplicated send/receive record was dropped so every "
    "match id pairs exactly one send with one receive",
)
ING007 = rule(
    "ING007", Severity.WARNING,
    "synchronisation group repaired",
    "an incomplete collective/barrier/restart instance was dropped, its "
    "recorded size corrected, or member completion times aligned to the "
    "group maximum",
)
ING008 = rule(
    "ING008", Severity.WARNING,
    "per-location clock skew normalized",
    "one location's clock ran systematically behind its peers (receives "
    "before their sends); the location's timeline was shifted forward",
)
ING009 = rule(
    "ING009", Severity.WARNING,
    "ENTER/LEAVE imbalance repaired",
    "a stray LEAVE was dropped or missing LEAVEs synthesized so every "
    "location's region stack balances",
)
ING010 = rule(
    "ING010", Severity.ERROR,
    "ingestion wall-clock timeout exceeded",
    "the input took longer than IngestLimits.timeout_seconds to process; "
    "raise the timeout or split the input",
)
ING011 = rule(
    "ING011", Severity.WARNING,
    "duplicate record dropped",
    "a record carrying a must-be-unique id (match id, group member) "
    "appeared more than once; the first occurrence was kept",
)
ING012 = rule(
    "ING012", Severity.WARNING,
    "dangling reference dropped",
    "an event referenced a nonexistent peer (FAULT without its message, "
    "TEAM_BEGIN without its FORK) and was removed",
)
ING013 = rule(
    "ING013", Severity.ERROR,
    "comm-op program is not replayable",
    "after salvage the reconstructed rank programs still fail the static "
    "linter (unmatched traffic, deadlock, invalid peers); the input is "
    "rejected rather than replayed unsafely",
)
ING014 = rule(
    "ING014", Severity.ERROR,
    "salvage abandoned",
    "repairs did not converge to a sanitizer-clean trace within the "
    "bounded number of passes; the damage is beyond salvage and the "
    "input is quarantined",
)
