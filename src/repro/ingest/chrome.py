"""Tolerant Chrome trace-event parser.

Two reconstruction paths out of one record stream, both into
:class:`~repro.measure.columnar.TraceColumns`:

* **Lossless** -- the input carries the ``repro-chrome-raw-1`` sidecar
  that :func:`repro.obs.export.trace_chrome_events` embeds with
  ``embed_raw=True``: a ``repro_trace`` metadata header (mode, location
  table, region table) plus one ``cat:"repro.raw"`` instant per engine
  event.  The header goes through the archives' header check
  (:func:`repro.measure.io.parse_header`) and the ingest caps, every
  record through the archives' record check (the type and value layers
  of :mod:`repro.measure.columnar`); a record that breaks it is dropped
  (ING003), and so is one equal to an earlier record of its location
  (ING011).  The rebuilt columns are bit-identical to the original
  archive's when the input is undamaged.
* **Foreign** -- any other Chrome trace (``X`` complete events and
  ``B``/``E`` duration pairs, as produced by browsers, TensorFlow,
  ``chrome://tracing`` exporters...).  Intervals are normalised into a
  properly nested ENTER/LEAVE forest per ``(pid, tid)`` location (an
  interval equal to an earlier one of its location is dropped, ING011),
  microseconds become seconds, and the trace is labelled mode ``tsc``
  (foreign timestamps are physical; no logical counters survive export).

The record *scanner* never trusts the container: strict ``json.loads``
first, then a string-aware balanced-brace walk that skips damaged
chunks (ING003) and detects a truncated tail (ING004).  A corrupt raw
sidecar header degrades to the foreign path instead of rejecting -- the
visible events are usually still salvageable.
"""

from __future__ import annotations

import json
import math
from itertools import compress
from typing import List, Optional

import numpy as np

from repro.ingest.limits import IngestBudget
from repro.ingest.report import IngestReport
from repro.measure.columnar import (
    COLUMN_FIELDS,
    DeltaTable,
    TraceColumns,
    record_problem,
    value_defects,
)
from repro.measure.io import TraceFormatError, parse_header
from repro.sim.events import ENTER, LEAVE, RegionRegistry
from repro.sim.kernels import EMPTY_DELTA

__all__ = ["parse_chrome"]

_US = 1e-6  # Chrome timestamps are microseconds


class _SidecarCorrupt(Exception):
    """The embedded raw sidecar is unusable; fall back to visible events."""


# -- record extraction ---------------------------------------------------

def _scan_objects(text: str, start: int, report: IngestReport,
                  budget: IngestBudget) -> List[dict]:
    """Walk ``text`` from ``start`` collecting top-level ``{...}`` objects.

    String-aware: braces inside JSON strings do not count.  A chunk that
    fails to parse is dropped (counted, one ING003 diagnostic at the
    end); hitting EOF inside an object marks the tail truncated (ING004).
    Stops at the ``]`` that closes the enclosing array, when present.
    """
    records: List[dict] = []
    bad = 0
    truncated = False
    i, n = start, len(text)
    while i < n:
        c = text[i]
        if c == "]":
            break
        if c != "{":
            i += 1
            continue
        # balanced walk from the opening brace
        depth = 0
        in_str = False
        esc = False
        j = i
        end = -1
        while j < n:
            ch = text[j]
            if in_str:
                if esc:
                    esc = False
                elif ch == "\\":
                    esc = True
                elif ch == '"':
                    in_str = False
            elif ch == '"':
                in_str = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    end = j + 1
                    break
            j += 1
        if end < 0:
            truncated = True
            break
        try:
            obj = json.loads(text[i:end])
        except ValueError:
            obj = None
        if isinstance(obj, dict):
            records.append(obj)
            budget.charge_events(1)
        else:
            bad += 1
        i = end
    if bad:
        report.n_dropped += bad
        report.repair("ING003",
                      f"dropped {bad} unparseable record(s) during "
                      f"tolerant scan")
    if truncated:
        report.repair("ING004",
                      "input ends mid-record; truncated tail discarded")
    return records


def _extract_records(text: str, report: IngestReport,
                     budget: IngestBudget) -> List[dict]:
    """All record dicts in ``text``, tolerating a damaged container."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if doc is not None:
        if isinstance(doc, dict):
            events = doc.get("traceEvents")
        elif isinstance(doc, list):
            events = doc
        else:
            events = None
        if not isinstance(events, list):
            report.reject("ING002",
                          "valid JSON but not a Chrome trace (no "
                          "traceEvents array)")
            raise ValueError("not a chrome trace container")
        # parsed already: charged at once (the scanner below charges
        # record by record, which bounds its own walk)
        records = [rec for rec in events if isinstance(rec, dict)]
        budget.charge_events(len(records))
        bad = len(events) - len(records)
        if bad:
            report.n_dropped += bad
            report.repair("ING003",
                          f"dropped {bad} non-object record(s)")
        return records

    # container damaged: scan for records inside the traceEvents array,
    # a bare array, or concatenated / line-delimited objects
    key = text.find('"traceEvents"')
    if key >= 0:
        start = text.find("[", key)
        if start >= 0:
            return _scan_objects(text, start + 1, report, budget)
    stripped = text.lstrip()
    if stripped.startswith("["):
        offset = len(text) - len(stripped)
        return _scan_objects(text, offset + 1, report, budget)
    if stripped.startswith("{"):
        return _scan_objects(text, len(text) - len(stripped), report,
                             budget)
    report.reject("ING002", "input is neither valid JSON nor a "
                            "recognizable Chrome trace fragment")
    raise ValueError("unrecognized container")


# -- lossless reconstruction from the repro.raw sidecar ------------------

#: the sidecar record keys of the seven archive record fields, in order
_RAW_KEYS = ("loc", "etype", "region", "t", "delta", "aux", "t_enter")


def _raw_fields(raw_records: List[dict]) -> List[list]:
    """The seven field sequences of ``repro.raw`` records (absent keys,
    and every field of a record whose ``args`` is no object, read as
    null)."""
    args = [a if isinstance(a, dict) else {}
            for a in (rec.get("args") for rec in raw_records)]
    return [[a.get(k) for a in args] for k in _RAW_KEYS]


def _exact_copies(cols: TraceColumns) -> np.ndarray:
    """The rows equal, column for column, to an earlier row of their
    location (a repeated input record)."""
    keys = [cols.column(f) for f in COLUMN_FIELDS] + [cols.row_locations()]
    order = np.lexsort(keys)  # stable: equal rows keep their order
    same = np.ones(max(len(order) - 1, 0), dtype=bool)
    for k in keys:
        k = k[order]
        same &= k[1:] == k[:-1]
    copies = np.zeros(len(order), dtype=bool)
    copies[order[1:][same]] = True
    return copies


def _reconstruct_lossless(header_args, raw_records: List[dict],
                          report: IngestReport,
                          budget: IngestBudget) -> TraceColumns:
    try:
        regions, locations = parse_header("<sidecar>", header_args, "chrome")
    except TraceFormatError as exc:
        raise _SidecarCorrupt(exc.reason) from None
    budget.check_locations(len(locations))
    budget.check_regions(len(regions))
    n_loc = len(locations)
    fields = _raw_fields(raw_records)
    if record_problem(fields, n_loc):
        ok = [not record_problem([[x] for x in rec], n_loc)
              for rec in zip(*fields)]
        fields = [list(compress(f, ok)) for f in fields]
    # each location's records, in order, one location after the other
    loc = np.array(fields[0], dtype=np.int64)
    order = np.argsort(loc, kind="stable").tolist()
    etype, region, t, delta, aux, t_enter = (
        list(map(f.__getitem__, order)) for f in fields[1:])
    cols = TraceColumns.from_fields(
        header_args["mode"], regions, locations,
        np.bincount(loc, minlength=n_loc).tolist(),
        etype, region, t, DeltaTable().of_records(delta), aux,
        [x or 0.0 for x in t_enter], runtime=float(header_args["runtime"]))
    defects = value_defects({f: cols.column(f) for f in COLUMN_FIELDS},
                            len(regions))
    if defects:
        cols = cols.select(~np.logical_or.reduce(list(defects.values())))
    bad = len(raw_records) - cols.n_events
    if raw_records and bad == len(raw_records):
        raise _SidecarCorrupt("every raw record is malformed")
    if bad:
        report.n_dropped += bad
        report.repair("ING003",
                      f"dropped {bad} malformed raw record(s)")
    report.n_records += len(raw_records) - bad
    copies = _exact_copies(cols)
    if copies.any():
        per_loc = np.bincount(cols.row_locations()[copies], minlength=n_loc)
        for loc in np.flatnonzero(per_loc).tolist():
            _report_copies(report, int(per_loc[loc]), "record", loc)
        cols = cols.select(~copies)
    return cols


def _report_copies(report: IngestReport, n: int, what: str,
                   loc: int) -> None:
    report.n_dropped += n
    report.repair("ING011", f"dropped {n} duplicate {what}(s)", location=loc)


# -- foreign reconstruction from visible X / B / E events ----------------

def _collect_intervals(records: List[dict], report: IngestReport):
    """Group usable duration events into per-``(pid, tid)`` intervals.

    Returns ``{(pid, tid): [(t0, t1, name), ...]}`` in seconds.  ``B``
    events are closed by the next ``E`` on the same location (Chrome
    semantics: ``E`` closes the innermost open slice); stray ``E`` s are
    dropped, unclosed ``B`` s are closed at the location's last
    timestamp and counted as an ING009 repair.
    """
    intervals = {}
    open_b = {}
    last_ts = {}
    bad = 0
    stray_e = 0
    unclosed = 0
    for rec in records:
        ph = rec.get("ph")
        if ph not in ("X", "B", "E"):
            continue  # metadata, counters, instants: valid but not trace
        ts = rec.get("ts")
        pid = rec.get("pid", 0)
        tid = rec.get("tid", 0)
        if type(ts) not in (int, float) or not math.isfinite(ts) \
                or type(pid) is not int or type(tid) is not int:
            bad += 1
            continue
        key = (pid, tid)
        t0 = ts * _US
        last_ts[key] = max(last_ts.get(key, t0), t0)
        if ph == "X":
            dur = rec.get("dur", 0.0)
            name = rec.get("name")
            if type(dur) not in (int, float) or not 0 <= dur < math.inf \
                    or not isinstance(name, str):
                bad += 1
                continue
            t1 = t0 + dur * _US
            intervals.setdefault(key, []).append((t0, t1, name))
            last_ts[key] = max(last_ts[key], t1)
        elif ph == "B":
            name = rec.get("name")
            if not isinstance(name, str):
                bad += 1
                continue
            open_b.setdefault(key, []).append((t0, name))
        else:  # "E"
            stack = open_b.get(key)
            if not stack:
                stray_e += 1
                continue
            t0_open, name = stack.pop()
            intervals.setdefault(key, []).append(
                (t0_open, max(t0, t0_open), name))
    for key, stack in open_b.items():
        while stack:
            t0_open, name = stack.pop()
            t1 = max(last_ts.get(key, t0_open), t0_open)
            intervals.setdefault(key, []).append((t0_open, t1, name))
            unclosed += 1
    if bad:
        report.n_dropped += bad
        report.repair("ING003",
                      f"dropped {bad} malformed duration event(s)")
    if stray_e:
        report.n_dropped += stray_e
        report.repair("ING009",
                      f"dropped {stray_e} 'E' event(s) with no open 'B'")
    if unclosed:
        report.repair("ING009",
                      f"closed {unclosed} unterminated 'B' event(s) at "
                      f"the location's last timestamp")
    return intervals


def _nest_intervals(pairs, regions: RegionRegistry, report: IngestReport,
                    loc: int):
    """Turn possibly-overlapping intervals into a nested ENTER/LEAVE
    sequence: ``(etype, region, t)`` lists.

    Sorted by ``(t0, -t1)`` so an enclosing interval precedes its
    children; a child overhanging its parent is clamped to the parent's
    end (one ING009 diagnostic per location, occurrences counted).
    """
    pairs = sorted(pairs, key=lambda p: (p[0], -p[1]))
    etype: List[int] = []
    region: List[int] = []
    t: List[float] = []
    stack = []  # (region id, t_end)
    clamped = 0

    def pop_until(t_now: float) -> None:
        while stack and stack[-1][1] <= t_now:
            rid, t_end = stack.pop()
            etype.append(LEAVE)
            region.append(rid)
            t.append(t_end)

    for t0, t1, name in pairs:
        pop_until(t0)
        if stack and t1 > stack[-1][1]:
            t1 = stack[-1][1]
            clamped += 1
        rid = regions.intern(name)
        etype.append(ENTER)
        region.append(rid)
        t.append(t0)
        stack.append((rid, max(t1, t0)))
    pop_until(math.inf)
    if clamped:
        report.repair(
            "ING009",
            f"clamped {clamped} overlapping interval(s) to proper "
            f"nesting", location=loc)
    return etype, region, t


def _reconstruct_foreign(records: List[dict], report: IngestReport,
                         budget: IngestBudget) -> TraceColumns:
    intervals = _collect_intervals(records, report)
    if not intervals:
        report.reject("ING002", "input contains no usable trace events")
        raise ValueError("no trace events")
    keys = sorted(intervals)
    budget.check_locations(len(keys))
    # ranks number the pids, threads each pid's tids, both in order; the
    # sorted keys list them location-major
    pids = sorted({pid for pid, _tid in keys})
    rank_of = {pid: i for i, pid in enumerate(pids)}
    locations = []
    for pid, _tid in keys:
        rank = rank_of[pid]
        same = locations and locations[-1][0] == rank
        locations.append((rank, locations[-1][1] + 1 if same else 0))
    regions = RegionRegistry()
    etype: List[int] = []
    region: List[int] = []
    t: List[float] = []
    counts: List[int] = []
    runtime = 0.0
    for loc, key in enumerate(keys):
        pairs = list(dict.fromkeys(intervals[key]))
        if len(pairs) < len(intervals[key]):
            _report_copies(report, len(intervals[key]) - len(pairs),
                           "interval", loc)
        e, r, ts = _nest_intervals(pairs, regions, report, loc)
        budget.check_regions(len(regions))
        etype += e
        region += r
        t += ts
        counts.append(len(e))
        if ts:
            runtime = max(runtime, ts[-1])
        report.n_records += len(intervals[key])
    n = len(t)
    return TraceColumns.from_fields(
        "tsc", regions, locations, counts, etype, region, t,
        [EMPTY_DELTA] * n, [None] * n, [0.0] * n, runtime=runtime)


# -- entry point ---------------------------------------------------------

def parse_chrome(text: str, report: IngestReport,
                 budget: IngestBudget) -> TraceColumns:
    """Parse Chrome trace-event JSON into columns.

    Prefers the lossless ``repro.raw`` sidecar when present and intact;
    otherwise reconstructs from visible duration events.  Raises
    ``ValueError`` after recording an ING rejection when nothing usable
    remains.
    """
    records = _extract_records(text, report, budget)
    header: Optional[dict] = None
    raw: List[dict] = []
    visible: List[dict] = []
    for rec in records:
        if rec.get("cat") == "repro.raw":
            raw.append(rec)
        elif (rec.get("name") == "repro_trace"
                and rec.get("cat") == "repro.meta" and header is None):
            header = rec.get("args")
        else:
            visible.append(rec)
    if header is not None:
        try:
            return _reconstruct_lossless(header, raw, report, budget)
        except _SidecarCorrupt as exc:
            report.repair("ING003",
                          f"embedded raw sidecar unusable ({exc}); "
                          f"reconstructing from visible events")
    return _reconstruct_foreign(visible, report, budget)
