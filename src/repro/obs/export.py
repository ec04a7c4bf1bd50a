"""Exports and renderers for observability archives.

All functions here operate on the plain-JSON *archive* documents produced
by :meth:`repro.obs.session.ObsSession.snapshot` (``repro-obs-1``), so
the ``repro-obs`` CLI can work on saved files without a live session --
plus the streaming **engine-trace** exporter
(:func:`trace_chrome_events` / :func:`write_trace_chrome`), which turns
a recorded application trace (``RawTrace`` or out-of-core
``ShardedTrace``) into the same Chrome trace-event JSON with bounded
memory, one event at a time.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Callable, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "to_chrome",
    "span_table",
    "metrics_table",
    "summary_text",
    "prometheus_text",
    "trace_chrome_events",
    "write_trace_chrome",
    "CHROME_REQUIRED_KEYS",
    "CHROME_RAW_FORMAT",
]

#: keys every exported Chrome trace event carries (validated by the CI
#: obs-smoke job and the suite)
CHROME_REQUIRED_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def to_chrome(doc: Mapping) -> dict:
    """Chrome trace-event JSON (Perfetto-loadable) from an obs archive.

    Spans become complete (``ph: "X"``) events with microsecond
    timestamps; nesting renders via Perfetto's flame layout (same
    pid/tid, enclosing time ranges).  Counters are appended as one
    terminal counter (``ph: "C"``) sample per metric so totals show up
    as tracks alongside the spans.
    """
    spans = doc.get("spans", [])
    events = []
    t_end = 0.0
    for s in spans:
        events.append({
            "name": s["name"],
            "cat": "repro.obs",
            "ph": "X",
            "ts": s["t0"] * 1e6,
            "dur": (s["t1"] - s["t0"]) * 1e6,
            "pid": s["pid"],
            "tid": s["pid"],
            "args": s.get("args", {}),
        })
        t_end = max(t_end, s["t1"])
    for row in doc.get("metrics", {}).get("counters", []):
        events.append({
            "name": row["name"] + _fmt_labels(row["labels"]),
            "cat": "repro.obs.metrics",
            "ph": "C",
            "ts": t_end * 1e6,
            "dur": 0.0,
            "pid": 0,
            "tid": 0,
            "args": {"value": row["value"]},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": doc.get("format", "repro-obs-1")},
    }


#: format tag of the lossless per-event records embedded by
#: ``trace_chrome_events(..., embed_raw=True)``; :mod:`repro.ingest`
#: recognizes it and reconstructs the original trace bit-exactly
CHROME_RAW_FORMAT = "repro-chrome-raw-1"


def trace_chrome_events(
    trace_like,
    map_t: Optional[Callable[[int, float], float]] = None,
    pid_offset: int = 0,
    label: str = "",
    embed_raw: bool = False,
) -> Iterator[dict]:
    """Yield Chrome trace events for an engine trace, one at a time.

    Consumes ``trace_like.merged()`` -- a ``ShardedTrace`` therefore
    streams shard-at-a-time with bounded memory.  Region enter/leave
    pairs become complete (``ph: "X"``) events, call bursts span their
    aggregated interval, and fault/restart records become instants.
    ``map_t(loc, t)`` optionally warps timestamps (cross-run alignment,
    :mod:`repro.causal.align`); ``pid_offset``/``label`` give each
    exported run its own process namespace so several runs overlay on
    one Perfetto timeline.

    ``embed_raw=True`` makes the export *lossless*: alongside the
    visible events, one ``cat: "repro.raw"`` record per trace event
    carries the full event payload (kind, region id, exact float64
    timestamps, aux, work delta) plus a ``repro_trace`` metadata header
    with the region table and location map.  Perfetto ignores the extra
    records; :mod:`repro.ingest` reconstructs the original
    ``RawTrace`` from them bit-exactly (JSON ``repr`` round-trips
    float64), which is what makes Chrome export a real interchange
    format rather than a one-way visualization.  Raw records always
    carry the *unwarped* timestamps.
    """
    # local imports keep repro.obs importable without the sim package
    from repro.measure.columnar import DELTA_FIELDS
    from repro.measure.io import build_header
    from repro.sim.events import (
        BURST,
        ENTER,
        EVENT_NAMES,
        FAULT,
        LEAVE,
        RESTART,
    )

    regions = trace_like.regions
    locations = trace_like.locations
    warp = map_t if map_t is not None else (lambda _loc, t: t)

    if embed_raw:
        yield {"name": "repro_trace", "cat": "repro.meta", "ph": "M",
               "ts": 0.0, "pid": pid_offset, "tid": 0,
               "args": build_header("chrome", trace_like)}

    for loc, (rank, thread) in enumerate(locations):
        name = f"rank {rank}"
        if label:
            name = f"{label} {name}"
        yield {"name": "process_name", "ph": "M", "pid": pid_offset + rank,
               "tid": thread, "ts": 0.0,
               "args": {"name": name}}

    stacks: List[List[Tuple[int, float]]] = [[] for _ in locations]
    for loc, ev in trace_like.merged():
        et = ev.etype
        if embed_raw:
            rank, thread = locations[loc]
            args = {"loc": loc, "etype": et, "region": ev.region, "t": ev.t}
            if ev.t_enter:
                args["t_enter"] = ev.t_enter
            if ev.aux is not None:
                args["aux"] = (list(ev.aux) if isinstance(ev.aux, tuple)
                               else ev.aux)
            if not ev.delta.is_empty:
                args["delta"] = {f: v for f in DELTA_FIELDS
                                 if (v := getattr(ev.delta, f)) != 0.0}
            yield {"name": EVENT_NAMES.get(et, str(et)), "cat": "repro.raw",
                   "ph": "i", "ts": ev.t * 1e6, "s": "t",
                   "pid": pid_offset + rank, "tid": thread, "args": args}
        if et == ENTER:
            stacks[loc].append((ev.region, ev.t))
            continue
        rank, thread = locations[loc]
        pid = pid_offset + rank
        if et == LEAVE:
            if not stacks[loc]:
                continue
            rid, t0 = stacks[loc].pop()
            w0 = warp(loc, t0)
            yield {
                "name": regions.name(rid),
                "cat": regions.paradigm(rid),
                "ph": "X",
                "ts": w0 * 1e6,
                "dur": (warp(loc, ev.t) - w0) * 1e6,
                "pid": pid,
                "tid": thread,
            }
        elif et == BURST:
            w0 = warp(loc, ev.t_enter)
            yield {
                "name": regions.name(ev.region),
                "cat": regions.paradigm(ev.region),
                "ph": "X",
                "ts": w0 * 1e6,
                "dur": (warp(loc, ev.t) - w0) * 1e6,
                "pid": pid,
                "tid": thread,
            }
        elif et == FAULT or et == RESTART:
            yield {
                "name": regions.name(ev.region) if ev.region >= 0
                else ("RESTART" if et == RESTART else "FAULT"),
                "cat": "fault",
                "ph": "i",
                "ts": warp(loc, ev.t) * 1e6,
                "s": "g",
                "pid": pid,
                "tid": thread,
            }
    # unclosed regions (program end inside a region): close at last seen t
    for loc, stk in enumerate(stacks):
        rank, thread = locations[loc]
        while stk:
            rid, t0 = stk.pop()
            w0 = warp(loc, t0)
            yield {
                "name": regions.name(rid),
                "cat": regions.paradigm(rid),
                "ph": "X",
                "ts": w0 * 1e6,
                "dur": 0.0,
                "pid": pid_offset + rank,
                "tid": thread,
            }


def write_trace_chrome(path, exports) -> int:
    """Stream one or more trace exports into a Chrome trace JSON file.

    ``exports`` is an iterable of event iterators (e.g. several
    :func:`trace_chrome_events` calls for aligned runs); events are
    written incrementally, so the peak memory is one event, not the
    trace.  Returns the number of events written.
    """
    n = 0
    with open(path, "w") as fh:
        fh.write('{"traceEvents":[')
        for events in exports:
            for ev in events:
                if n:
                    fh.write(",")
                fh.write(json.dumps(ev))
                n += 1
        fh.write('],"displayTimeUnit":"ms"}\n')
    return n


def _span_aggregate(spans: List[Mapping]) -> "OrderedDict[str, Tuple[int, float]]":
    agg: "OrderedDict[str, Tuple[int, float]]" = OrderedDict()
    for s in spans:
        n, total = agg.get(s["name"], (0, 0.0))
        agg[s["name"]] = (n + 1, total + (s["t1"] - s["t0"]))
    return agg


def span_table(doc: Mapping) -> str:
    """Flat per-phase wall-clock table aggregated over span names."""
    agg = _span_aggregate(doc.get("spans", []))
    if not agg:
        return "(no spans recorded)"
    width = max(len(n) for n in agg)
    lines = [f"{'phase':<{width}}  {'count':>6}  {'wall s':>10}  {'mean ms':>10}"]
    for name, (n, total) in agg.items():
        lines.append(
            f"{name:<{width}}  {n:>6}  {total:>10.4f}  {total / n * 1e3:>10.3f}"
        )
    return "\n".join(lines)


def metrics_table(doc: Mapping) -> str:
    """Counter/gauge table (histograms render count/sum)."""
    metrics = doc.get("metrics", {})
    rows: List[Tuple[str, str]] = []
    for row in metrics.get("counters", []):
        rows.append((row["name"] + _fmt_labels(row["labels"]),
                     f"{row['value']:g}"))
    for row in metrics.get("gauges", []):
        rows.append((row["name"] + _fmt_labels(row["labels"]),
                     f"{row['value']:g} (gauge)"))
    for row in metrics.get("histograms", []):
        rows.append((row["name"] + _fmt_labels(row["labels"]),
                     f"n={row['count']} sum={row['sum']:g} (histogram)"))
    if not rows:
        return "(no metrics recorded)"
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _prom_name(name: str) -> str:
    """Registry names are dotted; Prometheus wants ``[a-zA-Z0-9_:]``."""
    return "".join(c if c.isalnum() or c in "_:" else "_" for c in name)


def _prom_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{_prom_name(k)}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(doc: Mapping) -> str:
    """Prometheus exposition-format rendering of an obs snapshot.

    Operates on the same ``repro-obs-1`` document as every other export,
    so the service's ``/metrics`` endpoint and offline archives render
    identically.  Dotted registry names map to underscored Prometheus
    names (``serve.cache_hits`` -> ``serve_cache_hits``); histograms
    emit cumulative ``_bucket`` series plus ``_sum``/``_count``.
    """
    metrics = doc.get("metrics", {})
    lines: List[str] = []
    typed: set = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for row in metrics.get("counters", []):
        name = _prom_name(row["name"])
        header(name, "counter")
        lines.append(f"{name}{_prom_labels(row['labels'])} {row['value']:g}")
    for row in metrics.get("gauges", []):
        name = _prom_name(row["name"])
        header(name, "gauge")
        lines.append(f"{name}{_prom_labels(row['labels'])} {row['value']:g}")
    for row in metrics.get("histograms", []):
        name = _prom_name(row["name"])
        header(name, "histogram")
        labels = row["labels"]
        cum = 0
        for bound, count in zip(row["bounds"], row["counts"]):
            cum += count
            le = 'le="%g"' % bound
            lines.append(f"{name}_bucket{_prom_labels(labels, le)} {cum}")
        inf = 'le="+Inf"'
        lines.append(f"{name}_bucket{_prom_labels(labels, inf)} {row['count']}")
        lines.append(f"{name}_sum{_prom_labels(labels)} {row['sum']:g}")
        lines.append(f"{name}_count{_prom_labels(labels)} {row['count']}")
    return "\n".join(lines) + "\n"


def _experiment_blocks(doc: Mapping) -> "OrderedDict[str, List[Tuple[str, str]]]":
    """Counters grouped by their ``experiment`` label (ungrouped last)."""
    blocks: "OrderedDict[str, List[Tuple[str, str]]]" = OrderedDict()
    for row in doc.get("metrics", {}).get("counters", []):
        labels = dict(row["labels"])
        exp = labels.pop("experiment", None) or "(global)"
        blocks.setdefault(exp, []).append(
            (row["name"] + _fmt_labels(labels), f"{row['value']:g}")
        )
    return blocks


def summary_text(doc: Mapping) -> str:
    """The ``repro-obs summary`` / ``repro-report`` rendering."""
    out = ["== observability summary =="]
    blocks = _experiment_blocks(doc)
    globals_block = blocks.pop("(global)", None)
    for exp, rows in blocks.items():
        out.append(f"\n-- experiment {exp} --")
        width = max(len(k) for k, _ in rows)
        out.extend(f"  {k:<{width}}  {v}" for k, v in rows)
    if globals_block:
        out.append("\n-- global counters --")
        width = max(len(k) for k, _ in globals_block)
        out.extend(f"  {k:<{width}}  {v}" for k, v in globals_block)
    out.append("\n-- wall time per phase --")
    out.append(span_table(doc))
    manifests = doc.get("manifests", [])
    if manifests:
        out.append("\n-- run manifests --")
        for m in manifests:
            cfg = m.get("config", {})
            out.append(f"  {m.get('kind')}: "
                       f"{cfg.get('experiment', '?')} seed={cfg.get('seed', '?')} "
                       f"hash={m.get('hash', '')[:12]}")
    return "\n".join(out)
