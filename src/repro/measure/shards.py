"""Out-of-core sharded columnar trace archives.

A *sharded* archive is a directory holding a trace as fixed-size columnar
shards plus a small JSON manifest:

::

    trace.shards/
        manifest.json        header: mode, runtime, locations, regions,
                             per-shard row counts and time ranges
        shard-0000.npy       structured array, events in global merged order
        shard-0001.npy
        ...

Each shard is a NumPy structured array (one record per event: location id,
event kind, region id, timestamps, aux payload, work-delta components)
stored in **global merged order** -- exactly the order
:meth:`repro.measure.trace.RawTrace.merged` visits the trace (see
:func:`repro.measure.trace.merged_order`).  Storing the merge order makes
every streaming consumer (the Chrome export, ``ClockAligner``) a single
forward scan: :class:`ShardedTrace` memory-maps one shard at a time
(``numpy.load(..., mmap_mode="r")``), materializes at most that shard's
rows as Python objects, and drops them before opening the next shard.
Peak memory is bounded by the shard size regardless of trace length.
Wait-state analysis, the clock replays, the causal DAG, what-if, the
sanitizer and the race detector read the archive whole
(:meth:`ShardedTrace.to_raw`, what :func:`repro.measure.io.read_trace`
returns): their compiled plans need the column-backed trace, and every
archive was written from a trace that fit in memory.

The manifest is the archive header: :func:`repro.measure.io.build_header`
makes it and :func:`repro.measure.io.parse_header` checks it, as for the
other two formats.  :func:`read_shard_manifest` reads *only*
``manifest.json`` -- provenance and shape queries never touch the event
body.

Writes are atomic per file (see :func:`repro.measure.io.atomic_write_bytes`)
and the manifest is written last, so a reader never observes a manifest
that references missing or truncated shards.
"""

from __future__ import annotations

import io as _io
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.measure.columnar import (
    COLUMN_FIELDS,
    DeltaTable,
    TraceColumns,
    events_from_columns,
    location_counts,
    split_columns,
)
from repro.measure.io import (
    TraceFormatError,
    atomic_write_bytes,
    atomic_write_text,
    build_header,
    parse_header,
)
from repro.measure.trace import RawTrace
from repro.sim.events import Ev

__all__ = [
    "DEFAULT_SHARD_EVENTS",
    "MANIFEST_NAME",
    "StreamStats",
    "ShardedTrace",
    "write_sharded_trace",
    "read_shard_manifest",
    "open_sharded_trace",
]

#: the header file (the offset :func:`repro.measure.io.parse_header`
#: names for a shard manifest)
MANIFEST_NAME = "manifest.json"

#: default rows per shard; small enough that one shard of the structured
#: records (~74 B/row) stays a few MiB, large enough to amortize per-shard
#: open/decode overhead
DEFAULT_SHARD_EVENTS = 65536

#: one record per event; ``loc`` first so a shard is self-describing
SHARD_DTYPE = np.dtype([
    ("loc", np.int32),
    ("etype", np.int16),
    ("region", np.int32),
    ("t", np.float64),
    ("t_enter", np.float64),
    ("aux_a", np.int64),
    ("aux_b", np.int64),
    ("omp_iters", np.float64),
    ("bb", np.float64),
    ("stmt", np.float64),
    ("instr", np.float64),
    ("burst_calls", np.float64),
    ("omp_calls", np.float64),
])


#: rows turned into ``Ev`` objects at a time by :meth:`ShardedTrace.merged`
_EVENT_BATCH = 512


def _shard_name(i: int) -> str:
    return f"shard-{i:04d}.npy"


def write_sharded_trace(
    trace: RawTrace,
    path: Union[str, Path],
    shard_events: int = DEFAULT_SHARD_EVENTS,
    manifest: Optional[dict] = None,
) -> Path:
    """Write ``trace`` as a sharded archive directory at ``path``.

    Events are written in global merged order (the order
    :meth:`RawTrace.merged` yields them), split into shards of at most
    ``shard_events`` rows.  ``manifest`` (a
    :func:`repro.obs.build_manifest` document) is embedded as provenance.
    Returns the archive directory path.
    """
    if shard_events <= 0:
        raise ValueError(f"shard_events must be positive, got {shard_events}")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    with obs.span("io.write_sharded", shard_events=shard_events):
        cols = trace.columns()  # validates aux payload conventions
        cols.check_values()
        perm, loc = cols.merged_order()
        n_total = len(perm)
        rec = np.empty(n_total, dtype=SHARD_DTYPE)
        rec["loc"] = loc
        for field in COLUMN_FIELDS:
            rec[field] = cols.column(field)[perm]

        shard_meta = []
        for i, start in enumerate(range(0, max(n_total, 1), shard_events)):
            chunk = rec[start:start + shard_events]
            if len(chunk) == 0 and i > 0:
                break
            buf = _io.BytesIO()
            np.save(buf, chunk)
            atomic_write_bytes(path / _shard_name(i), buf.getvalue())
            shard_meta.append({
                "file": _shard_name(i),
                "n_events": int(len(chunk)),
                "t_min": float(chunk["t"].min()) if len(chunk) else 0.0,
                "t_max": float(chunk["t"].max()) if len(chunk) else 0.0,
            })

        header = build_header(
            "shards", cols, manifest, n_events=int(n_total),
            shard_events=int(shard_events),
            loc_counts=[int(len(lc)) for lc in cols.locs], shards=shard_meta)
        # manifest last: its appearance commits the archive
        atomic_write_text(path / MANIFEST_NAME, json.dumps(header, indent=1))
    obs.counter("io.traces_written", format="shards").inc()
    return path


#: the manifest's own fields (besides those of every archive header);
#: checked up front so a truncated or hand-edited manifest fails as one
#: typed error instead of a KeyError deep inside a streaming scan
_MANIFEST_FIELDS = ("n_events", "shard_events", "loc_counts", "shards")


def read_shard_manifest(path: Union[str, Path]) -> dict:
    """The archive header -- reads ``manifest.json`` only, never a shard.

    Raises :class:`~repro.measure.io.TraceFormatError` when the manifest
    is missing, unparseable, not a sharded archive, or lacks required
    fields.
    """
    path = Path(path)
    try:
        with open(path / MANIFEST_NAME, "r", encoding="utf-8") as fh:
            header = json.load(fh)
        parse_header(path, header, "shards", _MANIFEST_FIELDS)
    except TraceFormatError:
        raise
    except (OSError, TypeError, ValueError, UnicodeDecodeError) as exc:
        raise TraceFormatError(
            path, f"unreadable shard manifest: {type(exc).__name__}: {exc}",
            offset=MANIFEST_NAME) from exc
    return header


def open_sharded_trace(path: Union[str, Path]) -> "ShardedTrace":
    """Open a sharded archive for streaming (reads the manifest only)."""
    return ShardedTrace(Path(path), read_shard_manifest(path))


class StreamStats:
    """Bookkeeping of one :class:`ShardedTrace`'s streaming behaviour.

    ``peak_resident_rows`` is the largest number of event rows
    materialized at any moment -- the bounded-memory tests pin it to the
    shard size.
    """

    __slots__ = ("shards_opened", "rows_streamed", "peak_resident_rows")

    def __init__(self) -> None:
        self.shards_opened = 0
        self.rows_streamed = 0
        self.peak_resident_rows = 0


class ShardedTrace:
    """Streaming view of a sharded archive (duck-types ``RawTrace``).

    Exposes the metadata surface of :class:`~repro.measure.trace.RawTrace`
    (``mode``, ``regions``, ``locations``, ``n_events``, ...) plus a
    streaming :meth:`merged` iterator, so merged-order consumers -- the
    Chrome export and ``ClockAligner`` -- accept it unchanged.
    :meth:`to_raw` materializes the whole trace; the clock replays, the
    causal DAG, what-if, the analysis, the sanitizer and the race
    detector read an archive that way (DESIGN.md says why).
    """

    def __init__(self, path: Path, header: dict):
        self.path = Path(path)
        self.header = header
        self.regions, self.locations = parse_header(
            self.path, header, "shards", _MANIFEST_FIELDS)
        self.mode: str = header["mode"]
        self.runtime: float = header["runtime"]
        self.provenance: Optional[dict] = header.get("provenance")
        self.loc_counts: List[int] = [int(c) for c in header["loc_counts"]]
        self.shard_events: int = int(header["shard_events"])
        self.stats = StreamStats()
        self._loc_index: Dict[Tuple[int, int], int] = {
            lt: i for i, lt in enumerate(self.locations)
        }

    # -- RawTrace-compatible metadata surface ---------------------------
    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_events(self) -> int:
        return int(self.header["n_events"])

    @property
    def n_shards(self) -> int:
        return len(self.header["shards"])

    @property
    def n_ranks(self) -> int:
        return len({r for (r, _t) in self.locations})

    def loc_id(self, rank: int, thread: int) -> int:
        return self._loc_index[(rank, thread)]

    def threads_of(self, rank: int) -> List[int]:
        return sorted(t for (r, t) in self.locations if r == rank)

    def master_locations(self) -> List[int]:
        return [self._loc_index[(r, 0)]
                for r in sorted({r for (r, _t) in self.locations})]

    # -- streaming -------------------------------------------------------
    def iter_shards(self) -> Iterator[np.ndarray]:
        """Memory-mapped shard arrays, one at a time.

        Each yielded array is a read-only ``numpy.memmap`` over one shard
        file; the previous map is dropped before the next is opened, so at
        most one shard is resident.  Every shard is checked against the
        manifest (record layout, row count, location ids), and a full
        pass checks the rows per location against ``loc_counts``.
        """
        seen = np.zeros(self.n_locations, dtype=np.int64)
        for meta in self.header["shards"]:
            try:
                arr = np.load(self.path / meta["file"], mmap_mode="r")
            except (OSError, ValueError, EOFError, KeyError) as exc:
                raise TraceFormatError(
                    self.path,
                    f"unreadable shard: {type(exc).__name__}: {exc}",
                    offset=meta.get("file")) from exc
            if arr.dtype != SHARD_DTYPE or arr.ndim != 1:
                raise TraceFormatError(
                    self.path, f"shard has dtype {arr.dtype}, expected the "
                    "repro shard record layout", offset=meta.get("file"))
            if len(arr) != meta["n_events"]:
                raise TraceFormatError(
                    self.path,
                    f"{len(arr)} rows, manifest says {meta['n_events']}",
                    offset=meta.get("file"))
            seen += location_counts(self.path, arr["loc"], self.n_locations,
                                    meta["file"])
            self.stats.shards_opened += 1
            yield arr
            del arr  # release the map before opening the next shard
        if seen.tolist() != self.loc_counts or int(seen.sum()) != self.n_events:
            raise TraceFormatError(
                self.path, f"rows per location {seen.tolist()} contradict "
                f"the manifest's loc_counts {self.loc_counts} or n_events "
                f"{self.n_events}", offset=MANIFEST_NAME)

    def _resident(self, n: int) -> None:
        stats = self.stats
        stats.rows_streamed += n
        if n > stats.peak_resident_rows:
            stats.peak_resident_rows = n
            obs.gauge("io.shards.peak_resident_rows").set(float(n))

    def merged(self) -> Iterator[Tuple[int, Ev]]:
        """All events as ``(loc, Ev)`` in global merged order, streamed.

        Equivalent to :meth:`RawTrace.merged` on the materialized trace,
        but holds at most one shard's rows in memory.
        """
        deltas = DeltaTable()
        for arr in self.iter_shards():
            self._resident(len(arr))
            # build in small batches: events die young as the consumer
            # moves on, instead of a shard's worth surviving into the
            # collector's oldest generation
            for lo in range(0, len(arr), _EVENT_BATCH):
                rows = arr[lo:lo + _EVENT_BATCH]
                yield from zip(rows["loc"].tolist(),
                               events_from_columns(rows, deltas))

    # -- materialization (the non-streaming escape hatch) ---------------
    def to_raw(self) -> RawTrace:
        """Load the whole archive as a column-backed :class:`RawTrace`."""
        shards = list(self.iter_shards())
        rec = (np.concatenate(shards) if shards
               else np.empty(0, dtype=SHARD_DTYPE))
        del shards
        self._resident(len(rec))
        locs = split_columns(self.path, rec, self.n_locations,
                             len(self.regions), loc=rec["loc"])
        trace = RawTrace.from_columns(TraceColumns(
            self.mode, self.regions, list(self.locations), locs,
            runtime=self.runtime))
        trace.provenance = self.provenance
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedTrace({str(self.path)!r}, events={self.n_events}, "
            f"shards={self.n_shards}, locations={self.n_locations})"
        )
