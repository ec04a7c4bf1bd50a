"""Trace (de)serialisation: JSON-lines and columnar archive formats.

Three formats, dispatched on the file suffix:

* ``*.json.gz`` (and any path not matched below) -- ``repro-trace-1``, a
  gzipped JSON-lines stream: line 1 is the header (mode, runtime,
  locations, region table), each following line one event ``[loc, etype,
  region, t, delta?, aux?, t_enter?]`` with the delta as a sparse dict.
  Line-oriented so huge traces stream; human-greppable.  The writer
  spells each line itself (byte-identical to ``json.dumps`` of the
  record, with one cached text per work delta); the reader decodes
  bounded chunks of lines with one ``json.loads`` each, and line by line
  where a chunk fails its checks, so a malformed record is reported at
  its exact line.  A record's ``aux`` payload must fit its kind (the
  table in :mod:`repro.measure.columnar`): the replays and the analysis
  run on columns, which hold nothing else.
* ``*.npz`` -- ``repro-trace-npz-1``, the columnar dump: the
  structure-of-arrays columns of :class:`~repro.measure.columnar.
  TraceColumns` concatenated over locations plus an offsets array,
  written with :func:`numpy.savez_compressed`.  One bulk array write and
  read per field instead of one JSON record per event, which makes
  campaign-scale archives an order of magnitude faster to load.
* ``*.shards`` -- ``repro-shards-1``, the out-of-core sharded archive
  (a directory): events in global merged order split into fixed-size
  memory-mappable shards plus a JSON manifest.  Streaming consumers
  (:class:`~repro.measure.shards.ShardedTrace`) walk it while holding
  at most one shard in memory; see :mod:`repro.measure.shards`.

All three round-trip exactly (float timestamps bit-preserved) and are
covered by the suite.  Used by the CLI tools (``repro-run`` writes,
``repro-analyze`` reads).

All archive writes are *atomic*: the bytes go to a temporary file in the
destination directory, are fsynced, and are moved into place with
:func:`os.replace`.  A reader (or a campaign resuming after a kill) never
observes a truncated archive -- either the old file, the new file, or no
file.  The helpers :func:`atomic_write_bytes` / :func:`atomic_write_text`
expose the same discipline for other writers (the campaign runner's
checkpoint and cache files use them).
"""

from __future__ import annotations

import gzip
import io
import json
import os
import tempfile
import zipfile
import zlib
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.measure.columnar import (
    AUX_ARITY,
    COLUMN_FIELDS,
    DeltaTable,
    TraceColumns,
    split_columns,
)
from repro.measure.trace import RawTrace
from repro.sim.events import Ev, RegionRegistry
from repro.sim.kernels import EMPTY_DELTA, WorkDelta

__all__ = [
    "TraceFormatError",
    "write_trace",
    "read_trace",
    "read_manifest",
    "trace_archive_bytes",
    "atomic_write_bytes",
    "atomic_write_text",
    "archive_hash",
    "archive_suffix",
    "store_archive_bytes",
    "iter_file_chunks",
]


class TraceFormatError(ValueError):
    """A trace archive is corrupt, truncated, or not a trace archive.

    Raised by every archive reader (:func:`read_trace`,
    :func:`read_manifest`, the sharded readers) in place of the bare
    ``KeyError``/``zipfile.BadZipFile``/``json.JSONDecodeError`` the
    underlying libraries throw, so callers handle *one* typed error.
    Subclasses ``ValueError`` (the historical contract for bad headers)
    and stays picklable across process-pool boundaries.

    Attributes
    ----------
    path:   the offending archive (or member file) as a string
    reason: what went wrong, including the wrapped exception
    offset: where in the archive it went wrong -- a line number for
            JSON-lines archives, a member name for npz/shards -- or
            ``None`` when the damage has no localizable position
    """

    def __init__(self, path, reason: str, offset=None):
        self.path = str(path)
        self.reason = reason
        self.offset = offset
        where = self.path if offset is None else f"{self.path} (at {offset})"
        super().__init__(f"{where}: {reason}")

    def __reduce__(self):
        return (TraceFormatError, (self.path, self.reason, self.offset))


#: exception types the readers translate into :class:`TraceFormatError`;
#: covers gzip damage (BadGzipFile is an OSError), zip/npz damage,
#: truncated streams, JSON syntax, and missing/mistyped header fields
_READ_ERRORS = (OSError, EOFError, KeyError, IndexError, TypeError,
                ValueError, UnicodeDecodeError, zipfile.BadZipFile,
                zlib.error)

#: archive suffixes the upload path accepts (dispatch keys of
#: :func:`read_trace`); ``.shards`` is a directory format and cannot be
#: uploaded as one byte blob
UPLOAD_SUFFIXES = (".trace.json.gz", ".json.gz", ".npz")


def archive_hash(data: bytes) -> str:
    """Content address of raw archive bytes (sha256 hex digest)."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def archive_suffix(name: str) -> str:
    """Validated archive suffix for an uploaded trace (``ValueError``
    on anything :func:`read_trace` would not dispatch on)."""
    for suffix in UPLOAD_SUFFIXES:
        if name.endswith(suffix):
            return suffix
    raise ValueError(
        f"unsupported trace archive suffix in {name!r}: expected one of "
        f"{', '.join(UPLOAD_SUFFIXES)}")


def store_archive_bytes(data: bytes, dest_dir: Union[str, Path],
                        suffix: str = ".trace.json.gz",
                        prefix: str = "") -> Tuple[str, Path]:
    """Publish uploaded archive bytes content-addressed into ``dest_dir``.

    The file lands as ``<prefix><sha256-prefix>-trace<suffix>`` via the
    atomic write path, so concurrent identical uploads race benignly
    (same bytes, same name).  Returns ``(full sha256 hash, path)``;
    re-uploading existing content is a cheap no-op.
    """
    suffix = archive_suffix(f"x{suffix}")
    digest = archive_hash(data)
    dest_dir = Path(dest_dir)
    dest_dir.mkdir(parents=True, exist_ok=True)
    path = dest_dir / f"{prefix}{digest[:20]}-trace{suffix}"
    if not path.exists():
        atomic_write_bytes(path, data)
        obs.counter("io.archives_uploaded").inc()
        obs.counter("io.bytes_written", format="upload").add(len(data))
    return digest, path


def iter_file_chunks(path: Union[str, Path],
                     chunk_size: int = 1 << 16):
    """Stream a file's bytes in bounded chunks (archive downloads)."""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                return
            yield chunk


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + fsync + rename).

    The temporary file lives in the destination directory so the final
    :func:`os.replace` stays within one filesystem and is atomic.  On any
    failure the temporary file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str,
                      encoding: str = "utf-8") -> None:
    """Atomic counterpart of ``Path.write_text`` (see
    :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))

_DELTA_FIELDS = ("omp_iters", "bb", "stmt", "instr", "burst_calls", "omp_calls")

#: lines decoded per ``json.loads`` call by the JSON-lines reader; small
#: enough that a chunk's decoded records die young in the cyclic garbage
#: collector instead of reaching (and triggering) its full collections,
#: and that one call holds the interpreter lock for well under a
#: millisecond (the service validates uploads on a thread beside its
#: event loop)
_CHUNK_LINES = 128


def _delta_to_obj(d: WorkDelta):
    if d.is_empty:
        return None
    return {f: getattr(d, f) for f in _DELTA_FIELDS if getattr(d, f) != 0.0}


def _delta_from_obj(obj) -> WorkDelta:
    if not obj:
        return EMPTY_DELTA
    return WorkDelta(**obj)


def write_trace(trace: RawTrace, path: Union[str, Path],
                manifest: Optional[dict] = None) -> None:
    """Write ``trace`` to ``path``.

    ``*.npz`` paths get the columnar bulk format, ``*.shards`` the sharded
    one, everything else the gzipped JSON-lines format (see the module
    docstring).  Every format raises
    :class:`~repro.measure.columnar.ColumnarConversionError` for a trace
    whose payloads do not follow the engine's conventions, so no writer
    produces an archive its reader rejects.  ``manifest``
    (a :func:`repro.obs.build_manifest` document) is embedded in the
    archive header as run provenance; :func:`read_manifest` retrieves it
    without parsing the event body.
    """
    path = Path(path)
    if path.suffix == ".shards":
        from repro.measure.shards import write_sharded_trace

        write_sharded_trace(trace, path, manifest=manifest)
        return
    fmt = "npz" if path.suffix == ".npz" else "jsonl"
    with obs.span("io.write_trace", format=fmt):
        if fmt == "npz":
            _write_trace_npz(trace, path, manifest)
        else:
            _write_trace_jsonl(trace, path, manifest)
    obs.counter("io.traces_written", format=fmt).inc()
    obs.counter("io.bytes_written", format=fmt).add(path.stat().st_size)


def trace_archive_bytes(trace: RawTrace,
                        manifest: Optional[dict] = None) -> bytes:
    """Canonical JSON-lines archive bytes of ``trace`` (no file involved).

    The exact bytes :func:`write_trace` would put in a ``*.trace.json.gz``
    archive (deterministic: the gzip mtime is pinned), for callers that
    store traces content-addressed -- the serving layer's ingest endpoint.
    """
    trace.columns()  # the payload check (ColumnarConversionError)
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        # one write per line: the text layer's flush points decide the
        # deflate input chunks, and with them the compressed bytes
        with io.TextIOWrapper(gz, encoding="utf-8") as fh:
            fh.writelines(_jsonl_lines(trace, manifest))
    return buf.getvalue()


def _write_trace_jsonl(trace: RawTrace, path: Path,
                       manifest: Optional[dict]) -> None:
    atomic_write_bytes(path, trace_archive_bytes(trace, manifest))


def _jsonl_lines(trace: RawTrace, manifest: Optional[dict]) -> Iterator[str]:
    """The archive's lines: the header, then one record per event."""
    header = {
        "format": "repro-trace-1",
        "mode": trace.mode,
        "runtime": trace.runtime,
        "locations": [list(lt) for lt in trace.locations],
        "regions": list(trace.regions.names),
        "paradigms": list(trace.regions.paradigms),
    }
    if manifest is not None:
        header["provenance"] = manifest
    yield json.dumps(header) + "\n"
    delta_text: dict = {}  # id(delta) -> JSON text; the trace keeps them alive
    for loc, evs in enumerate(trace.events):
        yield from _jsonl_records(loc, evs, delta_text)


def _jsonl_records(loc: int, evs, delta_text: dict) -> Iterator[str]:
    """One line per event, equal to ``json.dumps([loc, etype, region, t,
    delta, aux, t_enter or None]) + "\\n"``.  Plain ints and finite floats
    are spelled as ``json`` spells them (``repr``); records holding
    anything else go through ``json.dumps`` whole."""
    dumps = json.dumps
    for ev in evs:
        et, rg, t, te, aux, d = ev.etype, ev.region, ev.t, ev.t_enter, ev.aux, ev.delta
        dt = delta_text.get(id(d))
        if dt is None:
            dt = delta_text[id(d)] = dumps(_delta_to_obj(d))
        if aux is None:
            at = "null"
        elif type(aux) is int:
            at = f"{aux}"
        elif type(aux) is tuple and len(aux) == 2 \
                and type(aux[0]) is int and type(aux[1]) is int:
            at = f"[{aux[0]}, {aux[1]}]"
        else:
            at = None
        if not te:
            te_text = "null"
        elif type(te) is float and te - te == 0.0:
            te_text = f"{te!r}"
        else:
            te_text = None
        if (at is not None and te_text is not None and type(et) is int
                and type(rg) is int and type(t) is float and t - t == 0.0):
            yield f"[{loc}, {et}, {rg}, {t!r}, {dt}, {at}, {te_text}]\n"
        else:
            yield dumps([loc, et, rg, t, _delta_to_obj(d),
                         list(aux) if isinstance(aux, tuple) else aux,
                         te or None]) + "\n"


def read_trace(path: Union[str, Path]) -> RawTrace:
    """Read a trace written by :func:`write_trace` (either format).

    An embedded provenance manifest is attached to the returned trace as
    its ``provenance`` attribute (``None`` when the archive has none).
    """
    path = Path(path)
    if path.suffix == ".shards":
        from repro.measure.shards import open_sharded_trace

        with obs.span("io.read_trace", format="shards"):
            return open_sharded_trace(path).to_raw()
    fmt = "npz" if path.suffix == ".npz" else "jsonl"
    with obs.span("io.read_trace", format=fmt):
        trace = (_read_trace_npz(path) if fmt == "npz"
                 else _read_trace_jsonl(path))
    obs.counter("io.traces_read", format=fmt).inc()
    obs.counter("io.bytes_read", format=fmt).add(path.stat().st_size)
    return trace


def read_manifest(path: Union[str, Path]) -> Optional[dict]:
    """Provenance manifest embedded in a trace archive, or ``None``.

    Header-only for every format: sharded archives read ``manifest.json``
    alone, the other formats decode just the header record.
    """
    path = Path(path)
    if path.suffix == ".shards":
        from repro.measure.shards import read_shard_manifest

        return read_shard_manifest(path).get("provenance")
    try:
        if path.suffix == ".npz":
            with np.load(path) as data:
                header = json.loads(bytes(data["header"]).decode("utf-8"))
        else:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                header = json.loads(fh.readline())
        return header.get("provenance")
    except TraceFormatError:
        raise
    except _READ_ERRORS as exc:
        raise TraceFormatError(
            path, f"unreadable archive header: {type(exc).__name__}: {exc}",
            offset="header") from exc


def _read_trace_jsonl(path: Path) -> RawTrace:
    lineno = 0
    try:
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            lineno = 1
            header = json.loads(fh.readline())
            if not isinstance(header, dict) \
                    or header.get("format") != "repro-trace-1":
                raise TraceFormatError(path, "not a repro trace archive",
                                       offset="line 1")
            regions = RegionRegistry()
            for name, paradigm in zip(header["regions"], header["paradigms"]):
                regions.intern(name, paradigm)
            locations: List[Tuple[int, int]] = [tuple(lt) for lt in header["locations"]]
            events: List[List[Ev]] = [[] for _ in locations]
            deltas = DeltaTable()
            lines: List[str] = []
            for line in fh:
                lineno += 1
                lines.append(line)
                if len(lines) == _CHUNK_LINES:
                    _load_records(path, lines, lineno, events, deltas)
                    lines = []
            _load_records(path, lines, lineno, events, deltas)
        trace = RawTrace(
            mode=header["mode"],
            regions=regions,
            locations=locations,
            events=events,
            runtime=header["runtime"],
            pinning=None,
        )
    except TraceFormatError:
        raise
    except _READ_ERRORS as exc:
        raise TraceFormatError(
            path, f"corrupt JSON-lines archive: {type(exc).__name__}: {exc}",
            offset=f"line {lineno}") from exc
    trace.provenance = header.get("provenance")
    return trace


def _load_records(path: Path, lines: List[str], last_lineno: int,
                  events: List[List[Ev]], deltas: DeltaTable) -> None:
    """Append the events of ``lines`` (ending at line ``last_lineno``).

    The chunk is decoded as one JSON array.  That decode stands for the
    line-by-line one when every line starts with ``[`` and ends with
    ``]``, the array has one element per line and every element passes
    :func:`_bulk_fields`: a record split across a line break would then
    need a line to start with a nested list where a record holds none.
    Anything else -- a malformed record above all -- is decoded line by
    line, which raises at the exact line.
    """
    if not lines:
        return
    recs = None
    if all(map(str.startswith, lines, repeat("["))) \
            and all(map(str.endswith, lines, repeat(("]\n", "]")))):
        try:
            recs = json.loads("[" + ",".join(lines) + "]")
        except ValueError:
            pass
    fields = _bulk_fields(recs, len(lines), len(events)) if recs else None
    if fields is None:
        _load_lines(path, lines, last_lineno - len(lines) + 1, events)
        return
    locs, ets, rgs, ts, ds, auxs, tes = fields
    get = dict.get
    evs = list(map(Ev, ets, rgs, ts,
                   [deltas[(get(d, "omp_iters", 0.0), get(d, "bb", 0.0),
                            get(d, "stmt", 0.0), get(d, "instr", 0.0),
                            get(d, "burst_calls", 0.0),
                            get(d, "omp_calls", 0.0))] if d else EMPTY_DELTA
                    for d in ds],
                   [tuple(a) if type(a) is list else a for a in auxs],
                   [x or 0.0 for x in tes]))
    loc_arr = np.array(locs)
    cuts = [0] + (np.flatnonzero(loc_arr[1:] != loc_arr[:-1]) + 1).tolist() \
        + [len(evs)]
    for a, b in zip(cuts, cuts[1:]):
        events[locs[a]].extend(evs[a:b])


#: JSON types allowed for the scalar event fields on the bulk path
_SCALARS = {int, float, bool, type(None)}


def _bulk_fields(recs: list, n_lines: int, n_loc: int) -> Optional[tuple]:
    """The seven field columns of a decoded chunk, or ``None`` unless it
    qualifies for the bulk path: one 7-field record per line, locations
    in range, scalar fields, deltas as dicts of float fields, and aux
    payloads that fit their kinds (one int, a pair of ints, or null)."""
    if len(recs) != n_lines or set(map(type, recs)) != {list} \
            or set(map(len, recs)) != {7}:
        return None
    fields = locs, ets, rgs, ts, ds, auxs, tes = tuple(zip(*recs))
    if set(map(type, locs)) != {int} or min(locs) < 0 or max(locs) >= n_loc:
        return None
    if not set(map(type, chain(ets, rgs, ts, tes))) <= _SCALARS:
        return None
    dicts = [d for d in ds if d]
    if not (set(map(type, ds)) <= {dict, type(None)}
            and set(chain.from_iterable(dicts)) <= set(_DELTA_FIELDS)
            and set(map(type, chain.from_iterable(map(dict.values, dicts))))
            <= {float}):
        return None
    lists = [a for a in auxs if type(a) is list]
    if not (set(map(type, chain.from_iterable(lists))) <= {int}
            and set(map(len, lists)) <= {2}):
        return None
    # the payload arity of every record equals its kind's (other payload
    # types map to None and never match)
    if list(map(_AUX_ARITY_OF.get, map(type, auxs))) \
            != list(map(AUX_ARITY.get, ets, repeat(0))):
        return None
    return fields


#: payload arity by ``aux`` type on the bulk path (lists are int pairs
#: by the time it is read)
_AUX_ARITY_OF = {type(None): 0, int: 1, list: 2}


def _check_payload(etype, aux) -> None:
    """``ValueError`` unless ``aux`` fits ``etype`` in the kind table."""
    arity = AUX_ARITY.get(etype, 0)
    if arity == 0:
        ok = aux is None
    elif arity == 1:
        ok = type(aux) is int
    else:
        ok = (type(aux) is list and len(aux) == 2
              and type(aux[0]) is int and type(aux[1]) is int)
    if not ok:
        raise ValueError(f"payload {aux!r} does not fit event kind {etype!r}")


def _load_lines(path: Path, lines: List[str], first_lineno: int,
                events: List[List[Ev]]) -> None:
    """Line-by-line decode of a chunk; raises at the first bad record."""
    for k, line in enumerate(lines):
        try:
            loc, etype, region, t, delta, aux, t_enter = json.loads(line)
            if type(loc) is not int or not 0 <= loc < len(events):
                raise ValueError(f"location {loc!r} outside the "
                                 f"{len(events)} locations")
            _check_payload(etype, aux)
            if isinstance(aux, list):
                aux = tuple(aux)
            events[loc].append(Ev(etype, region, t, _delta_from_obj(delta),
                                  aux=aux, t_enter=t_enter or 0.0))
        except _READ_ERRORS as exc:
            raise TraceFormatError(
                path, f"corrupt JSON-lines archive: {type(exc).__name__}: "
                f"{exc}", offset=f"line {first_lineno + k}") from exc


# ---------------------------------------------------------------------------
# columnar (npz) format
# ---------------------------------------------------------------------------

def _write_trace_npz(trace: RawTrace, path: Path,
                     manifest: Optional[dict] = None) -> None:
    """Bulk-dump the trace's columns (raises ``ColumnarConversionError``
    for traces whose payloads do not follow the engine's conventions --
    write those as JSON lines instead)."""
    cols = trace.columns()
    header = {
        "format": "repro-trace-npz-1",
        "mode": cols.mode,
        "runtime": cols.runtime,
        "locations": [list(lt) for lt in cols.locations],
        "regions": list(cols.regions.names),
        "paradigms": list(cols.regions.paradigms),
    }
    if manifest is not None:
        header["provenance"] = manifest
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "offsets": cols.offsets(),
    }
    for field in COLUMN_FIELDS:
        arrays[field] = cols.column(field) if cols.locs \
            else np.empty(0, dtype=np.float64)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


def _read_trace_npz(path: Path) -> RawTrace:
    member = "header"
    try:
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if not isinstance(header, dict) \
                    or header.get("format") != "repro-trace-npz-1":
                raise TraceFormatError(
                    path, "not a columnar repro trace archive",
                    offset="header")
            member = "offsets"
            offsets = data["offsets"]
            columns = {}
            for f in COLUMN_FIELDS:
                member = f
                columns[f] = data[f]
        member = "header"
        regions = RegionRegistry()
        for name, paradigm in zip(header["regions"], header["paradigms"]):
            regions.intern(name, paradigm)
        locations: List[Tuple[int, int]] = [tuple(lt) for lt in header["locations"]]
        trace = RawTrace.from_columns(TraceColumns(
            mode=header["mode"],
            regions=regions,
            locations=locations,
            locs=split_columns(path, columns, len(locations), offsets=offsets),
            runtime=header["runtime"],
            pinning=None,
        ))
    except TraceFormatError:
        raise
    except _READ_ERRORS as exc:
        raise TraceFormatError(
            path, f"corrupt columnar archive: {type(exc).__name__}: {exc}",
            offset=member) from exc
    trace.provenance = header.get("provenance")
    return trace
