"""Trace (de)serialisation: JSON-lines and columnar archive formats.

Three formats, dispatched on the file suffix:

* ``*.json.gz`` (and any path not matched below) -- ``repro-trace-1``, a
  gzipped JSON-lines stream: line 1 is the header, each following line
  one event ``[loc, etype, region, t, delta?, aux?, t_enter?]`` with the
  delta as a sparse dict.  Line-oriented so huge traces stream;
  human-greppable.  The codec runs over
  :class:`~repro.measure.columnar.TraceColumns`: the writer spells each
  location's rows from its columns (byte-identical to ``json.dumps`` of
  the record, with one cached text per distinct work delta) and deflates
  the text as one gzip stream at :data:`GZIP_LEVEL` (6) with the mtime
  pinned, so the archive bytes are a function of the text and the level
  alone (for a given zlib), whatever the Python version and however the
  text is fed in; the reader decodes bounded chunks of lines with one
  ``json.loads`` each, and line by line where a chunk fails its checks,
  so a malformed record is reported at its exact line, and builds the
  columns once at the end.
* ``*.npz`` -- ``repro-trace-npz-1``, the columnar dump: the
  structure-of-arrays columns concatenated over locations plus an
  offsets array, written with :func:`numpy.savez_compressed`.  One bulk
  array write and read per field instead of one JSON record per event,
  which makes campaign-scale archives an order of magnitude faster to
  load.
* ``*.shards`` -- ``repro-shards-1``, the out-of-core sharded archive
  (a directory): events in global merged order split into fixed-size
  memory-mappable shards plus a JSON manifest.  Streaming consumers
  (:class:`~repro.measure.shards.ShardedTrace`) walk it while holding
  at most one shard in memory; see :mod:`repro.measure.shards`.

The three headers -- and the ``repro_trace`` header of a lossless Chrome
export -- share one codec: :func:`build_header` makes every header and
:func:`parse_header` checks and parses it for every reader,
:func:`read_manifest` included.

Every format refuses what the record check of
:mod:`repro.measure.columnar` refuses, whichever way in: a kind outside
the kind table, a region outside the registry, a payload that does not
fit its kind or int64, a non-finite time (there are none in a trace), a
negative or non-finite work delta -- and every reader refuses a header
with an unknown mode, a runtime that is not a finite number >= 0,
repeated locations or repeated region names.  The JSON-lines reader
names the record's line, the npz and sharded readers the member, and
the writers raise :class:`~repro.measure.columnar.ColumnarConversionError`
(no writer produces an archive its reader refuses).

All three round-trip exactly (float timestamps bit-preserved), read back
column-backed traces, and leave the trace they write as it was.  Used by
the CLI tools (``repro-run`` writes, ``repro-analyze`` reads).

All archive writes are *atomic*: the bytes go to a temporary file in the
destination directory, are fsynced, and are moved into place with
:func:`os.replace`.  A reader (or a campaign resuming after a kill) never
observes a truncated archive -- either the old file, the new file, or no
file.  The helpers :func:`atomic_write_bytes` / :func:`atomic_write_text`
expose the same discipline for other writers (the campaign runner's
checkpoint and cache files use them), and :func:`quarantine` moves a
corrupt file aside for every reader that finds one.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import shutil
import tempfile
import zipfile
import zlib
from itertools import chain, repeat
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.measure.columnar import (
    COLUMN_FIELDS,
    DELTA_FIELDS,
    DeltaTable,
    LocationColumns,
    TraceColumns,
    aux_values,
    record_problem,
    split_columns,
    value_defects,
    value_error,
)
from repro.measure.config import MODES
from repro.measure.trace import RawTrace
from repro.obs.export import CHROME_RAW_FORMAT
from repro.sim.events import RegionRegistry

__all__ = [
    "TraceFormatError",
    "write_trace",
    "read_trace",
    "read_manifest",
    "trace_archive_bytes",
    "npz_archive_bytes",
    "build_header",
    "parse_header",
    "atomic_write_bytes",
    "atomic_write_text",
    "quarantine",
    "archive_hash",
    "archive_suffix",
    "store_archive_bytes",
    "decode_trace",
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


def quarantine(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt file (or directory) aside as ``<name>.corrupt-N``,
    where its bytes stay inspectable; returns the new path, or ``None``
    when ``path`` vanished or could not be renamed (then it is deleted,
    so the corruption cannot be read again)."""
    path = Path(path)
    for n in range(1000):
        dest = path.with_name(f"{path.name}.corrupt-{n}")
        if dest.exists():
            continue
        try:
            path.rename(dest)
        except FileNotFoundError:
            return None
        except OSError:
            break
        return dest
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)
    return None


# ---------------------------------------------------------------------------
# the header codec (the three archive formats and the Chrome sidecar)
# ---------------------------------------------------------------------------

#: per format: the header's tag, where its readers find the header (the
#: offset of a header error), and what a header without the tag is not;
#: ``chrome`` is the ``repro_trace`` record of a lossless Chrome export
_FORMATS = {
    "jsonl": ("repro-trace-1", "line 1", "not a repro trace archive"),
    "npz": ("repro-trace-npz-1", "header",
            "not a columnar repro trace archive"),
    "shards": ("repro-shards-1", "manifest.json",
               "not a sharded repro trace archive"),
    "chrome": (CHROME_RAW_FORMAT, "repro_trace",
               "not a repro raw sidecar header"),
}

#: header fields every format carries
_HEADER_FIELDS = ("mode", "runtime", "locations", "regions", "paradigms")


def build_header(fmt: str, trace, manifest: Optional[dict] = None,
                 **fields) -> dict:
    """The header of a ``fmt`` archive of ``trace`` (a ``RawTrace`` or
    ``TraceColumns``): the format tag, the trace's mode, runtime,
    locations and region table, the format's own ``fields``, then
    ``manifest`` as provenance.  The JSON-lines bytes pin this key
    order."""
    header = {
        "format": _FORMATS[fmt][0],
        "mode": trace.mode,
        "runtime": trace.runtime,
        "locations": [list(lt) for lt in trace.locations],
        "regions": list(trace.regions.names),
        "paradigms": list(trace.regions.paradigms),
        **fields,
    }
    if manifest is not None:
        header["provenance"] = manifest
    return header


def parse_header(path, header, fmt: str, required: Tuple[str, ...] = ()
                 ) -> Tuple[RegionRegistry, List[Tuple[int, int]]]:
    """Check a decoded ``fmt`` header; return its region registry and
    location tuples.

    Raises :class:`TraceFormatError` at the format's header position when
    ``header`` is not a JSON object carrying the format's tag, lacks a
    field every format has or one of ``required``, or breaks the header
    check: the mode is one of the six clock modes, the runtime a finite
    number >= 0, the locations distinct ``[rank, thread]`` pairs of
    non-negative ints, and the regions and paradigms equal-length lists
    of strings with distinct region names.
    """
    tag, offset, what = _FORMATS[fmt]
    if not isinstance(header, dict) or header.get("format") != tag:
        raise TraceFormatError(path, what, offset=offset)
    missing = [k for k in _HEADER_FIELDS + required if k not in header]
    if missing:
        raise TraceFormatError(
            path, f"archive header lacks required field(s) {missing}",
            offset=offset)
    problem = _header_problem(header)
    if problem:
        raise TraceFormatError(path, f"archive header {problem}",
                               offset=offset)
    regions = RegionRegistry()
    for name, paradigm in zip(header["regions"], header["paradigms"]):
        regions.intern(name, paradigm)
    return regions, [tuple(lt) for lt in header["locations"]]


def _header_problem(header: dict) -> Optional[str]:
    """What a header with every field breaks in the header check, or
    ``None``."""
    mode, runtime = header["mode"], header["runtime"]
    if not isinstance(mode, str) or mode not in MODES:
        return f"names no clock mode: {mode!r}"
    if type(runtime) not in (int, float) or not math.isfinite(runtime) \
            or runtime < 0:
        return f"runtime {runtime!r} is not a finite number >= 0"
    locations = header["locations"]
    if not isinstance(locations, list) or not all(
            isinstance(lt, (list, tuple)) and len(lt) == 2
            and all(type(x) is int and x >= 0 for x in lt)
            for lt in locations):
        return "locations are not [rank, thread] pairs of non-negative ints"
    if len(set(map(tuple, locations))) != len(locations):
        return "repeats a location"
    names, paradigms = header["regions"], header["paradigms"]
    if not (isinstance(names, list) and isinstance(paradigms, list)
            and len(names) == len(paradigms)
            and all(type(x) is str for x in chain(names, paradigms))):
        return "regions and paradigms are not equal-length lists of strings"
    if len(set(names)) != len(names):
        return "repeats a region name"
    return None


def _format_of(path: Path) -> str:
    return {".shards": "shards", ".npz": "npz"}.get(path.suffix, "jsonl")


def write_trace(trace: RawTrace, path: Union[str, Path],
                manifest: Optional[dict] = None) -> None:
    """Write ``trace`` to ``path``.

    ``*.npz`` paths get the columnar bulk format, ``*.shards`` the sharded
    one, everything else the gzipped JSON-lines format (see the module
    docstring).  Every format writes from :meth:`RawTrace.columns`, so it
    raises :class:`~repro.measure.columnar.ColumnarConversionError` for a
    trace whose payloads do not follow the engine's conventions or whose
    values break the record check (no writer produces an archive its
    reader rejects) and leaves a
    column-backed trace column-backed.  ``manifest`` (a
    :func:`repro.obs.build_manifest` document) is embedded in the
    archive header as run provenance; :func:`read_manifest` retrieves it
    without parsing the event body.
    """
    path = Path(path)
    fmt = _format_of(path)
    if fmt == "shards":
        from repro.measure.shards import write_sharded_trace

        write_sharded_trace(trace, path, manifest=manifest)
        return
    with obs.span("io.write_trace", format=fmt):
        encode = npz_archive_bytes if fmt == "npz" else trace_archive_bytes
        atomic_write_bytes(path, encode(trace, manifest))
    obs.counter("io.traces_written", format=fmt).inc()
    obs.counter("io.bytes_written", format=fmt).add(path.stat().st_size)


def read_trace(path: Union[str, Path]) -> RawTrace:
    """Read a trace written by :func:`write_trace` (any format) as a
    column-backed :class:`RawTrace`.

    An embedded provenance manifest is attached to the returned trace as
    its ``provenance`` attribute (``None`` when the archive has none).
    """
    path = Path(path)
    fmt = _format_of(path)
    if fmt == "shards":
        from repro.measure.shards import open_sharded_trace

        with obs.span("io.read_trace", format="shards"):
            return open_sharded_trace(path).to_raw()
    trace = _decode(path, fmt, path)
    obs.counter("io.bytes_read", format=fmt).add(path.stat().st_size)
    return trace


def decode_trace(data: bytes, path: Union[str, Path]) -> RawTrace:
    """The trace :func:`read_trace` would read from ``path`` if the file
    held ``data``: the bytes of a JSON-lines or npz archive, decoded
    without touching the file (``path`` names the format and the errors'
    archive).  For callers that must decode exactly the bytes they
    hashed, such as the serving layer's trace cache.
    """
    path = Path(path)
    fmt = _format_of(path)
    if fmt == "shards":
        raise TraceFormatError(path, "a sharded archive is a directory, "
                               "not one byte blob")
    trace = _decode(path, fmt, io.BytesIO(data))
    obs.counter("io.bytes_read", format=fmt).add(len(data))
    return trace


def _decode(path: Path, fmt: str, source) -> RawTrace:
    """Decode a JSON-lines or npz archive from ``source`` (``path`` itself
    or a file object holding its bytes)."""
    with obs.span("io.read_trace", format=fmt):
        trace = (_read_trace_npz if fmt == "npz"
                 else _read_trace_jsonl)(path, source)
    obs.counter("io.traces_read", format=fmt).inc()
    return trace


def read_manifest(path: Union[str, Path]) -> Optional[dict]:
    """Provenance manifest embedded in a trace archive, or ``None``.

    Header-only for every format: sharded archives read ``manifest.json``
    alone, the other formats decode just the header record.  Raises
    :class:`TraceFormatError` for a header :func:`read_trace` would
    refuse.
    """
    path = Path(path)
    fmt = _format_of(path)
    if fmt == "shards":
        from repro.measure.shards import read_shard_manifest

        return read_shard_manifest(path).get("provenance")
    try:
        if fmt == "npz":
            with np.load(path) as data:
                header = json.loads(bytes(data["header"]).decode("utf-8"))
        else:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                header = json.loads(fh.readline())
        parse_header(path, header, fmt)
        return header.get("provenance")
    except TraceFormatError:
        raise
    except _READ_ERRORS as exc:
        raise TraceFormatError(
            path, f"unreadable archive header: {type(exc).__name__}: {exc}",
            offset="header") from exc


# ---------------------------------------------------------------------------
# JSON-lines format
# ---------------------------------------------------------------------------

#: lines decoded per ``json.loads`` call by the JSON-lines reader; small
#: enough that a chunk's decoded records die young in the cyclic garbage
#: collector instead of reaching (and triggering) its full collections
_CHUNK_LINES = 128

#: gzip level of every gzip stream the package writes: JSON-lines trace
#: archives here, profiles in :mod:`repro.cube.io`.  ``GzipFile`` over
#: the 9.2 MB text of a LULESH-2 archive (medians of 5, 2-vCPU VM,
#: Python 3.11.7; docs/performance.md)::
#:
#:     level    time      bytes
#:         1   89 ms  1,529,575
#:         5  185 ms  1,184,117
#:         6  262 ms  1,119,459
#:         9  819 ms  1,069,253
#:
#: Level 6 (zlib's default) takes a third of level 9's time for 4.7 %
#: more bytes (TeaLeaf-2's 6.1 MB: 183 against 451 ms, 5.3 % more).
#: Readers do not depend on the level.
GZIP_LEVEL = 6


def trace_archive_bytes(trace: RawTrace,
                        manifest: Optional[dict] = None) -> bytes:
    """Canonical JSON-lines archive bytes of ``trace`` (no file involved).

    The exact bytes :func:`write_trace` would put in a ``*.trace.json.gz``
    archive, for callers that hash or store traces by their bytes: one
    ``GzipFile`` stream at :data:`GZIP_LEVEL` with the mtime pinned, fed
    the header line and then one write per location.  Deflate's output
    does not depend on how its input is split into writes, so the bytes
    are a function of the text and the level alone (for a given zlib).
    """
    cols = trace.columns()  # the payload check (ColumnarConversionError)
    cols.check_values()
    # GzipFile, not gzip.compress: with mtime=0 the latter writes the
    # header's OS byte as 0x03 on some Python versions and 0xff on others
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0,
                       compresslevel=GZIP_LEVEL) as gz:
        header = build_header("jsonl", trace, manifest)
        gz.write((json.dumps(header) + "\n").encode("utf-8"))
        delta_text = _DeltaText()
        for loc, lc in enumerate(cols.locs):
            gz.write("".join(_jsonl_records(loc, lc, delta_text))
                     .encode("utf-8"))
    return buf.getvalue()


def _delta_obj(key: tuple) -> Optional[dict]:
    """A work delta as its record spells it: the nonzero fields of the
    six, or ``None`` when all are zero."""
    return {f: v for f, v in zip(DELTA_FIELDS, key) if v != 0.0} or None


class _DeltaText(dict):
    """JSON text of a work delta, one per distinct six-field tuple."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> str:
        text = self[key] = json.dumps(_delta_obj(key))
        return text


def _jsonl_records(loc: int, lc: LocationColumns,
                   delta_text: _DeltaText) -> List[str]:
    """One line per row of ``lc``, equal to ``json.dumps([loc, etype,
    region, t, delta, aux, t_enter or None]) + "\\n"``: ints and (finite,
    as the record check has it) floats are spelled as ``json`` spells
    them (``repr``)."""
    et, rg, t, te = (lc.etype.tolist(), lc.region.tolist(), lc.t.tolist(),
                     lc.t_enter.tolist())
    keys = zip(*(getattr(lc, f).tolist() for f in DELTA_FIELDS))
    aux_text = ["null" if a is None else f"{a}" if type(a) is int
                else f"[{a[0]}, {a[1]}]"
                for a in aux_values(lc.etype, lc.aux_a, lc.aux_b)]
    te_text = [f"{x!r}" if x else "null" for x in te]
    return [f"[{loc}, {e}, {r}, {x!r}, {d}, {a}, {y}]\n"
            for e, r, x, d, a, y in zip(et, rg, t,
                                        map(delta_text.__getitem__, keys),
                                        aux_text, te_text)]


def _read_trace_jsonl(path: Path, source) -> RawTrace:
    lineno = 0
    try:
        with gzip.open(source, "rt", encoding="utf-8") as fh:
            lineno = 1
            header = json.loads(fh.readline())
            regions, locations = parse_header(path, header, "jsonl")
            # per record, in file order: the location and the six
            # sequences TraceColumns.from_fields takes
            fields: List[list] = [[] for _ in range(7)]
            deltas = DeltaTable()
            lines: List[str] = []
            for line in fh:
                lineno += 1
                lines.append(line)
                if len(lines) == _CHUNK_LINES:
                    _load_records(path, lines, lineno, fields, deltas,
                                  len(locations))
                    lines = []
            _load_records(path, lines, lineno, fields, deltas, len(locations))
        lineno = None  # a record the columns cannot hold has no one line
        loc, rest = np.array(fields[0], dtype=np.int64), fields[1:]
        order = None
        if np.any(loc[1:] < loc[:-1]):
            # the writer never interleaves locations, but the format
            # allows it: each location's records, in order, one after
            # the other
            order = np.argsort(loc, kind="stable")
            rest = [list(map(f.__getitem__, order.tolist())) for f in rest]
        cols = TraceColumns.from_fields(
            header["mode"], regions, locations,
            np.bincount(loc, minlength=len(locations)).tolist(), *rest,
            runtime=header["runtime"])
        _check_values(path, cols, order)
        trace = RawTrace.from_columns(cols)
    except TraceFormatError:
        raise
    except _READ_ERRORS as exc:
        raise TraceFormatError(
            path, f"corrupt JSON-lines archive: {type(exc).__name__}: {exc}",
            offset=None if lineno is None else f"line {lineno}") from exc
    trace.provenance = header.get("provenance")
    return trace


def _check_values(path: Path, cols: TraceColumns, order) -> None:
    """The value layer of the record check on the read columns: raise
    :class:`TraceFormatError` at the line of the first record in the file
    that breaks it (``order[r]`` is the file position of column row ``r``,
    or ``None`` when the rows are in file order)."""
    flat = {f: cols.column(f) for f in COLUMN_FIELDS}
    defects = value_defects(flat, len(cols.regions))
    if not defects:
        return
    rows = np.flatnonzero(np.logical_or.reduce(list(defects.values())))
    at = rows if order is None else order[rows]
    k = int(np.argmin(at))
    raise TraceFormatError(
        path, "corrupt JSON-lines archive: "
        + value_error(flat, defects, int(rows[k])),
        offset=f"line {int(at[k]) + 2}")


def _load_records(path: Path, lines: List[str], last_lineno: int,
                  fields: List[list], deltas: DeltaTable, n_loc: int) -> None:
    """Append the records of ``lines`` (ending at line ``last_lineno``)
    to ``fields``, with their work deltas interned in ``deltas``.

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
    bulk = _bulk_fields(recs, len(lines), n_loc) if recs else None
    if bulk is None:
        _load_lines(path, lines, last_lineno - len(lines) + 1, fields, deltas,
                    n_loc)
        return
    _extend(fields, bulk, deltas)


def _extend(fields: List[list], records: tuple, deltas: DeltaTable) -> None:
    """Append records (the seven field sequences) that passed the type
    layer to ``fields``, as the sequences ``TraceColumns.from_fields``
    takes: deltas interned in ``deltas``, a null ``t_enter`` read as 0."""
    locs, ets, rgs, ts, ds, auxs, tes = records
    for field, values in zip(fields, (locs, ets, rgs, ts,
                                      deltas.of_records(ds), auxs,
                                      [x or 0.0 for x in tes])):
        field.extend(values)


def _bulk_fields(recs: list, n_lines: int, n_loc: int) -> Optional[tuple]:
    """The seven field columns of a decoded chunk, or ``None`` unless it
    qualifies for the bulk path: one 7-field record per line, every
    record passing the type layer of the record check
    (:func:`~repro.measure.columnar.record_problem`)."""
    if len(recs) != n_lines or set(map(type, recs)) != {list} \
            or set(map(len, recs)) != {7}:
        return None
    fields = tuple(zip(*recs))
    return None if record_problem(fields, n_loc) else fields


def _load_lines(path: Path, lines: List[str], first_lineno: int,
                fields: List[list], deltas: DeltaTable, n_loc: int) -> None:
    """Line-by-line decode of a chunk; raises at the first bad record."""
    for k, line in enumerate(lines):
        try:
            rec = tuple([x] for x in json.loads(line))
            problem = (f"{len(rec)} fields, not 7" if len(rec) != 7
                       else record_problem(rec, n_loc))
            if problem:
                raise ValueError(f"{problem}: {line.strip()[:160]}")
        except _READ_ERRORS as exc:
            raise TraceFormatError(
                path, f"corrupt JSON-lines archive: {type(exc).__name__}: "
                f"{exc}", offset=f"line {first_lineno + k}") from exc
        _extend(fields, rec, deltas)


# ---------------------------------------------------------------------------
# columnar (npz) format
# ---------------------------------------------------------------------------

def npz_archive_bytes(trace: RawTrace,
                      manifest: Optional[dict] = None) -> bytes:
    """Canonical npz archive bytes of ``trace`` (no file involved): the
    exact bytes :func:`write_trace` puts in a ``*.npz`` archive.

    Deterministic, so fit for content addressing (the serving layer
    stores ingested traces this way): NumPy stamps every zip member with
    the zip epoch (1980-01-01), and the header's JSON and the columns
    follow from the trace alone.
    """
    cols = trace.columns()
    cols.check_values()
    header = build_header("npz", cols, manifest)
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "offsets": cols.offsets(),
    }
    for field in COLUMN_FIELDS:
        arrays[field] = cols.column(field) if cols.locs \
            else np.empty(0, dtype=np.float64)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


def _read_trace_npz(path: Path, source) -> RawTrace:
    member = "header"
    try:
        with np.load(source) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            regions, locations = parse_header(path, header, "npz")
            member = "offsets"
            offsets = data["offsets"]
            columns = {}
            for f in COLUMN_FIELDS:
                member = f
                columns[f] = data[f]
        member = "header"
        trace = RawTrace.from_columns(TraceColumns(
            header["mode"], regions, locations,
            split_columns(path, columns, len(locations), len(regions),
                          offsets=offsets),
            runtime=header["runtime"]))
    except TraceFormatError:
        raise
    except _READ_ERRORS as exc:
        raise TraceFormatError(
            path, f"corrupt columnar archive: {type(exc).__name__}: {exc}",
            offset=member) from exc
    trace.provenance = header.get("provenance")
    return trace
