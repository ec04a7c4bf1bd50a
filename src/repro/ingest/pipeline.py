"""The hardened ingestion pipeline: bytes in, trace/program + report out.

Contract (the one the fuzzer asserts): for *any* input bytes,
:func:`ingest_bytes` either

* returns an :class:`IngestResult` whose trace passes
  :func:`repro.verify.sanitize_raw` clean (or whose program passes the
  static linter), with every repair recorded in the report, or
* raises :class:`IngestError` carrying at least one ING error
  diagnostic,

within the wall-clock and memory caps of the active
:class:`~repro.ingest.limits.IngestLimits`.  No other exception escapes;
nothing hangs; nothing unbounded is allocated.
"""

from __future__ import annotations

import gzip
import io as _stdio
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro import obs
from repro.ingest.limits import IngestBudget, IngestCapError, IngestLimits
from repro.ingest.report import IngestError, IngestReport
from repro.measure.trace import RawTrace

__all__ = ["IngestResult", "ingest_bytes", "ingest_file", "sniff_format"]

_GZIP_MAGIC = b"\x1f\x8b"
#: how much of the (decoded) input the format sniffer inspects
_SNIFF_WINDOW = 64 * 1024

_CAP_RULES = {"ING001", "ING010"}


@dataclass
class IngestResult:
    """Outcome of one successful ingestion.

    ``kind`` is ``"trace"`` (Chrome input -> :class:`RawTrace`) or
    ``"program"`` (comm-op input -> replayable
    :class:`~repro.ingest.commops.ReplayProgram`).
    """

    kind: str
    report: IngestReport
    trace: Optional[RawTrace] = None
    program: object = None


def sniff_format(text: str) -> str:
    """``"commops"`` if the head declares the commops schema, else chrome."""
    head = text[:_SNIFF_WINDOW]
    if '"repro-commops-1"' in head:
        return "commops"
    return "chrome"


def _decompress_capped(data: bytes, budget: IngestBudget) -> bytes:
    """Gunzip with the byte cap enforced on the *inflated* size.

    Reads one byte past the cap so a decompression bomb is detected
    without materialising it (ING001), and truncated/garbled gzip
    streams surface as ordinary parse damage downstream.
    """
    cap = budget.limits.max_bytes
    try:
        with gzip.GzipFile(fileobj=_stdio.BytesIO(data)) as fh:
            out = fh.read(cap + 1)
    except (OSError, EOFError, zlib.error):
        # salvage whatever inflated cleanly before the damage
        out = b""
        try:
            dec = zlib.decompressobj(zlib.MAX_WBITS | 16)
            out = dec.decompress(data, cap + 1)
        except zlib.error:
            pass
        if not out:
            raise ValueError("gzip stream is unreadable") from None
    if len(out) > cap:
        raise IngestCapError(
            "ING001", f"decompressed input exceeds the {cap} byte cap")
    return out


def ingest_bytes(
    data: bytes,
    name: str = "<bytes>",
    fmt: Optional[str] = None,
    limits: Optional[IngestLimits] = None,
) -> IngestResult:
    """Ingest untrusted trace bytes; never raises anything but IngestError.

    ``fmt`` forces ``"chrome"`` or ``"commops"``; ``None`` sniffs.
    """
    report = IngestReport(source=name)
    budget = IngestBudget(limits or IngestLimits())
    try:
        result = _ingest_inner(data, fmt, report, budget)
        report.accepted = True
        obs.counter("ingest.records").inc(report.n_records)
        if report.repairs:
            obs.counter("ingest.repairs").inc(len(report.repairs))
        return result
    except IngestCapError as exc:
        report.reject(exc.rule_id, exc.message)
    except IngestError:
        raise
    except Exception as exc:  # noqa: BLE001 -- the never-crash contract
        if not report.rejections:
            detail = str(exc) or type(exc).__name__
            report.reject("ING002", f"unsalvageable input ({detail})")
    finally:
        report.elapsed_seconds = budget.elapsed()
    obs.counter("ingest.rejects").inc()
    raise IngestError(report)


def _ingest_inner(data: bytes, fmt: Optional[str], report: IngestReport,
                  budget: IngestBudget) -> IngestResult:
    if not isinstance(data, bytes):
        data = bytes(data)
    budget.check_bytes(len(data))
    if data[:2] == _GZIP_MAGIC:
        data = _decompress_capped(data, budget)
    # bit-flips in multi-byte sequences become U+FFFD and fail record
    # parsing locally instead of poisoning the whole input
    text = data.decode("utf-8", errors="replace")
    if fmt is None:
        fmt = sniff_format(text)
    report.fmt = fmt

    if fmt == "commops":
        from repro.ingest.commops import parse_commops
        from repro.verify.linter import lint_program

        program = parse_commops(text, report, budget)
        budget.check_deadline()
        lint = lint_program(program)
        if not lint.ok:
            worst = lint.errors[0]
            report.reject(
                "ING013",
                f"salvaged op set is not replayable: {len(lint.errors)} "
                f"lint error(s), first: [{worst.rule_id}] {worst.message}")
            raise ValueError("program failed the lint gate")
        return IngestResult(kind="program", report=report,
                            program=program)

    if fmt != "chrome":
        report.reject("ING002", f"unknown format {fmt!r}")
        raise ValueError("unknown format")
    from repro.ingest.chrome import parse_chrome
    from repro.ingest.salvage import salvage_trace

    pending = parse_chrome(text, report, budget)
    budget.check_deadline()
    trace = salvage_trace(pending, report, budget)
    return IngestResult(kind="trace", report=report, trace=trace)


def ingest_file(
    path,
    fmt: Optional[str] = None,
    limits: Optional[IngestLimits] = None,
    quarantine: bool = True,
) -> IngestResult:
    """Ingest a trace file; quarantines it (``*.corrupt-N``) on rejection.

    The size cap is checked against the on-disk size before the file is
    read, so an oversized upload never reaches memory.
    """
    path = Path(path)
    limits = limits or IngestLimits()
    report_stub = IngestReport(source=str(path))
    try:
        size = path.stat().st_size
    except OSError as exc:
        report_stub.reject("ING002", f"cannot stat input: {exc}")
        raise IngestError(report_stub) from None
    if size > limits.max_bytes:
        report_stub.reject(
            "ING001",
            f"input is {size} bytes, cap is {limits.max_bytes}")
        if quarantine:
            report_stub.quarantine_path = _quarantine_path(path)
        obs.counter("ingest.rejects").inc()
        raise IngestError(report_stub)
    try:
        data = path.read_bytes()
    except OSError as exc:
        report_stub.reject("ING002", f"cannot read input: {exc}")
        raise IngestError(report_stub) from None
    try:
        return ingest_bytes(data, name=str(path), fmt=fmt, limits=limits)
    except IngestError as exc:
        if quarantine:
            exc.report.quarantine_path = _quarantine_path(path)
        raise


def _quarantine_path(path: Path) -> Optional[str]:
    from repro.measure.io import quarantine

    moved = quarantine(path)
    return str(moved) if moved is not None else None
