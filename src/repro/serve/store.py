"""Content-addressed result store shared by the service and the workflow.

One flat directory (the workflow's ``.results_cache``) holds every
cached artifact as an entry named ``cas-<hash-prefix>-<label>`` -- the
hash is the :mod:`repro.obs.provenance` manifest hash of whatever
configuration produced the artifact, so the same request always maps to
the same entry, across processes and across the service/CLI boundary.
Entries are either directories (experiment results, written by
:func:`repro.experiments.workflow._store`) or single CRC-framed blob
files (analysis results, uploaded trace archives).

The store adds four behaviours on top of the naming scheme:

* **LRU eviction** -- :meth:`ResultStore.evict` deletes the least
  recently *used* entries (access touches the entry mtime) until the
  total size fits ``max_bytes`` (``REPRO_CACHE_MAX_BYTES``; unset means
  unbounded, the pre-existing behaviour).  Evictions count on the
  ``workflow.cache_evictions`` obs counter.  Only ``cas-*`` entries are
  candidates; quarantined/staging/lock files and the workflow's
  ``*.runs`` checkpoint dirs are never touched.
* **CRC-framed blobs** -- :meth:`put_bytes` prefixes the payload with a
  CRC-32 line; :meth:`get_bytes` verifies it and *quarantines* a
  corrupt entry (``*.corrupt-N``, same discipline as the campaign
  supervisor) instead of returning bad bytes.  The payload itself is
  returned exactly as stored, which is what makes served results
  byte-identical to direct computations.
* **Lock-file leases** -- :meth:`acquire` implements cross-process
  single flight: one process computes an entry while others
  :meth:`wait_for` it.  A lease is a lock file created with
  ``O_CREAT|O_EXCL``; holders :meth:`~StoreLease.refresh` it as a
  heartbeat and a lock whose mtime is older than the TTL is *stale* and
  taken over (a crashed holder cannot park an entry forever).
* **Staging sweep** -- :meth:`sweep_staging` removes ``*.tmp-*``
  staging dirs/files left behind by killed runs (the atomic-publish
  machinery stages under such names before renaming into place).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro import obs as _obs
from repro.measure.io import atomic_write_bytes, quarantine

__all__ = [
    "ResultStore",
    "StoreLease",
    "resolve_cache_max_bytes",
    "DEFAULT_LEASE_TTL",
]

#: seconds after which an unrefreshed lease is considered abandoned
DEFAULT_LEASE_TTL = 900.0

#: seconds after which an orphaned ``*.tmp-*`` staging path is swept
DEFAULT_STAGING_AGE = 3600.0

#: entry-name prefix marking store-managed (evictable) artifacts
ENTRY_PREFIX = "cas-"

#: fragments that exempt a path from entry listing/eviction
_PROTECTED_FRAGMENTS = (".corrupt-", ".tmp-")
_PROTECTED_SUFFIXES = (".lock", ".runs")

_CRC_FRAME = b"repro-cas-crc32:"


def resolve_cache_max_bytes(explicit: Optional[int] = None) -> Optional[int]:
    """Cache size budget: explicit argument, else ``REPRO_CACHE_MAX_BYTES``.

    ``None``/unset/empty means unbounded.  A malformed or negative value
    fails loudly -- a typo'd budget silently disabling eviction would
    defeat the point of setting one.
    """
    if explicit is not None:
        if explicit < 0:
            raise ValueError(
                f"cache max bytes must be >= 0, got {explicit}")
        return explicit
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid REPRO_CACHE_MAX_BYTES environment variable ({raw!r}): "
            f"expected a byte count") from None
    if value < 0:
        raise ValueError(
            f"invalid REPRO_CACHE_MAX_BYTES environment variable ({raw!r}): "
            f"must be >= 0")
    return value


def _path_size(path: Path) -> int:
    """Total bytes of a file or directory tree (0 if it vanished)."""
    try:
        if path.is_dir():
            total = 0
            for sub in path.rglob("*"):
                try:
                    if sub.is_file():
                        total += sub.stat().st_size
                except OSError:
                    continue
            return total
        return path.stat().st_size
    except OSError:
        return 0


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


class StoreLease:
    """A held single-flight lease (see :meth:`ResultStore.acquire`)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.held = True

    def refresh(self) -> None:
        """Heartbeat: bump the lock mtime so waiters keep trusting us."""
        if not self.held:
            return
        try:
            os.utime(self.path)
        except OSError:
            pass

    def release(self) -> None:
        if not self.held:
            return
        self.held = False
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "StoreLease":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


class ResultStore:
    """Content-addressed LRU store over one flat cache directory."""

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        self.root = Path(root)
        self.max_bytes = resolve_cache_max_bytes(max_bytes)
        self.lease_ttl = float(lease_ttl)

    # -- naming -------------------------------------------------------------
    @staticmethod
    def entry_name(manifest_hash: str, label: str) -> str:
        """Canonical entry name for an artifact: hash prefix + label."""
        return f"{ENTRY_PREFIX}{manifest_hash[:20]}-{label}"

    def entry_path(self, key: str) -> Path:
        return self.root / key

    @staticmethod
    def _is_entry(path: Path) -> bool:
        name = path.name
        if not name.startswith(ENTRY_PREFIX):
            return False
        if any(frag in name for frag in _PROTECTED_FRAGMENTS):
            return False
        return not name.endswith(_PROTECTED_SUFFIXES)

    # -- blobs --------------------------------------------------------------
    def put_bytes(self, key: str, payload: bytes) -> Path:
        """Atomically publish a CRC-framed blob entry, then evict."""
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        frame = _CRC_FRAME + str(zlib.crc32(payload)).encode("ascii") + b"\n"
        atomic_write_bytes(path, frame + payload)
        self.evict(protect=(key,))
        return path

    def get_bytes(self, key: str, touch: bool = True) -> Optional[bytes]:
        """Payload of a blob entry, or ``None`` (corrupt -> quarantined)."""
        path = self.entry_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        head, sep, payload = data.partition(b"\n")
        if (not sep or not head.startswith(_CRC_FRAME)
                or not self._crc_ok(head, payload)):
            _obs.counter("workflow.cache_corrupt").inc()
            quarantine(path)
            return None
        if touch:
            self.touch(key)
        return payload

    @staticmethod
    def _crc_ok(head: bytes, payload: bytes) -> bool:
        try:
            return int(head[len(_CRC_FRAME):]) == zlib.crc32(payload)
        except ValueError:
            return False

    def touch(self, key: str) -> None:
        """Mark an entry as recently used (LRU access time)."""
        try:
            os.utime(self.entry_path(key))
        except OSError:
            pass

    # -- listing / eviction -------------------------------------------------
    def entries(self) -> List[Tuple[Path, int, float]]:
        """Store-managed entries as ``(path, bytes, mtime)`` rows."""
        rows = []
        try:
            children = list(self.root.iterdir())
        except OSError:
            return rows
        for path in children:
            if not self._is_entry(path):
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            rows.append((path, _path_size(path), mtime))
        return rows

    def total_bytes(self) -> int:
        return sum(size for _p, size, _m in self.entries())

    def evict(self, protect: Tuple[str, ...] = ()) -> int:
        """Delete least-recently-used entries until under ``max_bytes``.

        Entries named in ``protect`` (typically the one just written)
        and entries under a *fresh* lease are spared; each eviction
        counts on ``workflow.cache_evictions``.  Returns bytes freed.
        No-op while ``max_bytes`` is unset.
        """
        if self.max_bytes is None:
            return 0
        rows = self.entries()
        total = sum(size for _p, size, _m in rows)
        if total <= self.max_bytes:
            return 0
        freed = 0
        counter = _obs.counter("workflow.cache_evictions")
        for path, size, _mtime in sorted(rows, key=lambda r: r[2]):
            if total - freed <= self.max_bytes:
                break
            if path.name in protect:
                continue
            if self._lease_age(path.name) is not None and \
                    not self._lease_stale(path.name):
                continue  # someone is computing/refreshing this entry
            _remove(path)
            counter.inc()
            freed += size
        return freed

    # -- single-flight leases -----------------------------------------------
    def lock_path(self, key: str) -> Path:
        return self.root / f"{key}.lock"

    def _lease_age(self, key: str) -> Optional[float]:
        try:
            return time.time() - self.lock_path(key).stat().st_mtime
        except OSError:
            return None

    def _lease_stale(self, key: str) -> bool:
        age = self._lease_age(key)
        return age is not None and age > self.lease_ttl

    def acquire(self, key: str) -> Optional[StoreLease]:
        """Try to take the single-flight lease for ``key``.

        Returns the held lease, or ``None`` when another live process
        holds it.  A stale lock (holder died without releasing; mtime
        older than the TTL) is taken over, counted on
        ``workflow.cache_lock_takeovers``.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        lock = self.lock_path(key)
        body = json.dumps({"pid": os.getpid(), "key": key}).encode("utf-8")
        for attempt in range(2):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt == 0 and self._lease_stale(key):
                    _obs.counter("workflow.cache_lock_takeovers").inc()
                    lock.unlink(missing_ok=True)
                    continue
                return None
            with os.fdopen(fd, "wb") as fh:
                fh.write(body)
            return StoreLease(lock)
        return None

    def wait_for(self, key: str, timeout: Optional[float] = None,
                 poll: float = 0.05) -> bool:
        """Wait for another process's computation of ``key`` to land.

        Polls until the entry exists (``True``), or the lock disappears
        or goes stale without an entry (``False`` -- the caller should
        compute).  ``timeout`` bounds the wait regardless (default: the
        lease TTL).  Wait time accrues on ``workflow.cache_lock_waits``.
        """
        _obs.counter("workflow.cache_lock_waits").inc()
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.lease_ttl)
        entry = self.entry_path(key)
        while True:
            if entry.exists():
                return True
            if self._lease_age(key) is None or self._lease_stale(key):
                return entry.exists()
            if time.monotonic() >= deadline:
                return entry.exists()
            time.sleep(poll)

    # -- staging sweep ------------------------------------------------------
    def sweep_staging(self, max_age: float = DEFAULT_STAGING_AGE) -> int:
        """Remove orphaned ``*.tmp-*`` staging paths older than ``max_age``.

        The atomic publishers (:func:`~repro.experiments.workflow._store`,
        :func:`~repro.measure.io.atomic_write_bytes` with mkdtemp
        staging) rename staged work into place; a killed run leaves the
        stage behind.  Anything old enough cannot belong to a live
        publish.  Swept paths count on ``workflow.staging_swept``.
        """
        swept = 0
        now = time.time()
        try:
            children = list(self.root.iterdir())
        except OSError:
            return 0
        for path in children:
            if ".tmp-" not in path.name:
                continue
            try:
                if now - path.stat().st_mtime <= max_age:
                    continue
            except OSError:
                continue
            _remove(path)
            swept += 1
        if swept:
            _obs.counter("workflow.staging_swept").add(swept)
        return swept

    # -- iteration (diagnostics) --------------------------------------------
    def __iter__(self) -> Iterator[Path]:
        return iter(path for path, _s, _m in self.entries())
