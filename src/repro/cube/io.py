"""Profile (de)serialisation: gzipped JSON.

Writes are atomic (tmp + fsync + rename via
:func:`repro.measure.io.atomic_write_bytes`): a campaign killed mid-write
never leaves a truncated profile behind for a resume to trip over.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import Union

from repro.cube.profile import CubeProfile
from repro.cube.systemtree import SystemTree
from repro.measure.io import GZIP_LEVEL, atomic_write_bytes

__all__ = ["write_profile", "read_profile", "profile_doc", "profile_from_doc"]


def profile_doc(profile: CubeProfile) -> dict:
    """JSON document of a profile (the archive body, sans compression).

    Also embedded verbatim in the workflow's canonical result
    serialization (:func:`repro.experiments.workflow.serialize_result`),
    so the encoding is value-exact: floats round-trip through JSON
    ``repr`` bit-for-bit.
    """
    return {
        "format": "repro-cube-1",
        "mode": profile.mode,
        "meta": profile.meta,
        "time_metrics": list(profile.time_metrics),
        "locations": [list(lt) for lt in profile.system.locations],
        "nodes_of_ranks": {str(k): v for k, v in profile.system.nodes_of_ranks.items()},
        "callpaths": [list(p) for p in profile.calltree.paths()],
        "severities": {
            m: [[cpid, loc, v] for (cpid, loc), v in cells.items()]
            for m, cells in ((m, profile.cells(m)) for m in profile.metrics)
        },
    }


def profile_from_doc(doc: dict) -> CubeProfile:
    """Invert :func:`profile_doc`."""
    if doc.get("format") != "repro-cube-1":
        raise ValueError("not a repro cube profile document")
    system = SystemTree(
        [tuple(lt) for lt in doc["locations"]],
        {int(k): v for k, v in doc.get("nodes_of_ranks", {}).items()},
    )
    profile = CubeProfile(system, doc["time_metrics"], mode=doc["mode"], meta=doc["meta"])
    # intern callpaths in document order *before* filling severities, so
    # the rebuilt calltree preserves the original path ordering (a
    # round-trip is then byte-identical, which the serving layer's
    # bit-identity guarantee rests on)
    for p in doc["callpaths"]:
        profile.calltree.intern(tuple(p))
    for metric, triples in doc["severities"].items():
        for cpid, loc, v in triples:
            profile.add_id(metric, cpid, loc, v)
    return profile


#: gzip level of written profiles, the one level of the package.  On the
#: six LULESH-2 mode profiles (136-188 kB of JSON each), level 6
#: compresses in under a third of level 9's time for 3.4 % more bytes
#: (docs/performance.md).  Readers do not depend on the level, so
#: profiles written at any level load.
_GZIP_LEVEL = GZIP_LEVEL


def write_profile(profile: CubeProfile, path: Union[str, Path]) -> None:
    """Write ``profile`` to ``path`` (gzipped JSON)."""
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0,
                       compresslevel=_GZIP_LEVEL) as gz:
        gz.write(json.dumps(profile_doc(profile)).encode("utf-8"))
    atomic_write_bytes(path, buf.getvalue())


def read_profile(path: Union[str, Path]) -> CubeProfile:
    """Read a profile written by :func:`write_profile`."""
    with gzip.open(Path(path), "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return profile_from_doc(doc)
    except ValueError:
        raise ValueError(f"{path}: not a repro cube profile") from None
