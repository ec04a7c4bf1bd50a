"""One record check and one header check for every trace decoder.

Each defect below is refused by every door a trace enters through, each
by its own policy: the JSON-lines reader at the record's line, the npz
and sharded readers at the column's (or header's) member, the archive
writers with ``ColumnarConversionError``, ``PUT /v1/traces`` with a 400
and a quarantine, and the Chrome sidecar by dropping the record (ING003)
or, for a header defect, by reading the visible events instead.
"""

import asyncio
import gzip
import json

import numpy as np
import pytest

from repro.ingest import ingest_bytes
from repro.measure import (
    ColumnarConversionError,
    RawTrace,
    TraceFormatError,
    read_trace,
    write_trace,
)
from repro.measure.shards import MANIFEST_NAME
from repro.obs.export import trace_chrome_events
from repro.sim.events import ENTER
from tests.test_ingest import _apps, _run_app

NAN = float("nan")

#: record defects: (column, value); ``"past"`` is the region count
RECORD = {
    "kind-999": ("etype", 999),
    "region-past-registry": ("region", "past"),
    "region-minus-7": ("region", -7),
    "time-null": ("t", None),
    "time-true": ("t", True),
    "time-nan": ("t", NAN),
    "time-past-float64": ("t", 10**400),
    "negative-delta": ("bb", -1.0),
    "payload-on-enter": ("aux_a", 5),
}
#: defects the columns can hold (the rest exist only as JSON values)
COLUMNAR = [k for k in RECORD
            if k not in ("time-null", "time-true", "time-past-float64")]


def _repeat_region(h):
    h["regions"][1] = h["regions"][0]


def _repeat_location(h):
    h["locations"][1] = list(h["locations"][0])


HEADER = {
    "repeated-region-names": _repeat_region,
    "repeated-locations": _repeat_location,
    "mode-bogus": lambda h: h.update(mode="bogus"),
    "runtime-soon": lambda h: h.update(runtime="soon"),
    "locations-gone": lambda h: h.update(locations="gone"),
}


@pytest.fixture(scope="module")
def trace():
    return _run_app(_apps()["minife"]())


def _row(trace):
    """The first ENTER after the first record: the row every record
    defect lands on (location-major, as the writers order rows)."""
    et = trace.columns().column("etype")
    return int(np.flatnonzero(et == ENTER)[1])


def _value(trace, value):
    return len(trace.regions) if value == "past" else value


def _jsonl(tmp_path, trace, edit_record=None, edit_header=None):
    path = tmp_path / "t.trace.json.gz"
    write_trace(trace, path)
    lines = gzip.decompress(path.read_bytes()).decode().splitlines(True)
    if edit_header:
        header = json.loads(lines[0])
        edit_header(header)
        lines[0] = json.dumps(header) + "\n"
    if edit_record:
        k = _row(trace) + 1
        rec = json.loads(lines[k])
        edit_record(rec)
        lines[k] = json.dumps(rec) + "\n"
    path.write_bytes(gzip.compress("".join(lines).encode()))
    return path


_JSONL_SLOT = {"etype": 1, "region": 2, "t": 3}


def _edit_jsonl_record(trace, field, value):
    def edit(rec):
        if field in _JSONL_SLOT:
            rec[_JSONL_SLOT[field]] = _value(trace, value)
        elif field == "aux_a":
            rec[5] = value
        else:
            rec[4] = {field: value}
    return edit


def _npz(tmp_path, trace, field=None, value=None, edit_header=None):
    path = tmp_path / "t.npz"
    write_trace(trace, path)
    with np.load(path) as data:
        arrays = dict(data)
    if field:
        arrays[field][_row(trace)] = _value(trace, value)
    if edit_header:
        header = json.loads(bytes(arrays["header"]).decode())
        edit_header(header)
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    return path


def _shards(tmp_path, trace, field=None, value=None, edit_header=None):
    path = tmp_path / "t.shards"
    write_trace(trace, path)
    if field:
        shard = path / "shard-0000.npy"
        rows = np.load(shard)
        k = int(np.flatnonzero(rows["etype"] == ENTER)[1])
        rows[field][k] = _value(trace, value)
        np.save(shard, rows)
    if edit_header:
        header = json.loads((path / MANIFEST_NAME).read_text())
        edit_header(header)
        (path / MANIFEST_NAME).write_text(json.dumps(header))
    return path


def _sidecar(trace, field=None, value=None, edit_header=None):
    events = list(trace_chrome_events(trace, embed_raw=True))
    if edit_header:
        edit_header(events[0]["args"])
    if field:
        raw = [e["args"] for e in events if e.get("cat") == "repro.raw"]
        args = next(a for a in raw if a["etype"] == ENTER)
        key = {"etype": "etype", "region": "region", "t": "t",
               "aux_a": "aux"}.get(field)
        if key:
            args[key] = _value(trace, value)
        else:
            args["delta"] = {field: value}
    return json.dumps({"traceEvents": events}).encode()


def _refused(read, path):
    with pytest.raises(TraceFormatError) as err:
        read(path)
    return err.value


@pytest.mark.parametrize("defect", sorted(RECORD))
def test_record_defect_refused_by_every_decoder(tmp_path, trace, defect):
    field, value = RECORD[defect]
    path = _jsonl(tmp_path, trace, _edit_jsonl_record(trace, field, value))
    assert _refused(read_trace, path).offset == f"line {_row(trace) + 2}"
    if defect in COLUMNAR:
        for make in (_npz, _shards):
            err = _refused(read_trace, make(tmp_path, trace, field, value))
            assert err.offset == field, err
    result = ingest_bytes(_sidecar(trace, field, value))
    assert result.report.accepted and result.trace.mode == trace.mode
    assert result.report.repairs[0].rule_id == "ING003"
    assert "dropped 1 malformed raw record" in result.report.repairs[0].message


@pytest.mark.parametrize("defect", sorted(COLUMNAR))
@pytest.mark.parametrize("suffix", [".trace.json.gz", ".npz", ".shards"])
def test_record_defect_refused_by_every_writer(tmp_path, trace, defect,
                                               suffix):
    field, value = RECORD[defect]
    events = [list(evs) for evs in trace.columns().event_lists()]
    row = _row(trace)
    loc = next(loc for loc, n in enumerate(np.cumsum([len(e) for e in events]))
               if row < n)
    ev = events[loc][row - sum(len(e) for e in events[:loc])]
    if field == "aux_a":
        ev.aux = value
    elif field == "bb":
        ev.delta = type(ev.delta)(bb=value)
    else:
        setattr(ev, {"etype": "etype", "region": "region", "t": "t"}[field],
                _value(trace, value))
    bad = RawTrace(trace.mode, trace.regions, trace.locations, events,
                   trace.runtime)
    with pytest.raises(ColumnarConversionError):
        write_trace(bad, tmp_path / f"w{suffix}")


@pytest.mark.parametrize("defect", sorted(HEADER))
def test_header_defect_refused_by_every_decoder(tmp_path, trace, defect):
    edit = HEADER[defect]
    for make, where in ((_jsonl, "line 1"), (_npz, "header"),
                        (_shards, MANIFEST_NAME)):
        err = _refused(read_trace, make(tmp_path, trace, edit_header=edit))
        assert err.offset == where and "archive header" in err.reason, err
    result = ingest_bytes(_sidecar(trace, edit_header=edit))
    assert result.trace.mode == "tsc"  # the visible events, read as foreign
    assert "embedded raw sidecar unusable" in result.report.repairs[0].message
    # no record of the sidecar was judged against the bad header
    assert not any("malformed raw record" in d.message
                   for d in result.report.repairs)


def test_put_refuses_and_quarantines_every_defect(tmp_path, trace):
    from repro.serve.client import http_request
    from repro.serve.service import AnalysisService, ServeConfig

    uploads = []
    for defect, (field, value) in RECORD.items():
        uploads.append((_jsonl(tmp_path, trace, _edit_jsonl_record(
            trace, field, value)).read_bytes(), "u.trace.json.gz"))
        if defect in COLUMNAR:
            uploads.append((_npz(tmp_path, trace, field, value).read_bytes(),
                            "u.npz"))
    for edit in HEADER.values():
        uploads.append((_jsonl(tmp_path, trace, edit_header=edit)
                        .read_bytes(), "u.trace.json.gz"))
        uploads.append((_npz(tmp_path, trace, edit_header=edit).read_bytes(),
                        "u.npz"))

    async def main():
        svc = AnalysisService(ServeConfig(
            port=0, workers=1, cache_dir=str(tmp_path / "cache")))
        await svc.start()
        try:
            resps = [await http_request(
                "127.0.0.1", svc.port, "PUT", "/v1/traces", body=body,
                headers={"X-Archive-Name": name}) for body, name in uploads]
            root = svc.store.root
        finally:
            await svc.stop()
        return resps, root

    resps, root = asyncio.run(main())
    for resp in resps:
        assert resp.status == 400
        assert resp.json()["error"] == "malformed trace archive"
        assert resp.headers.get("x-repro-quarantine")
    assert len(list(root.glob("*.corrupt-*"))) == len(uploads)
    assert not [p for p in root.glob("cas-*")
                if p.name.endswith((".json.gz", ".npz"))]
