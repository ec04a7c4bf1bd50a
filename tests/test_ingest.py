"""Hardened foreign-trace ingestion (``repro.ingest``).

Covers the issue's acceptance points: a clean re-ingested ``embed_raw``
Chrome export replays bit-identically to the original trace under all
four deterministic logical clock modes on all three mini-apps; foreign
Chrome and comm-op inputs are parsed, salvaged (every repair recorded as
an ING diagnostic) and replayed through the simulator; every accepted
trace passes ``sanitize_raw`` clean; damaged archives raise the single
typed :class:`TraceFormatError`; resource caps and the wall-clock
deadline reject instead of hanging; and the seeded corpus-mutation
fuzzer finds zero contract violations.
"""

import gzip
import json
import zipfile

import pytest

from repro.clocks.base import timestamp_trace
from repro.ingest import (
    IngestError,
    IngestLimits,
    ingest_bytes,
    ingest_file,
)
from repro.machine import small_test_cluster
from repro.machine.noise import NoiseConfig, NoiseModel, ZeroNoise
from repro.measure import (
    Measurement,
    TraceFormatError,
    read_trace,
    trace_archive_bytes,
    write_trace,
)
from repro.obs.export import trace_chrome_events
from repro.sim import CostModel
from repro.sim.engine import Engine
from repro.verify.rules import RULES, Severity
from repro.verify.sanitizer import sanitize_raw

LOGICAL = ("lt1", "ltloop", "ltbb", "ltstmt")


def _run_app(app, mode="lt1", seed=1, noise=None):
    cluster = small_test_cluster(cores_per_numa=8, numa_per_socket=2)
    noise_model = NoiseModel(noise if noise is not None else ZeroNoise(),
                             seed=seed)
    cost = CostModel(cluster, noise=noise_model)
    engine = Engine(app, cluster, cost, measurement=Measurement(mode))
    return engine.run().trace


def _apps():
    from repro.miniapps.lulesh import Lulesh, LuleshConfig
    from repro.miniapps.minife import MiniFE, MiniFEConfig
    from repro.miniapps.tealeaf import TeaLeaf, TeaLeafConfig

    return {
        "minife": lambda: MiniFE(MiniFEConfig.tiny(nx=24, cg_iters=2)),
        "lulesh": lambda: Lulesh(LuleshConfig.tiny(steps=2)),
        "tealeaf": lambda: TeaLeaf(TeaLeafConfig.tiny()),
    }


@pytest.fixture(scope="module", params=["minife", "lulesh", "tealeaf"])
def app_trace(request):
    return _run_app(_apps()[request.param]())


@pytest.fixture(scope="module")
def minife_trace():
    return _run_app(_apps()["minife"]())


def _chrome_bytes(trace, embed_raw=True):
    events = list(trace_chrome_events(trace, embed_raw=embed_raw))
    return json.dumps({"traceEvents": events}).encode()


def _finals(trace, mode):
    return [ts[-1] if len(ts) else 0.0
            for ts in timestamp_trace(trace, mode=mode).times]


def _no_errors(trace):
    return not [d for d in sanitize_raw(trace)
                if RULES[d.rule_id].severity == Severity.ERROR]


# ---------------------------------------------------------------------------
# round-trip fidelity: export -> ingest -> replay bit-identical
# ---------------------------------------------------------------------------
class TestLosslessRoundTrip:
    def test_clean_export_replays_bit_identically(self, app_trace):
        result = ingest_bytes(_chrome_bytes(app_trace))
        assert result.kind == "trace"
        assert result.report.accepted and not result.report.repairs
        for mode in LOGICAL:
            assert _finals(result.trace, mode) == _finals(app_trace, mode)

    def test_reconstruction_is_exact(self, minife_trace):
        got = ingest_bytes(_chrome_bytes(minife_trace)).trace
        assert got.mode == minife_trace.mode
        assert got.locations == minife_trace.locations
        assert got.regions.names == minife_trace.regions.names
        assert got.regions.paradigms == minife_trace.regions.paradigms
        for a, b in zip(got.events, minife_trace.events):
            assert len(a) == len(b)
            for ea, eb in zip(a, b):
                assert (ea.etype, ea.region, ea.t, ea.aux, ea.t_enter) \
                    == (eb.etype, eb.region, eb.t, eb.aux, eb.t_enter)
        assert _no_errors(got)

    def test_gzip_wrapped_export_accepted(self, minife_trace):
        blob = gzip.compress(_chrome_bytes(minife_trace))
        result = ingest_bytes(blob)
        assert result.report.accepted
        assert _finals(result.trace, "lt1") == _finals(minife_trace, "lt1")

    def test_canonical_archive_round_trip(self, minife_trace, tmp_path):
        result = ingest_bytes(_chrome_bytes(minife_trace))
        out = tmp_path / "reingested.trace.json.gz"
        write_trace(result.trace, out)
        again = read_trace(out)
        assert _finals(again, "ltstmt") == _finals(minife_trace, "ltstmt")


# ---------------------------------------------------------------------------
# salvage: each damage class is repaired with a populated report
# ---------------------------------------------------------------------------
def _mutated(trace, fn):
    """Export ``trace`` losslessly, apply ``fn`` to the record list."""
    events = list(trace_chrome_events(trace, embed_raw=True))
    fn(events)
    return json.dumps({"traceEvents": events}).encode()


def _raw_records(events):
    return [e for e in events if e.get("cat") == "repro.raw"]


class TestSalvage:
    def test_truncated_tail_discarded(self, minife_trace):
        blob = _chrome_bytes(minife_trace)
        result = ingest_bytes(blob[: int(len(blob) * 0.93)])
        assert result.report.accepted
        assert "ING004" in result.report.rule_ids()
        assert _no_errors(result.trace)

    def test_duplicate_records_dropped(self, minife_trace):
        def dup(events):
            raws = _raw_records(events)
            events.extend([dict(r) for r in raws[: len(raws) // 4]])

        result = ingest_bytes(_mutated(minife_trace, dup))
        assert result.report.accepted
        assert result.report.repairs
        assert _no_errors(result.trace)
        for mode in LOGICAL:
            assert _finals(result.trace, mode) == _finals(minife_trace,
                                                          mode)

    def test_unmatched_send_repaired(self, minife_trace):
        from repro.sim.events import MPI_SEND

        def drop_recvs(events):
            sends = [e for e in _raw_records(events)
                     if e["args"]["etype"] == MPI_SEND]
            # orphan a send by retagging its match id out of range
            sends[0]["args"]["aux"][0] = 10_000_019

        result = ingest_bytes(_mutated(minife_trace, drop_recvs))
        assert result.report.accepted
        assert "ING006" in result.report.rule_ids()
        assert _no_errors(result.trace)

    def test_nonmonotonic_timestamps_repaired(self, minife_trace):
        def scramble(events):
            raws = _raw_records(events)
            victim = raws[len(raws) // 2]
            victim["args"]["t"] = 0.0
            victim["args"]["t_enter"] = 0.0

        result = ingest_bytes(_mutated(minife_trace, scramble))
        assert result.report.accepted
        assert "ING005" in result.report.rule_ids()
        assert _no_errors(result.trace)

    def test_malformed_records_dropped_not_fatal(self, minife_trace):
        def corrupt(events):
            raws = _raw_records(events)
            raws[3]["args"]["etype"] = 999
            raws[5]["args"]["loc"] = "NaN"
            raws[7]["args"].pop("t")

        result = ingest_bytes(_mutated(minife_trace, corrupt))
        assert result.report.accepted
        assert "ING003" in result.report.rule_ids()
        assert result.report.n_dropped >= 3
        assert _no_errors(result.trace)

    def test_corrupt_sidecar_falls_back_to_visible_events(
            self, minife_trace):
        def nuke_header(events):
            for e in events:
                if e.get("name") == "repro_trace":
                    e["args"]["locations"] = "gone"

        result = ingest_bytes(_mutated(minife_trace, nuke_header))
        assert result.report.accepted
        assert result.trace.mode == "tsc"  # foreign path: physical times
        assert _no_errors(result.trace)


# ---------------------------------------------------------------------------
# foreign Chrome traces
# ---------------------------------------------------------------------------
class TestForeignChrome:
    def test_x_and_be_events_reconstructed(self):
        evs = [
            {"name": "main", "ph": "X", "ts": 0, "dur": 100,
             "pid": 7, "tid": 1},
            {"name": "inner", "ph": "X", "ts": 10, "dur": 20,
             "pid": 7, "tid": 1},
            {"name": "span", "ph": "B", "ts": 5, "pid": 9, "tid": 2},
            {"name": "span", "ph": "E", "ts": 95, "pid": 9, "tid": 2},
        ]
        result = ingest_bytes(
            json.dumps({"traceEvents": evs}).encode())
        trace = result.trace
        assert trace.mode == "tsc"
        assert trace.locations == [(0, 0), (1, 0)]
        assert trace.n_events == 6  # 3 intervals -> ENTER+LEAVE each
        assert _no_errors(trace)
        assert _finals(trace, "lt1")  # replayable under a logical clock

    def test_overlap_clamped_with_diagnostic(self):
        evs = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 50,
             "pid": 0, "tid": 0},
            {"name": "b", "ph": "X", "ts": 40, "dur": 50,
             "pid": 0, "tid": 0},
        ]
        result = ingest_bytes(json.dumps(evs).encode())
        assert "ING009" in result.report.rule_ids()
        assert _no_errors(result.trace)

    def test_no_usable_events_rejected(self):
        evs = [{"name": "m", "ph": "M", "pid": 0, "tid": 0, "args": {}}]
        with pytest.raises(IngestError) as err:
            ingest_bytes(json.dumps({"traceEvents": evs}).encode())
        assert "ING002" in err.value.report.rule_ids()


# ---------------------------------------------------------------------------
# comm-op schema
# ---------------------------------------------------------------------------
def _commops(ops, n_ranks=2, lines=False):
    if lines:
        header = {"format": "repro-commops-1", "n_ranks": n_ranks}
        return "\n".join(json.dumps(o)
                         for o in [header] + ops).encode()
    return json.dumps({"format": "repro-commops-1", "n_ranks": n_ranks,
                       "ops": ops}).encode()


class TestCommops:
    OPS = [
        {"rank": 0, "op": "enter", "region": "step"},
        {"rank": 0, "op": "compute", "seconds": 1e-4},
        {"rank": 0, "op": "isend", "peer": 1, "tag": 3, "bytes": 4096},
        {"rank": 0, "op": "allreduce", "bytes": 8},
        {"rank": 0, "op": "wait"},
        {"rank": 0, "op": "leave", "region": "step"},
        {"rank": 1, "op": "enter", "region": "step"},
        {"rank": 1, "op": "irecv", "peer": "any", "tag": 3},
        {"rank": 1, "op": "allreduce", "bytes": 8},
        {"rank": 1, "op": "waitall"},
        {"rank": 1, "op": "leave", "region": "step"},
    ]

    @pytest.mark.parametrize("lines", [False, True])
    def test_both_containers_accepted(self, lines):
        result = ingest_bytes(_commops(self.OPS, lines=lines))
        assert result.kind == "program"
        assert result.report.accepted
        assert result.program.n_ranks == 2

    def test_replay_under_all_modes(self):
        from repro.ingest.replay import replay_program
        from repro.measure.config import MODES

        program = ingest_bytes(_commops(self.OPS)).program
        for mode in MODES:
            sim = replay_program(program, mode=mode)
            assert sim.runtime > 0
            assert _no_errors(sim.trace)

    def test_logical_replay_noise_invariant(self):
        from repro.ingest.replay import replay_program

        program = ingest_bytes(_commops(self.OPS)).program
        finals = []
        for seed in (1, 2):
            sim = replay_program(program, mode="lt1", seed=seed,
                                 noise_config=NoiseConfig())
            finals.append(_finals(sim.trace, "lt1"))
        assert finals[0] == finals[1]  # logical timers ignore noise

    def test_unbalanced_regions_repaired(self):
        ops = [{"rank": 0, "op": "enter", "region": "a"},
               {"rank": 0, "op": "enter", "region": "b"},
               {"rank": 0, "op": "leave", "region": "a"}]
        result = ingest_bytes(_commops(ops, n_ranks=1))
        assert result.report.accepted
        assert "ING009" in result.report.rule_ids()

    def test_unmatched_p2p_trimmed(self):
        ops = [{"rank": 0, "op": "send", "peer": 1, "tag": 1,
                "bytes": 64}]
        result = ingest_bytes(_commops(ops))
        assert result.report.accepted
        assert "ING006" in result.report.rule_ids()
        assert result.program.n_ops == 0 or all(
            op[0] not in ("send", "isend")
            for ops_ in result.program.rank_ops for op in ops_)

    def test_collective_mismatch_truncated(self):
        ops = [{"rank": 0, "op": "allreduce"},
               {"rank": 0, "op": "barrier"},
               {"rank": 1, "op": "allreduce"},
               {"rank": 1, "op": "allreduce"}]
        result = ingest_bytes(_commops(ops))
        assert result.report.accepted
        assert "ING007" in result.report.rule_ids()

    def test_header_loss_recovers_rank_count(self):
        blob = b"\n".join(json.dumps(o).encode() for o in self.OPS)
        result = ingest_bytes(blob, fmt="commops")
        assert result.report.accepted
        assert result.program.n_ranks == 2
        assert "ING003" in result.report.rule_ids()


# ---------------------------------------------------------------------------
# resource caps and deadline
# ---------------------------------------------------------------------------
class TestCaps:
    def test_byte_cap(self, minife_trace):
        blob = _chrome_bytes(minife_trace)
        with pytest.raises(IngestError) as err:
            ingest_bytes(blob, limits=IngestLimits(max_bytes=1024))
        assert "ING001" in err.value.report.rule_ids()

    def test_decompression_bomb_cap(self):
        bomb = gzip.compress(b'{"traceEvents": [' + b" " * (1 << 22))
        with pytest.raises(IngestError) as err:
            ingest_bytes(bomb, limits=IngestLimits(max_bytes=1 << 20))
        assert "ING001" in err.value.report.rule_ids()

    def test_event_cap(self, minife_trace):
        with pytest.raises(IngestError) as err:
            ingest_bytes(_chrome_bytes(minife_trace),
                         limits=IngestLimits(max_events=10))
        assert "ING001" in err.value.report.rule_ids()

    def test_deadline(self, minife_trace):
        with pytest.raises(IngestError) as err:
            ingest_bytes(_chrome_bytes(minife_trace),
                         limits=IngestLimits(timeout_seconds=0.0))
        assert "ING010" in err.value.report.rule_ids()


# ---------------------------------------------------------------------------
# quarantine (file entry point)
# ---------------------------------------------------------------------------
class TestIngestFile:
    def test_rejected_file_quarantined(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\x00\x01 not a trace at all")
        with pytest.raises(IngestError) as err:
            ingest_file(bad)
        assert not bad.exists()
        assert err.value.report.quarantine_path.endswith(".corrupt-0")
        assert (tmp_path / "bad.json.corrupt-0").exists()

    def test_no_quarantine_flag(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"junk")
        with pytest.raises(IngestError) as err:
            ingest_file(bad, quarantine=False)
        assert bad.exists()
        assert err.value.report.quarantine_path is None

    def test_accepted_file_untouched(self, tmp_path, minife_trace):
        good = tmp_path / "good.json"
        good.write_bytes(_chrome_bytes(minife_trace))
        result = ingest_file(good)
        assert result.report.accepted
        assert good.exists()


# ---------------------------------------------------------------------------
# typed archive errors (TraceFormatError)
# ---------------------------------------------------------------------------
class TestTraceFormatError:
    def test_truncated_jsonl_archive(self, tmp_path, minife_trace):
        path = tmp_path / "t.trace.json.gz"
        write_trace(minife_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert isinstance(err.value, ValueError)
        assert err.value.path == str(path)
        assert err.value.reason

    def test_bitflipped_payload(self, tmp_path, minife_trace):
        path = tmp_path / "t.trace.json.gz"
        write_trace(minife_trace, path)
        plain = bytearray(gzip.decompress(path.read_bytes()))
        # corrupt a record line past the header (line 1 stays intact)
        idx = plain.index(b"null", plain.index(b"\n"))
        plain[idx:idx + 4] = b"nulx"
        path.write_bytes(gzip.compress(bytes(plain)))
        with pytest.raises(TraceFormatError):
            read_trace(path)

    @pytest.mark.parametrize("kind, payload", [
        ("LEAVE", '"odd"'), ("LEAVE", "7"), ("MPI_RECV", "[1, 2]"),
        ("MPI_SEND", "3"), ("COLL_END", "[1, 2, 3]"), ("FORK", "null"),
    ])
    def test_payload_breaking_the_kind_table(self, tmp_path, minife_trace,
                                             kind, payload):
        # A record whose aux payload does not fit its kind (two ints for
        # pairs, one int for scalars, null otherwise) cannot be stored as
        # columns, so nothing could replay it: the reader rejects it at
        # its line, on the bulk path and the line-by-line path alike.
        from repro.sim import events as E

        path = tmp_path / "t.trace.json.gz"
        write_trace(minife_trace, path)
        lines = gzip.decompress(path.read_bytes()).decode().splitlines(True)
        k = next(k for k in range(1, len(lines))
                 if json.loads(lines[k])[1] == getattr(E, kind))
        rec = json.loads(lines[k])
        fields = [json.dumps(x) for x in rec]
        fields[5] = payload
        lines[k] = "[" + ", ".join(fields) + "]\n"
        path.write_bytes(gzip.compress("".join(lines).encode()))
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.offset == f"line {k + 1}"
        assert "does not fit event kind" in err.value.reason

    @pytest.mark.parametrize("field, value", [("region", -2**70),
                                              ("payload", 2**70)])
    @pytest.mark.parametrize("line_path", [False, True])
    def test_int_outside_int64(self, tmp_path, minife_trace, field, value,
                               line_path):
        # Region ids and payloads live in int64 columns, so a record
        # carrying a larger int is refused at its line: a bulk chunk
        # leaves it to the line-by-line decode, which names it (a
        # trailing blank sends the chunk there directly).
        from repro.sim.events import MPI_RECV

        path = tmp_path / "t.trace.json.gz"
        write_trace(minife_trace, path)
        lines = gzip.decompress(path.read_bytes()).decode().splitlines(True)
        k = next(k for k in range(1, len(lines))
                 if json.loads(lines[k])[1] == MPI_RECV)
        rec = json.loads(lines[k])
        rec[2 if field == "region" else 5] = value
        lines[k] = json.dumps(rec) + (" \n" if line_path else "\n")
        path.write_bytes(gzip.compress("".join(lines).encode()))
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.offset == f"line {k + 1}"
        assert "outside int64" in err.value.reason

    def test_columns_refuse_ints_outside_int64(self, minife_trace):
        from repro.clocks import timestamp_trace as stamp
        from repro.measure import ColumnarConversionError, RawTrace
        from repro.sim.events import MPI_RECV

        events = [list(evs) for evs in minife_trace.events]
        loc, i = next((loc, i) for loc, evs in enumerate(events)
                      for i, ev in enumerate(evs) if ev.etype == MPI_RECV)
        ev = events[loc][i]
        events[loc][i] = type(ev)(ev.etype, ev.region, ev.t, ev.delta,
                                  2**70, ev.t_enter)
        trace = RawTrace(minife_trace.mode, minife_trace.regions,
                         minife_trace.locations, events)
        with pytest.raises(ColumnarConversionError):
            sanitize_raw(trace)
        with pytest.raises(ColumnarConversionError):
            stamp(trace, "lt1")

    @pytest.mark.parametrize("suffix", [".trace.json.gz", ".npz", ".shards"])
    def test_writers_refuse_payloads_breaking_the_kind_table(self, tmp_path,
                                                              suffix):
        from repro.measure import ColumnarConversionError, RawTrace
        from repro.sim.events import ENTER, LEAVE, Ev, RegionRegistry
        from repro.sim.kernels import EMPTY_DELTA

        regions = RegionRegistry()
        rid = regions.intern("main", "user")
        trace = RawTrace(mode="tsc", regions=regions, locations=[(0, 0)],
                         events=[[Ev(ENTER, rid, 0.5, EMPTY_DELTA),
                                  Ev(LEAVE, rid, 1.0, EMPTY_DELTA,
                                     aux="odd")]])
        with pytest.raises(ColumnarConversionError):
            write_trace(trace, tmp_path / f"t{suffix}")

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "t.trace.json.gz"
        path.write_bytes(gzip.compress(b'{"format": "something-else"}'))
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert "not a repro trace archive" in str(err.value)

    def test_corrupt_npz(self, tmp_path, minife_trace):
        path = tmp_path / "t.npz"
        write_trace(minife_trace, path)
        data = bytearray(path.read_bytes())
        for i in range(60, len(data), 211):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises((TraceFormatError, zipfile.BadZipFile)) as err:
            read_trace(path)
        # zipfile damage must arrive typed, not as a bare BadZipFile
        assert isinstance(err.value, TraceFormatError)

    def test_shard_row_mismatch(self, tmp_path, minife_trace):
        from repro.measure.shards import (
            MANIFEST_NAME,
            open_sharded_trace,
            write_sharded_trace,
        )

        root = tmp_path / "t.shards"
        write_sharded_trace(minife_trace, root, shard_events=64)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["shards"][0]["n_events"] += 5
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        sharded = open_sharded_trace(root)
        with pytest.raises(TraceFormatError):
            for _ in sharded.iter_shards():
                pass

    @pytest.mark.parametrize("damage", [
        "npz-last-offset-cut", "npz-offsets-swapped", "npz-t-column-longer",
        "npz-float-etype", "shards-loc-out-of-range",
        "shards-row-moved-location",
    ])
    def test_malformed_columnar_structure(self, tmp_path, minife_trace,
                                          damage):
        # archives that decode cleanly but do not describe a trace: the
        # readers must reject them naming the member, not read back a
        # different trace or crash with a bare IndexError
        import numpy as np

        from repro.measure.shards import MANIFEST_NAME, open_sharded_trace

        fmt, _, what = damage.partition("-")
        path = tmp_path / f"t.{fmt}"
        write_trace(minife_trace, path)
        if fmt == "npz":
            with np.load(path) as data:
                arrays = dict(data)
            if what == "last-offset-cut":
                arrays["offsets"][-1] -= 5
                member = "offsets"
            elif what == "offsets-swapped":
                o = arrays["offsets"]
                o[1], o[2] = o[2], o[1]
                member = "offsets"
            elif what == "t-column-longer":
                arrays["t"] = np.concatenate([arrays["t"], [1.0, 2.0]])
                member = "t"
            else:
                arrays["etype"] = arrays["etype"].astype(np.float64)
                arrays["etype"][0] = 0.5
                member = "etype"
            with open(path, "wb") as fh:
                np.savez_compressed(fh, **arrays)
        else:
            shard = path / "shard-0000.npy"
            rows = np.load(shard)
            rows["loc"][3] = 999 if what == "loc-out-of-range" \
                else (rows["loc"][3] + 1) % minife_trace.n_locations
            np.save(shard, rows)
            member = shard.name if what == "loc-out-of-range" \
                else MANIFEST_NAME
            with pytest.raises(TraceFormatError) as err:
                list(open_sharded_trace(path).merged())
            assert err.value.offset == member
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.offset == member
        assert err.value.path == str(path)

    def test_shard_manifest_garbage(self, tmp_path):
        from repro.measure.shards import MANIFEST_NAME, read_shard_manifest

        root = tmp_path / "t.shards"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(TraceFormatError):
            read_shard_manifest(root)

    def test_error_is_picklable(self):
        import pickle

        err = TraceFormatError("/x/y.npz", "bad member", offset="events_t")
        back = pickle.loads(pickle.dumps(err))
        assert (back.path, back.reason, back.offset) \
            == (err.path, err.reason, err.offset)

    def test_archive_bytes_match_write_trace(self, tmp_path, minife_trace):
        path = tmp_path / "t.trace.json.gz"
        write_trace(minife_trace, path)
        assert trace_archive_bytes(minife_trace) == path.read_bytes()


# ---------------------------------------------------------------------------
# the fuzzer: bounded budget inside the suite
# ---------------------------------------------------------------------------
class TestFuzz:
    @pytest.fixture(scope="class")
    def corpus(self, ):
        from repro.ingest.fuzz import build_corpus

        return build_corpus()

    def test_property_never_crash_never_accept_unclean(self, corpus):
        from repro.ingest.fuzz import run_fuzz

        stats = run_fuzz(n_per_corpus=40, seed=7, corpus=corpus)
        assert stats.n_inputs == 4 * 40
        assert stats.ok, stats.format()
        # the mutation set must actually exercise the reject path
        assert stats.rejected > 0
        assert stats.repaired > 0

    def test_determinism(self, corpus):
        from repro.ingest.fuzz import run_fuzz

        a = run_fuzz(n_per_corpus=10, seed=3, corpus=corpus)
        b = run_fuzz(n_per_corpus=10, seed=3, corpus=corpus)
        assert a.rule_counts == b.rule_counts
        assert (a.accepted, a.repaired, a.rejected) \
            == (b.accepted, b.repaired, b.rejected)


# ---------------------------------------------------------------------------
# obs counters
# ---------------------------------------------------------------------------
class TestCounters:
    def test_ingest_counters(self, minife_trace):
        from repro import obs

        session = obs.enable()
        try:
            ingest_bytes(_chrome_bytes(minife_trace))
            with pytest.raises(IngestError):
                ingest_bytes(b"junk")
            totals = session.metrics.totals("ingest.records")
            assert totals.get("ingest.records", 0) > 0
            assert session.metrics.totals("ingest.rejects") \
                .get("ingest.rejects") == 1.0
        finally:
            obs.disable()
