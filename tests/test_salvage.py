"""Ingest salvage over columns, against the per-event oracle.

``repro.ingest.salvage`` repairs parsed traces with column edits whose
rows the trace's synchronisation plan chooses.  These tests pin:

* it reaches the verdict, the report (``elapsed_seconds`` aside) and the
  repaired archive bytes of :func:`tests.oracles.walker_salvage` -- the
  passes over ``Ev`` lists it replaced -- on the same decoded trace, for
  byte-level mutants of the Chrome corpus and for sidecar-record
  mutations of lossless exports of generated (and recovered) runs.  Two
  differences are intended: the walker's byte-for-byte duplicate rule
  is left out (the decoders drop exact copies where a record is a unit
  of the input), and a team begin that has a fork only later in
  location order is dropped (the plan's ``unforked``, which the
  sanitizer applies) where the walker kept it and then failed the
  sanitizer;
* exact copies are decided where the input has units: the unmutated
  foreign corpus is accepted with its clamp diagnostics only, and a
  duplicated ``X`` record costs one ING011;
* ingestion builds no ``Ev`` and returns column-backed traces whose
  archive bytes equal the exported trace's, on the tiny apps and on the
  MiniFE-1, TeaLeaf-2 and LULESH-2 experiment traces.
"""

import copy
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.ingest.salvage as S
from repro.ingest import IngestError, IngestReport, ingest_bytes
from repro.ingest.fuzz import FUZZ_LIMITS, build_corpus, mutate
from repro.machine.faults import FaultModel
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement, columnar, trace_archive_bytes
from repro.measure.config import MODES
from repro.obs.export import trace_chrome_events
from repro.sim import CostModel, run_with_recovery
from repro.sim import events as E
from tests.oracles import walker_salvage
from tests.test_properties import (
    _FAULTS,
    RandomProgram,
    _cluster,
    _run,
    fault_program_strategy,
    program_strategy,
)

SLOW = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def corpus():
    return dict(build_corpus())


def _walker(cols, report, budget=None):
    return walker_salvage(cols, report, budget, exact_copies=False)


def _outcome(blob, salvage):
    """(accepted, report without elapsed time, archive bytes, the trace
    salvage was given) of ingesting ``blob`` with ``salvage``."""
    given_cols = []

    def recording(cols, report, budget=None):
        given_cols.append(cols)
        return salvage(cols, report, budget)

    with mock.patch.object(S, "salvage_trace", recording):
        try:
            result = ingest_bytes(blob, limits=FUZZ_LIMITS)
        except IngestError as exc:
            report, data = exc.report, None
        else:
            report = result.report
            data = (trace_archive_bytes(result.trace)
                    if result.kind == "trace" else None)
    doc = report.to_dict()
    del doc["elapsed_seconds"]
    return doc["accepted"], doc, data, (given_cols or [None])[0]


def _team_rules_differ(cols) -> bool:
    """Whether some team begin has a fork of its construct in the trace
    but none earlier in location order."""
    sync = cols.sync_plan()
    forks = sync.a[sync.kind == E.FORK]
    return bool(np.isin(sync.a[sync.unforked], forks).any())


def _assert_salvages_agree(blob):
    new = _outcome(blob, S.salvage_trace)
    old = _outcome(blob, _walker)
    if new[:3] != old[:3]:
        assert new[3] is not None and _team_rules_differ(new[3]), (
            new[1], old[1])
    return new


@settings(max_examples=60, **SLOW)
@given(st.sampled_from(["chrome-lossless", "chrome-foreign"]),
       st.integers(min_value=0, max_value=2**31))
def test_salvage_matches_walker_on_corpus_mutants(corpus, name, seed):
    _mutators, blob = mutate(corpus[name], seed)
    _assert_salvages_agree(blob)


#: sidecar-record mutations: how each edits the list of Chrome events
_EDITS = ("drop", "duplicate", "time-backwards", "new-match-id",
          "new-group-id", "new-group-size", "drop-fork")
_MATCH_KINDS = (E.MPI_SEND, E.MPI_RECV, E.FAULT)
_GROUP_KINDS = (E.COLL_END, E.OBAR_LEAVE, E.RESTART)


def _edit(events, edit, rng):
    raw = [i for i, e in enumerate(events) if e.get("cat") == "repro.raw"]
    kinds = {"new-match-id": _MATCH_KINDS, "new-group-id": _GROUP_KINDS,
             "new-group-size": _GROUP_KINDS, "drop-fork": (E.FORK,)}
    if edit in kinds:
        raw = [i for i in raw if events[i]["args"]["etype"] in kinds[edit]]
    if not raw:
        return
    i = rng.choice(raw)
    args = events[i]["args"]
    if edit in ("drop", "drop-fork"):
        del events[i]
    elif edit == "duplicate":
        events.insert(rng.choice(raw), copy.deepcopy(events[i]))
    elif edit == "time-backwards":
        args["t"] *= rng.random()
    elif edit == "new-group-size":
        args["aux"][1] = rng.randrange(8)
    else:  # a fresh id, or one the trace may already use
        new = rng.choice([10**6 + rng.randrange(4), rng.randrange(40)])
        if isinstance(args["aux"], list):
            args["aux"][0] = new
        else:
            args["aux"] = new


def _mutated_export(trace, edits, seed):
    events = list(trace_chrome_events(trace, embed_raw=True))
    rng = random.Random(seed)
    for edit in edits:
        _edit(events, edit, rng)
    return json.dumps({"traceEvents": events}).encode()


_edits = st.lists(st.sampled_from(_EDITS), min_size=1, max_size=3)


@settings(max_examples=40, **SLOW)
@given(program_strategy, st.integers(min_value=0, max_value=100),
       st.sampled_from(MODES), _edits, st.integers(min_value=0, max_value=999))
def test_salvage_matches_walker_on_sidecar_mutations(steps, seed, mode,
                                                     edits, edit_seed):
    trace = _run(steps, seed, mode).trace
    _assert_salvages_agree(_mutated_export(trace, edits, edit_seed))


@settings(max_examples=20, **SLOW)
@given(fault_program_strategy, st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=1000), st.sampled_from(MODES),
       _edits, st.integers(min_value=0, max_value=999))
def test_salvage_matches_walker_on_recovered_sidecar_mutations(
        steps, seed, fault_seed, mode, edits, edit_seed):
    cluster = _cluster()
    trace = run_with_recovery(
        RandomProgram(steps), cluster,
        lambda: CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed)),
        FaultModel(_FAULTS, seed=fault_seed),
        measurement=Measurement(mode)).result.trace
    _assert_salvages_agree(_mutated_export(trace, edits, edit_seed))


def test_plan_drops_a_team_begin_forked_only_later(corpus):
    # the one difference the byte-level mutants turned up: a team begin
    # whose construct is forked only on a later location is unforked by
    # the plan's rule -- dropped (ING012) and accepted -- where the walker
    # kept it and the sanitizer then refused the trace (TRC007)
    events = json.loads(corpus["chrome-lossless"])["traceEvents"]
    raw = [e["args"] for e in events if e.get("cat") == "repro.raw"]
    fork = next(a for a in raw if a["etype"] == E.FORK)
    team = next(a for a in raw if a["etype"] == E.TEAM_BEGIN
                and a["aux"] == fork["aux"] and a["loc"] > fork["loc"])
    fork["loc"], team["loc"] = team["loc"], fork["loc"]
    fork["aux"] = team["aux"] = 10**6
    blob = json.dumps({"traceEvents": events}).encode()
    new = _outcome(blob, S.salvage_trace)
    old = _outcome(blob, _walker)
    assert _team_rules_differ(new[3])
    assert new[0] and "ING012" in {d["rule"] for d in new[1]["repairs"]}
    assert not old[0]
    assert "TRC007" in old[1]["rejections"][0]["message"]


# ---------------------------------------------------------------------------
# exact copies, decided where the input has units
# ---------------------------------------------------------------------------

def test_foreign_corpus_keeps_every_leave(corpus):
    # two back-to-back intervals of one region overlap by an ulp after
    # the us -> s conversion; the clamp nests them into two equal LEAVEs,
    # which are two records, not a repeated one
    result = ingest_bytes(corpus["chrome-foreign"], limits=FUZZ_LIMITS)
    rules = [d.rule_id for d in result.report.repairs]
    assert rules == ["ING009"] * 3
    assert all("clamped" in d.message for d in result.report.repairs)
    # the walker's byte-for-byte rule drops one of them, and the outer
    # region then closes at the location's last time instead
    report = IngestReport()
    lost = walker_salvage(result.trace.columns(), report)
    assert sorted(d.rule_id for d in report.repairs) == \
        ["ING009", "ING009", "ING011", "ING011"]
    assert trace_archive_bytes(lost) != trace_archive_bytes(result.trace)


def test_duplicated_x_record_is_one_repair():
    evs = [{"name": "main", "ph": "X", "ts": 0, "dur": 100, "pid": 7,
            "tid": 1},
           {"name": "inner", "ph": "X", "ts": 10, "dur": 20, "pid": 7,
            "tid": 1}]
    result = ingest_bytes(json.dumps({"traceEvents": evs + evs[1:]}).encode())
    assert [d.rule_id for d in result.report.repairs] == ["ING011"]
    assert result.report.n_dropped == 1
    assert result.trace.n_events == 4


# ---------------------------------------------------------------------------
# no Ev: column-backed and exact
# ---------------------------------------------------------------------------

def _tiny_traces():
    from tests.test_ingest import _apps, _run_app

    return {name: _run_app(make()) for name, make in _apps().items()}


def test_ingest_builds_no_events():
    exports = {name: json.dumps({"traceEvents": list(
        trace_chrome_events(trace, embed_raw=True))}).encode()
        for name, trace in _tiny_traces().items()}

    def refuse(*_args, **_kw):
        raise AssertionError("ingest built an Ev")

    with mock.patch.object(E.Ev, "__init__", refuse), \
            mock.patch.object(columnar, "events_from_columns", refuse):
        for blob in exports.values():
            trace = ingest_bytes(blob).trace
            assert trace.column_backed


def _assert_round_trip_exact(trace):
    result = ingest_bytes(json.dumps({"traceEvents": list(
        trace_chrome_events(trace, embed_raw=True))}).encode())
    assert not result.report.repairs
    assert result.trace.column_backed
    assert trace_archive_bytes(result.trace) == trace_archive_bytes(trace)


def test_clean_round_trips_are_exact():
    for trace in _tiny_traces().values():
        _assert_round_trip_exact(trace)


@pytest.mark.parametrize("name", ["MiniFE-1", "TeaLeaf-2", "LULESH-2"])
def test_experiment_round_trips_are_exact(name):
    # the experiment traces as the archive benchmark records them
    from repro.experiments.configs import make_app, make_cluster
    from repro.sim import Engine

    cluster = make_cluster(name)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=7))
    _assert_round_trip_exact(Engine(make_app(name), cluster, cost,
                                    measurement=Measurement("tsc")).run().trace)
