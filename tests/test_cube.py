"""Tests for the Cube profile model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cube import CallTree, CubeProfile, SystemTree, profile_diff, read_profile, write_profile


@pytest.fixture
def system():
    return SystemTree([(0, 0), (0, 1), (1, 0), (1, 1)])


@pytest.fixture
def profile(system):
    p = CubeProfile(system, time_metrics=("comp", "wait"), mode="tsc")
    p.add("comp", ("main", "f"), 0, 6.0)
    p.add("comp", ("main", "g"), 1, 2.0)
    p.add("wait", ("main", "g"), 2, 2.0)
    return p


class TestCallTree:
    def test_intern_creates_ancestors(self):
        ct = CallTree()
        cpid = ct.intern(("a", "b", "c"))
        assert ct.id_of(("a",)) is not None
        assert ct.id_of(("a", "b")) is not None
        assert ct.parent(cpid) == ct.id_of(("a", "b"))

    def test_intern_idempotent(self):
        ct = CallTree()
        assert ct.intern(("x",)) == ct.intern(("x",))

    def test_children(self):
        ct = CallTree()
        ct.intern(("a", "b"))
        ct.intern(("a", "c"))
        a = ct.id_of(("a",))
        assert len(ct.children(a)) == 2

    def test_subtree(self):
        ct = CallTree()
        ct.intern(("a", "b", "c"))
        ct.intern(("a", "d"))
        sub = {ct.path(i) for i in ct.subtree(ct.id_of(("a",)))}
        assert sub == {("a",), ("a", "b"), ("a", "b", "c"), ("a", "d")}

    def test_find_suffix(self):
        ct = CallTree()
        ct.intern(("main", "cg_solve", "dot"))
        ct.intern(("main", "other", "dot"))
        hits = ct.find_suffix("cg_solve", "dot")
        assert len(hits) == 1
        assert ct.path(hits[0]) == ("main", "cg_solve", "dot")

    def test_root_name(self):
        ct = CallTree()
        assert ct.name(ct.intern(())) == "<root>"


class TestSystemTree:
    def test_ranks_and_threads(self, system):
        assert system.ranks == [0, 1]
        assert system.threads_of(0) == [0, 1]
        assert system.master_locations() == [0, 2]

    def test_loc_id(self, system):
        assert system.loc_id(1, 1) == 3


class TestCubeProfile:
    def test_total_time_sums_time_metrics(self, profile):
        assert profile.total_time() == pytest.approx(10.0)

    def test_metric_total(self, profile):
        assert profile.metric_total("comp") == pytest.approx(8.0)

    def test_value_per_location(self, profile):
        assert profile.value("comp", ("main", "f"), 0) == 6.0
        assert profile.value("comp", ("main", "f"), 1) == 0.0
        assert profile.value("comp", ("main", "f")) == 6.0

    def test_percent_of_time(self, profile):
        assert profile.percent_of_time("comp") == pytest.approx(80.0)
        assert profile.percent_of_time("wait") == pytest.approx(20.0)

    def test_metric_selection_percent(self, profile):
        shares = profile.metric_selection_percent("comp")
        assert shares[("main", "f")] == pytest.approx(75.0)
        assert shares[("main", "g")] == pytest.approx(25.0)

    def test_inclusive(self, profile):
        assert profile.inclusive("comp", ("main",)) == pytest.approx(8.0)

    def test_by_location(self, profile):
        by_loc = profile.by_location("comp")
        assert by_loc == {0: 6.0, 1: 2.0}

    def test_add_zero_noop(self, profile):
        before = dict(profile.cells("comp"))
        profile.add("comp", ("x",), 0, 0.0)
        assert dict(profile.cells("comp")) == before

    def test_normalized(self, profile):
        n = profile.normalized()
        assert n.total_time() == pytest.approx(1.0)
        assert n.value("comp", ("main", "f"), 0) == pytest.approx(0.6)

    def test_normalize_empty_raises(self, system):
        with pytest.raises(ValueError):
            CubeProfile(system, ("comp",)).normalized()

    def test_mean_of_identical_is_identity(self, profile):
        m = CubeProfile.mean([profile, profile])
        norm = profile.normalized()
        assert m.value("comp", ("main", "f"), 0) == pytest.approx(
            norm.value("comp", ("main", "f"), 0)
        )

    def test_mean_requires_same_system(self, profile):
        other = CubeProfile(SystemTree([(0, 0)]), ("comp",))
        other.add("comp", ("m",), 0, 1.0)
        with pytest.raises(ValueError):
            CubeProfile.mean([profile, other])

    def test_as_mapping_fractions(self, profile):
        m = profile.as_mapping()
        assert sum(m.values()) == pytest.approx(1.0)
        assert m[("comp", ("main", "f"))] == pytest.approx(0.6)

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=10))
    @settings(max_examples=25)
    def test_normalized_always_sums_to_one(self, values):
        p = CubeProfile(SystemTree([(0, 0)]), ("m",))
        for i, v in enumerate(values):
            p.add("m", ("f%d" % i,), 0, v)
        assert p.normalized().total_time() == pytest.approx(1.0)


class TestProfileIO:
    def test_roundtrip(self, profile, tmp_path):
        path = tmp_path / "p.json.gz"
        write_profile(profile, path)
        loaded = read_profile(path)
        assert loaded.total_time() == pytest.approx(profile.total_time())
        assert loaded.value("comp", ("main", "f"), 0) == 6.0
        assert loaded.mode == "tsc"
        assert loaded.system.locations == profile.system.locations

    def test_rejects_garbage(self, tmp_path):
        import gzip, json

        path = tmp_path / "bad.json.gz"
        with gzip.open(path, "wt") as fh:
            json.dump({"format": "other"}, fh)
        with pytest.raises(ValueError):
            read_profile(path)


class TestProfileDiff:
    def test_identical_profiles_no_diff(self, profile):
        rows = profile_diff(profile, profile)
        assert all(r[4] == pytest.approx(0.0) for r in rows)

    def test_diff_finds_largest(self, profile, system):
        other = CubeProfile(system, ("comp", "wait"))
        other.add("comp", ("main", "f"), 0, 6.0)
        other.add("comp", ("main", "g"), 1, 2.0)
        other.add("wait", ("main", "h"), 2, 2.0)  # moved wait
        rows = profile_diff(profile, other, top=2)
        paths = {r[1] for r in rows}
        assert ("main", "g") in paths or ("main", "h") in paths

    def test_ties_do_not_follow_the_hash_seed(self):
        # five equal differences behind a larger one: a top that cuts
        # through the tie must pick the same rows under any hash seed
        code = (
            "from repro.cube import CubeProfile, SystemTree, profile_diff\n"
            "a = CubeProfile(SystemTree([(0, 0)]), ('comp',))\n"
            "b = CubeProfile(SystemTree([(0, 0)]), ('comp',))\n"
            "for name in 'pqrst':\n"
            "    a.add('comp', ('main', name), 0, 1.0)\n"
            "    b.add('comp', ('main', name), 0, 1.0)\n"
            "b.add('comp', ('main', 'u'), 0, 5.0)\n"
            "print(profile_diff(a, b, top=3))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = [subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed,
                                   "PYTHONPATH": src}).stdout
               for seed in ("1", "2")]
        assert out[0] == out[1]
        assert out[0] == str([("comp", ("main", "u"), 0.0, 0.5, 0.5),
                              ("comp", ("main", "p"), 0.2, 0.1, 0.1),
                              ("comp", ("main", "q"), 0.2, 0.1, 0.1)]) + "\n"
