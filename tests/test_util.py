"""Tests for repro.util: rng streams, tables, validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util import (
    RngStreams,
    check_positive,
    format_grouped_bars,
    format_table,
    stream_seed,
)
from repro.util.validation import check_nonnegative


class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed(1, "a", 2) == stream_seed(1, "a", 2)

    def test_distinct_keys(self):
        seeds = {stream_seed(1, "a", i) for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_base_seeds(self):
        assert stream_seed(1, "x") != stream_seed(2, "x")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_always_64bit(self, seed, key):
        s = stream_seed(seed, key)
        assert 0 <= s < 2**64


class TestRngStreams:
    def test_memoized(self):
        r = RngStreams(7)
        assert r.get("a", x=1) is r.get("a", x=1)

    def test_independent_names(self):
        r = RngStreams(7)
        a = r.fresh("a").random(5)
        b = r.fresh("b").random(5)
        assert not np.allclose(a, b)

    def test_kwarg_order_irrelevant(self):
        r = RngStreams(7)
        assert r.get("n", a=1, b=2) is r.get("n", b=2, a=1)

    def test_child_streams_differ(self):
        r = RngStreams(7)
        c1 = r.child(1).fresh("x").random(3)
        c2 = r.child(2).fresh("x").random(3)
        assert not np.allclose(c1, c2)

    def test_reproducible_across_instances(self):
        a = RngStreams(3).fresh("k", i=0).random(4)
        b = RngStreams(3).fresh("k", i=0).random(4)
        assert np.allclose(a, b)


class TestTables:
    def test_format_table_basic(self):
        text = format_table(["a", "b"], [["x", 1.5], ["yy", 20.25]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "1.50" in text and "20.25" in text

    def test_format_table_title(self):
        text = format_table(["h"], [["v"]], title="My Table")
        assert text.startswith("My Table")

    def test_format_table_bad_row(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_grouped_bars(self):
        text = format_grouped_bars({"g1": {"s": 1.0}, "g2": {"s": 0.5}})
        assert "[g1]" in text and "[g2]" in text
        assert text.count("#") > 0

    def test_grouped_bars_zero_values(self):
        text = format_grouped_bars({"g": {"s": 0.0}})
        assert "0.000" in text


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_nonnegative(self):
        check_nonnegative("x", 0)
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)
