"""The paired A/B runner's statistics, ``tools/ab.py``, loaded by path: it is a script, not part of the package."""

import importlib.util
from math import comb
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)


class TestSignInterval:
    """The median with its distribution-free interval: the order statistics k and n + 1 - k, k the
    largest with P(Bin(n, 1/2) < k) <= 2.5 %, and the interval's exact coverage 1 - 2 P(Bin(n, 1/2) < k)."""

    def test_the_runners_pairs_drop_the_nine_lowest_and_highest(self):
        result = ab.sign_interval([float(v) for v in range(ab.PAIRS)])
        assert ab.PAIRS == 31
        assert result["median"] == 15.0
        assert result["interval"] == [9.0, 21.0]
        assert result["coverage"] == pytest.approx(1 - 2 * sum(comb(31, i) for i in range(10)) / 2**31, rel=1e-15)
        assert result["coverage"] == pytest.approx(0.9706, abs=5e-5)

    def test_ten_values_drop_one_at_each_end(self):
        result = ab.sign_interval([float(v) for v in range(10)])
        assert result["median"] == 4.5
        assert result["interval"] == [1.0, 8.0]
        assert result["coverage"] == 1 - 2 * 11 / 1024  # 0.9785

    def test_five_values_are_too_few_for_an_interval(self):
        # Even the widest interval, the extremes, covers only 1 - 2 / 32 < 95 %.
        result = ab.sign_interval([3.0, 1.0, 4.0, 1.5, 9.0])
        assert result == {"median": 3.0, "interval": None, "coverage": None}

    def test_order_of_the_values_does_not_matter(self):
        values = [float(v) for v in range(31)]
        assert ab.sign_interval(values[::-1]) == ab.sign_interval(values)
