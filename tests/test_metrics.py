"""Tests for evaluation metrics (Eq. 1 fix rate, Eq. 2 pass@k)."""

import math

import pytest

from repro.eval import fix_rate, fix_rate_single, pass_at_k_single


class TestFixRate:
    def test_single(self):
        assert fix_rate_single(5, 10) == 0.5

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            fix_rate_single(11, 10)
        with pytest.raises(ValueError):
            fix_rate_single(1, 0)

    def test_expectation_over_problems(self):
        assert fix_rate([(10, 10), (0, 10)]) == 0.5

    def test_empty(self):
        assert fix_rate([]) == 0.0


class TestPassAtK:
    def test_all_correct(self):
        assert pass_at_k_single(20, 20, 1) == 1.0

    def test_none_correct(self):
        assert pass_at_k_single(20, 0, 5) == 0.0

    def test_known_value(self):
        # n=2, c=1, k=1 -> 0.5
        assert pass_at_k_single(2, 1, 1) == pytest.approx(0.5)

    def test_unbiased_formula(self):
        # n=10, c=3, k=5: 1 - C(7,5)/C(10,5) = 1 - 21/252
        assert pass_at_k_single(10, 3, 5) == pytest.approx(1 - 21 / 252)

    def test_k_larger_than_remaining_failures(self):
        assert pass_at_k_single(10, 6, 5) == 1.0

    def test_monotone_in_k(self):
        values = [pass_at_k_single(20, 4, k) for k in range(1, 21)]
        assert values == sorted(values)

    def test_monotone_in_c(self):
        values = [pass_at_k_single(20, c, 5) for c in range(0, 21)]
        assert values == sorted(values)

    def test_pass_at_1_equals_c_over_n(self):
        for n, c in [(20, 7), (10, 3), (5, 5)]:
            assert pass_at_k_single(n, c, 1) == pytest.approx(c / n)

    def test_validation(self):
        with pytest.raises(ValueError):
            pass_at_k_single(0, 0, 1)
        with pytest.raises(ValueError):
            pass_at_k_single(10, 11, 1)
        with pytest.raises(ValueError):
            pass_at_k_single(10, 5, 11)

    def test_never_nan(self):
        for n in range(1, 15):
            for c in range(0, n + 1):
                for k in range(1, n + 1):
                    value = pass_at_k_single(n, c, k)
                    assert 0.0 <= value <= 1.0
                    assert not math.isnan(value)
