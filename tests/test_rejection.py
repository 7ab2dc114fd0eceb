"""Rejection rule: frozen reference values plus an exact-rational oracle.

The oracle below is a straight transcription of the rule evaluated in exact
rational arithmetic (fractions), fully independent of the float path it
checks.
"""

import random
import sys
from fractions import Fraction

import pytest

from acdroute.rejection import (
    QualityInput,
    compute_rejection,
    max_acd,
    round_half_up,
)


def oracle_rejection(acd0, acd1, pref0, pref1, load_min):
    """Exact-rational transcription of the rejection rule."""
    acd = (Fraction(acd0), Fraction(acd1))
    hi = 1 if acd[0] < acd[1] else 0
    lo = 1 - hi
    rank = [Fraction(0), Fraction(0)]
    rank[hi] = Fraction(1)
    rank[lo] = Fraction(1) if acd[hi] == 0 else acd[lo] / acd[hi]
    lm = Fraction(load_min)
    load = [Fraction(0), Fraction(0)]
    load[lo] = lm + (Fraction(1, 2) - lm) * rank[lo]
    load[hi] = 1 - load[lo]
    prefs = (pref0, pref1)
    reject = [Fraction(0), Fraction(0)]
    if prefs[hi] > prefs[lo]:
        reject[hi] = load[lo] * 100
    else:
        reject[lo] = load[hi] * 100
    return rank, load, reject


class TestMaxAcd:
    def test_first_larger(self):
        assert max_acd((8.67, 0.6)) == 0

    def test_second_larger(self):
        assert max_acd((0.6, 8.67)) == 1

    def test_tie_takes_index_zero(self):
        assert max_acd((3.0, 3.0)) == 0


class TestGoldenPairs:
    def test_reference_pair(self):
        # frozen reference computation: ACD (8.67, 0.6), prefs (9, 8)
        result = compute_rejection(QualityInput((8.67, 0.6), (9, 8), 0.1))
        assert result.max_idx == 0
        assert result.rank[0] == 1.0
        assert abs(result.rank[1] - 0.0692041522491) < 1e-10
        assert abs(result.load[0] - 0.8723183391) < 1e-10
        assert abs(result.load[1] - 0.1276816609) < 1e-10
        assert result.reject_pct == (12.77, 0.0)
        assert abs(result.reject_pct_exact[0] - 12.7681660899654) < 1e-9

    def test_weak_preferred_pair(self):
        # preferred route has the lower ACD: rejection lands on it
        result = compute_rejection(QualityInput((0.17, 0.79), (9, 8), 0.1))
        assert result.max_idx == 1
        assert round(result.load[0] * 100) == 19
        assert round(result.load[1] * 100) == 81
        assert result.reject_pct[1] == 0.0
        assert result.reject_pct[0] == pytest.approx(81.39, abs=0.01)

    def test_equal_quality_splits_half(self):
        result = compute_rejection(QualityInput((5.0, 5.0), (9, 8), 0.1))
        assert result.rank == (1.0, 1.0)
        assert result.load == (0.5, 0.5)
        assert result.reject_pct == (50.0, 0.0)


class TestDegenerateInputs:
    def test_absent_acd_means_no_rejection(self):
        for pair in ((None, 0.6), (8.67, None), (None, None)):
            result = compute_rejection(QualityInput(pair, (9, 8), 0.1))
            assert result.reject_pct == (0.0, 0.0)
            assert result.load == (None, None)
            assert result.rank == (None, None)
            assert result.max_idx is None

    def test_both_zero_acts_like_equal_quality(self):
        result = compute_rejection(QualityInput((0.0, 0.0), (9, 8), 0.1))
        assert result.rank == (1.0, 1.0)
        assert result.load == (0.5, 0.5)
        assert result.reject_pct == (50.0, 0.0)

    def test_one_zero_keeps_floor_load(self):
        result = compute_rejection(QualityInput((8.67, 0.0), (9, 8), 0.1))
        assert result.rank == (1.0, 0.0)
        assert result.load == (0.9, 0.1)
        assert result.reject_pct == (10.0, 0.0)


class TestValidation:
    def test_equal_preferences_rejected(self):
        with pytest.raises(ValueError):
            QualityInput((8.67, 0.6), (9, 9), 0.1)

    def test_load_min_bounds(self):
        with pytest.raises(ValueError):
            QualityInput((8.67, 0.6), (9, 8), 0.5)
        with pytest.raises(ValueError):
            QualityInput((8.67, 0.6), (9, 8), -0.01)
        QualityInput((8.67, 0.6), (9, 8), 0.0)  # floor of the range is fine

    def test_negative_acd_rejected(self):
        with pytest.raises(ValueError):
            QualityInput((-1.0, 0.6), (9, 8), 0.1)

    @pytest.mark.parametrize("acd", [(float("nan"), 1.0), (1.0, float("inf")),
                                     (float("inf"), float("inf")), (-float("inf"), 1.0)],
                             ids=["nan", "inf", "both-inf", "minus-inf"])
    def test_non_finite_acd_rejected(self, acd):
        # (inf, inf) would give NaN loads, and admission would never reject
        with pytest.raises(ValueError, match="finite non-negative"):
            QualityInput(acd, (9, 8), 0.1)

    def test_preference_range(self):
        with pytest.raises(ValueError):
            QualityInput((8.67, 0.6), (10, 8), 0.1)


def _random_inputs(rng):
    acd0 = rng.uniform(0.01, 60.0)
    acd1 = rng.uniform(0.01, 60.0)
    pref0, pref1 = rng.sample(range(1, 10), 2)
    load_min = rng.uniform(0.0, 0.49)
    return acd0, acd1, pref0, pref1, load_min


class TestProperties:
    N = 10_000

    def test_matches_exact_oracle(self):
        rng = random.Random(20210901)
        for _ in range(self.N):
            acd0, acd1, pref0, pref1, load_min = _random_inputs(rng)
            result = compute_rejection(
                QualityInput((acd0, acd1), (pref0, pref1), load_min)
            )
            rank, load, reject = oracle_rejection(acd0, acd1, pref0, pref1, load_min)
            for got, want in zip(result.rank, rank):
                assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)
            for got, want in zip(result.load, load):
                assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)
            for got, want in zip(result.reject_pct_exact, reject):
                assert got == pytest.approx(float(want), rel=1e-12, abs=1e-10)

    def test_loads_sum_to_one_and_stay_bounded(self):
        rng = random.Random(42)
        for _ in range(self.N):
            acd0, acd1, pref0, pref1, load_min = _random_inputs(rng)
            result = compute_rejection(
                QualityInput((acd0, acd1), (pref0, pref1), load_min)
            )
            assert abs(result.load[0] + result.load[1] - 1.0) < 1e-12
            lo, hi = sorted(result.load)
            assert load_min - 1e-12 <= lo <= 0.5 + 1e-12
            assert 0.5 - 1e-12 <= hi <= 1.0 - load_min + 1e-12

    def test_scale_invariance(self):
        rng = random.Random(7)
        for _ in range(2000):
            acd0, acd1, pref0, pref1, load_min = _random_inputs(rng)
            k = rng.uniform(0.001, 1000.0)
            base = compute_rejection(QualityInput((acd0, acd1), (pref0, pref1), load_min))
            scaled = compute_rejection(
                QualityInput((acd0 * k, acd1 * k), (pref0, pref1), load_min)
            )
            assert scaled.max_idx == base.max_idx
            for got, want in zip(scaled.rank, base.rank):
                assert got == pytest.approx(want, rel=1e-12)
            for got, want in zip(scaled.load, base.load):
                assert got == pytest.approx(want, rel=1e-12)
            for got, want in zip(scaled.reject_pct_exact, base.reject_pct_exact):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-10)

    def test_rejection_lands_only_on_preferred_route(self):
        rng = random.Random(99)
        for _ in range(self.N):
            acd0, acd1, pref0, pref1, load_min = _random_inputs(rng)
            result = compute_rejection(
                QualityInput((acd0, acd1), (pref0, pref1), load_min)
            )
            nonzero = [i for i in (0, 1) if result.reject_pct_exact[i] > 0]
            assert len(nonzero) <= 1
            if nonzero:
                preferred = 0 if pref0 > pref1 else 1
                assert nonzero[0] == preferred

    def test_rejection_of_preferred_grows_with_challenger_quality(self):
        # preferred route is also the better one: the closer the other route
        # gets, the more of the preferred route's surplus is pushed away
        rng = random.Random(5)
        for _ in range(2000):
            acd_hi = rng.uniform(1.0, 60.0)
            a = rng.uniform(0.0, acd_hi)
            b = rng.uniform(0.0, acd_hi)
            low, high = sorted((a, b))
            r_low = compute_rejection(QualityInput((acd_hi, low), (9, 8), 0.1))
            r_high = compute_rejection(QualityInput((acd_hi, high), (9, 8), 0.1))
            assert r_high.reject_pct_exact[0] >= r_low.reject_pct_exact[0] - 1e-12

    def test_rejection_of_preferred_weak_route_grows_with_quality_gap(self):
        # preferred route is the worse one: the bigger the gap, the harder it
        # is pushed away
        rng = random.Random(6)
        for _ in range(2000):
            acd_lo = rng.uniform(0.01, 5.0)
            ratio_a = rng.uniform(1.0, 50.0)
            ratio_b = rng.uniform(1.0, 50.0)
            small, large = sorted((ratio_a, ratio_b))
            r_small = compute_rejection(
                QualityInput((acd_lo, acd_lo * small), (9, 8), 0.1)
            )
            r_large = compute_rejection(
                QualityInput((acd_lo, acd_lo * large), (9, 8), 0.1)
            )
            assert r_large.reject_pct_exact[0] >= r_small.reject_pct_exact[0] - 1e-12


class TestRounding:
    def test_half_up_two_places(self):
        assert round_half_up(12.768166089965397) == 12.77
        assert round_half_up(12.765) == 12.77
        assert round_half_up(12.764999) == 12.76
        assert round_half_up(0.0) == 0.0

    def test_every_finite_float(self):
        # the default 28-digit decimal context cannot hold these to 2 places
        for value in (1e26, 1e308, sys.float_info.max, -sys.float_info.max):
            assert round_half_up(value) == value
            assert round_half_up(value, 0) == value

    def test_half_up_other_places(self):
        assert round_half_up(6.92041, 1) == 6.9
        assert round_half_up(18.607594, 0) == 19.0
        assert round_half_up(0.5, 0) == 1.0
