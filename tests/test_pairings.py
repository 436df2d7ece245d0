"""Ordered pairings, their q-weights, and the double-factorial identity."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qfj.errors import DomainError, ResourceLimitError, ValidationError
from qfj.pairings import (
    OrderedPairing,
    enumerate_pairings,
    iter_pairings,
    weight,
    weight_exponent_counts,
    weighted_pairing_sum,
)
import qfj.pairings as pairings
import qfj.qcore as qcore
from qfj.qcore import QPolynomial, q_double_factorial


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def leaf_walk_counts(n: int) -> dict[int, int]:
    """Reference histogram: the one-leaf-per-pairing bitmask walk that
    weight_exponent_counts used before its memo (2,027,025 leaves at n = 8)."""
    size = 2 * n
    between = [[0] * (size + 1) for _ in range(size + 1)]
    for a in range(1, size + 1):
        mask = 0
        for b in range(a + 2, size + 1):
            mask |= 1 << (b - 2)
            between[a][b] = mask
    counts: Counter[int] = Counter()

    def rec(available: int, w: int):
        if not available:
            counts[w] += 1
            return
        a_bit = available & -available
        a = a_bit.bit_length()
        rest = available ^ a_bit
        bb = rest
        while bb:
            b_bit = bb & -bb
            b = b_bit.bit_length()
            rec(rest ^ b_bit, w + (available & between[a][b]).bit_count())
            bb ^= b_bit

    rec((1 << size) - 1, 0)
    return dict(counts)


class TestOrderedPairing:
    @pytest.mark.parametrize("pairs", [
        ((2, 1),),                      # left endpoint not smaller
        ((1, 2), (2, 3)),               # element reused
        ((1, 3), (2, 4), (1, 2)),       # wrong ground set
        ((3, 4), (1, 2)),               # blocks not sorted by left endpoint
    ])
    def test_invalid_structures_rejected(self, pairs):
        with pytest.raises(ValidationError):
            OrderedPairing(pairs)

    def test_accessors_and_rendering(self):
        p = OrderedPairing(((1, 2), (3, 4)))
        assert p.n == 2
        assert p.size == 4
        assert str(p) == "(1,2)(3,4)"
        assert str(OrderedPairing(())) == "()"


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_double_factorial(self, n):
        assert len(enumerate_pairings(n)) == double_factorial(2 * n - 1)

    def test_lexicographic_listing_for_two_pairs(self):
        got = [str(p) for p in enumerate_pairings(2)]
        assert got == ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]

    def test_size_zero_is_rejected(self):
        with pytest.raises(DomainError):
            list(iter_pairings(0))

    def test_default_limit_guards_blowup(self):
        with pytest.raises(ResourceLimitError):
            list(iter_pairings(9))

    def test_list_refuses_beyond_the_limit_constant(self):
        with pytest.raises(ResourceLimitError):
            enumerate_pairings(pairings.DEFAULT_LIMIT + 1)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_every_pairing_opens_with_smallest_unpaired(self, n):
        for p in iter_pairings(n):
            lefts = [a for a, _ in p.pairs]
            assert lefts[0] == 1
            assert lefts == sorted(lefts)


class TestWeights:
    def test_two_pair_spectrum(self):
        got = [weight(p).as_monomial()[0] for p in enumerate_pairings(2)]
        assert got == [0, 1, 2]

    def test_fully_nested_pairing_hits_maximal_exponent(self):
        nested = OrderedPairing(((1, 8), (2, 7), (3, 6), (4, 5)))
        assert weight(nested).as_monomial() == (12, Fraction(1))

    def test_adjacent_pairing_has_unit_weight(self):
        flat = OrderedPairing(((1, 2), (3, 4), (5, 6)))
        assert weight(flat) == QPolynomial.one()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_maximal_exponent_is_n_times_n_minus_one(self, n):
        counts = weight_exponent_counts(n)
        assert max(counts) == n * (n - 1)
        assert counts[max(counts)] == 1
        assert counts[0] == 1

    def test_histogram_base_cases(self):
        assert dict(weight_exponent_counts(0)) == {0: 1}
        assert dict(weight_exponent_counts(2)) == {0: 1, 1: 1, 2: 1}

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_histogram_matches_direct_enumeration(self, n):
        direct = {}
        for p in iter_pairings(n):
            e = weight(p).as_monomial()[0]
            direct[e] = direct.get(e, 0) + 1
        assert direct == dict(weight_exponent_counts(n))


class TestMemoizedHistogram:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_equals_the_leaf_walk(self, n):
        assert dict(weight_exponent_counts(n)) == leaf_walk_counts(n)

    def test_largest_default_size_is_pinned(self):
        counts = weight_exponent_counts(8)
        assert sum(counts.values()) == double_factorial(15) == 2_027_025
        assert max(counts) == 56
        # the bracket product is consulted here, on the test side, only
        closed = q_double_factorial(8).coefficients
        assert [counts.get(w, 0) for w in range(len(closed))] == list(closed)

    def test_walk_calls_no_bracket_algebra(self, monkeypatch):
        calls = Counter()

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in ("q_bracket", "q_double_factorial"):
            wrapped = counting(name, getattr(qcore, name))
            monkeypatch.setattr(qcore, name, wrapped)
            # also where pairings would see a name imported from qcore
            monkeypatch.setattr(pairings, name, wrapped, raising=False)
        monkeypatch.setattr(QPolynomial, "__mul__",
                            counting("__mul__", QPolynomial.__mul__))
        q_double_factorial.cache_clear()    # no cached product may hide a call
        weight_exponent_counts.cache_clear()
        assert sum(weight_exponent_counts(8).values()) == 2_027_025
        assert not calls, dict(calls)

    def test_limit_still_refuses_beyond_eight(self):
        with pytest.raises(ResourceLimitError):
            weight_exponent_counts(9)


class TestWeightedSum:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_equals_q_double_factorial(self, n):
        assert weighted_pairing_sum(n) == q_double_factorial(n)

    def test_q_one_degenerates_to_plain_count(self):
        for n in range(1, 6):
            assert weighted_pairing_sum(n).eval(Fraction(1)) == double_factorial(2 * n - 1)
