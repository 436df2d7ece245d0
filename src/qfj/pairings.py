"""Ordered pairings on {1,...,2n} and their q-weights.

An ordered pairing splits {1,...,2n} into n pairs (a_i, b_i) with a_i < b_i
and a_1 < a_2 < ... < a_n. Its weight is q^W where W counts, for each pair,
the elements strictly between a_i and b_i that are not right endpoints of an
earlier pair. Summed over all (2n-1)!! pairings, the weights reproduce the
product of the first n odd q-brackets; that identity is the combinatorial
backbone of the graph-sum modules and is kept as an enumeration (never the
closed form) on this side of every cross-check.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import ResourceLimitError, ValidationError
from .qcore import Frozen, QPolynomial, index

# Largest n enumerated: (2*8-1)!! = 2,027,025 pairings. It bounds every
# function here and the qgraphs blocks; the histogram of
# weight_exponent_counts visits at most F(2n+1) = 1,597 masks at this n.
DEFAULT_LIMIT = 8


class OrderedPairing(Frozen):
    """Pairs ((a_1,b_1),...,(a_n,b_n)) partitioning {1,...,2n}; may be empty."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        pairs = tuple((int(a), int(b)) for a, b in pairs)
        self._set(pairs)
        seen: set[int] = set()
        previous_a = 0
        for a, b in pairs:
            if a >= b:
                raise ValidationError(f"pair ({a},{b}) must have a < b")
            if a <= previous_a:
                raise ValidationError("left endpoints must be strictly increasing")
            previous_a = a
            seen.update((a, b))
        n = len(pairs)
        if len(seen) != 2 * n or (pairs and (min(seen) != 1 or max(seen) != 2 * n)):
            raise ValidationError(f"entries must be exactly 1..{2 * n} with no repetition")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)

    def __str__(self):
        return "".join(f"({a},{b})" for a, b in self.pairs) or "()"


def _check_n(n: int) -> int:
    """n, once it is an index within the enumeration limit."""
    if index(n, "n") > DEFAULT_LIMIT:
        raise ResourceLimitError(
            f"n={n} exceeds the enumeration limit {DEFAULT_LIMIT} "
            f"({2 * DEFAULT_LIMIT} elements, "
            f"{math.prod(range(1, 2 * DEFAULT_LIMIT, 2))} pairings)")
    return n


def iter_pairings(n: int) -> Iterator[OrderedPairing]:
    """Lazily generate all ordered pairings of {1,...,2n}, lexicographically.

    Always pairing the smallest unpaired element first makes a_1 = 1 and the
    sorted-left-endpoint invariant hold by construction, and yields each
    pairing exactly once, so each is built without OrderedPairing's checks.
    n = 0 yields the empty pairing, once.
    """
    _check_n(n)

    def rec(available: tuple[int, ...], acc: tuple[tuple[int, int], ...]):
        if not available:
            pairing = object.__new__(OrderedPairing)
            pairing._set(acc)
            yield pairing
            return
        a = available[0]
        rest = available[1:]
        for i, b in enumerate(rest):
            yield from rec(rest[:i] + rest[i + 1:], acc + ((a, b),))

    yield from rec(tuple(range(1, 2 * n + 1)), ())


def enumerate_pairings(n: int) -> list[OrderedPairing]:
    """All (2n-1)!! ordered pairings as a list, in lexicographic order."""
    return list(iter_pairings(n))


def weight(p: OrderedPairing) -> QPolynomial:
    """The monomial q^W for a pairing.

    W sums, over pairs in left-endpoint order, the number of elements strictly
    inside (a_i, b_i) that are not right endpoints of an earlier pair.
    """
    exponent = 0
    earlier_rights: set[int] = set()
    for a, b in p.pairs:
        gap = set(range(a + 1, b)) - earlier_rights
        exponent += len(gap)
        earlier_rights.add(b)
    return QPolynomial.monomial(exponent)


@lru_cache(maxsize=None)
def weight_exponent_counts(n: int) -> Mapping[int, int]:
    """Histogram {W: number of pairings on [2n] with weight exponent W}.

    Walks the same smallest-first recursion as iter_pairings over bitmasks of
    still-unpaired elements: because the current left endpoint a is the
    smallest unpaired element, the gap contribution of a new pair (a, b) is
    exactly the number of still-unpaired elements between a and b. The
    histogram of W over all ways to finish pairing a mask is the sum, over
    the partners b, of the remainder's histogram shifted by that gap, and it
    is memoized per mask, so the walk visits at most F(2n+1) masks (1,597 at
    n = 8) instead of (2n-1)!! leaves. The memo is keyed by the mask itself,
    never by its size: collapsing by size would be the [2n-1]_q recurrence
    this enumeration exists to check. Cached per n; n = 0 gives the
    empty-pairing histogram {0: 1}.
    """
    _check_n(n)
    # memo[mask] = histogram as a list: entry w counts the ways to finish
    # pairing the elements of mask with weight exponent w
    memo: dict[int, list[int]] = {0: [1]}

    def finish(available: int) -> list[int]:
        counts = memo.get(available)
        if counts is not None:
            return counts
        counts = []
        a_bit = available & -available
        rest = available ^ a_bit
        bb = rest
        while bb:
            b_bit = bb & -bb
            # b_bit - (a_bit << 1) masks the elements strictly between a and b
            gap = (available & (b_bit - (a_bit << 1))).bit_count()
            tail = finish(rest ^ b_bit)
            counts.extend([0] * (gap + len(tail) - len(counts)))   # [] if long enough
            for w, count in enumerate(tail, gap):
                counts[w] += count
            bb ^= b_bit
        memo[available] = counts
        return counts

    return MappingProxyType({w: count for w, count in enumerate(finish((1 << 2 * n) - 1))
                             if count})


def weighted_pairing_sum(n: int) -> QPolynomial:
    """Sum of q^W over all ordered pairings of {1,...,2n}, as an exact polynomial.

    n = 0 is the empty pairing with weight 1, matching weight_exponent_counts.
    """
    counts = weight_exponent_counts(n)
    coeffs = [0] * (max(counts) + 1)
    for exponent, count in counts.items():
        coeffs[exponent] = count
    return QPolynomial(tuple(coeffs))
