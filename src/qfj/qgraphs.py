"""Graph-sum form of the perturbative series.

Each series term is recast as a sum over decorated graphs: a graph is a choice
of c two-valent kernel insertions, dprime cubic vertices, a k-subset sigma of
the dprime+k deformation slots, and an ordered pairing of the 2c+3*dprime
flags. The graph weight omega_q divided by the symmetry-like factor a_q,
summed over graphs, reproduces the closed-form series coefficient. The two
routes share no code: graph values come from enumerating pairings, the series
route from the double-factorial closed form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DomainError, ValidationError
from .pairings import OrderedPairing, iter_pairings, weight, weight_exponent_counts
from .qcore import (Frozen, QParam, QPolynomial, QScalar, binomial, index, q_bracket,
                    q_factorial, q_squared_factorial)


class GraphEncoding(Frozen):
    """One decorated graph contributing to the coefficient of g^dprime."""

    _fields = ("c", "dprime", "k", "sigma", "flag_pairing")

    def __init__(self, c: int, dprime: int, k: int, sigma: tuple, flag_pairing: OrderedPairing):
        self._set(c, dprime, k, sigma, flag_pairing)
        try:
            flags = _block_flags(c, dprime, k)
        except DomainError as exc:
            raise ValidationError(str(exc)) from None
        slots = dprime + k
        if len(sigma) != k:
            raise ValidationError(f"sigma must pick exactly k={k} slots")
        if any(not (1 <= s <= slots) for s in sigma):
            raise ValidationError(f"sigma entries must lie in 1..{slots}")
        if any(a >= b for a, b in zip(sigma, sigma[1:])):
            raise ValidationError("sigma must be strictly increasing")
        if flag_pairing.size != flags:
            raise ValidationError(
                f"pairing covers {flag_pairing.size} flags, expected {flags}")

    @property
    def flags(self) -> int:
        return 2 * self.c + 3 * self.dprime


def _block_flags(c: int, dprime: int, k: int) -> int:
    """Flag count 2c+3*dprime of the (c, dprime, k) block, once its indices
    are checked; pairing the flags checks the enumeration limit."""
    if index(k, "k") > index(c, "c"):
        raise DomainError(f"need k <= c, got k={k}, c={c}")
    if index(dprime, "dprime") % 2 != 0:
        raise DomainError(f"dprime must be even (odd powers of g vanish), got {dprime}")
    return 2 * c + 3 * dprime


def enumerate_graphs(c: int, dprime: int, k: int) -> list[GraphEncoding]:
    """All C(dprime+k, k) * (2c+3*dprime-1)!! graphs in the (c, dprime, k) block.

    Materializes every encoding, so this is only for small blocks; the block
    aggregate graph_block_value walks the same pairing set without building
    the objects.
    """
    flags = _block_flags(c, dprime, k)
    pairing_list = list(iter_pairings(flags // 2)) if flags else [OrderedPairing(())]
    sigmas = list(itertools.combinations(range(1, dprime + k + 1), k))
    return [GraphEncoding(c, dprime, k, sigma, pairing)
            for sigma in sigmas for pairing in pairing_list]


def omega_q(graph: GraphEncoding) -> QPolynomial:
    """Graph weight: (-1)^k q^(2c + (dprime+k)(dprime+k-1)) times the pairing
    weight monomial."""
    shift = 2 * graph.c + (graph.dprime + graph.k) * (graph.dprime + graph.k - 1)
    sign = QPolynomial.monomial(shift, (-1) ** graph.k)
    return sign * weight(graph.flag_pairing)


def a_q(graph: GraphEncoding) -> QPolynomial:
    """Denominator factor [2]^c ([3]!)^dprime [dprime+k]_{q^2}! [c-k]_{q^2}!."""
    return (q_bracket(2) ** graph.c
            * q_factorial(3) ** graph.dprime
            * q_squared_factorial(graph.dprime + graph.k)
            * q_squared_factorial(graph.c - graph.k))


def graph_block_value(c: int, dprime: int, k: int, q: QParam) -> Fraction:
    """Sum of omega_q/a_q over the whole (c, dprime, k) block, exactly.

    The pairing sum enters through the enumerated weight-exponent histogram,
    not the double-factorial identity, so agreement with the closed-form
    series term is an actual check of that identity inside the series.
    """
    flags = _block_flags(c, dprime, k)
    qv = q.value
    counts = weight_exponent_counts(flags // 2)
    pairing_sum = sum((count * qv ** exponent for exponent, count in counts.items()),
                      Fraction(0))
    shift = 2 * c + (dprime + k) * (dprime + k - 1)
    slots = dprime + k
    denominator = (q_bracket(2).eval(qv) ** c
                   * q_factorial(3).eval(qv) ** dprime
                   * q_squared_factorial(slots).eval(qv)
                   * q_squared_factorial(c - k).eval(qv))
    numerator = (Fraction((-1) ** k * binomial(slots, k))
                 * qv ** shift * pairing_sum)
    return numerator / denominator


def graph_sum_coefficient(m: int, q: QParam, max_c: int = 4) -> QScalar:
    """Coefficient of g^m assembled purely from graph blocks.

    Matches fj_coefficient(m, q, max_c) exactly term by term when both use
    the same max_c. Odd m has no graphs (odd flag count cannot be paired).
    """
    index(max_c, "max_c")
    if index(m, "m") % 2 == 1:
        raise DomainError(
            f"g^{m} has no graphs: 2c+3m is odd, so the flags cannot be paired")
    return QScalar(sum(graph_block_value(c, m, k, q)
                       for c in range(max_c + 1) for k in range(c + 1)))
