"""The q-Gaussian measure: kernel, integration bound, normalization constant,
and moments by closed form and by Jackson integration.

The measure lives on [-nu, nu] with nu = 1/sqrt(1-q). nu itself is irrational,
but nu^2 = 1/(1-q) is rational and every even integrand evaluated at a Jackson
node depends on x only through x^2 = q^(2m) nu^2, so exact-mode integration
never leaves the rationals. The sqrt(1-q) surd carried by the normalization
constant cancels against the one produced by the integral, which is why
normalized moments come out as plain rationals.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .errors import DomainError, TruncationError
from .qcalc import (DEFAULT_POLICY, FLOAT_TAIL_TOLERANCE, E_q, TruncationPolicy, _QSeries,
                    _finite, _qseries_backward, _qseries_exact, _qseries_scan)
from .qcore import QParam, QScalar, as_fraction, index, q_double_factorial, QPolynomial

PER_Q_CACHE_SIZE = 256  # entries in each per-q memo: a few q values' worth
NODE_KERNEL_DOUBLES = 1 << 20  # floats held by _node_kernels in all: 8 MiB
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)  # c(q) at the classical limit q -> 1
MOMENT_TOLERANCE = 1e-8  # quadrature moments and their ratios vs closed forms


def kernel_eval_x2(x_squared, q: QParam,
                   trunc: TruncationPolicy = DEFAULT_POLICY):
    """Gaussian kernel as a function of x^2.

    The kernel is the entire series sum_n (-1)^n q^(n(n+1)) x^(2n) /
    ((1+q)^n [n]_{q^2}!), that is E_{q^2}(-q^2 x^2 / [2]_q). Exact mode sums
    it directly in rationals. Float mode goes through E_q's negative-argument
    route: the reciprocal 1/e_{q^2}(q^2 x^2 / [2]_q), a positive-term series
    with no cancellation, wherever it converges within the budget (every
    node of the [-nu, nu] grid lies inside the e_{q^2} radius), and Euler's
    product elsewhere. A float x^2 that is not finite raises DomainError.
    """
    if trunc.is_exact and not isinstance(x_squared, float):
        qv, x_squared = q.value, as_fraction(x_squared, "x^2")
    else:
        qv, x_squared = q.as_float, _finite(x_squared)
    return E_q(-(qv * qv * x_squared / (1 + qv)), q.squared, trunc)


def kernel_eval(x, q: QParam, trunc: TruncationPolicy = DEFAULT_POLICY):
    """Gaussian kernel at x; even in x, kernel(0) = 1."""
    return kernel_eval_x2(x * x, q, trunc)


class NormalizationResult(NamedTuple):
    """c(q) in the form r * sqrt(1-q).

    surd_value holds the exact rational r in exact mode and is None in float
    mode, where only float_value is meaningful.
    """

    surd_value: QScalar | None
    float_value: float
    method: str
    terms_used: int


_METHODS = ("double_sum", "interchanged_sum")


def _interchanged_series(qv: Fraction, n: int = 0, damping=1) -> _QSeries:
    """damping^j T_j(n), T_j(n) = (-1)^j q^(j(j+1)) / ((1-q^(2n+2j+1))
    prod_{i<=j} (1-q^(2i))), as summer data: U_j = T_j(n) (1-q^(2n+2j+1)) has
    ratio -damping q^(2j+2)/(1-q^(2j+2)). T_j(0) are the c(q) series' terms."""
    q_sq = qv * qv
    return _QSeries(q_sq, -damping * q_sq, qv ** (2 * n + 1))


def _interchanged_c_mp(qv: Fraction, max_terms: int, extra_dps: int = 0) -> tuple[Fraction, int]:
    """c(q) by the single-index series in adaptive precision, as (value,
    terms_used), the value a dyadic Fraction that float() rounds correctly.
    The terms peak far above the sum near q = 1 (1e100 at q = 0.999): a scan
    sizes the precision, peak + 60 digits, and the terms, up to the first
    below 1e-45 (10^-(extra_dps + 25) for a finer sum), or refuses the budget."""
    peak, needed, refusal = _qseries_scan(
        _interchanged_series(qv), max_terms, -(extra_dps + 25) if extra_dps else -45,
        f"normalization series at q={qv}", "to converge")
    if refusal:
        raise refusal
    return _interchanged_sum(qv, needed, max(30, int(peak) + 60) + extra_dps), needed


def _sqrt_one_minus(qv: Fraction, bits: int) -> int:
    """sqrt(1-q) at 2^-bits, rounded down: the isqrt of (1-q) 4^bits."""
    return math.isqrt(((qv.denominator - qv.numerator) << 2 * bits) // qv.denominator)


@lru_cache(maxsize=PER_Q_CACHE_SIZE)
def _interchanged_sum(qv: Fraction, needed: int, dps: int) -> Fraction:
    """The first `needed` terms of the c(q) series, times 2 sqrt(1-q), as
    v / 2^bits: summed backward by _qseries_backward at mpmath's precision for
    `dps` digits, within 10^peak 2^-prec, and sqrt(1-q) by isqrt at 2^-bits.
    Keyed by the exact q: two q with the same float have different sums."""
    prec = round((dps + 1) * 3.3219280948873626)   # mpmath's bits for dps digits
    total, bits = _qseries_backward(_interchanged_series(qv), prec, needed)
    return Fraction(2 * _sqrt_one_minus(qv, bits) * total >> bits, 1 << bits)


def _bounded_node_sum(nodes, budget: int, tol, what: str, refusal=None):
    """The one bounded Jackson node sum. Returns (sum, nodes used).

    `nodes` yields one (term, tail) pair per node m = 0, 1, ...; tail is a
    guaranteed bound on |sum of all later terms|. Pairs are drawn lazily, so
    a node is evaluated only when it is summed, and at most `budget` are.

    The sum stops at the first m >= 2 with tail <= tol * |sum|, never on the
    last term: near q = 1 the first nodes can sit where the integrand is
    below float resolution, and noise-scale terms pass any relative test long
    before the true contributions are summed. A budget that ends with the
    tail above 1e-11 of the sum raises TruncationError naming `what`: a guard
    coarser than tol, which would false-alarm near q = 1, yet fine enough to
    keep a returned c(q) < 2.51 within 2.6e-11 of the full sum.

    `refusal`, when a route can prove one, is (floor, tail): a lower bound on
    tail/|sum| after `budget` nodes that holds whatever the node values, and
    the tail bound there. A floor above both tol and 1e-11 (by a 1 % margin
    for rounding) can neither stop nor pass the guard, so the budget is
    refused before any node is evaluated.
    """
    total = tail = 0.0
    if refusal is not None and refusal[0] > 1.01 * max(tol, 1e-11):
        tail = refusal[1]
    else:
        for m, (term, tail) in zip(range(budget), nodes):
            total += term
            if m >= 2 and tail <= tol * abs(total):
                return total, m + 1
    if tail > 1e-11 * abs(total):
        raise TruncationError(
            f"{what} leaves a tail bounded by {float(tail):.3e} after {budget} nodes; "
            f"raise max_terms")
    return total, budget


# float kernels at the Jackson nodes x_m^2 = q^(2m) nu^2, one array('d') per
# (exact q, budget): E_q picks its route from the budget, and a float64
# round-trips the array exactly. _node_sum keeps at most NODE_KERNEL_DOUBLES.
_node_kernels: dict[tuple[Fraction, int], array] = {}


def _node_sum(n: int, q: QParam, trunc: TruncationPolicy):
    """Jackson node sum of x^(2n) * kernel over [0, nu], without the (1-q) nu
    node weight: sum_m q^m x_m^(2n) kernel(x_m^2) at x_m^2 = q^(2m) nu^2.
    Returns (sum, nodes used).

    Exact mode sums the full budget, M = max_terms nodes of the M-term kernel,
    by kernel term j and without evaluating a kernel: the nodes of term j are
    geometric in q^(2n+2j+1), so the sum is
    nu^(2n) sum_{j<M} T_j(n) (1 - q^((2n+2j+1)M)) (see _interchanged_series).

    Float mode sums node by node in _bounded_node_sum with the tail bound
    q^m x_m^(2n) d/(1-d), d = q^(2n+1) (the kernel is at most 1 on the
    support, so after M nodes it is at least d^M of the sum). Every n steps
    through the same x_m^2, so each node's kernel_eval_x2 is evaluated once
    per process per (exact q, budget) and read back from _node_kernels by
    every later sum. The store is read when the first node is drawn, so a
    refused budget touches nothing, and an entry grows only as far as a sum
    reads. A new key whose budget would take the store past
    NODE_KERNEL_DOUBLES empties it first, and an entry grows only into the
    room left when its sum starts, so the store never holds more.
    """
    budget = trunc.max_terms
    if trunc.is_exact:
        qv = q.value
        rectangle = (_qseries_exact(_interchanged_series(qv, n), budget)
                     - qv ** ((2 * n + 1) * budget) * _qseries_exact(
                         _interchanged_series(qv, n, qv ** (2 * budget)), budget))
        return rectangle / (1 - qv) ** n, budget
    qv = q.as_float
    decay = qv ** (2 * n + 1)
    nu2 = 1 / (1 - qv)

    def nodes():
        key, held = (q.value, budget), sum(map(len, _node_kernels.values()))
        if key not in _node_kernels and held + budget > NODE_KERNEL_DOUBLES:
            _node_kernels.clear()
            held = 0
        kernels = _node_kernels.setdefault(key, array("d"))
        room = NODE_KERNEL_DOUBLES - held + len(kernels)    # the most this entry holds
        weight, x2 = 1, nu2
        for m in count():
            if m < len(kernels):
                kernel = kernels[m]
            else:
                kernel = kernel_eval_x2(x2, q, trunc)
                if m < room:
                    kernels.append(kernel)
            envelope = weight * x2 ** n
            yield envelope * kernel, envelope * decay / (1 - decay)
            weight *= qv
            x2 *= qv * qv

    floor = decay ** budget
    return _bounded_node_sum(nodes(), budget, FLOAT_TAIL_TOLERANCE,
                             f"node sum of x^{2 * n} * kernel at q={q}",
                             (floor, nu2 ** n * floor / (1 - decay)))


def c_of_q(q: QParam, trunc: TruncationPolicy = DEFAULT_POLICY,
           method: str = "interchanged_sum") -> NormalizationResult:
    """Normalization constant c(q), as r * sqrt(1-q).

    interchanged_sum is the production route (single summation index, obtained
    by summing the double series in closed form per power); double_sum is the
    verification oracle that integrates the kernel node by node. Float mode of
    the interchanged route runs in adaptive precision because of cancellation
    near q = 1; the double sum has positive terms and stays in float64. Exact
    mode sums both by kernel term; its float_value is r sqrt(1-q) rounded once,
    and inf only past float range.
    """
    if method not in _METHODS:
        raise DomainError(f"method must be one of {_METHODS}, got {method!r}")
    qv = q.value
    if method == "double_sum":
        total, used = _node_sum(0, q, trunc)
    elif trunc.is_exact:
        total, used = _qseries_exact(_interchanged_series(qv), trunc.max_terms), trunc.max_terms
    else:
        q.as_float                  # refuses a q with no float strictly inside (0, 1)
        value, used = _interchanged_c_mp(qv, trunc.max_terms)
        return NormalizationResult(None, float(value), method, used)
    if not trunc.is_exact:
        return NormalizationResult(None, 2.0 * math.sqrt(1.0 - q.as_float) * total, method, used)
    # sqrt(1-q) within 2^-80 of itself, then one correctly rounded int division
    r, bits = QScalar(2 * total), 80 + qv.denominator.bit_length()
    try:
        value = r.numerator * _sqrt_one_minus(qv, bits) / (r.denominator << bits)
    except OverflowError:
        value = math.inf if r > 0 else -math.inf
    return NormalizationResult(r, value, method, used)


def moment_closed_form(n: int) -> QPolynomial:
    """The 2n-th normalized moment: the product of the first n odd brackets."""
    return q_double_factorial(n)


def moment_by_integration(k: int, q: QParam,
                          trunc: TruncationPolicy = DEFAULT_POLICY):
    """k-th normalized moment by symmetric Jackson integration of kernel * x^k.

    Odd k is exactly zero (odd integrand against an even kernel over a
    symmetric interval), so nothing is integrated. Even k = 2n
    reduces to nodes in x^2, so exact mode returns a plain Fraction: the
    sqrt(1-q) from the integral cancels against the one in c(q), both taken
    at the same truncation. A budget too short for the node sum raises
    TruncationError (see _node_sum).
    """
    if index(k, "k") % 2 == 1:
        return Fraction(0) if trunc.is_exact else 0.0
    total, _ = _node_sum(k // 2, q, trunc)
    c = c_of_q(q, trunc, "interchanged_sum")
    if trunc.is_exact:
        # integral = 2 sqrt(1-q) * total, c(q) = r sqrt(1-q): surds cancel
        return 2 * total / c.surd_value
    return 2.0 * math.sqrt(1.0 - q.as_float) * total / c.float_value
