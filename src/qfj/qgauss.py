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
from .qcalc import (DEFAULT_POLICY, FLOAT_TAIL_TOLERANCE, E_q, TruncationPolicy,
                    _finite, _magnitude_scan, _needs)
from .qcore import QParam, QScalar, as_fraction, q_double_factorial, QPolynomial

PER_Q_CACHE_SIZE = 256  # entries in each per-q memo: a few q values' worth
NODE_KERNEL_DOUBLES = 1 << 20  # floats held by _node_kernels in all: 8 MiB


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


def _interchanged_log_terms(qf: float):
    """log10 magnitudes of the terms of _interchanged_c_mp, from the float q."""
    log_q = math.log10(qf)
    log_poch = 0.0
    for m in count():
        yield m * (m + 1) * log_q - math.log10(1 - qf ** (2 * m + 1)) - log_poch
        log_poch += math.log10(1 - qf ** (2 * (m + 1)))


def _interchanged_c_mp(qv: Fraction, max_terms: int, extra_dps: int = 0) -> tuple[Fraction, int]:
    """c(q) by the single-index series in adaptive-precision arithmetic.

    Individual terms peak many orders of magnitude above the sum near q = 1
    (about 1e100 at q = 0.999), so the working precision is sized from a
    magnitude scan before summing. Returns (value, terms_used), the value a
    dyadic Fraction that float() rounds correctly (see _interchanged_sum). Raises
    TruncationError when the terms have not fallen below 1e-45 (10^-(extra_dps
    + 25) for a finer sum) within max_terms: an alternating partial sum cut
    mid-hump is pure cancellation noise, not an approximation.

    The scan, the budget check and so the refusal and terms_used are decided
    on every call; the sum itself is memoized per (exact q, working
    precision) in _interchanged_sum, so a process sums each c(q) once.
    """
    cutoff = -(extra_dps + 25) if extra_dps else -45
    peak, needed = _magnitude_scan(_interchanged_log_terms(float(qv)), max_terms, cutoff)
    if needed is None or needed > max_terms:
        raise TruncationError(
            f"normalization series at q={qv} needs {_needs(needed)} terms to converge, "
            f"budget is {max_terms}; raise max_terms")
    return _interchanged_sum(qv, needed, max(30, int(peak) + 60) + extra_dps), needed


@lru_cache(maxsize=PER_Q_CACHE_SIZE)
def _interchanged_sum(qv: Fraction, needed: int, dps: int) -> Fraction:
    """The first `needed` terms of the c(q) series, times 2 sqrt(1-q), to
    `dps` digits, as v / 2^bits. Keyed by the exact Fraction q: two q with the
    same float have different sums.

    The N terms T_j are summed backward as t_j = 1/(1-q^(2j+1)) + r_j t_(j+1),
    U_j = T_j (1-q^(2j+1)), r_j = U_(j+1)/U_j = -q^(2j+2)/(1-q^(2j+2)); t_0 is
    the sum. With q = a/b, t_j is a pair of ints num/den in fixed point at
    `bits` bits, both shifted after each step (only the ratio counts) and
    divided once at the end, times sqrt(1-q) from isqrt at 2^bits; the powers
    step down from q^(2N-1) by b/a, with guard bits for that descent. `bits`
    starts from mpmath's precision for `dps` digits, round((dps+1) log2 10).
    A step's rounding, a few units of 2^-bits (1 + |t_j|), reaches the sum
    times U_j, so at the scale of the term T_j and the tail U_j t_j from j, at
    most about 10^peak: the peak + 60 digits keep 60 past the peak, as they do
    for a forward sum.
    """
    a, b = qv.numerator, qv.denominator
    a_top, b_top = a ** (2 * needed - 1), b ** (2 * needed - 1)
    prec = round((dps + 1) * 3.3219280948873626)   # mpmath's bits for dps digits
    bits = prec + b_top.bit_length() - a_top.bit_length() + needed.bit_length() + 32
    one = 1 << bits
    power = (a_top << bits) // b_top        # q^(2j+1) at j = N - 1
    num, den = one, one - power
    for _ in range(needed - 1):
        even = power * b // a               # q^(2j+2), one j lower
        power = even * b // a               # q^(2j+1)
        odd = one - power
        scaled = (one - even) * den >> bits
        num, den = (scaled << bits) - odd * (even * num >> bits), odd * scaled
        shift = den.bit_length() - bits
        num, den = num >> shift, den >> shift
    root = math.isqrt(((b - a) << 2 * bits) // b)     # sqrt(1-q) at 2^bits
    return Fraction(2 * root * num // den, one)


def _interchanged_nested(qv: Fraction, n: int, terms: int, damping=1) -> Fraction:
    """sum_{j<terms} damping^j T_j(n), T_j(n) = (-1)^j q^(j(j+1)) /
    ((1-q^(2n+2j+1)) prod_{i<=j} (1-q^(2i))), exactly (T_j(0) are the c(q)
    series terms). Summed in the nested form T_0 (1 + r_0 (1 + r_1 (...))),
    r_j = damping T_(j+1)/T_j: each step adds 1 instead of two large Fractions."""
    nested = Fraction(1)
    for j in reversed(range(terms - 1)):
        ratio = (-damping * qv ** (2 * j + 2) * (1 - qv ** (2 * n + 2 * j + 1))
                 / ((1 - qv ** (2 * n + 2 * j + 3)) * (1 - qv ** (2 * j + 2))))
        nested = 1 + ratio * nested
    return nested / (1 - qv ** (2 * n + 1))


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


class _NodeKernels:
    """Float kernel values at the Jackson nodes x_m^2 = q^(2m) nu^2, one
    array('d') per (exact q, budget): E_q picks its route from the budget,
    and a float64 round-trips the array exactly. At most `max_doubles` values
    are held in all; the least recently fetched entries make room, and an
    entry that alone fills the bound stops growing.
    """

    def __init__(self, max_doubles: int):
        self.max_doubles = max_doubles
        self.entries: dict[tuple[Fraction, int], array] = {}
        self.doubles = 0

    def clear(self) -> None:
        self.entries.clear()
        self.doubles = 0

    def entry(self, q: QParam, budget: int) -> array:
        key = (q.value, budget)
        values = self.entries.pop(key, None) or array("d")
        self.entries[key] = values      # most recently fetched last
        return values

    def store(self, values: array, kernel: float) -> float:
        while self.doubles >= self.max_doubles:
            oldest = next(iter(self.entries))
            if self.entries[oldest] is values:
                return kernel
            self.doubles -= len(self.entries.pop(oldest))
        values.append(kernel)
        self.doubles += 1
        return kernel


_node_kernels = _NodeKernels(NODE_KERNEL_DOUBLES)


def _node_sum(n: int, q: QParam, trunc: TruncationPolicy):
    """Jackson node sum of x^(2n) * kernel over [0, nu], without the (1-q) nu
    node weight: sum_m q^m x_m^(2n) kernel(x_m^2) at x_m^2 = q^(2m) nu^2.
    Returns (sum, nodes used).

    Exact mode sums the full budget, M = max_terms nodes of the M-term kernel,
    by kernel term j and without evaluating a kernel: the nodes of term j are
    geometric in q^(2n+2j+1), so the sum is
    nu^(2n) sum_{j<M} T_j(n) (1 - q^((2n+2j+1)M)) (see _interchanged_nested).

    Float mode sums node by node in _bounded_node_sum with the tail bound
    q^m x_m^(2n) d/(1-d), d = q^(2n+1) (the kernel is at most 1 on the
    support, so after M nodes it is at least d^M of the sum). Every n steps
    through the same x_m^2, so each node's kernel_eval_x2 is evaluated once
    per process per (exact q, budget) and read back from _node_kernels by
    every later sum; the entry is fetched when the first node is drawn, so a
    refused budget touches no memo, and it grows only as far as a sum reads.
    """
    budget = trunc.max_terms
    if trunc.is_exact:
        qv = q.value
        rectangle = (_interchanged_nested(qv, n, budget) - qv ** ((2 * n + 1) * budget)
                     * _interchanged_nested(qv, n, budget, qv ** (2 * budget)))
        return rectangle / (1 - qv) ** n, budget
    qv = q.as_float
    decay = qv ** (2 * n + 1)
    nu2 = 1 / (1 - qv)

    def nodes():
        kernels = _node_kernels.entry(q, budget)
        weight, x2 = 1, nu2
        for m in count():
            kernel = (kernels[m] if m < len(kernels) else
                      _node_kernels.store(kernels, kernel_eval_x2(x2, q, trunc)))
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
    mode sums both by kernel term, in nested form (see _interchanged_nested).
    """
    if method not in _METHODS:
        raise DomainError(f"method must be one of {_METHODS}, got {method!r}")
    qv = q.value
    if method == "double_sum":
        total, used = _node_sum(0, q, trunc)
    elif trunc.is_exact:
        total, used = _interchanged_nested(qv, 0, trunc.max_terms), trunc.max_terms
    else:
        q.as_float                  # refuses a q with no float strictly inside (0, 1)
        value, used = _interchanged_c_mp(qv, trunc.max_terms)
        return NormalizationResult(None, float(value), method, used)
    if trunc.is_exact:
        r = QScalar(2 * total)
        return NormalizationResult(r, float(r) * math.sqrt(float(1 - qv)), method, used)
    return NormalizationResult(None, 2.0 * math.sqrt(1.0 - q.as_float) * total, method, used)


def moment_closed_form(n: int) -> QPolynomial:
    """The 2n-th normalized moment: the product of the first n odd brackets."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"moment index must be a non-negative integer, got {n!r}")
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
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"moment index must be a non-negative integer, got {k!r}")
    if k % 2 == 1:
        return Fraction(0) if trunc.is_exact else 0.0
    total, _ = _node_sum(k // 2, q, trunc)
    c = c_of_q(q, trunc, "interchanged_sum")
    if trunc.is_exact:
        # integral = 2 sqrt(1-q) * total, c(q) = r sqrt(1-q): surds cancel
        return 2 * total / c.surd_value
    return 2.0 * math.sqrt(1.0 - q.as_float) * total / c.float_value
