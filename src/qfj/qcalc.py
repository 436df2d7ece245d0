"""Functional q-calculus: q-derivative, Jackson integrals, and the two
q-exponential series, with controlled truncation.

Two evaluation regimes coexist. Exact mode keeps every operation in rational
arithmetic and always sums the full term budget. Float series stop once a
term falls to FLOAT_TAIL_TOLERANCE of the partial sum, float node sums once a
guaranteed tail bound does (qgauss._bounded_node_sum); a black-box Jackson
integral spends its budget. Every E_p, e_p or c(q) series not summed by the
float _entire_sum goes through the one summer here, from its ratio (_QSeries).
Polynomial integrands bypass node summation entirely: a Jackson integral of
x^t over [0, b] has the closed form b^(t+1)/[t+1]_q, so identity-level tests
never depend on truncation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import count, islice
from typing import Callable, NamedTuple, Union

from .errors import (DivergenceError, DomainError, EvaluationError, ResourceLimitError,
                     TruncationError)
from .qcore import Frozen, QParam, QPolynomial, as_fraction, index

Real = Union[int, Fraction, float]

_MIN_FLOAT = 1e-300  # guards relative-size tests against a zero running sum
FLOAT_TAIL_TOLERANCE = 1e-30  # float loops stop at a term or tail bound this far below the sum
_SCAN_LIMIT = 200_000  # longest log-magnitude scan behind a TruncationError hint
EXACT_DIGIT_LIMIT = 400_000  # digits of the largest term an exact series sum may build


class TruncationPolicy(Frozen):
    """How infinite series and node sums are cut off.

    max_terms is the hard budget. Float mode may stop earlier, once a series
    term or a node sum's tail bound is at most FLOAT_TAIL_TOLERANCE times the
    partial sum; exact mode always spends the full budget.
    """

    _fields = ("max_terms", "mode")

    def __init__(self, max_terms: int = 512, mode: str = "float"):
        if mode not in ("exact", "float"):
            raise DomainError(f"mode must be 'exact' or 'float', got {mode!r}")
        self._set(index(max_terms, "max_terms", 1), mode)

    @classmethod
    def exact(cls, max_terms: int) -> "TruncationPolicy":
        return cls(max_terms=max_terms, mode="exact")

    @classmethod
    def floating(cls, max_terms: int = 512) -> "TruncationPolicy":
        return cls(max_terms=max_terms, mode="float")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"


DEFAULT_POLICY = TruncationPolicy()


class QuadratureResult(NamedTuple):
    """Value of a truncated Jackson sum plus diagnostics.

    residual is |last included term| times the (1-q)b node weight, not a tail
    bound; terms_used is 0 for closed-form polynomial paths.
    """

    value: Real
    terms_used: int
    residual: Real

    def __float__(self):
        return float(self.value)


XPoly = QPolynomial  # integrand polynomials in x share the dense exact class

RealFunction = Union[Callable[[Real], Real], QPolynomial]


def q_derivative(f: RealFunction, x: Real, q: QParam) -> Real:
    """(f(qx) - f(x)) / ((q-1)x). Undefined at x = 0: no limit is taken."""
    if x == 0:
        raise DomainError("q_derivative is undefined at x = 0")
    qv = q.value if not isinstance(x, float) else q.as_float
    return (f(qv * x) - f(x)) / ((qv - 1) * x)


def _closed_form_jackson(p: QPolynomial, b, q: QParam) -> QuadratureResult:
    # integral of x^t over [0, b] is b^(t+1) / [t+1]_q, in b's arithmetic
    if isinstance(b, float):
        qv = q.as_float
    else:
        b, qv = as_fraction(b, "integration bound"), q.value
    total = bracket = b * 0
    power = 1
    bpow = b
    for c in p.coefficients:
        bracket += power
        power *= qv
        total += c * bpow / bracket
        bpow *= b
    return QuadratureResult(total, 0, total * 0)


def jackson_integral(f: RealFunction, b: Real, q: QParam,
                     trunc: TruncationPolicy = DEFAULT_POLICY) -> QuadratureResult:
    """Truncated Jackson integral (1-q) b sum_n q^n f(q^n b) over [0, b].

    Polynomial integrands are integrated in closed form (exact, no truncation).
    A black-box callable has no envelope to bound its tail, so it gets the
    full budget in either mode, ending early only where a float node q^n b
    underflows to 0.0 (f(0) is never evaluated). A non-finite float value at
    a node raises EvaluationError carrying the node index.
    """
    if not (b > 0):
        raise DomainError(f"integration bound must be positive, got {b!r}")
    if isinstance(f, QPolynomial):
        return _closed_form_jackson(f, b, q)
    exact = trunc.is_exact
    if exact:
        b, qv = as_fraction(b, "integration bound"), q.value
    else:
        b, qv = float(b), q.as_float
    total = term = b * 0
    weight = 1         # q^n
    x = b
    used = 0
    for n in range(trunc.max_terms):
        if x == 0:
            break
        if exact:
            v = as_fraction(f(x), "integrand value")
        else:
            v = float(f(x))
            if not math.isfinite(v):
                raise EvaluationError(f"integrand returned non-finite value at node {n}", n)
        term = weight * v
        total += term
        used = n + 1
        weight *= qv
        x *= qv
    scale = (1 - qv) * b
    return QuadratureResult(scale * total, used, abs(scale * term))


def jackson_integral_symmetric(f: RealFunction, b: Real, q: QParam,
                               trunc: TruncationPolicy = DEFAULT_POLICY) -> QuadratureResult:
    """Jackson integral over [-b, b], as the [0,b] part plus the reflected part."""
    if isinstance(f, QPolynomial):
        reflected = f.reflect()
    else:
        reflected = lambda x: f(-x)
    plus = jackson_integral(f, b, q, trunc)
    minus = jackson_integral(reflected, b, q, trunc)
    return QuadratureResult(plus.value + minus.value,
                            plus.terms_used + minus.terms_used,
                            plus.residual + minus.residual)


def _growing_terms(s, q) -> float:
    """About how many terms of sum_n x^n / [n]_q! grow before they decay, at
    s = |x|(1-q) < 1: while q^(n+1) > 1 - s. An exact q whose float is 0.0
    takes log q from its integers, one whose float is 1.0 as -(1-q)."""
    log_rest, qf = math.log(max(1 - s, _MIN_FLOAT)), float(q)
    if 0.0 < qf < 1.0:
        return log_rest / math.log(qf)
    if qf == 0.0:
        return log_rest / (math.log(q.numerator) - math.log(q.denominator))
    return float(min(s / (1 - q), 10 ** 300)) * (log_rest / -float(s) if s > 1e-9 else 1.0)


def _finite(x: Real) -> float:
    xf = float(x)
    if not math.isfinite(xf):
        raise DomainError(f"argument must be finite, got {xf!r}")
    return xf


def e_q(x: Real, q: QParam, trunc: TruncationPolicy = DEFAULT_POLICY) -> Real:
    """The q-exponential sum_n x^n / [n]_q!.

    Converges exactly for |x| < 1/(1-q): at or beyond that radius it raises
    DivergenceError before summing. Inside it the terms grow for about
    h = log(1-s)/log q steps (s = |x|(1-q)) before they decay, so a budget
    with max(2, max_terms // 2) <= h is refused up front with
    TruncationError naming about 2h terms. A float sum whose terms overflow
    float range inside the radius raises EvaluationError; exact mode gives
    the value. A float argument that is not finite raises DomainError.
    """
    exact = trunc.is_exact and not isinstance(x, float)
    xv, qv = (as_fraction(x, "argument"), q.value) if exact else (_finite(x), q.as_float)
    s = abs(xv) * (1 - qv)
    if s >= 1:
        raise DivergenceError(
            f"e_q series diverges at x={x!r}, q={q}: |x| is not inside the radius 1/(1-q)")
    hump = _growing_terms(s, qv)
    if hump >= max(2, trunc.max_terms // 2):
        raise TruncationError(
            f"e_q series at x={x!r}, q={q} grows for about {hump:.0f} terms and "
            f"needs about {math.ceil(2 * hump)} terms to converge, budget is "
            f"{trunc.max_terms}; raise max_terms")
    if exact:
        return _qseries_exact(_QSeries(qv, xv * (1 - qv)), trunc.max_terms, beta=0)
    total = _entire_sum(xv, qv, 1, trunc.max_terms)
    if not math.isfinite(total):
        raise EvaluationError(
            f"e_q at x={x!r}, q={q} overflows float range; use exact mode for its value")
    return total


def _entire_sum(x: float, p: float, growth, max_terms: int) -> float:
    """Float partial sum of sum_n growth^(n(n-1)/2) x^n / [n]_p! (growth = p:
    E_p, growth = 1: e_p), ended by a term n >= 1 with |term| <=
    FLOAT_TAIL_TOLERANCE max(|partial sum|, _MIN_FLOAT)."""
    total = bracket = x * 0
    term = power = g_power = total + 1      # g_power is growth^n
    for n in range(max_terms):
        total += term
        if n >= 1 and abs(term) <= FLOAT_TAIL_TOLERANCE * (
                _MIN_FLOAT if _MIN_FLOAT > (size := abs(total)) else size):
            break
        bracket += power          # [n+1]_p
        power *= p
        term = term * g_power * x / bracket
        g_power *= growth
    return total


# The one q-series summer takes a series as data, t_n = U_n/(1 - w s^n), U_0 =
# 1, U_(n+1)/U_n = z s^n/(1 - s^(n+1)), with s, z and w exact rationals: int,
# Fraction or an unreduced (numerator, denominator) pair. It holds no formula;
# each route passes its own ratio to _qseries_scan (a float walk of log10
# |t_n|), _qseries_forward, _qseries_backward or _qseries_exact.
_QSeries = namedtuple("_QSeries", "s z w", defaults=(0,))


def _ratio(c) -> tuple[int, int]:
    return c if isinstance(c, tuple) else c.as_integer_ratio()


def _qseries_logs(series: _QSeries):
    """log10 |t_n| for n = 0, 1, ...: the logs of s and z come from their
    integers, so a datum whose float underflows still has one; only w s^n and
    s^(n+1) inside 1 - ... are floats, where underflow to 0 does no harm."""
    (sn, sd), (zn, zd), (wn, wd) = map(_ratio, series)
    log_s, s, w = math.log10(sn) - math.log10(sd), sn / sd, wn / wd
    log_z = math.log10(abs(zn)) - math.log10(zd) if zn else -math.inf
    log_u = 0.0
    for n in count():
        power = s ** n
        yield log_u - math.log10(abs(1 - w * power))
        log_u += log_z + n * log_s - math.log10(1 - s * power)


def _qseries_scan(series: _QSeries, budget: int, cutoff: float, what: str, goal: str):
    """(peak, needed, refusal): the largest log10 |t_n| (at least 0), which
    sizes the precision of a cancelling sum; the terms up to the first below
    10^cutoff, of at most max(_SCAN_LIMIT, budget + 1) (None if none comes);
    and the TruncationError for a budget short of that, else None."""
    peak, needed = 0.0, None
    for n, log_term in enumerate(islice(_qseries_logs(series), max(_SCAN_LIMIT, budget + 1))):
        peak = max(peak, log_term)
        if log_term < cutoff:
            needed = n + 1
            break
    if needed is not None and needed <= budget:
        return peak, needed, None
    many = f"about {needed}" if needed else f"more than {_SCAN_LIMIT}"
    return peak, needed, TruncationError(
        f"{what} needs {many} terms {goal}, budget is {budget}; raise max_terms")


def _fixed_start(series: _QSeries, prec: int, terms: int, top: int):
    """(bits, z s^top, s^(top+1), w s^top), the data at 2^bits for a fixed-point
    sum of `terms` terms from term `top`; each c s^n then steps by the small
    ints of s = A/B.

    Error: each step floors a few times by 2^-bits; a stepped power is off by
    about n/(1-s) units forward, and backward its error grows by B/A a step.
    An error made at step n reaches the sum scaled by the term or tail at n,
    at most the terms' peak 10^peak. Guard bits: 32 for the 1/(1-s) factors,
    the bit length of `terms` for the steps, and what B/A loses in `top`
    steps. So the sum is within about 10^peak 2^-prec of the exact partial
    sum; callers size prec past the peak."""
    (a, b), (zn, zd), (wn, wd) = map(_ratio, series)
    a_top, b_top = a ** top, b ** top
    bits = prec + 32 + terms.bit_length() + b_top.bit_length() - a_top.bit_length()
    return (bits, (zn * a_top << bits) // (zd * b_top), (a * a_top << bits) // (b * b_top),
            (wn * a_top << bits) // (wd * b_top))


def _qseries_forward(series: _QSeries, prec: int, terms: int, scale: int):
    """(sum, bits, terms used) in fixed point, the sum an int at 2^bits: the
    terms step forward until the first n >= 1 with |t_n| scale <= max(|sum|,
    1), at most `terms` of them (error and guard bits: _fixed_start)."""
    a, b = _ratio(series.s)
    bits, zs, ss, ws = _fixed_start(series, prec, terms, 0)
    one = 1 << bits
    total, term = 0, one
    for n in range(terms):
        t = (term << bits) // (one - ws) if ws else term
        total += t
        if n and abs(t) * scale <= max(abs(total), one):
            return total, bits, n + 1
        term = term * zs // (one - ss)
        ss, ws, zs = ss * a // b, ws * a // b, zs * a // b
    return total, bits, terms


def _qseries_backward(series: _QSeries, prec: int, terms: int):
    """(sum, bits) of all `terms` terms in fixed point, the sum an int at
    2^bits, summed backward as t_n = 1/(1 - w s^n) + r_n t_(n+1), r_n = z
    s^n/(1 - s^(n+1)): an int numerator/denominator pair shifted each step and
    divided once (error and guard bits: _fixed_start)."""
    a, b = _ratio(series.s)
    bits, zs, ss, ws = _fixed_start(series, prec, terms, terms - 1)
    one = 1 << bits
    num, den = one, one - ws
    for _ in range(terms - 1):
        ws, ss, zs = ws * b // a, ss * b // a, zs * b // a
        odd = one - ws
        scaled = (one - ss) * den >> bits
        num, den = (scaled << bits) + odd * (zs * num >> bits), odd * scaled
        shift = den.bit_length() - bits
        num, den = num >> shift, den >> shift
    return (num << bits) // den, bits


def _qseries_exact(series: _QSeries, terms: int, beta: int = 1) -> Fraction:
    """The first `terms` terms summed exactly, with U_(n+1)/U_n = z s^(beta
    n)/(1 - s^(n+1)): beta = 1 as in _QSeries, 0 for e_p. Nested as t_0 (1 +
    r_0 (1 + ...)), r_n = t_(n+1)/t_n: each step multiplies by a small ratio,
    normalized once, and adds 1. Before that, t_n has at most 1 + n (h(z) +
    h(s) + 1) + (beta+1) n(n-1)/2 h(s) + h(w) + n h(s) + 1 bits, h the bit
    length of a datum's larger part; past EXACT_DIGIT_LIMIT digits,
    ResourceLimitError."""
    (a, b), (zn, zd), (wn, wd) = data = list(map(_ratio, series))
    h, n = [max(abs(c), d).bit_length() for c, d in data], terms - 1
    digits = math.ceil(0.30103 * (1 + n * (h[1] + h[0] + 1) + (beta + 1) * n * (n - 1) // 2
                                  * h[0] + (h[2] + n * h[0] + 1 if wn else 0)))
    if digits > EXACT_DIGIT_LIMIT:
        raise ResourceLimitError(
            f"an exact sum of {terms} series terms would take about {digits} digits, "
            f"over the limit of {EXACT_DIGIT_LIMIT}; lower max_terms or use float mode")
    nested = Fraction(1)
    for j in reversed(range(n)):
        aj, bj = a ** j, b ** j
        ratio = Fraction(zn * aj ** beta * b * bj * b * (wd * bj - wn * aj),
                         zd * bj ** beta * (b * bj - a * aj) * (wd * b * bj - wn * a * aj))
        nested = 1 + ratio * nested
    return nested * wd / (wd - wn)


def _E_q_float_fallback(x: float, q: QParam, trunc: TruncationPolicy) -> float:
    """Euler's product E_q(x) = prod_j (1 + y_j), y_j = (1-q) q^j x (Gasper &
    Rahman (1.3.16)), for negative x beyond the float reciprocal route. No
    term cancels, so the result is accurate to its own size.

    J factors are formed in fixed point from q = a/b and the exact x, so the
    one crossing zero keeps its digits, into an int mantissa times
    2^exponent. The rest, at t = -y_J <= 1/2, is exp(-sum_k t^k/(k (1-q^k))),
    one-signed terms shrinking by at least t; K of them, with t^(K+1) <=
    1e-17 (1-q)(1-t), leave less than 1e-17. J minimizes J + K, and a budget
    below that is refused before any factor is formed.
    """
    budget, one_minus_q = trunc.max_terms, float(1 - q.value)
    a, b = q.value.as_integer_ratio()
    # once 1 - q rounds to 1.0, log1p(-1.0) fails: log q from q's integers
    log_q = math.log1p(-one_minus_q) if one_minus_q < 1 else math.log(a) - math.log(b)
    log_t0 = math.log(-x) + math.log(one_minus_q)

    def cost(j):   # j factors and the tail terms after them, as a real
        log_t = log_t0 + j * log_q
        return j + math.log(1e-17 * one_minus_q * -math.expm1(log_t)) / log_t - 1

    j = max(0, math.ceil((log_t0 + math.log(2)) / -log_q))
    while cost(j + 1) < cost(j):
        j += 1
    needed = max(j + 1, math.ceil(cost(j)))
    if needed > budget:
        raise TruncationError(f"E_q product at x={x!r}, q={q} needs about {needed} terms, "
                              f"budget is {budget}; raise max_terms")
    num, den = x.as_integer_ratio()
    one = 1 << (bits := 128 + b.bit_length())
    t = ((b - a) * -num << bits) // (b * den)     # -y_0 at 2^bits
    mantissa, exponent = one, -bits
    for _ in range(j):
        mantissa *= one - t
        shift = max(mantissa.bit_length() - bits, 0)
        mantissa, exponent, t = mantissa >> shift, exponent + shift - bits, t * a // b
    t = t / one
    tail = sum(t ** k / (k * -math.expm1(k * log_q)) for k in range(1, needed - j + 1))
    halvings, rest = divmod(tail, math.log(2))
    try:
        return math.ldexp(mantissa * math.exp(-rest), exponent - int(halvings))
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def E_q(x: Real, q: QParam, trunc: TruncationPolicy = DEFAULT_POLICY) -> Real:
    """The entire q-exponential sum_n q^(n(n-1)/2) x^n / [n]_q!.

    Float evaluation at a negative argument uses the inverse identity
    E_q^x = 1/e_q^(-x) whenever that series converges within the term
    budget: it sums positive terms only, so no cancellation. Otherwise
    Euler's product, accurate to its own size, or TruncationError when the
    budget cannot reach that. A non-finite float argument raises DomainError.
    """
    if trunc.is_exact and not isinstance(x, float):
        xv, qv = as_fraction(x, "argument"), q.value
        return _qseries_exact(_QSeries(qv, xv * (1 - qv)), trunc.max_terms)
    xf, qf, tol = _finite(x), q.as_float, FLOAT_TAIL_TOLERANCE
    s = -xf * (1.0 - qf)      # |x| over the e_q radius
    if 0.0 < s < 1.0:
        # e_q's series grows for ~log(1-s)/log q terms, then decays at rate s;
        # sum it only when both phases fit the budget (its hump then stays
        # under e_q's refusal). An overflow gives 1/inf = 0.0, right in float.
        hump = _growing_terms(s, qf)
        decay = math.log(tol) / math.log(s)
        if 2.0 * hump + decay <= 0.9 * trunc.max_terms:
            return 1.0 / _entire_sum(-xf, qf, 1, trunc.max_terms)
    if xf < 0:
        return _E_q_float_fallback(xf, q, trunc)
    return _entire_sum(xf, qf, qf, trunc.max_terms)
