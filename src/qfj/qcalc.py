"""Functional q-calculus: q-derivative, Jackson integrals, and the two
q-exponential series, with controlled truncation.

Two evaluation regimes coexist. Exact mode keeps every operation in rational
arithmetic and always sums the full term budget. Float series stop once a
term falls to FLOAT_TAIL_TOLERANCE of the partial sum, float node sums once a
guaranteed tail bound does (qgauss._bounded_node_sum); a black-box Jackson
integral spends its budget.
Polynomial integrands bypass node summation entirely: a Jackson integral of
x^t over [0, b] has the closed form b^(t+1)/[t+1]_q, so identity-level tests
never depend on truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice
from typing import Callable, NamedTuple, Union

from .errors import DivergenceError, DomainError, EvaluationError, TruncationError
from .qcore import Frozen, QParam, QPolynomial, as_fraction, index

Real = Union[int, Fraction, float]

_MIN_FLOAT = 1e-300  # guards relative-size tests against a zero running sum
FLOAT_TAIL_TOLERANCE = 1e-30  # float loops stop at a term or tail bound this far below the sum
_SCAN_LIMIT = 200_000  # longest log-magnitude scan behind a TruncationError hint


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
    s = |x|(1-q) < 1: term n+1 exceeds term n while [n+1]_q < |x|, that is
    while q^(n+1) > 1 - s."""
    return math.log(max(1 - s, _MIN_FLOAT)) / math.log(q)


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
    if trunc.is_exact and not isinstance(x, float):
        xv, qv, tol, floor = as_fraction(x, "argument"), q.value, 0, 0
    else:
        xv, qv, tol, floor = _finite(x), q.as_float, FLOAT_TAIL_TOLERANCE, _MIN_FLOAT
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
    total = _entire_sum(xv, qv, 1, trunc.max_terms, tol, floor)
    if isinstance(total, float) and not math.isfinite(total):
        raise EvaluationError(
            f"e_q at x={x!r}, q={q} overflows float range; use exact mode for its value")
    return total


def _entire_sum(x, p, growth, max_terms: int, tol, floor):
    """Partial sum of sum_n growth^(n(n-1)/2) x^n / [n]_p!: growth = p is the
    entire E_p, growth = 1 the q-exponential e_p.

    Runs in the arithmetic of x and p (Fraction or float alike). A term
    with |term| <= tol * max(|partial sum|, floor) ends the sum; tol = 0 spends
    the whole budget (a zero threshold could only drop exact zeros).
    """
    total = bracket = x * 0
    term = power = g_power = total + 1      # g_power is growth^n
    for n in range(max_terms):
        total += term
        if tol and n >= 1 and abs(term) <= tol * (floor if floor > (size := abs(total)) else size):
            break
        bracket += power          # [n+1]_p
        power *= p
        term = term * g_power * x / bracket
        g_power *= growth
    return total


def _magnitude_scan(log_terms, budget: int, cutoff: float = -45):
    """Walk log10 |term_n| for n = 0, 1, ... until a term falls below
    10^cutoff, for at most max(_SCAN_LIMIT, budget + 1) terms.

    Returns (peak, needed): the largest magnitude (at least that of a leading
    1), which sizes the working precision of a cancelling sum, and the number
    of terms up to the first below 10^cutoff, None if none comes.
    """
    peak = 0.0
    for n, log_term in enumerate(islice(log_terms, max(_SCAN_LIMIT, budget + 1))):
        if log_term > peak:
            peak = log_term
        if log_term < cutoff:
            return peak, n + 1
    return peak, None


def _needs(needed) -> str:
    """The term count a TruncationError names, from _magnitude_scan."""
    return f"about {needed}" if needed else f"more than {_SCAN_LIMIT}"


def _entire_log_terms(x: float, qf: float):
    """log10 |term_n| of the series of E_q at x != 0, for n = 0, 1, ..."""
    log_q = math.log10(qf)
    log_x = math.log10(abs(x))
    log_term = bracket = 0.0
    power = 1.0
    for n in count():
        yield log_term
        bracket += power
        power *= qf
        log_term += n * log_q + log_x - math.log10(bracket)


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
    log_q, log_t0 = math.log1p(-one_minus_q), math.log(-x) + math.log(one_minus_q)

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
    (a, b), (num, den) = q.value.as_integer_ratio(), x.as_integer_ratio()
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
        return _entire_sum(as_fraction(x, "argument"), q.value, q.value, trunc.max_terms, 0, 0)
    xf, qf, tol = _finite(x), q.as_float, FLOAT_TAIL_TOLERANCE
    s = -xf * (1.0 - qf)      # |x| over the e_q radius
    if 0.0 < s < 1.0:
        # e_q's series grows for ~log(1-s)/log q terms, then decays at rate s;
        # sum it only when both phases fit the budget (its hump then stays
        # under e_q's refusal). An overflow gives 1/inf = 0.0, right in float.
        hump = _growing_terms(s, qf)
        decay = math.log(tol) / math.log(s)
        if 2.0 * hump + decay <= 0.9 * trunc.max_terms:
            return 1.0 / _entire_sum(-xf, qf, 1, trunc.max_terms, tol, _MIN_FLOAT)
    if xf < 0:
        return _E_q_float_fallback(xf, q, trunc)
    return _entire_sum(xf, qf, qf, trunc.max_terms, tol, _MIN_FLOAT)
