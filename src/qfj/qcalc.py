"""Functional q-calculus: q-derivative, Jackson integrals, and the two
q-exponential series, with controlled truncation.

Two evaluation regimes coexist. Exact mode keeps every operation in rational
arithmetic and always sums the full term budget (the tail tolerance is a
float-mode concept). Float mode stops early once terms fall below the relative
tail tolerance. Polynomial integrands bypass node summation entirely: a
Jackson integral of x^t over [0, b] has the closed form b^(t+1)/[t+1]_q, so
identity-level tests never depend on truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import mpmath as mp

from .errors import DivergenceError, DomainError, EvaluationError, TruncationError
from .qcore import QParam, QPolynomial, as_fraction

Real = Union[int, Fraction, float]

_MIN_FLOAT = 1e-300  # guards relative-size tests against a zero running sum
_SCAN_LIMIT = 200_000  # longest log-magnitude scan behind a TruncationError hint


@dataclass(frozen=True)
class TruncationPolicy:
    """How infinite series and node sums are cut off.

    max_terms is the hard budget. relative_tail_tolerance is the float-mode
    early-stopping threshold (a term smaller than tol * |partial sum| ends the
    loop); it is ignored in exact mode, which always spends the full budget.
    """

    max_terms: int = 512
    relative_tail_tolerance: float = 1e-30
    mode: str = "float"

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise DomainError(f"mode must be 'exact' or 'float', got {self.mode!r}")
        if not isinstance(self.max_terms, int) or self.max_terms < 1:
            raise DomainError("max_terms must be a positive integer")
        if self.relative_tail_tolerance < 0:
            raise DomainError("relative_tail_tolerance must be non-negative")

    @classmethod
    def exact(cls, max_terms: int) -> "TruncationPolicy":
        return cls(max_terms=max_terms, relative_tail_tolerance=0.0, mode="exact")

    @classmethod
    def floating(cls, max_terms: int = 512,
                 relative_tail_tolerance: float = 1e-30) -> "TruncationPolicy":
        return cls(max_terms=max_terms, relative_tail_tolerance=relative_tail_tolerance,
                   mode="float")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a truncated Jackson sum plus diagnostics.

    residual is the magnitude of the last included term (with the (1-q)b node
    weight folded in); terms_used is 0 for closed-form polynomial paths.
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
    Black-box callables get the node sum: full budget in exact mode, early
    stop on the relative tail tolerance in float mode. A non-finite float
    value at a node raises EvaluationError carrying the node index.
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
    tol = trunc.relative_tail_tolerance
    total = term = b * 0
    weight = 1         # q^n
    x = b
    used = 0
    for n in range(trunc.max_terms):
        if exact:
            v = as_fraction(f(x), "integrand value")
        else:
            v = float(f(x))
            if not math.isfinite(v):
                raise EvaluationError(f"integrand returned non-finite value at node {n}", n)
        term = weight * v
        total += term
        used = n + 1
        if not exact and n >= 2 and abs(term) <= tol * max(abs(total), _MIN_FLOAT):
            break
        weight *= qv
        x *= qv
    scale = (1 - qv) * b
    return QuadratureResult(scale * total, used, abs(scale * term))


def jackson_integral_symmetric(f: RealFunction, b: Real, q: QParam,
                               trunc: TruncationPolicy = DEFAULT_POLICY,
                               parity: str | None = None) -> QuadratureResult:
    """Jackson integral over [-b, b], as the [0,b] part plus the reflected part.

    The caller may declare the integrand's parity: "odd" returns exact zero
    without evaluating anything, "even" returns twice the [0, b] integral.
    """
    if parity not in (None, "even", "odd"):
        raise DomainError(f"parity must be None, 'even' or 'odd', got {parity!r}")
    if parity == "odd":
        zero = Fraction(0) if trunc.is_exact else 0.0
        return QuadratureResult(zero, 0, zero)
    if parity == "even":
        half = jackson_integral(f, b, q, trunc)
        return QuadratureResult(2 * half.value, half.terms_used, 2 * half.residual)
    if isinstance(f, QPolynomial):
        reflected = f.reflect()
    else:
        reflected = lambda x: f(-x)
    plus = jackson_integral(f, b, q, trunc)
    minus = jackson_integral(reflected, b, q, trunc)
    return QuadratureResult(plus.value + minus.value,
                            plus.terms_used + minus.terms_used,
                            plus.residual + minus.residual)


def e_q(x: Real, q: QParam, trunc: TruncationPolicy = DEFAULT_POLICY) -> Real:
    """The q-exponential sum_n x^n / [n]_q!.

    Converges only for |x| < 1/(1-q); divergence is detected heuristically
    (terms growing for max_terms//2 consecutive steps) rather than by a radius
    precondition, so exact boundary inputs are not rejected up front.
    """
    exact = trunc.is_exact and not isinstance(x, float)
    if exact:
        xv = as_fraction(x, "argument")
        qv = q.value
        term = Fraction(1)
        bracket = Fraction(0)
        power = Fraction(1)
    else:
        xv = float(x)
        qv = q.as_float
        term = 1.0
        bracket = 0.0
        power = 1.0
    total = term * 0
    growth_streak = 0
    streak_limit = max(2, trunc.max_terms // 2)
    tol = trunc.relative_tail_tolerance
    for n in range(trunc.max_terms):
        total += term
        if not exact and n >= 1 and abs(term) <= tol * max(abs(total), _MIN_FLOAT):
            break
        bracket += power          # [n+1]_q
        power *= qv
        next_term = term * xv / bracket
        if abs(next_term) > abs(term) and term != 0:
            growth_streak += 1
            if growth_streak >= streak_limit:
                raise DivergenceError(
                    f"e_q series diverging at x={x!r} (|x| outside radius 1/(1-q))")
        else:
            growth_streak = 0
        term = next_term
    return total


def _entire_sum(x, p, max_terms: int, tol, floor):
    """Partial sum of the entire series sum_n p^(n(n-1)/2) x^n / [n]_p!.

    Runs in the arithmetic of x and p (Fraction, float or mpf alike). A term
    with |term| <= tol * max(|partial sum|, floor) ends the sum; tol = 0 spends
    the whole budget (a zero threshold could only drop exact zeros).
    """
    total = bracket = x * 0
    term = power = p_power = total + 1      # p_power is p^n
    for n in range(max_terms):
        total += term
        if tol and n >= 1 and abs(term) <= tol * max(abs(total), floor):
            break
        bracket += power          # [n+1]_p
        power *= p
        term = term * p_power * x / bracket
        p_power *= p
    return total


def _E_q_float_fallback(x: float, q: QParam, trunc: TruncationPolicy) -> float:
    """Alternating direct sum in high precision, for negative arguments where
    the float reciprocal path is unavailable (at or beyond the e_q radius, or
    needing more terms than the budget).

    The sum stops once its terms fall below 1e-45 absolute. If the budget
    ends first, past the peak the terms alternate and shrink, so the first
    omitted term bounds the tail; unless that bound is below float
    resolution of the sum, TruncationError is raised with the needed count.
    """
    qf = q.as_float
    budget = trunc.max_terms
    # scan term magnitudes in log space: the peak sizes the working precision
    peak = log_term = omitted = 0.0
    peak_at = 0
    log_q = math.log10(qf)
    log_x = math.log10(abs(x))
    bracket = 0.0
    power = 1.0
    n = 0
    while log_term >= -45 and n < _SCAN_LIMIT:
        bracket += power
        power *= qf
        log_term += n * log_q + log_x - math.log10(bracket)
        n += 1                    # log_term is now that of term n
        if log_term > peak:
            peak, peak_at = log_term, n
        if n == budget:
            omitted = log_term
    with mp.workdps(int(peak) + 45):
        qm = mp.mpf(q.value.numerator) / q.value.denominator
        total = float(_entire_sum(mp.mpf(x), qm, budget, mp.mpf(10) ** (-45), 1))
    if n >= budget and not (peak_at < budget and total != 0.0
                            and omitted < math.log10(abs(total)) - 16):
        hint = f"about {n + 1}" if log_term < -45 else f"more than {_SCAN_LIMIT}"
        raise TruncationError(
            f"E_q alternating series at x={x!r}, q={q} needs {hint} terms to "
            f"converge, budget is {budget}; raise max_terms")
    return total


def E_q(x: Real, q: QParam, trunc: TruncationPolicy = DEFAULT_POLICY) -> Real:
    """The entire q-exponential sum_n q^(n(n-1)/2) x^n / [n]_q!.

    Float evaluation at a negative argument uses the inverse identity
    E_q^x = 1/e_q^(-x) whenever that series converges within the term
    budget: it sums positive terms only, so no cancellation. Otherwise an
    adaptive high-precision alternating sum takes over, accurate to 1e-45
    absolute, or raising TruncationError when the budget cannot reach that.
    """
    if trunc.is_exact and not isinstance(x, float):
        return _entire_sum(as_fraction(x, "argument"), q.value, trunc.max_terms, 0, 0)
    xf = float(x)
    qf = q.as_float
    tol = trunc.relative_tail_tolerance
    s = -xf * (1.0 - qf)      # |x| over the e_q radius
    if 0.0 < s < 1.0:
        # The reciprocal series grows for ~log(1-s)/log q terms before
        # decaying at asymptotic rate s; take it only when both phases fit
        # the term budget, otherwise the divergence heuristic in e_q trips on
        # the hump or the sum stops short. A zero tolerance stops that float
        # sum only when its terms underflow.
        hump = math.log(1.0 - s) / math.log(qf)
        decay = math.log(max(tol, math.ulp(0.0))) / math.log(s)
        if 2.0 * hump + decay <= 0.9 * trunc.max_terms:
            return 1.0 / e_q(-xf, q, trunc)
    if xf < 0:
        return _E_q_float_fallback(xf, q, trunc)
    return _entire_sum(xf, qf, trunc.max_terms, tol, _MIN_FLOAT)
