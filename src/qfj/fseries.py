"""Formal power series at fixed exact q: the bivariate expansion coefficients
lambda_{c,d}, the integrand expansion, and the coefficients of the cubic-vertex
perturbative series I(g).

Everything coefficient-level is exact rational arithmetic; the only floats are
in fj_numeric, the end-to-end quadrature oracle that never touches the series
formulas it is used to check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import DomainError, EvaluationError, TruncationError
from .qcalc import (DEFAULT_POLICY, FLOAT_TAIL_TOLERANCE, TruncationPolicy, E_q, _QSeries,
                    _finite, _qseries_forward, _qseries_scan)
from .qcore import Frozen, QParam, QPolynomial, QScalar, index
from .qgauss import PER_Q_CACHE_SIZE, _bounded_node_sum, _interchanged_c_mp, c_of_q


class LambdaTable(Frozen):
    """Expansion coefficients lambda_{c,d} on the rectangle c <= max_c, d <= max_d."""

    _fields = ("values", "max_c", "max_d")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity

    def __init__(self, values: Mapping[tuple[int, int], Fraction], max_c: int, max_d: int):
        self._set(values, max_c, max_d)

    def lam(self, c: int, d: int) -> QScalar:
        if index(c, "c") > self.max_c or index(d, "d") > self.max_d:
            raise DomainError(f"(c,d)=({c},{d}) outside table bounds "
                              f"({self.max_c},{self.max_d})")
        return QScalar(self.values.get((c, d), 0))


def _bracket_product(qv: Fraction, exponents) -> Fraction:
    """prod [n]_q over the given n, at the rational q, with [n]_q = (1-q^n)/(1-q).

    With q = a/b each bracket is (b^n - a^n) / (b^(n-1) (b - a)), so the
    product is two integer products and one normalization.
    """
    a, b = qv.numerator, qv.denominator
    numerator = denominator = 1
    for n in exponents:
        numerator *= b ** n - a ** n
        denominator *= b ** (n - 1) * (b - a)
    return Fraction(numerator, denominator)


def _low_brackets(qv):
    """[2]_q = 1 + q and [3]_q! = (1 + q)(1 + q + q^2), in the arithmetic of
    qv (Fraction, float or mpf)."""
    bracket2 = 1 + qv
    return bracket2, bracket2 * (bracket2 + qv * qv)


@lru_cache(maxsize=PER_Q_CACHE_SIZE)
def _qsq_factorial_at(m: int, qv: Fraction) -> Fraction:
    """[m]_{q^2}! at qv; equals q_squared_factorial(m).eval(qv)."""
    return _bracket_product(qv * qv, range(1, m + 1))


def _lambda_sum(c: int, d: int, qv: Fraction) -> Fraction:
    """lambda_{c,d} at qv: the alternating k-sum
    sum_k (-1)^(c-k) C(d+k,k) q^((d+k)(d+k-1)) / ([d+k]_{q^2}! [c-k]_{q^2}!)."""
    total = Fraction(0)
    for k in range(c + 1):
        total += (Fraction((-1) ** (c - k) * math.comb(d + k, k))
                  * qv ** ((d + k) * (d + k - 1))
                  / (_qsq_factorial_at(d + k, qv) * _qsq_factorial_at(c - k, qv)))
    return total


def lambda_closed_form(c: int, d: int, q: QParam) -> QScalar:
    """Closed form for lambda_{c,d}: the alternating k-sum with sign (-1)^(c-k).

    The k-sum telescopes to zero for d = 0, c >= 1 (only lambda_{0,0} = 1
    survives on that row), matching the series-division oracle.
    """
    return QScalar(_lambda_sum(index(c, "c"), index(d, "d"), q.value))


def lambda_oracle(max_c: int, max_d: int, q: QParam) -> LambdaTable:
    """lambda table computed without the closed form, by series division.

    Divide the bivariate q^2-exponential of x+y by the univariate one in x,
    using the inverse identity: the reciprocal of the entire q^2-exponential
    is the alternating plain q^2-exponential. The product's (c,d) coefficient
    is lambda_{c,d}, so only the products that land in the table are formed:
    each term q^(n(n-1)) C(n,a) / [n]_{q^2}! of x^a y^d (n = a + d) times
    each reciprocal term (-1)^r / [r]_{q^2}! with a + r <= max_c.
    """
    index(max_c, "max_c")
    index(max_d, "max_d")
    qv = q.value
    reciprocal = [(-1) ** r / _qsq_factorial_at(r, qv) for r in range(max_c + 1)]
    values = {(c, d): Fraction(0) for c in range(max_c + 1) for d in range(max_d + 1)}
    for a in range(max_c + 1):
        for d in range(max_d + 1):
            n = a + d
            term = math.comb(n, a) * qv ** (n * (n - 1)) / _qsq_factorial_at(n, qv)
            for r in range(max_c - a + 1):
                values[a + r, d] += term * reciprocal[r]
    return LambdaTable(values, max_c, max_d)


@lru_cache(maxsize=PER_Q_CACHE_SIZE)
def _ddf_at(j: int, qv: Fraction) -> Fraction:
    """[2j-1]!!_q = [1]_q [3]_q ... [2j-1]_q at qv; equals
    q_double_factorial(j).eval(qv)."""
    return _bracket_product(qv, range(1, 2 * j, 2))


def fj_term(c: int, k: int, d: int, q: QParam) -> Fraction:
    """Single (c,k) summand of the g^(2d) series coefficient.

    (-1)^k C(2d+k,k) q^((2d+k)(2d+k-1)+2c) [2(c+3d)-1]!!_q
    / ([2]_q^c ([3]_q!)^(2d) [2d+k]_{q^2}! [c-k]_{q^2}!).
    """
    index(d, "d")
    if index(k, "k") > index(c, "c"):
        raise DomainError(f"need k <= c, got c={c}, k={k}")
    qv = q.value
    bracket2, fact3 = _low_brackets(qv)
    numerator = (Fraction((-1) ** k * math.comb(2 * d + k, k))
                 * qv ** ((2 * d + k) * (2 * d + k - 1) + 2 * c)
                 * _ddf_at(c + 3 * d, qv))
    denominator = (bracket2 ** c * fact3 ** (2 * d)
                   * _qsq_factorial_at(2 * d + k, qv) * _qsq_factorial_at(c - k, qv))
    return numerator / denominator


def _integer_blocks(d: int, qv: Fraction, max_c: int):
    """(numerator, denominator, step) of each block c <= max_c of the g^(2d)
    coefficient at qv = a/b, as unreduced integers; each denominator is step
    times the one before.

    With p = q^2, n = 2d+k and N = c+2d, 1/([n]_p! [c-k]_p!) = [N choose n]_p
    / [N]_p!. With A = a^2 and B = b^2 the G(N,n) = B^(n(N-n)) [N choose n]_p
    are integers, stepped one row per block by the Pascal rule
    G(N,n) = G(N-1,n-1) B^(N-n) + A^n G(N-1,n). Over b^(N(N-1)) the k-sum
    sum_k (-1)^k C(n,k) q^(n(n-1)) [N choose n]_p is A^(d(2d-1)) P_0, by
    Horner from k = c down: P_k = (-1)^k C(n,k) G(N,n) B^((c-k)(c-k-1)/2)
    + A^n P_(k+1). The prefactor of fj_term cancels to a^(2c)
    prod_(i<=c+3d) (b^(2i-1) - a^(2i-1)) / ((b-a)^d (A+ab+B)^(2d)
    prod_(i<=N) (B^i - A^i) b^(c+(c+3d)(c+3d-1)-6d)).
    """
    a, b = qv.numerator, qv.denominator
    A, B = a * a, b * b
    a_pow = [A ** n for n in range(max_c + 2 * d + 1)]
    b_pow = [B ** n for n in range(max_c + 2 * d + 1)]
    # A^(d(2d-1)) prod_(i<=3d) (b^(2i-1) - a^(2i-1)), and the c = 0 denominator
    lead = A ** (d * (2 * d - 1)) * math.prod(b ** (2 * i - 1) - a ** (2 * i - 1)
                                              for i in range(1, 3 * d + 1))
    step = ((b - a) ** d * (A + a * b + B) ** (2 * d) * b ** (9 * d * (d - 1))
            * math.prod(b_pow[i] - a_pow[i] for i in range(1, 2 * d + 1)))
    row, denominator = [1], 1                   # row is G(N, 0..N)
    for N in range(max_c + 2 * d + 1):
        if N:
            row = [1] + [row[n - 1] * b_pow[N - n] + a_pow[n] * row[n]
                         for n in range(1, N)] + [1]
        c, j = N - 2 * d, N + d
        if c < 0:
            continue
        if c:
            power = b ** (2 * j - 1)
            lead *= power - a ** (2 * j - 1)
            step = (b_pow[N] - a_pow[N]) * power
        total, shift = 0, 1                     # shift is B^(t(t-1)/2), t = c-k
        for k in range(c, -1, -1):
            n = 2 * d + k
            term = math.comb(n, k) * row[n] * shift
            total = (-term if k & 1 else term) + a_pow[n] * total
            shift *= b_pow[c - k]
        denominator *= step
        yield a_pow[c] * lead * total, denominator, step


def _series_indices(m: int, max_c: int) -> int:
    """m, once m and max_c are checked as indices: the arguments of every
    g^m coefficient summed over c <= max_c."""
    index(max_c, "max_c")
    return index(m, "m")


def fj_blocks(m: int, q: QParam, max_c: int) -> tuple[QScalar, ...]:
    """Per-c blocks (k summed out) of the g^m series coefficient, for even m.

    Exposed so callers can check stabilization of the partial sums over c;
    for m = 0 every block with c >= 1 is exactly zero.
    """
    if _series_indices(m, max_c) % 2 != 0:
        raise DomainError(f"blocks are defined for even m >= 0, got {m}")
    return tuple(QScalar(numerator, denominator) for numerator, denominator, _
                 in _integer_blocks(m // 2, q.value, max_c))


def _summed_blocks(d: int, qv: Fraction, max_c: int) -> tuple[int, int, int]:
    """(sum, last, denominator): the blocks c <= max_c of the g^(2d)
    coefficient at qv summed as integers over the last block's denominator,
    which every earlier one divides, and the last block's numerator over it.
    Nothing is normalized."""
    total = numerator = denominator = 0
    for numerator, denominator, step in _integer_blocks(d, qv, max_c):
        total = total * step + numerator
    return total, numerator, denominator


def fj_coefficient(m: int, q: QParam, max_c: int = 12) -> QScalar:
    """Coefficient of g^m in the perturbative series I(g).

    Odd m vanish structurally (only even powers of g appear); even m sums the
    per-c blocks up to max_c in one integer pass (_summed_blocks) and
    normalizes once. Always exact.
    """
    if _series_indices(m, max_c) % 2:
        return QScalar(0)
    total, _, denominator = _summed_blocks(m // 2, q.value, max_c)
    return QScalar(total, denominator)


def fj_series(order: int, q: QParam, max_c: int = 12) -> QPolynomial:
    """I(g) through g^order, as a polynomial in g. A zero top coefficient (odd
    order) is stripped, so read A_m by .coefficient(m)."""
    return QPolynomial(tuple(fj_coefficient(m, q, max_c)
                             for m in range(index(order, "order") + 1)))


def integrand_expansion(order_g: int, order_x: int,
                        q: QParam) -> dict[tuple[int, int], Fraction]:
    """The integrand divided by the Gaussian kernel, expanded in x and g, as
    {(x-power, g-power): coefficient} holding the nonzero coefficients.

    Coefficients sit at (x-power, g-power) = (2c+3d, d):
    sum_k (-1)^(2c-k) C(d+k,k) q^((d+k)(d+k-1)+2c)
    / ([2]_q^c ([3]_q!)^d [d+k]_{q^2}! [c-k]_{q^2}!).
    Pairing each x-power with its closed-form moment and summing over c
    reproduces fj_coefficient; that resummation is the internal consistency
    route between the two printed forms of the series.
    """
    index(order_g, "order_g")
    index(order_x, "order_x")
    qv = q.value
    brackets = _low_brackets(qv)
    terms = {(2 * c + 3 * d, d): _expansion_coefficient(c, d, qv, *brackets)
             for d in range(order_g + 1) for c in range((order_x - 3 * d) // 2 + 1)}
    return {key: value for key, value in terms.items() if value}


def _expansion_coefficient(c: int, d: int, qv: Fraction,
                           bracket2: Fraction, fact3: Fraction) -> Fraction:
    """Coefficient of x^(2c+3d) g^d in integrand_expansion:
    (-1)^c q^(2c) lambda_{c,d} / ([2]_q^c ([3]_q!)^d)."""
    return (-1) ** c * qv ** (2 * c) * _lambda_sum(c, d, qv) / (bracket2 ** c * fact3 ** d)


def fj_coefficient_via_moments(m: int, q: QParam, max_c: int = 12) -> QScalar:
    """g^m series coefficient by the moment-resummation route.

    Expands the integrand over the kernel, integrates monomials with the
    closed-form moments (odd x-powers drop), and sums. Agrees exactly with
    fj_coefficient at matched max_c; the two routes start from different
    printed forms, so the equality is a real cross-check.
    """
    if _series_indices(m, max_c) % 2 == 1:
        return QScalar(0)
    qv = q.value
    # only the g^m row of integrand_expansion(m, 2 max_c + 3m, q) contributes;
    # its x-powers 2c + 3m (c <= max_c) are all even
    brackets = _low_brackets(qv)
    total = Fraction(0)
    for c in range(max_c + 1):
        total += (_expansion_coefficient(c, m, qv, *brackets)
                  * _ddf_at(c + 3 * m // 2, qv))
    return QScalar(total)


def _fj_quadrature(integrand, g, q: QParam, qn, nu, budget: int, tol):
    """Jackson quadrature over [-nu, nu] of f(x) = E_{q^2}(u(x)),
    u(x) = -q^2 x^2/[2]_q + g x^3/[3]_q!, in the arithmetic of qn = q and nu
    (float or mpf): (1-q) nu times the halves sum_m q^m f(+-q^m nu), each
    summed on its own, in node order, by _bounded_node_sum. integrand(x) is
    f(x) - 1, and each half starts at node 0 from the constant's full sum
    1/(1-q), so every partial sum is still the half's.

    Tail bound. Let a = q^2/[2]_q and b = |g|/[3]_q!. Then
    U(x) = a x^2 + b x^3 >= |u(+-x)|, and U increases in x. E_p has positive
    coefficients c_j with c_(j+1) <= c_j, so |E_p(u) - 1| <= |u| E_p(|u|),
    and E_p(y) <= e^y for y >= 0 because [k]_p >= k p^(k-1). So after node m
    a half's tail is at most w U e^U/(1-q), with w = q^(m+1) and
    U = U(x_(m+1)) = w^2 nu^2 (a + b nu w) read from the weight alone. Only
    w^3 is kept in the route's arithmetic, where it cannot underflow; the
    rest is a float (inf past float range), as a bound needs, and a float a
    that would underflow (q below about 1e-154) is raised to the least
    subnormal, so no bound reads 0.

    Refusal. If b nu <= a, every u(+-x) is <= 0 and |u| <= U(nu) <= 2/(1-q^2).
    Then every factor 1 + (1-q^2) q^(2k) u of Euler's product for E_{q^2}(u)
    lies in [-1, 1], so each term q^m (E - 1) lies in [-2 q^m, 0] and a
    partial sum from 1/(1-q) is at most 1/(1-q) in size, while the bound
    after M nodes is at least q^M U(x_M)/(1-q) >= q^(3M) a nu^2/(1-q): the
    floor on tail/|sum| is q^(3M) a nu^2 (far below 1e-11 wherever a is
    raised). Without that condition no floor is known, and the guard decides.
    """
    qf, gf, nu_f = float(qn), float(g), float(nu)
    bracket2, fact3 = _low_brackets(qf)
    a, b, log_per_node = max(qf * qf / bracket2, 5e-324), abs(gf) / fact3, -math.log1p(-qf)

    def tail_from(weight):
        w = float(weight)
        rest = nu_f * nu_f * (a + b * nu_f * w)                 # U / w^2
        y = w * w * rest + log_per_node
        return weight ** 3 * (rest * math.exp(y) if y < 709.0 else math.inf)

    def nodes(x):
        weight, term = 1, 1 / (1 - qn) + integrand(x)
        while True:
            weight *= qn
            x *= qn
            yield term, tail_from(weight)
            term = weight * integrand(x)

    floor = qn ** budget
    refusal = (floor ** 3 * a * nu * nu, tail_from(floor)) if b * nu_f <= a else None
    what = f"Jackson sum of the I(g) integrand at g={gf!r}, q={q}"
    plus, minus = (_bounded_node_sum(nodes(start), budget, tol, what, refusal)[0]
                   for start in (nu, -nu))
    scale = (1 - qn) * nu
    return scale * plus + scale * minus


def _fj_numeric_mp(g, q: QParam, trunc: TruncationPolicy, dps: int):
    """I(g) by the quadrature to a tail of 10^-(dps+20), which float64 cannot
    resolve. The alternating terms of the integrand E_p(u), p = q^2, peak at
    the outer nodes, where |u| <= U(nu) = q^2 nu^2/[2]_q + |g| nu^3/[3]_q!:
    one scan there sets the precision, dps + 30 digits past the peak, and a
    budget short of the cutoff 10^-(dps+25) raises at the first integrand (so
    a quadrature refusal keeps its message). Each integrand is summed forward
    in fixed point from E_p's ratio u (1-p) p^n/(1-p^(n+1)) and returned as
    E_p(u) - 1, the sum less 2^bits: _fj_quadrature sums the constant 1 in
    closed form."""
    import mpmath as mp

    qv, qf, budget = q.value, q.as_float, trunc.max_terms
    c_value, _ = _interchanged_c_mp(qv, budget, extra_dps=dps)
    bracket2, fact3 = _low_brackets(qf)
    outer = qf * qf / (1 - qf) / bracket2 + abs(float(g)) / (1 - qf) ** 1.5 / fact3
    p = qv * qv
    peak, _, refusal = _qseries_scan(
        _QSeries(p, Fraction(outer) * (1 - p)), budget, -dps - 25,
        f"I(g) integrand at g={float(g)!r}, q={q}", f"to reach 1e-{dps + 25} at x = nu")
    with mp.workdps(dps + 30 + int(peak)):
        qm = mp.mpf(qv.numerator) / qv.denominator
        nu_m = 1 / mp.sqrt(1 - qm)
        bracket2, fact3 = _low_brackets(qm)
        gm = mp.mpf(g.numerator) / g.denominator if isinstance(g, Fraction) else mp.mpf(g)
        prec, scale = mp.mp.prec, 10 ** (dps + 25)
        even, odd = -qm * qm / bracket2, gm / fact3       # u(x) = x^2 (even + odd x)
        rest_n, rest_d = (1 - p).as_integer_ratio()

        def integrand(x):
            if refusal:
                raise refusal
            sign, man, exp, _ = (x * x * (even + odd * x))._mpf_     # u = man 2^exp
            z = ((-man if sign else man) * rest_n << max(exp, 0), rest_d << max(-exp, 0))
            total, bits, _ = _qseries_forward(_QSeries(p, z), prec, budget, scale)
            return mp.mpf((total - (1 << bits), -bits))           # E_p(u) - 1

        node_cutoff = mp.mpf(10) ** (-(dps + 20))
        integral = _fj_quadrature(integrand, gm, q, qm, nu_m, budget, node_cutoff)
        return integral * c_value.denominator / c_value.numerator


def fj_numeric(g, q: QParam, trunc: TruncationPolicy = DEFAULT_POLICY,
               dps: int | None = None):
    """I(g) by direct symmetric Jackson quadrature of the full integrand.

    This is the genuinely independent end-to-end oracle: the q^2-exponential
    is evaluated at the shifted argument -q^2 x^2/[2]_q + g x^3/[3]_q! node by
    node, with no reference to the series formulas. Float64 by default; pass
    dps for a high-precision run (needed to resolve O(g^6) effects). Both stop
    on a guaranteed tail bound or raise TruncationError (see _fj_quadrature);
    a g that is not finite is refused before either starts.
    """
    gf = _finite(g)
    if dps is not None:
        return _fj_numeric_mp(g, q, trunc, index(dps, "dps", 1))
    qv, qf, q_sq = q.value, q.as_float, q.squared
    bracket2, fact3 = _low_brackets(qf)

    def integrand(x):
        u = -qf * qf * x * x / bracket2 + gf * x ** 3 / fact3
        value = E_q(u, q_sq, trunc)
        if not math.isfinite(value):
            raise EvaluationError(f"I(g) integrand at g={g!r}, q={q} is not finite at x={x!r}")
        return value - 1.0

    integral = _fj_quadrature(integrand, gf, q, qf, math.sqrt(float(1 / (1 - qv))),
                              trunc.max_terms, FLOAT_TAIL_TOLERANCE)
    c_value = c_of_q(q, trunc, "interchanged_sum").float_value
    return integral / c_value
