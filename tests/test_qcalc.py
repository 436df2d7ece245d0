"""q-derivative, Jackson integration, and the two q-exponential series."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qfj.errors import (DivergenceError, DomainError, EvaluationError, ResourceLimitError,
                        TruncationError)
from qfj.qcalc import (
    DEFAULT_POLICY,
    E_q,
    TruncationPolicy,
    EXACT_DIGIT_LIMIT,
    _E_q_float_fallback,
    XPoly,
    e_q,
    jackson_integral,
    jackson_integral_symmetric,
    q_derivative,
)
from qfj.qcore import QParam, QPolynomial, q_bracket, q_factorial

Q_HALF = QParam(Fraction(1, 2))

q_params = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8),
                        max_denominator=16).map(QParam)


def euler_product_mp(x: Fraction, qv: Fraction):
    """E_q(x) = prod_j (1 + (1-q) q^j x) at the working precision, until a
    factor is within 10^-(dps+5) of 1 (the rest is then exp(y_J/(1-q)) to
    that order), or until the product is below 1e-310 with every later
    factor inside (0, 1). A factor near zero is formed from the exact x and q,
    so an exact zero stays zero. Reference for the float product."""
    qm = mp.mpf(qv.numerator) / qv.denominator
    y = (1 - qm) * (mp.mpf(x.numerator) / x.denominator)
    product, j = mp.mpf(1), 0
    while abs(y) > mp.mpf(10) ** -(mp.mp.dps + 5):
        if -2 < y < 0 and abs(product) < 1e-310:
            return product
        factor = 1 + y
        if abs(factor) < 1e-3:
            exact = 1 + (1 - qv) * qv ** j * x
            factor = mp.mpf(exact.numerator) / exact.denominator
        product *= factor
        y *= qm
        j += 1
    return product * mp.exp(y / (1 - qm))


class TestTruncationPolicy:
    def test_mode_validated(self):
        with pytest.raises(DomainError):
            TruncationPolicy(mode="banana")

    def test_max_terms_validated(self):
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=0)

    def test_bool_budget_is_refused(self):
        # True passed as a one-term budget
        with pytest.raises(DomainError, match="max_terms must be a positive integer, got True"):
            TruncationPolicy(True)

    def test_exact_constructor(self):
        pol = TruncationPolicy.exact(64)
        assert pol.is_exact
        assert pol.max_terms == 64


class TestXPoly:
    def test_is_the_dense_polynomial_class(self):
        assert XPoly is QPolynomial
        f = XPoly((Fraction(1), Fraction(-2), Fraction(0), Fraction(1)))
        assert f(Fraction(3, 2)) == f.eval(Fraction(3, 2)) == Fraction(11, 8)
        assert f(1.5) == f.eval(1.5) == 1.375

    def test_reflect_and_scale(self):
        square = XPoly((Fraction(0), Fraction(0), Fraction(1)))
        assert square.reflect() == square
        assert square.scale_argument(Fraction(2)).coefficients[2] == 4

    def test_q_derivative_lowers_degree_with_bracket_coefficients(self):
        cube = XPoly((Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
        dq = cube.q_derivative(Q_HALF)
        # d_q x^3 = [3]_q x^2
        assert dq.coefficients == (Fraction(0), Fraction(0), q_bracket(3).eval(Q_HALF))

    @given(q_params, st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                                  max_denominator=8))
    def test_q_derivative_matches_difference_quotient(self, q, x):
        if x == 0:
            return
        f = XPoly((Fraction(1), Fraction(-2), Fraction(0), Fraction(1)))
        quotient = (f(q.value * x) - f(x)) / ((q.value - 1) * x)
        assert f.q_derivative(q)(x) == quotient


def test_q_derivative_of_callable_at_exact_point():
    got = q_derivative(lambda x: x ** 3, Fraction(2), Q_HALF)
    assert got == 7  # [3]_{1/2} * 2^2


def test_q_derivative_rejects_origin():
    with pytest.raises(DomainError):
        q_derivative(lambda x: x, 0, Q_HALF)


class TestJacksonIntegral:
    def test_polynomial_closed_form(self):
        linear = XPoly((Fraction(0), Fraction(1)))
        r = jackson_integral(linear, Fraction(1), Q_HALF, TruncationPolicy.exact(64))
        assert r.value == Fraction(2, 3)
        assert r.terms_used == 0
        assert r.residual == 0
        # a float bound integrates in floats, and the result converts to float
        r = jackson_integral(linear, 1.0, Q_HALF, TruncationPolicy.exact(64))
        assert (r.value, r.terms_used, r.residual) == (1.0 / 1.5, 0, 0.0)
        assert float(r) == 1.0 / 1.5

    def test_callable_routes_agree_with_closed_form(self):
        r = jackson_integral(lambda x: x * x, 1.0, Q_HALF, DEFAULT_POLICY)
        assert r.value == pytest.approx(4 / 7, rel=1e-12)
        assert r.terms_used > 0
        # exact mode sums the full budget in Fractions: 4/7 less its tail past 8 nodes
        r = jackson_integral(lambda x: x * x, Fraction(1), Q_HALF, TruncationPolicy.exact(8))
        assert (r.value, r.terms_used) == (Fraction(4, 7) * (1 - Fraction(1, 8) ** 8), 8)

    def test_callable_sums_past_a_zero_integrand_value(self):
        # f(1/4) = 0 at node 2; a relative-term stop ended there, at 0.4375
        r = jackson_integral(lambda x: x - 0.25, 1.0, Q_HALF, DEFAULT_POLICY)
        assert r.value == pytest.approx(5 / 12, abs=1e-15)
        assert r.terms_used == DEFAULT_POLICY.max_terms

    def test_callable_stops_where_the_node_underflows(self):
        # x^(-1/2) integrates to (1-q)/(1-sqrt q) = 1 + sqrt q; f(0) would raise
        q = QParam(Fraction(1, 1000))
        r = jackson_integral(lambda x: x ** -0.5, 1.0, q, TruncationPolicy.floating(512))
        assert abs(r.value - (1 + math.sqrt(0.001))) < 1e-12
        assert r.terms_used < 512

    def test_upper_limit_must_be_positive(self):
        with pytest.raises(DomainError):
            jackson_integral(XPoly((Fraction(1),)), Fraction(-1), Q_HALF, DEFAULT_POLICY)

    def test_non_finite_integrand_reports_node(self):
        with pytest.raises(EvaluationError) as exc:
            jackson_integral(lambda x: float("nan"), 1.0, Q_HALF, DEFAULT_POLICY)
        assert exc.value.node_index == 0

    @given(q_params, st.integers(min_value=0, max_value=6))
    @settings(max_examples=40)
    def test_monomial_closed_form_value(self, q, t):
        mono = XPoly.monomial(t) if hasattr(XPoly, "monomial") else XPoly(
            (Fraction(0),) * t + (Fraction(1),))
        r = jackson_integral(mono, Fraction(1), q, TruncationPolicy.exact(32))
        assert r.value == Fraction(1) / q_bracket(t + 1).eval(q)


class TestSymmetricIntegral:
    def test_even_doubles_the_half_line(self):
        square = XPoly((Fraction(0), Fraction(0), Fraction(1)))
        r = jackson_integral_symmetric(square, Fraction(1), Q_HALF,
                                       TruncationPolicy.exact(8))
        assert r.value == Fraction(8, 7)

    def test_generic_route_cancels_odd_integrand(self):
        r = jackson_integral_symmetric(lambda x: x ** 3, 1.0, Q_HALF, DEFAULT_POLICY)
        assert abs(r.value) < 1e-15


class TestSmallQExponential:
    def test_exact_partial_sum(self):
        got = e_q(Fraction(1), Q_HALF, TruncationPolicy.exact(4))
        assert got == Fraction(64, 21)

    def test_divergence_outside_radius(self):
        # radius of convergence is 1/(1-q) = 2 at q = 1/2
        with pytest.raises(DivergenceError):
            e_q(3.0, Q_HALF, DEFAULT_POLICY)

    @pytest.mark.parametrize("budget", [2, 128, 512])
    @pytest.mark.parametrize("qv", [Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)])
    def test_divergence_from_the_radius_on(self, qv, budget):
        # the radius 1/(1-q) is exact in binary at these q
        q = QParam(qv)
        radius = 1 / (1 - qv)
        for x in (radius, radius + Fraction(1, 64), 3 * radius / 2):
            for arg, pol in ((x, TruncationPolicy.exact(budget)),
                             (float(x), TruncationPolicy.floating(budget))):
                for signed in (arg, -arg):
                    with pytest.raises(DivergenceError, match="radius"):
                        e_q(signed, q, pol)

    def test_hump_longer_than_budget_raises(self):
        # inside the radius of 100, the terms grow for log(1/20)/log(0.99) ~ 298
        # steps, more than half of the budget
        with pytest.raises(TruncationError, match="needs about 597 terms"):
            e_q(95.0, QParam(Fraction(99, 100)), TruncationPolicy.floating(512))
        assert e_q(95.0, QParam(Fraction(99, 100)), TruncationPolicy.floating(2048)) > 1e40

    def test_float_overflow_inside_radius_raises(self):
        # |x| = 1700 < 10000 and the ~1863-term hump fits the budget, but the
        # peak term is beyond float range, where the sum used to return inf
        with pytest.raises(EvaluationError, match=r"x=1700\.0, q=9999/10000 overflows"):
            e_q(1700.0, QParam(Fraction(9999, 10000)), TruncationPolicy.floating(4000))

    @given(q_params, st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                                  max_denominator=16),
           st.integers(min_value=12, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_exact_value_is_the_defining_partial_sum(self, q, t, budget):
        # |x| = t/(1-q): the terms grow for at most log(1/2)/log(7/8) < 6 steps
        x = t / (1 - q.value)
        want = sum(x ** n / q_factorial(n).eval(q) for n in range(budget))
        assert e_q(x, q, TruncationPolicy.exact(budget)) == want

    @given(q_params)
    @settings(max_examples=25, deadline=None)
    def test_float_matches_exact_partial_inside_radius(self, q):
        x = Fraction(1, 2) / (1 - q.value)  # halfway to the radius
        exact = e_q(x, q, TruncationPolicy.exact(64))
        approx = e_q(float(x), q, DEFAULT_POLICY)
        assert approx == pytest.approx(float(exact), rel=1e-12)


class TestExactModeAtExtremeQ:
    """Exact mode needs no float q: at a q whose float is 0.0 or 1.0 it
    returns the partial sum (e_q raised ValueError or ZeroDivisionError)."""

    @pytest.mark.parametrize("qv", [Fraction(1, 10 ** 400), 1 - Fraction(1, 10 ** 400)],
                             ids=["1e-400", "1-1e-400"])
    @pytest.mark.parametrize("series", ["e_q", "E_q"])
    def test_partial_sum_is_the_defining_one(self, qv, series):
        q, x = QParam(qv), Fraction(1, 2)
        growth = 0 if series == "e_q" else 1
        want = sum(qv ** (growth * n * (n - 1) // 2) * x ** n / q_factorial(n).eval(qv)
                   for n in range(8))
        func = e_q if series == "e_q" else E_q
        assert func(x, q, TruncationPolicy.exact(8)) == want

    def test_height_past_the_limit_is_refused_before_summing(self):
        # E_q at q = 1e-800 with 64 terms, as the exact kernel at q = 1e-400
        # sums it: about 3.2 million digits, where the sum ran for minutes
        q = QParam(Fraction(1, 10 ** 800))
        with pytest.raises(ResourceLimitError,
                           match=f"64 series terms would take about 3226194 digits, "
                                 f"over the limit of {EXACT_DIGIT_LIMIT}"):
            E_q(Fraction(-1, 2), q, TruncationPolicy.exact(64))

    def test_the_largest_uses_stay_below_the_limit(self):
        # the exact E_q reference of the fallback test, about 4.4e4 digits
        value = E_q(Fraction(-30), QParam(Fraction(3, 4)), TruncationPolicy.exact(220))
        assert max(abs(value.numerator), value.denominator) > 10 ** 10_000


class TestLargeQExponential:
    def test_large_negative_argument_fallback_matches_exact_series(self):
        q = QParam(Fraction(3, 4))
        via_float = E_q(-30.0, q, DEFAULT_POLICY)
        via_exact = float(E_q(Fraction(-30), q, TruncationPolicy.exact(220)))
        assert via_float == pytest.approx(via_exact, rel=1e-10)
        assert via_float > 0

    def test_inverse_identity_pointwise(self):
        x = 0.7
        prod = e_q(x, Q_HALF, DEFAULT_POLICY) * E_q(-x, Q_HALF, DEFAULT_POLICY)
        assert prod == pytest.approx(1.0, abs=1e-12)

    def test_inverse_identity_as_series_coefficients(self):
        # convolution of the two series must collapse to the constant term
        q = Q_HALF
        small = [Fraction(1) / q_factorial(n).eval(q) for n in range(10)]
        shift = [Fraction((-1) ** n) * q.value ** (n * (n - 1) // 2)
                 / q_factorial(n).eval(q) for n in range(10)]
        for order in range(1, 10):
            conv = sum(small[j] * shift[order - j] for j in range(order + 1))
            assert conv == 0

    def test_large_negative_argument_inside_radius_is_entire(self):
        # |x| = 95 < 1/(1-q) = 100: the reciprocal series would need ~2000
        # terms, so Euler's product answers, to its value (the alternating sum
        # it replaced was right only to 1e-45 absolute)
        val = E_q(-95.0, QParam(Fraction(99, 100)), DEFAULT_POLICY)
        assert val == pytest.approx(1.2302853488835228e-63, rel=1e-12)

    def test_product_is_accurate_where_the_alternating_sum_was_noise(self):
        # the alternating sum gave 1.33e-45, its absolute floor
        val = E_q(-98.7, QParam(Fraction(140, 141)), TruncationPolicy.floating(512))
        assert val == pytest.approx(2.9499289331175017e-55, rel=1e-12)

    def test_a_vanishing_factor_gives_exactly_zero(self):
        # (1-q) q x = -1 at j = 1
        assert E_q(-4.0, Q_HALF, DEFAULT_POLICY) == 0.0

    def test_reciprocal_route_never_returns_a_partial_sum(self):
        # 216 terms cut the reciprocal series at ~1e-10 of its value
        got = E_q(-1.8, Q_HALF, TruncationPolicy.floating(216))
        want = float(E_q(Fraction(-9, 5), Q_HALF, TruncationPolicy.exact(200)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_reciprocal_of_an_overflowing_series_is_zero(self):
        # e_q(689.6, 3447/3448) overflows float range, so E_q(-689.6) is below
        # 1/1.8e308: zero to float resolution, as 1/inf gave before
        q = QParam(Fraction(3447, 3448))
        with pytest.raises(EvaluationError):
            e_q(689.6, q, TruncationPolicy.floating(2048))
        assert E_q(-689.6, q, TruncationPolicy.floating(2048)) == 0.0

    @given(st.integers(min_value=2, max_value=10_000),
           st.fractions(min_value=0, max_value=1, max_denominator=1000))
    @example(10_000, Fraction(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_product_near_one_is_accurate_to_its_value(self, n, t):
        # q = 1 - 1/N and x = -k/64 in [-3/(1-q), -1/(1-q)]: beyond the e_q
        # radius, so Euler's product answers
        qv = 1 - Fraction(1, n)
        x = -Fraction(64 * n + math.floor(t * 128 * n), 64)
        got = E_q(float(x), QParam(qv), TruncationPolicy.floating(64 * n))
        with mp.workdps(60):
            want = euler_product_mp(x, qv)
            assert (abs(got) < 1e-300 and abs(want) < 1e-300) or (
                abs(got - want) <= 1e-12 * abs(want)), (got, want)

    def test_product_short_of_budget_raises(self):
        # 3 factors reach |y| <= 1/2 and the log tail then needs 31 terms;
        # more factors shorten the tail, down to 16 terms in all
        with pytest.raises(TruncationError, match="needs about 16 terms, budget is 15"):
            E_q(-5.0, Q_HALF, TruncationPolicy.floating(15))
        assert E_q(-5.0, Q_HALF, TruncationPolicy.floating(16)) == pytest.approx(
            float(E_q(Fraction(-5), Q_HALF, TruncationPolicy.exact(64))), rel=1e-14)

    @pytest.mark.parametrize("x, qv, budget, needed", [
        (-5.0, Fraction(1, 2), 8, 16),
        (-25.0, Fraction(16, 17), 32, 59),
        (-1e6, Fraction(9999, 10000), 4096, 53051),
    ])
    def test_product_names_the_terms_it_needs(self, x, qv, budget, needed):
        # refused before any factor is formed, which starts from x's exact ratio
        ratios = []

        class Traced(float):
            def as_integer_ratio(self):
                ratios.append(self)
                return super().as_integer_ratio()

        with pytest.raises(TruncationError, match=f"needs about {needed} terms"):
            _E_q_float_fallback(Traced(x), QParam(qv), TruncationPolicy.floating(budget))
        assert ratios == []
        _E_q_float_fallback(Traced(x), QParam(qv), TruncationPolicy.floating(needed))
        assert len(ratios) == 1


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("function", [e_q, E_q])
def test_non_finite_float_argument_is_refused(function, x):
    # e_q(nan) reported an overflow, E_q(-inf) leaked OverflowError and the
    # rest returned nan
    for trunc in (DEFAULT_POLICY, TruncationPolicy.exact(8)):
        with pytest.raises(DomainError, match="argument must be finite"):
            function(x, Q_HALF, trunc)
