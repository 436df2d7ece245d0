"""Exact scalar and polynomial arithmetic in the deformation parameter."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qfj.errors import DomainError, ValidationError
from qfj.fseries import (fj_blocks, fj_coefficient, fj_coefficient_via_moments, fj_numeric,
                         fj_series, fj_term, integrand_expansion, lambda_closed_form,
                         lambda_oracle)
from qfj.pairings import enumerate_pairings, weight_exponent_counts, weighted_pairing_sum
from qfj.qcalc import TruncationPolicy
from qfj.qcore import (
    QParam,
    QPolynomial,
    QScalar,
    as_fraction,
    binomial,
    decimal_digits,
    q_bracket,
    q_double_factorial,
    q_factorial,
    q_squared_factorial,
)
from qfj.qgauss import c_of_q, moment_by_integration, moment_closed_form
from qfj.qgraphs import enumerate_graphs, graph_block_value, graph_sum_coefficient

HALF = Fraction(1, 2)

SITE_Q = QParam(Fraction(1, 3))
SITE_EXACT = TruncationPolicy.exact(16)
# every function whose exact result answers .rational_part
RATIONAL_PART_SITES = {
    "fj_coefficient": lambda: [fj_coefficient(m, SITE_Q, 4) for m in (2, 3)],
    "fj_coefficient_via_moments": lambda: [fj_coefficient_via_moments(m, SITE_Q, 4)
                                           for m in (2, 3)],
    "graph_sum_coefficient": lambda: [graph_sum_coefficient(2, SITE_Q, 2)],
    "lambda_closed_form": lambda: [lambda_closed_form(2, 1, SITE_Q),
                                   lambda_closed_form(1, 0, SITE_Q)],
    "fj_series": lambda: list(fj_series(4, SITE_Q, 4).coefficients),
    "lambda_oracle": lambda: [lambda_oracle(2, 2, SITE_Q).lam(c, d)
                              for c in range(3) for d in range(3)],
    "fj_blocks": lambda: list(fj_blocks(2, SITE_Q, 4)),
    "c_of_q": lambda: [c_of_q(SITE_Q, SITE_EXACT, method).surd_value
                       for method in ("interchanged_sum", "double_sum")],
}

# every public entry point that takes an integer index, one case per index
# argument: (argument name, call with the index set to i). Each call is valid
# at i = 2.
INDEX_SITES = {
    "monomial": ("exponent", lambda i: QPolynomial.monomial(i)),
    "coefficient": ("i", lambda i: q_bracket(3).coefficient(i)),
    "power": ("power", lambda i: q_bracket(2) ** i),
    "compose_power": ("k", lambda i: q_bracket(2).compose_power(i)),
    "q_bracket": ("n", q_bracket),
    "q_factorial": ("n", q_factorial),
    "q_double_factorial": ("n", q_double_factorial),
    "binomial n": ("n", lambda i: binomial(i, 1)),
    "binomial k": ("k", lambda i: binomial(3, i)),
    "TruncationPolicy": ("max_terms", TruncationPolicy),
    "moment_closed_form": ("n", moment_closed_form),
    "moment_by_integration": ("k", lambda i: moment_by_integration(i, SITE_Q)),
    "enumerate_pairings": ("n", enumerate_pairings),
    "weight_exponent_counts": ("n", weight_exponent_counts),
    "weighted_pairing_sum": ("n", weighted_pairing_sum),
    "lambda_closed_form c": ("c", lambda i: lambda_closed_form(i, 1, SITE_Q)),
    "lambda_closed_form d": ("d", lambda i: lambda_closed_form(1, i, SITE_Q)),
    "lambda_oracle max_c": ("max_c", lambda i: lambda_oracle(i, 1, SITE_Q)),
    "lambda_oracle max_d": ("max_d", lambda i: lambda_oracle(1, i, SITE_Q)),
    "LambdaTable.lam c": ("c", lambda i: lambda_oracle(2, 2, SITE_Q).lam(i, 0)),
    "LambdaTable.lam d": ("d", lambda i: lambda_oracle(2, 2, SITE_Q).lam(0, i)),
    "fj_term c": ("c", lambda i: fj_term(i, 0, 1, SITE_Q)),
    "fj_term k": ("k", lambda i: fj_term(2, i, 1, SITE_Q)),
    "fj_term d": ("d", lambda i: fj_term(1, 0, i, SITE_Q)),
    "fj_blocks m": ("m", lambda i: fj_blocks(i, SITE_Q, 4)),
    "fj_blocks max_c": ("max_c", lambda i: fj_blocks(2, SITE_Q, i)),
    "fj_coefficient m": ("m", lambda i: fj_coefficient(i, SITE_Q, 4)),
    "fj_coefficient max_c": ("max_c", lambda i: fj_coefficient(2, SITE_Q, i)),
    "fj_series order": ("order", lambda i: fj_series(i, SITE_Q, 4)),
    "fj_series max_c": ("max_c", lambda i: fj_series(2, SITE_Q, i)),
    "integrand_expansion order_g": ("order_g", lambda i: integrand_expansion(i, 4, SITE_Q)),
    "integrand_expansion order_x": ("order_x", lambda i: integrand_expansion(2, i, SITE_Q)),
    "fj_coefficient_via_moments m": ("m", lambda i: fj_coefficient_via_moments(i, SITE_Q, 4)),
    "fj_coefficient_via_moments max_c": ("max_c",
                                         lambda i: fj_coefficient_via_moments(2, SITE_Q, i)),
    "fj_numeric dps": ("dps", lambda i: fj_numeric(Fraction(1, 20), SITE_Q, dps=i)),
    "enumerate_graphs c": ("c", lambda i: enumerate_graphs(i, 0, 0)),
    "enumerate_graphs dprime": ("dprime", lambda i: enumerate_graphs(1, i, 0)),
    "enumerate_graphs k": ("k", lambda i: enumerate_graphs(2, 0, i)),
    "graph_block_value c": ("c", lambda i: graph_block_value(i, 0, 0, SITE_Q)),
    "graph_block_value dprime": ("dprime", lambda i: graph_block_value(1, i, 0, SITE_Q)),
    "graph_block_value k": ("k", lambda i: graph_block_value(2, 0, i, SITE_Q)),
    "graph_sum_coefficient m": ("m", lambda i: graph_sum_coefficient(i, SITE_Q, 2)),
    "graph_sum_coefficient max_c": ("max_c", lambda i: graph_sum_coefficient(2, SITE_Q, i)),
}

q_values = st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16),
                        max_denominator=32)


def test_as_fraction_accepts_rationals_and_strings():
    assert as_fraction(3, "x") == Fraction(3)
    assert as_fraction("3/4", "x") == Fraction(3, 4)
    assert as_fraction(Fraction(5, 7), "x") == Fraction(5, 7)


def test_as_fraction_rejects_floats():
    with pytest.raises(DomainError):
        as_fraction(0.5, "q")


@pytest.mark.parametrize("bad", [0, 1, Fraction(5, 4), Fraction(-1, 2)])
def test_qparam_requires_open_unit_interval(bad):
    with pytest.raises(DomainError):
        QParam(bad)


def test_qparam_refuses_integers_past_the_str_limit():
    # 1e-5000 exited the CLI with a ValueError traceback from str(q)
    limit = sys.get_int_max_str_digits()
    assert QParam(Fraction(1, 10 ** (limit - 1))).value.denominator == 10 ** (limit - 1)
    for value, digits in ((Fraction(1, 10 ** limit), limit + 1),
                          (Fraction(10 ** (limit + 3) - 1, 10 ** (limit + 3)), limit + 4)):
        with pytest.raises(DomainError, match=f"q has a {digits}-digit integer"):
            QParam(value)
    # the float routes square q: q^2 may pass the limit although q does not
    small = Fraction(1, 10 ** (limit // 2 + 1))
    assert QParam(small).squared.value == small * small


def test_qparam_takes_any_integer_without_a_str_limit(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert QParam(Fraction(1, 10 ** 5000)).value == Fraction(1, 10 ** 5000)


def test_decimal_digits_counts_without_str():
    for n in (1, 9, 10, 99, 100, 2 ** 64, 10 ** 400 - 1, 10 ** 400, -(10 ** 50)):
        assert decimal_digits(n) == len(str(abs(n)))


@pytest.mark.parametrize("site", INDEX_SITES)
@pytest.mark.parametrize("bad", [True, 2.5, 2.0, -1])
def test_every_index_argument_is_refused_unless_an_int(site, bad):
    # bools passed as ints, and 2.5 gave 0 from the series coefficients and a
    # bare TypeError elsewhere; the call with 2 first warms any lru_cache, so
    # 2.0 and True are refused even where they hash like a cached int
    name, call = INDEX_SITES[site]
    call(2)
    with pytest.raises(DomainError, match=f"^{name} must be (non-negative|a positive integer)"):
        call(bad)


def test_qparam_float_view():
    q = QParam(HALF)
    assert q.as_float == 0.5
    assert str(q) == "1/2"


def test_qparam_cached_values_leave_identity_alone():
    q = QParam(HALF)
    assert (q.as_float, q.squared, q.squared.as_float) == (0.5, QParam("1/4"), 0.25)
    assert q.squared is q.squared
    fresh = QParam("1/2")
    assert q == fresh and hash(q) == hash(fresh)
    assert repr(q) == repr(fresh) == "QParam(value=Fraction(1, 2))"


class TestQScalar:
    """QScalar is a Fraction whose one addition is .rational_part; exact
    values are plain Fractions except at the sites that return it."""

    def test_is_a_slotted_fraction_that_answers_rational_part(self):
        x = QScalar(3, 4)
        assert isinstance(x, Fraction) and x == Fraction(3, 4)
        assert x.rational_part == x and hash(x) == hash(Fraction(3, 4))
        assert QScalar(Fraction(3, 4)) == QScalar("3/4") == x
        assert not hasattr(x, "__dict__")

    @pytest.mark.parametrize("rebuild", [
        copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_qscalars(self, rebuild):
        # Fraction rebuilds a subclass through cls(numerator, denominator)
        for value in (QScalar(3, 4), QScalar(-7), QScalar(0)):
            got = rebuild(value)
            assert type(got) is QScalar and got == value and got.rational_part == value

    def test_float_is_refused(self):
        with pytest.raises(DomainError):
            QScalar(0.5)

    def test_arithmetic_returns_plain_fractions(self):
        a, b = QScalar(3, 4), QScalar(1, 4)
        for value in (a + b, a * b, a - b, a / b, -a, 1 + a, a * 2, sum([a, b])):
            assert type(value) is Fraction

    @pytest.mark.parametrize("site", sorted(RATIONAL_PART_SITES))
    def test_read_sites_return_qscalar(self, site):
        values = RATIONAL_PART_SITES[site]()
        for value in values:
            assert type(value) is QScalar and value.rational_part == value
        assert type(sum(values)) is Fraction

    def test_other_exact_values_are_plain_fractions(self):
        values = [fj_term(2, 1, 1, SITE_Q), graph_block_value(2, 2, 1, SITE_Q),
                  fj_series(4, SITE_Q, 4).eval(Fraction(1, 10)),
                  moment_by_integration(4, SITE_Q, SITE_EXACT),
                  *integrand_expansion(2, 6, SITE_Q).values(),
                  *lambda_oracle(2, 2, SITE_Q).values.values()]
        assert all(type(value) is Fraction for value in values)


# coefficients of every kind: zero, negative, non-integral and of large height
coefficients = st.one_of(
    st.just(0),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.builds(Fraction, st.integers(min_value=-10 ** 40, max_value=10 ** 40),
              st.integers(min_value=1, max_value=10 ** 40)))
coefficient_lists = st.lists(coefficients, max_size=7)
exact_points = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-2, max_value=2, max_denominator=1000),
    st.builds(Fraction, st.integers(min_value=-10 ** 30, max_value=10 ** 30),
              st.integers(min_value=1, max_value=10 ** 30)))


def fraction_product(a, b):
    """The coefficients of the product, summed in Fraction arithmetic."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestQPolynomial:
    def test_trailing_zeros_stripped(self):
        p = QPolynomial((Fraction(1), Fraction(0), Fraction(0)))
        assert p.degree == 0
        assert p.coefficients == (Fraction(1),)

    def test_str_rendering(self):
        p = QPolynomial((Fraction(1), Fraction(1), Fraction(2), Fraction(-1)))
        assert str(p) == "1 + q + 2q^2 - q^3"
        assert str(QPolynomial.zero()) == "0"

    def test_eval_accepts_param_fraction_float(self):
        p = QPolynomial((Fraction(1), Fraction(1), Fraction(2), Fraction(-1)))
        assert p.eval(QParam(HALF)) == Fraction(15, 8)
        assert p.eval(HALF) == Fraction(15, 8)
        assert p.eval(0.5) == pytest.approx(1.875)

    def test_monomial_roundtrip(self):
        mono = QPolynomial.monomial(3, Fraction(2))
        assert mono.as_monomial() == (3, Fraction(2))

    def test_as_monomial_rejects_multiterm(self):
        with pytest.raises(ValidationError):
            q_bracket(3).as_monomial()

    def test_compose_power_substitutes_q_square(self):
        p = q_bracket(2)  # 1 + q
        assert p.compose_power(2).coefficients == (Fraction(1), Fraction(0), Fraction(1))
        assert QPolynomial.zero().compose_power(3) == QPolynomial.zero()

    @pytest.mark.parametrize("poly, scalar", [
        (QPolynomial.one(), 1), (QPolynomial.one(), Fraction(1)),
        (QPolynomial.zero(), 0), (QPolynomial.monomial(0, 3), Fraction(3)),
    ])
    def test_a_polynomial_equals_no_scalar(self, poly, scalar):
        # one() == 1 held while the two hashed differently
        assert poly != scalar and scalar != poly
        assert len({poly, scalar}) == 2

    @given(coefficient_lists, st.integers(min_value=0, max_value=3))
    def test_equal_polynomials_hash_equal(self, coefficients, zeros):
        p = QPolynomial(coefficients)
        r = QPolynomial([Fraction(c) for c in coefficients] + [0] * zeros)
        assert p == r and hash(p) == hash(r) and len({p, r}) == 1

    @given(q_values)
    def test_product_evaluation_commutes(self, qv):
        a = q_bracket(3)
        b = q_bracket(4)
        assert (a * b).eval(qv) == a.eval(qv) * b.eval(qv)

    @given(coefficient_lists, coefficient_lists, exact_points)
    @settings(max_examples=200, deadline=None)
    def test_product_and_eval_match_plain_fractions(self, a, b, point):
        # the integer convolution and Horner against Fraction arithmetic
        p, r = QPolynomial(a), QPolynomial(b)
        product = p * r
        assert product.coefficients == fraction_product(p.coefficients, r.coefficients)
        assert all(type(c) is Fraction for c in product.coefficients)
        for poly in (p, r, product):
            value = poly.eval(point)
            assert type(value) is Fraction
            assert value == sum((c * Fraction(point) ** i
                                 for i, c in enumerate(poly.coefficients)), Fraction(0))

    @given(coefficient_lists, st.floats(min_value=-4, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_eval_at_floats_is_the_float_horner(self, coefficients, point):
        poly = QPolynomial(coefficients)
        want = 0.0
        if poly.coefficients:
            want = float(poly.coefficients[-1])
            for c in reversed(poly.coefficients[:-1]):
                want = want * point + float(c)
        assert poly.eval(point).hex() == want.hex()


@pytest.mark.parametrize("n, coeffs", [
    (0, (Fraction(0),)),
    (1, (Fraction(1),)),
    (3, (Fraction(1), Fraction(1), Fraction(1))),
])
def test_q_bracket_small_cases(n, coeffs):
    got = q_bracket(n)
    if n == 0:
        assert got.is_zero
    else:
        assert got.coefficients == coeffs


def test_q_factorial_three():
    assert q_factorial(3).coefficients == (Fraction(1), Fraction(2), Fraction(2), Fraction(1))


@given(st.integers(min_value=0, max_value=8))
def test_q_factorial_classical_limit(n):
    import math
    assert q_factorial(n).eval(Fraction(1)) == math.factorial(n)


def test_q_double_factorial_is_product_of_odd_brackets():
    want = q_bracket(1) * q_bracket(3) * q_bracket(5)
    assert q_double_factorial(3) == want


def test_q_squared_factorial_substitutes():
    assert q_squared_factorial(2) == q_factorial(2).compose_power(2)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_bracket_addition_rule(m, n):
    # [m+n] = [m] + q^m [n]
    lhs = q_bracket(m + n)
    rhs = q_bracket(m) + QPolynomial.monomial(m) * q_bracket(n)
    assert lhs == rhs


def test_binomial_values_and_bounds():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    with pytest.raises(DomainError):
        binomial(-1, 0)
