"""Exact scalar and polynomial arithmetic in the deformation parameter."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from qfj.errors import DomainError, ValidationError
from qfj.fseries import (fj_blocks, fj_coefficient, fj_coefficient_via_moments, fj_series,
                         fj_term, integrand_expansion, lambda_closed_form, lambda_oracle)
from qfj.qcalc import TruncationPolicy
from qfj.qcore import (
    QParam,
    QPolynomial,
    QScalar,
    as_fraction,
    binomial,
    q_bracket,
    q_double_factorial,
    q_factorial,
    q_squared_factorial,
)
from qfj.qgauss import c_of_q, moment_by_integration
from qfj.qgraphs import graph_block_value, graph_sum_coefficient

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

    @given(q_values)
    def test_product_evaluation_commutes(self, qv):
        a = q_bracket(3)
        b = q_bracket(4)
        assert (a * b).eval(qv) == a.eval(qv) * b.eval(qv)


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
