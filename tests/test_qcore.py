"""Exact scalar and polynomial arithmetic in the deformation parameter."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from qfj.errors import DomainError, ValidationError
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

HALF = Fraction(1, 2)

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
    def test_addition_same_surd(self):
        # c(q) = r sqrt(1-q) is read and printed, never combined
        a = QScalar(Fraction(3, 4), 1, HALF)
        with pytest.raises(DomainError):
            a + QScalar(Fraction(1, 4), 1, HALF)

    def test_addition_mixed_surds_rejected(self):
        a = QScalar(Fraction(1), 0)
        b = QScalar(Fraction(1), 1, HALF)
        with pytest.raises(DomainError):
            a + b

    def test_surd_operands_are_refused(self):
        surd = QScalar(Fraction(3, 4), 1, HALF)
        with pytest.raises(DomainError):
            surd * surd
        for other in (QScalar(Fraction(0), 0), Fraction(0), 1):
            for combine in (operator.add, operator.mul):
                with pytest.raises(DomainError):
                    combine(surd, other)
                with pytest.raises(DomainError):
                    combine(other, surd)

    def test_float_and_str(self):
        a = QScalar(Fraction(3, 4), 1, HALF)
        assert str(a) == "3/4*sqrt(1-q)"
        assert float(a) == pytest.approx(0.75 * 0.5 ** 0.5)
        assert str(QScalar(Fraction(2), 0)) == "2"

    def test_zero_equality_across_tags(self):
        assert QScalar(Fraction(0), 1, HALF) == QScalar(Fraction(0), 0)
        assert not QScalar(Fraction(0), 1, HALF)


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
