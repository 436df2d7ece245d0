"""The weight-transfer coefficients, the integrand expansion, and the
perturbative expansion of the cubic-deformed integral."""

import hashlib
import math
import re
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import dps_to_prec, to_fixed
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qfj import fseries, qcalc, qgauss
from qfj.errors import DomainError, EvaluationError, TruncationError
from qfj.fseries import (
    fj_blocks,
    fj_coefficient,
    fj_coefficient_via_moments,
    fj_numeric,
    fj_series,
    fj_term,
    integrand_expansion,
    lambda_closed_form,
    lambda_oracle,
)
from qfj.qcalc import TruncationPolicy
from qfj.qcore import (QParam, QPolynomial, QScalar, q_double_factorial, q_factorial,
                       q_squared_factorial)
from qfj.qgraphs import graph_sum_coefficient

Q_HALF = QParam(Fraction(1, 2))

q_params = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(3, 4),
                        max_denominator=12).map(QParam)

# q far from 1, a generic denominator, and q near 1, where cancellation is worst
PRODUCT_QS = [QParam(Fraction(1, 2)), QParam(Fraction(1, 4)),
              QParam(Fraction(137, 293)), QParam(Fraction(999, 1000))]


def entire_mpf_terms(u, p, max_terms: int, cutoff):
    """(sum, terms used) of E_p(u) = sum_n p^(n(n-1)/2) u^n / [n]_p! by the
    plain forward mpf loop, qcalc._entire_sum's steps with cutoff and 1 in
    place of its float tolerance and floor: a term n >= 1 with |term| <=
    cutoff max(|sum|, 1) ends it. Reference for the fixed-point integrand
    sum of fj_numeric."""
    total = bracket = u * 0
    term = power = total + 1      # power is p^n
    for n in range(max_terms):
        total += term
        if n >= 1 and abs(term) <= cutoff * max(abs(total), 1):
            return total, n + 1
        bracket += power          # [n+1]_p
        term = term * power * u / bracket
        power *= p
    return total, max_terms


class FirstIntegrands(Exception):
    """Raised by a spy to end a quadrature after the integrands it needs."""


def spy_integrands(monkeypatch, count: int):
    """Wrap the summer's fixed-point sum as fseries calls it: record (working
    dps, args, result) of the first `count` integrands, then end the
    quadrature."""
    seen = []
    original = fseries._qseries_forward

    def spy(*args):
        seen.append((mp.mp.dps, args, original(*args)))
        if len(seen) == count:
            raise FirstIntegrands
        return seen[-1][2]

    monkeypatch.setattr(fseries, "_qseries_forward", spy)
    return seen


def spy_node_counts(monkeypatch):
    """Record the nodes each half of fj_numeric's quadrature sums."""
    used = []
    original = fseries._bounded_node_sum

    def spy(*args):
        total, count = original(*args)
        used.append(count)
        return total, count

    monkeypatch.setattr(fseries, "_bounded_node_sum", spy)
    return used


def nested_fraction_blocks(m: int, q: QParam, max_c: int) -> list[Fraction]:
    """The per-c blocks of fj_blocks as Fractions, from the k = 0 term by
    exact ratios: sum_k fj_term(c, k, d) = T_0 (1 + r_0 (1 + r_1 (...))),
    r_k = T_(k+1)/T_k. Reference for the integer blocks of fseries."""
    d, qv = m // 2, q.value
    q_sq = qv * qv
    out = []
    for c in range(max_c + 1):
        nested = Fraction(1)
        for k in reversed(range(c)):
            n = 2 * d + k
            ratio = (Fraction(-(n + 1), k + 1) * qv ** (2 * n)
                     * (1 - q_sq ** (c - k)) / (1 - q_sq ** (n + 1)))
            nested = 1 + ratio * nested
        out.append(fj_term(c, 0, d, q) * nested)
    return out


# every q = a/b with b <= 20, then q near 0, near 1 and of large height
BLOCK_QS = sorted({Fraction(a, b) for b in range(2, 21) for a in range(1, b)}) + [
    Fraction(1, 1000), Fraction(99, 100), Fraction(999, 1000), Fraction(150, 199)]


def parent_series_eval(coefficients, g):
    """Horner over the full coefficient tuple, zero top included, as the
    series' own univariate class evaluated it before fj_series returned a
    QPolynomial: exact for Fraction g, float for float g. Reference for
    fj_series(...).eval."""
    if isinstance(g, float):
        acc = 0.0
        for c in reversed(coefficients):
            acc = acc * g + float(c)
        return acc
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * g + c
    return acc


SERIES_QS = [Fraction(1, 1000), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3),
             Fraction(2, 5), Fraction(1, 2), Fraction(4, 7), Fraction(3, 5),
             Fraction(2, 3), Fraction(5, 7), Fraction(3, 4), Fraction(4, 5),
             Fraction(5, 6), Fraction(6, 7), Fraction(7, 8), Fraction(9, 10),
             Fraction(19, 20), Fraction(137, 293), Fraction(99, 100), Fraction(999, 1000)]
SERIES_GS = [sign * g for sign in (1, -1)
             for g in (0.0, 1 / 64, 0.05, 0.1,
                       Fraction(0), Fraction(1, 64), Fraction(1, 20), Fraction(1, 10))]


# the lambda tables: q far from and near 1, generic denominators, and
# rectangles that are square, wide, tall and zero-width
ORACLE_QS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(137, 293),
             Fraction(9, 10), Fraction(999, 1000), Fraction(5, 7)]
ORACLE_RECTANGLES = [(0, 0), (1, 3), (4, 4), (6, 6), (8, 4), (3, 8), (8, 8)]


def truncated_product_table(max_c, max_d, q):
    """lambda_{c,d} on the rectangle by the generic truncated product of two
    bivariate series to total degree max_c + max_d: the entire q^2-exponential
    of x+y times the alternating plain one in x, every monomial pair formed."""
    qv, degree = q.value, max_c + max_d
    factorial = [q_squared_factorial(n).eval(qv) for n in range(degree + 1)]
    numerator = {(a, n - a): qv ** (n * (n - 1)) * math.comb(n, a) / factorial[n]
                 for n in range(degree + 1) for a in range(n + 1)}
    reciprocal = {(a, 0): (-1) ** a / factorial[a] for a in range(degree + 1)}
    product = {}
    for (i1, j1), x in numerator.items():
        for (i2, j2), y in reciprocal.items():
            key = (i1 + i2, j1 + j2)
            if sum(key) <= degree:
                product[key] = product.get(key, 0) + x * y
    return {(c, d): product.get((c, d), 0)
            for c in range(max_c + 1) for d in range(max_d + 1)}


class TestLambdaCoefficients:
    def test_corner_values(self):
        assert lambda_closed_form(0, 0, Q_HALF).rational_part == 1
        assert lambda_closed_form(0, 1, Q_HALF).rational_part == 1
        assert lambda_closed_form(0, 2, Q_HALF).rational_part == Fraction(1, 5)

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_no_pure_kernel_correction_survives(self, c):
        # transferring zero powers of the perturbation leaves nothing: the
        # c-th correction column collapses except at c = 0
        assert lambda_closed_form(c, 0, Q_HALF).rational_part == 0

    def test_closed_form_matches_series_oracle(self):
        for q in (QParam(Fraction(1, 3)), Q_HALF):
            table = lambda_oracle(4, 4, q)
            for c in range(5):
                for d in range(5):
                    if c + d > 4:
                        continue
                    assert table.lam(c, d) == lambda_closed_form(c, d, q), (c, d)

    @pytest.mark.parametrize("max_c, max_d", ORACLE_RECTANGLES)
    @pytest.mark.parametrize("qv", ORACLE_QS, ids=str)
    def test_oracle_equals_the_generic_truncated_product(self, qv, max_c, max_d):
        q = QParam(qv)
        table = lambda_oracle(max_c, max_d, q)
        assert (table.max_c, table.max_d) == (max_c, max_d)
        assert table.values == truncated_product_table(max_c, max_d, q)
        cells = [(c, d) for c in range(max_c + 1) for d in range(max_d + 1)]
        assert all(type(table.lam(c, d)) is QScalar for c, d in cells)

    @pytest.mark.parametrize("max_c, max_d", ORACLE_RECTANGLES)
    @pytest.mark.parametrize("qv", ORACLE_QS, ids=str)
    def test_closed_form_matches_the_oracle_on_the_whole_rectangle(self, qv, max_c, max_d):
        q = QParam(qv)
        table = lambda_oracle(max_c, max_d, q)
        for c in range(max_c + 1):
            for d in range(max_d + 1):
                assert table.lam(c, d) == lambda_closed_form(c, d, q), (c, d)

    def test_oracle_never_calls_the_closed_form(self, monkeypatch):
        # the closed form's k-sum is what the oracle checks; it must not reuse it
        def refuse(*args):
            raise AssertionError("lambda_oracle reached the closed form")

        monkeypatch.setattr(fseries, "_lambda_sum", refuse)
        monkeypatch.setattr(fseries, "lambda_closed_form", refuse)
        qv = Fraction(3, 7)
        table = lambda_oracle(6, 6, QParam(qv))
        assert table.lam(0, 2) == qv ** 2 / q_squared_factorial(2).eval(qv)

    def test_oracle_table_bounds(self):
        table = lambda_oracle(2, 2, Q_HALF)
        with pytest.raises(DomainError):
            table.lam(3, 0)

    @given(q_params)
    @settings(max_examples=15, deadline=None)
    def test_diagonal_start_is_exact_everywhere(self, q):
        assert lambda_closed_form(0, 0, q).rational_part == 1
        assert lambda_closed_form(0, 1, q).rational_part == 1


class TestSeriesCoefficients:
    def test_order_zero_is_one_blockwise(self):
        blocks = fj_blocks(0, Q_HALF, 3)
        assert blocks[0].rational_part == 1
        assert all(b.rational_part == 0 for b in blocks[1:])

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_odd_orders_vanish(self, m):
        assert fj_coefficient(m, Q_HALF).rational_part == 0

    def test_term_argument_validation(self):
        with pytest.raises(DomainError):
            fj_term(1, 2, 0, Q_HALF)
        with pytest.raises(DomainError):
            fj_term(-1, 0, 0, Q_HALF)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000)
           .filter(lambda x: 0 < x < 1),
           st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_term_is_its_printed_formula(self, qv, c, k, d):
        # fj_term's integer route against its docstring, in Fraction arithmetic
        # from the polynomial definitions
        k = min(k, c)
        n = 2 * d + k
        want = ((-1) ** k * math.comb(n, k) * qv ** (n * (n - 1) + 2 * c)
                * q_double_factorial(c + 3 * d).eval(qv)
                / ((1 + qv) ** c * q_factorial(3).eval(qv) ** (2 * d)
                   * q_squared_factorial(n).eval(qv) * q_squared_factorial(c - k).eval(qv)))
        assert fj_term(c, k, d, QParam(qv)) == want

    def test_second_order_reference_value(self):
        got = float(fj_coefficient(2, Q_HALF, 12).rational_part)
        assert got == pytest.approx(0.13586216253446884, rel=1e-15)

    def test_moment_route_agrees_exactly(self):
        for q in (QParam(Fraction(1, 3)), Q_HALF):
            for m in (0, 2, 4):
                assert fj_coefficient_via_moments(m, q, 6) == fj_coefficient(m, q, 6)
        q = QParam(Fraction(999, 1000))
        for m in (4, 6):
            assert fj_coefficient_via_moments(m, q, 12) == fj_coefficient(m, q, 12)

    @pytest.mark.parametrize("q", PRODUCT_QS, ids=str)
    @pytest.mark.parametrize("m", [0, 2, 4, 6])
    def test_blocks_are_the_summed_terms(self, m, q):
        blocks = fj_blocks(m, q, 12)
        for c, block in enumerate(blocks):
            assert block == sum(fj_term(c, k, m // 2, q) for k in range(c + 1)), c

    @pytest.mark.parametrize("m, q, digest", [
        (4, Fraction(999, 1000),
         "4be83818eb4feb97f2cda0457197a3cdbd34b4d36450387c9d33b4ec49feeb33"),
        (8, Fraction(1, 2),
         "1f788b64875e0148ee336fd5e136da05e7d82538a7f1f5aa3b7eb8d593baa323"),
    ])
    def test_coefficient_fingerprint(self, m, q, digest):
        # sha256 of "<numerator hex>/<denominator hex>", recorded when every
        # term was built from the QPolynomial factorials
        value = fj_coefficient(m, QParam(q), 36).rational_part
        text = f"{value.numerator:x}/{value.denominator:x}"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("m", [0, 2, 4, 6, 8])
    def test_blocks_are_the_nested_fraction_blocks(self, m):
        # the integer blocks, numerator and denominator, against the nested
        # Fraction loop they replaced; the coefficient is their exact sum
        for qv in BLOCK_QS:
            q = QParam(qv)
            want = nested_fraction_blocks(m, q, 12)
            for max_c in (0, 1, 2, 7, 12):
                blocks = fj_blocks(m, q, max_c)
                assert [(b.numerator, b.denominator) for b in blocks] == [
                    (w.numerator, w.denominator) for w in want[:max_c + 1]], (qv, max_c)
                assert fj_coefficient(m, q, max_c) == sum(blocks), (qv, max_c)
                # g6-scaling's one pass: the same sum and last block
                total, last, denominator = fseries._summed_blocks(m // 2, qv, max_c)
                assert Fraction(total, denominator) == sum(blocks), (qv, max_c)
                assert Fraction(last, denominator) == blocks[-1], (qv, max_c)

    @pytest.mark.parametrize("qv, digest", [
        (Fraction(99, 100),
         "41d27ba90188bfbbc8b85b5998dcf8d65548d504aaaf63ecdcda94531749a5a0"),
        (Fraction(999, 1000),
         "601b91982d1886080508b04f92825836b357d8b8b8dcaf837194dbb50f2a4522"),
    ])
    def test_deep_coefficient_fingerprint(self, qv, digest):
        # sha256 of "<numerator hex>/<denominator hex>", recorded from the
        # sum of the nested Fraction blocks
        value = fj_coefficient(4, QParam(qv), 60)
        text = f"{value.numerator:x}/{value.denominator:x}"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_blocks_use_no_other_route(self, monkeypatch):
        # the blocks share nothing with the moment route (_lambda_sum,
        # _ddf_at) or the term-by-term definition, so equality with either
        # stays a cross-check
        calls = []
        for name in ("_lambda_sum", "_ddf_at", "_qsq_factorial_at", "fj_term"):
            original = getattr(fseries, name)
            monkeypatch.setattr(fseries, name, lambda *args, _name=name, _original=original:
                                calls.append(_name) or _original(*args))
        q = QParam(Fraction(5, 7))
        fj_blocks(4, q, 12)
        fj_coefficient(6, q, 12)
        fj_series(4, q, 6)
        assert calls == []
        assert fj_coefficient_via_moments(4, q, 2) == fj_coefficient(4, q, 2)
        assert {"_lambda_sum", "_ddf_at", "_qsq_factorial_at"} <= set(calls)

    def test_non_integer_series_index_is_refused_not_zero(self):
        # 2.5 % 2 is truthy, so the odd-m branch returned an exact 0
        with pytest.raises(DomainError, match="m must be non-negative and an integer, got 2.5"):
            fj_coefficient(2.5, QParam(Fraction(1, 2)))

    @pytest.mark.parametrize("m", [2, 3])
    def test_negative_max_c_is_refused(self, m):
        q = QParam(Fraction(1, 2))
        with pytest.raises(DomainError, match="max_c must be non-negative"):
            fj_coefficient(m, q, -1)
        with pytest.raises(DomainError, match="max_c must be non-negative"):
            fj_coefficient_via_moments(m, q, -1)
        with pytest.raises(DomainError, match="max_c must be non-negative"):
            fj_blocks(2, q, -1)
        with pytest.raises(DomainError, match="max_c must be non-negative"):
            graph_sum_coefficient(2, q, -1)

    def test_series_bundles_coefficients(self):
        s = fj_series(4, Q_HALF, max_c=8)
        assert s.degree == 4
        assert s.coefficient(0).rational_part == 1
        assert s.coefficient(2) == fj_coefficient(2, Q_HALF, 8)
        assert s.eval(0.1) == pytest.approx(1.0013586, rel=1e-4)

    @pytest.mark.parametrize("qv", SERIES_QS)
    def test_series_evaluates_as_the_parent_horner(self, qv):
        # odd orders strip the zero top coefficient; the value must not move
        q = QParam(qv)
        for order in range(8):
            series = fj_series(order, q, 12)
            coefficients = [fj_coefficient(m, q, 12) for m in range(order + 1)]
            assert [series.coefficient(m) for m in range(order + 1)] == coefficients
            for g in SERIES_GS:
                want = parent_series_eval(coefficients, g)
                if isinstance(g, float):
                    assert series.eval(g).hex() == want.hex(), (order, g)
                else:
                    assert series.eval(g) == want, (order, g)

    def test_classical_trend_toward_five_twentyfourths(self):
        target = 5 / 24
        err_9 = abs(float(fj_coefficient(2, QParam(Fraction(9, 10)), 12).rational_part)
                    - target)
        err_99 = abs(float(fj_coefficient(2, QParam(Fraction(99, 100)), 12).rational_part)
                     - target)
        assert err_99 < err_9


class TestEvaluatedProducts:
    """The factorials the series evaluates at q are the polynomial definitions."""

    @pytest.mark.parametrize("q", PRODUCT_QS, ids=str)
    def test_match_polynomial_definitions(self, q):
        qv = q.value
        for n in range(25):
            assert fseries._ddf_at(n, qv) == q_double_factorial(n).eval(qv), n
            assert fseries._qsq_factorial_at(n, qv) == q_squared_factorial(n).eval(qv), n

    @given(st.fractions(min_value=0, max_value=1, max_denominator=30)
           .filter(lambda x: 0 < x < 1),
           st.integers(min_value=0, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_match_polynomial_definitions_at_any_q(self, qv, n):
        assert fseries._ddf_at(n, qv) == q_double_factorial(n).eval(qv)
        assert fseries._qsq_factorial_at(n, qv) == q_squared_factorial(n).eval(qv)

    def test_per_q_caches_are_bounded(self, monkeypatch):
        # 40 fresh q values need 1,000 entries of each at n <= 24
        for b in range(1009, 1049):
            for n in range(25):
                fseries._ddf_at(n, Fraction(b - 1000, b))
                fseries._qsq_factorial_at(n, Fraction(b - 1000, b))
        # and 300 fresh q values need 300 mp c(q) sums
        for b in range(2, 302):
            qgauss._interchanged_c_mp(Fraction(1, b), 64)
        for cached in (fseries._ddf_at, fseries._qsq_factorial_at, qgauss._interchanged_sum):
            info = cached.cache_info()
            assert info.maxsize == qgauss.PER_Q_CACHE_SIZE
            assert info.currsize == info.maxsize     # filled, and no further
        # and two 690,741-node sums need 1,381,482 node kernels (a stand-in
        # kernel of 1 keeps it fast; the memo is emptied of its values after)
        kernels = []
        monkeypatch.setattr(qgauss, "kernel_eval_x2", lambda *args: kernels.append(1) or 1.0)
        try:
            for budget in (1 << 20, (1 << 20) + 1):
                qgauss._node_sum(0, QParam(Fraction(9999, 10000)), TruncationPolicy.floating(budget))
            assert len(kernels) > qgauss.NODE_KERNEL_DOUBLES
            assert sum(map(len, qgauss._node_kernels.values())) <= qgauss.NODE_KERNEL_DOUBLES
        finally:
            qgauss._node_kernels.clear()

    def test_series_builds_no_polynomial(self, monkeypatch):
        q_factorial.cache_clear()
        q_double_factorial.cache_clear()
        degrees = []
        original = QPolynomial.__mul__

        def counting_mul(self, other):
            product = original(self, other)
            degrees.append(product.degree)
            return product

        monkeypatch.setattr(QPolynomial, "__mul__", counting_mul)
        monkeypatch.setattr(QPolynomial, "__rmul__", counting_mul)
        q = QParam(Fraction(7919, 8192))   # used nowhere else: nothing cached for it
        fj_coefficient(4, q, 36)
        fj_series(6, q, max_c=12)
        fj_coefficient_via_moments(4, q, 12)
        lambda_closed_form(4, 3, q)
        lambda_oracle(4, 4, q)
        assert not degrees, (f"{len(degrees)} polynomial products, "
                             f"up to degree {max(degrees)}")


class TestIntegrandExpansion:
    def test_gzero_column_collapses_to_kernel(self):
        exp = integrand_expansion(0, 8, Q_HALF)
        assert exp.get((0, 0), 0) == 1
        assert exp.get((2, 0), 0) == 0
        assert exp.get((4, 0), 0) == 0

    def test_leading_cubic_coefficient(self):
        exp = integrand_expansion(2, 8, Q_HALF)
        want = Fraction(1) / q_factorial(3).eval(Q_HALF)
        assert exp.get((3, 1), 0) == want


class TestNumericEvaluation:
    def test_value_at_zero_coupling(self):
        assert fj_numeric(0.0, Q_HALF) == pytest.approx(1.0, abs=1e-12)

    def test_even_in_the_coupling(self):
        assert fj_numeric(0.05, Q_HALF) == fj_numeric(-0.05, Q_HALF)

    def test_runs_where_one_minus_q_rounds_to_one(self):
        # the kernel's Euler product took log q as log1p(-1.0): math domain error
        value = fj_numeric(0.01, QParam("1e-20"), TruncationPolicy.floating(8))
        assert value == pytest.approx(1.0, abs=1e-12)   # the series: 1 + 1e-44

    def test_matches_series_at_small_coupling(self):
        series_val = fj_series(6, Q_HALF, max_c=16).eval(0.05)
        assert fj_numeric(0.05, Q_HALF) == pytest.approx(series_val, abs=1e-10)

    def test_values_are_pinned(self):
        # bit for bit: sharing _low_brackets with the series side must not
        # move a float of the independent oracle
        assert fj_numeric(0.05, Q_HALF).hex() == "0x1.0016427b5832bp+0"
        # both sum E - 1 with the constant in closed form, which moved 3/4 from
        # +1.9 to -0.1 ulp and 99/100 from -16.6 to +15.4 ulp of a 50-digit
        # mpmath reference: E_{q^2}(u) = qp(-(1-q^2) u, q^2),
        # c(q) = 2 sqrt(1-q) qp(q^2, q^2)/qp(q, q^2), nodes until q^m < 1e-45
        assert fj_numeric(0.01, QParam(Fraction(3, 4))).hex() == "0x1.00023d968c572p+0"
        assert fj_numeric(0.01, QParam(Fraction(99, 100)), TruncationPolicy.floating(4096)
                          ).hex() == "0x1.00017349dc560p+0"
        with mp.workdps(60):
            assert mp.nstr(fj_numeric(Fraction(1, 20), Q_HALF, dps=60), 50) == (
                "1.0003396559843148870930903407474041864705288587949")

    @pytest.mark.parametrize("dps", [0, -5, -60, 60.5, True])
    def test_bad_dps_is_refused_before_any_work(self, monkeypatch, dps):
        # dps=-60 returned mpf('1.0'), dps=-5 a value wrong in the 16th digit
        calls = []
        monkeypatch.setattr(fseries, "_interchanged_c_mp",
                            lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(fseries, "_qseries_forward", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="dps must be a positive integer"):
            fj_numeric(Fraction(1, 20), Q_HALF, dps=dps)
        assert calls == []

    @pytest.mark.parametrize("dps", [None, 60])
    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_is_refused_before_any_work(self, monkeypatch, g, dps):
        # at dps=60 nan was scanned 0.1 s before a TruncationError, and inf
        # leaked an OverflowError
        calls = []
        for name in ("c_of_q", "E_q", "_interchanged_c_mp", "_qseries_scan",
                     "_qseries_forward"):
            monkeypatch.setattr(fseries, name, lambda *args, **kwargs: calls.append(args))
        with pytest.raises(DomainError, match="must be finite"):
            fj_numeric(g, Q_HALF, dps=dps)
        assert calls == []

    @pytest.mark.parametrize("dps", [30, 40, 60])
    def test_the_used_dps_still_run(self, dps):
        # the value at dps=120, which dps=90 matches to 8e-111; each dps
        # carries its promised 10^-(dps+20) tail, c(q) included
        with mp.workdps(100):
            want = mp.mpf("1.00033965598431488709309034074740418647052885879491"
                          "09439908501550132915916073913")
            gap = abs(fj_numeric(Fraction(1, 20), Q_HALF, dps=dps) - want)
            assert gap < mp.mpf(10) ** -(dps + 15)

    @pytest.mark.parametrize("qv, budget, dps", [
        (Fraction(1, 2), 512, 60), (Fraction(9, 10), 2048, 60),
        (Fraction(1, 10 ** 20), 512, 630),    # the tail underflowed: off by 1.0e-520
        (Fraction(1, 10 ** 200), 512, 2300),  # a = q^2/[2]_q did: off by 1.0e-2200
    ])
    def test_normalized_integral_at_zero_coupling_is_one(self, qv, budget, dps):
        # I(0) = 1 exactly; c(q) cut at the default 1e-45 left -1.4e-55 and
        # -5.2e-50 here
        with mp.workdps(dps + 40):
            value = fj_numeric(0, QParam(qv), TruncationPolicy.floating(budget), dps=dps)
            assert abs(value - 1) < mp.mpf(10) ** -(dps + 15)

    def test_q_whose_square_underflows_runs_at_high_precision(self):
        # q^2 and so the outer-node argument are 0.0 as floats (a scan from
        # them raised ValueError on log10(0.0)). Only the nodes +-nu count, and
        # there E_{q^2}(u) is 1 + u: (1+g + 1-g)/2 = 1
        with mp.workdps(100):
            value = fj_numeric(Fraction(1, 10), QParam(Fraction(1, 10 ** 200)), dps=60)
            assert abs(value - 1) < mp.mpf(10) ** -75

    @pytest.mark.parametrize("g, qv, budget, tail", [
        # float and dps=60 printed 5.834e-01 and 9.747e-04, 1.857e-02 and
        # 7.779e-09, 3.522e-01 and 1.166e-03 while float summed the constant
        # node by node
        (Fraction(1, 100), Fraction(99, 100), 512, "9.747e-04"),
        (Fraction(0), Fraction(409, 410), 4096, "7.779e-09"),
        (Fraction(1, 100), Fraction(16, 17), 64, "1.166e-03"),
    ])
    @pytest.mark.parametrize("dps", [None, 60])
    def test_short_budget_is_refused_before_any_integrand(self, monkeypatch, g, qv,
                                                           budget, tail, dps):
        # both routes share one rule, so each budget is refused with one tail
        calls = []
        monkeypatch.setattr(fseries, "E_q", lambda *args: calls.append(args))
        monkeypatch.setattr(fseries, "_qseries_forward", lambda *args: calls.append(args))
        with pytest.raises(TruncationError,
                           match=re.escape(f"tail bounded by {tail} after {budget} nodes")):
            fj_numeric(g, QParam(qv), TruncationPolicy.floating(budget), dps=dps)
        assert calls == []

    def test_short_integrand_budget_is_refused_before_any_integrand(self, monkeypatch):
        # g = 1 proves no quadrature floor. At 3/4, c(q) needs 27 terms to fall
        # below 1e-85 and E_{q^2}(u) at x = nu needs 29, so 24 terms are refused
        # by the first and 28 by the second; the 24-term integrand used to be
        # summed short at every node
        calls = []
        monkeypatch.setattr(fseries, "_qseries_forward", lambda *args: calls.append(args))
        for budget, message in (
                (24, "normalization series at q=3/4 needs about 27 terms to converge, "
                     "budget is 24"),
                (28, "needs about 29 terms to reach 1e-85 at x = nu, budget is 28")):
            with pytest.raises(TruncationError, match=message):
                fj_numeric(Fraction(1), QParam(Fraction(3, 4)),
                           TruncationPolicy.floating(budget), dps=60)
        assert calls == []

    def test_mp_precision_covers_the_outer_node_term_peak(self, monkeypatch):
        # at q = 499/500 the terms of E_{q^2}(u) at x = nu peak about 1e87:
        # at a fixed dps + 30 digits the outer nodes were noise, and
        # fj_numeric(0, 499/500, floating(16384), dps=60) gave 0.99996
        seen = spy_integrands(monkeypatch, 1)
        qv = Fraction(499, 500)
        with pytest.raises(FirstIntegrands):
            fj_numeric(0, QParam(qv), TruncationPolicy.floating(16384), dps=60)
        with mp.workdps(30):
            qm = mp.mpf(499) / 500
            p = qm * qm
            x = p / (1 - qm) / (1 + qm)     # |u| at x = nu
            term, bracket, peak = mp.mpf(1), mp.mpf(0), mp.mpf(1)
            for n in range(2000):
                bracket += p ** n
                term *= x * p ** n / bracket
                peak = max(peak, term)
        digits = 60 + 30 + int(mp.log10(peak))
        (dps, _, (_, bits, _)), = seen
        assert dps == digits
        # the fixed-point loop sums at that precision plus its guard bits
        assert bits >= dps_to_prec(digits) + 32

    @pytest.mark.parametrize("g, qv, budget", [
        (Fraction(1, 32), Fraction(1, 2), 64),          # u < 0
        (Fraction(1, 64), Fraction(16, 17), 544),       # u < 0
        (Fraction(1, 100), Fraction(99, 100), 4096),    # u < 0
        (Fraction(1), Fraction(3, 4), 128),             # u > 0 at x = nu
        (0, Fraction(499, 500), 16384),                 # |u| = U(nu), terms peak ~1e87
    ])
    def test_fixed_point_integrand_is_the_mpf_forward_sum(self, monkeypatch, g, qv, budget):
        # the three outer nodes, where |u| and the term peak are largest,
        # against the mpf loop run at 40 more digits than the working ones
        seen = spy_integrands(monkeypatch, 3)
        with pytest.raises(FirstIntegrands):
            fj_numeric(g, QParam(qv), TruncationPolicy.floating(budget), dps=60)
        positive = []
        for dps, (series, _, max_terms, scale), (total, bits, terms) in seen:
            assert max_terms == budget and scale == 10 ** 85
            with mp.workdps(dps + 40):
                exact_u = Fraction(*series.z) / (1 - series.s)     # z = u (1 - q^2)
                u = mp.mpf(exact_u.numerator) / exact_u.denominator
                q_sq = (mp.mpf(qv.numerator) / qv.denominator) ** 2
                want, want_terms = entire_mpf_terms(u, q_sq, max_terms, mp.mpf(10) ** -85)
                error = abs(mp.mpf((total, -bits)) - want)
            positive.append(u > 0)
            assert terms == want_terms
            # 10^-(dps+25) is what the stop rule needs; the guard bits keep
            # the loop 10 digits inside it (10^-(dps+30) to 10^-(dps+32)
            # without them)
            assert error <= mp.mpf(10) ** -95, (float(u), float(error))
        assert positive[0] == (g == 1)     # u(nu) > 0 only at g = 1

    @pytest.mark.parametrize("g, qv, budget", [      # the seed-1 benchmark cells
        (Fraction(1, 32), Fraction(1, 2), 64),
        (Fraction(1, 64), Fraction(5, 6), 192),
        (Fraction(1, 64), Fraction(16, 17), 544),
    ])
    def test_dps60_value_is_the_mpf_route_value(self, monkeypatch, g, qv, budget):
        used = spy_node_counts(monkeypatch)
        value = fj_numeric(g, QParam(qv), TruncationPolicy.floating(budget), dps=60)
        # a half stops near q^(3m) <= 1e-80, past each of these budgets (89
        # nodes at 1/2): every cell sums all its nodes and passes the guard
        assert used == [budget, budget]

        def mpf_route(series, prec, max_terms, scale):
            # every integrand by the mpf forward loop at the working precision
            q_sq = (mp.mpf(qv.numerator) / qv.denominator) ** 2
            exact_u = Fraction(*series.z) / (1 - series.s)     # z = u (1 - q^2)
            total, terms = entire_mpf_terms(mp.mpf(exact_u.numerator) / exact_u.denominator,
                                            q_sq, max_terms, mp.mpf(10) ** -85)
            return to_fixed(total._mpf_, prec), prec, terms

        monkeypatch.setattr(fseries, "_qseries_forward", mpf_route)
        want = fj_numeric(g, QParam(qv), TruncationPolicy.floating(budget), dps=60)
        with mp.workdps(80):
            assert mp.nstr(value, 60) == mp.nstr(want, 60)
            assert abs(value - want) <= mp.mpf(10) ** -80 * abs(want)

    def test_g6_quadratures_sum_the_constant_in_closed_form(self, monkeypatch):
        # g6-scaling's three quadratures: each half walked 266-267 nodes while
        # the constant part of E_{q^2}(u) was summed node by node
        used = spy_node_counts(monkeypatch)
        for g in (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)):
            fj_numeric(g, Q_HALF, TruncationPolicy.floating(512), dps=60)
        assert len(used) == 6 and max(used) <= 90

    def test_budget_bound_value_has_the_digits_of_a_long_run(self, monkeypatch):
        # the 544 nodes left 1.6e-14 of relative error while the constant was
        # summed node by node: its unsummed tail was 16^544/17^543
        used = spy_node_counts(monkeypatch)
        q = QParam(Fraction(16, 17))
        short = fj_numeric(Fraction(1, 64), q, TruncationPolicy.floating(544), dps=60)
        long = fj_numeric(Fraction(1, 64), q, TruncationPolicy.floating(8192), dps=60)
        assert used[:2] == [544, 544] and max(used[2:]) < 8192    # the long run stops
        with mp.workdps(80):
            assert abs(short - long) <= mp.mpf(10) ** -40 * long

    def test_guard_raises_where_no_refusal_is_proven(self, monkeypatch):
        # g = 1 lifts u above 0 at the outer nodes, so no |E| <= 1 floor holds
        calls = []
        original = fseries.E_q
        monkeypatch.setattr(fseries, "E_q",
                            lambda *args: calls.append(args) or original(*args))
        q = QParam(Fraction(3, 4))
        with pytest.raises(TruncationError, match=r"tail bounded by 5\.203e-09 after 24"):
            fj_numeric(1.0, q, TruncationPolicy.floating(24))
        assert len(calls) == 24
        # 64 nodes left a tail of 4.036e-08 while the constant was summed
        # node by node
        assert fj_numeric(1.0, q, TruncationPolicy.floating(64)) == pytest.approx(
            1.3668281698878, abs=1e-12)

    def test_overflowing_integrand_raises_at_once(self):
        with pytest.raises(EvaluationError, match="not finite at x=100.0"):
            fj_numeric(0.05, QParam(Fraction(9999, 10000)), TruncationPolicy.floating(100000))

    def test_never_calls_the_black_box_jackson_integral(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("fj_numeric reached qcalc.jackson_integral")
        monkeypatch.setattr(qcalc, "jackson_integral", refuse)
        assert fj_numeric(0.05, Q_HALF).hex() == "0x1.0016427b5832bp+0"

    @given(st.fractions(min_value=Fraction(99, 100), max_value=Fraction(9999, 10000),
                        max_denominator=10000),
           st.sampled_from([512, 4096, 16384]))
    @settings(max_examples=10, deadline=None)
    def test_zero_coupling_near_one_is_one_or_raises(self, qv, budget):
        try:
            value = fj_numeric(0.0, QParam(qv), TruncationPolicy.floating(budget))
        except TruncationError:
            return
        assert abs(value - 1) < 1e-8

    @given(st.fractions(min_value=Fraction(9, 10), max_value=Fraction(99, 100),
                        max_denominator=1000))
    @settings(max_examples=5, deadline=None)
    def test_mp_zero_coupling_near_one_is_one_or_raises(self, qv):
        try:
            value = fj_numeric(0, QParam(qv), TruncationPolicy.floating(4096), dps=30)
        except TruncationError:
            return
        assert abs(value - 1) < 1e-11

    def test_high_precision_path_agrees_with_float_path(self):
        mp_val = float(fj_numeric(Fraction(1, 20), Q_HALF, dps=40))
        assert mp_val == pytest.approx(fj_numeric(0.05, Q_HALF), abs=1e-13)
