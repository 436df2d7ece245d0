"""Gaussian kernel, normalization constant, and moments of the q-measure."""

import hashlib
import math
from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qfj.errors import DomainError, TruncationError
from qfj.qcalc import DEFAULT_POLICY, FLOAT_TAIL_TOLERANCE, TruncationPolicy, _magnitude_scan
from qfj import qgauss
from qfj.qcore import QParam, QScalar, q_bracket, q_double_factorial, q_squared_factorial
from qfj.qgauss import (
    c_of_q,
    kernel_eval,
    kernel_eval_x2,
    moment_by_integration,
    moment_closed_form,
)

Q_HALF = QParam(Fraction(1, 2))
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

q_params = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(4, 5),
                        max_denominator=16).map(QParam)
# the classical-limit regime, with budgets that reach a value only for part of it
near_one = st.fractions(min_value=Fraction(99, 100), max_value=Fraction(9999, 10000),
                        max_denominator=10000).map(QParam)
near_one_budgets = st.sampled_from([512, 4096, 16384]).map(TruncationPolicy.floating)


def node_by_node_exact(n: int, q: QParam, M: int) -> Fraction:
    """The literal exact node sum: M nodes x_m^2 = q^(2m) nu^2, each weighted
    q^m x_m^(2n) times an M-term exact kernel. Reference for _node_sum, which
    sums the same rectangle by kernel term instead."""
    trunc = TruncationPolicy.exact(M)
    qv = q.value
    total = Fraction(0)
    weight = 1
    x2 = 1 / (1 - qv)
    for _ in range(M):
        total += weight * x2 ** n * kernel_eval_x2(x2, q, trunc)
        weight *= qv
        x2 *= qv * qv
    return total


def node_by_node_float(n: int, q: QParam, trunc: TruncationPolicy):
    """The literal float node sum: one kernel_eval_x2 per node at x_m^2 =
    q^(2m) nu^2, stopped where _bounded_node_sum stops (budget-limited sums
    are taken where its guard passes). Reference for _node_sum, which reads
    each node's kernel from its per-(q, budget) memo."""
    qv = q.as_float
    decay = qv ** (2 * n + 1)
    total, weight, x2 = 0.0, 1, 1 / (1 - qv)
    for m in range(trunc.max_terms):
        envelope = weight * x2 ** n
        total += envelope * kernel_eval_x2(x2, q, trunc)
        if m >= 2 and envelope * decay / (1 - decay) <= FLOAT_TAIL_TOLERANCE * abs(total):
            return total, m + 1
        weight *= qv
        x2 *= qv * qv
    return total, trunc.max_terms


def interchanged_terms(qv):
    """Summands of the single-index normalization series (without the leading
    2), (-1)^m q^(m(m+1)) / ((1-q^(2m+1)) prod_{j<=m} (1-q^(2j))), in the
    arithmetic of qv (Fraction or mpf), forward, each term built in full.
    Reference for the nested exact sum and the backward integer mp sum."""
    q_sq = qv * qv
    pochhammer = q_sq_pow = q_num = 1   # prod_{j<=m} (1-q^(2j)), q^(2m), q^(m(m+1))
    q_odd = qv                          # q^(2m+1)
    sign = 1
    while True:
        yield sign * q_num / ((1 - q_odd) * pochhammer)
        sign = -sign
        q_sq_pow *= q_sq
        pochhammer *= 1 - q_sq_pow
        q_num *= q_sq_pow       # exponent grows by 2(m+1)
        q_odd *= q_sq


def forward_c_mp(qv: Fraction, max_terms: int, extra_dps: int):
    """c(q) as the plain forward mpf sum of interchanged_terms, with the term
    count and working precision _interchanged_c_mp takes from its scan."""
    cutoff = -(extra_dps + 25) if extra_dps else -45
    peak, needed = _magnitude_scan(qgauss._interchanged_log_terms(float(qv)), max_terms, cutoff)
    with mp.workdps(max(30, int(peak) + 60) + extra_dps):
        qm = mp.mpf(qv.numerator) / qv.denominator
        return 2 * mp.sqrt(1 - qm) * sum(islice(interchanged_terms(qm), needed)), needed


def parent_mpf_sum(qv: Fraction, needed: int, dps: int):
    """_interchanged_sum as it was with an mpf finish: the same backward
    fixed-point loop at `dps` digits of mpmath precision, then
    2 sqrt(1-q) num/den rounded in mpf. Reference for the integer finish."""
    a, b = qv.numerator, qv.denominator
    a_top, b_top = a ** (2 * needed - 1), b ** (2 * needed - 1)
    with mp.workdps(dps):
        bits = mp.mp.prec + b_top.bit_length() - a_top.bit_length() + needed.bit_length() + 32
        one = 1 << bits
        power = (a_top << bits) // b_top
        num, den = one, one - power
        for _ in range(needed - 1):
            even = power * b // a
            power = even * b // a
            odd = one - power
            scaled = (one - even) * den >> bits
            num, den = (scaled << bits) - odd * (even * num >> bits), odd * scaled
            shift = den.bit_length() - bits
            num, den = num >> shift, den >> shift
        return 2 * mp.sqrt(1 - mp.mpf(a) / b) * mp.fdiv(num, den)


def entire_forward_mp(u, p):
    """E_p(u) = sum_n p^(n(n-1)/2) u^n / [n]_p! by the plain forward mpf loop
    at the working precision, t_n = t_(n-1) u p^(n-1) / [n]_p, until a term
    is below 10^-(dps+20). Reference for the float kernel near q = 1."""
    total = bracket = mp.mpf(0)
    term = power = mp.mpf(1)      # power is p^n
    cutoff = mp.mpf(10) ** -(mp.mp.dps + 20)
    while abs(term) > cutoff:
        total += term
        bracket += power          # [n+1]_p
        term = term * u * power / bracket
        power *= p
    return total


def exact_mpf(value: Fraction):
    """A dyadic Fraction (as _interchanged_c_mp returns) as an equal mpf."""
    with mp.workprec(max(1, value.numerator.bit_length())):
        return mp.mpf(value.numerator) / value.denominator


def hex_sha256(value: Fraction) -> str:
    return hashlib.sha256(f"{value.numerator:x}/{value.denominator:x}".encode()).hexdigest()


class TestKernel:
    def test_value_at_origin(self):
        assert kernel_eval(Fraction(0), Q_HALF, TruncationPolicy.exact(16)) == 1
        assert kernel_eval(0.0, Q_HALF, DEFAULT_POLICY) == 1.0

    def test_even_in_x(self):
        pol = TruncationPolicy.exact(64)
        assert kernel_eval(Fraction(3, 2), Q_HALF, pol) == kernel_eval(
            Fraction(-3, 2), Q_HALF, pol)

    def test_float_route_tracks_exact_partial(self):
        exact = kernel_eval(Fraction(3, 2), Q_HALF, TruncationPolicy.exact(64))
        approx = kernel_eval(1.5, Q_HALF, DEFAULT_POLICY)
        assert approx == pytest.approx(float(exact), rel=1e-12)

    def test_moderate_tail_near_classical_limit(self):
        # regression: the reciprocal route used to abort here with a false
        # divergence report; the feasibility guard must keep this finite
        q = QParam(Fraction(999, 1000))
        val = kernel_eval(5.0, q, DEFAULT_POLICY)
        assert 0 < val < 1e-2

    def test_far_tail_is_noise_scale_not_garbage(self):
        # true value is ~exp(-225): Euler's product gives it to its own
        # size, where the alternating sum it replaced gave 1e-45 noise
        q = QParam(Fraction(999, 1000))
        val = kernel_eval(20.0, q, DEFAULT_POLICY)
        assert val == pytest.approx(3.9728868476275351e-98, rel=1e-12)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_argument_is_refused(self, x):
        # kernel_eval(nan) returned nan and kernel_eval(inf) leaked OverflowError
        for trunc in (DEFAULT_POLICY, TruncationPolicy.exact(8)):
            with pytest.raises(DomainError, match="argument must be finite"):
                kernel_eval_x2(x, Q_HALF, trunc)
            with pytest.raises(DomainError, match="argument must be finite"):
                kernel_eval(x, Q_HALF, trunc)

    @pytest.mark.parametrize("qv, x2, M", [
        (Fraction(1, 2), Fraction(2), 12),          # x^2 = nu^2
        (Fraction(1, 2), Fraction(1, 3), 9),
        (Fraction(3, 4), Fraction(4), 16),          # x^2 = nu^2
        (Fraction(9, 10), Fraction(7, 2), 20),
        (Fraction(9, 10), Fraction(10), 24),        # x^2 = nu^2
    ])
    def test_exact_value_is_the_defining_partial_sum(self, qv, x2, M):
        # (-1)^n q^(n(n+1)) x^(2n) / ((1+q)^n [n]_{q^2}!), n < M
        want = sum(Fraction((-1) ** n) * qv ** (n * (n + 1)) * x2 ** n
                   / ((1 + qv) ** n * q_squared_factorial(n).eval(qv))
                   for n in range(M))
        assert kernel_eval_x2(x2, QParam(qv), TruncationPolicy.exact(M)) == want

    def test_float_kernel_sums_to_convergence(self):
        got = kernel_eval(1.0, Q_HALF, TruncationPolicy(max_terms=512))
        want = float(kernel_eval(Fraction(1), Q_HALF, TruncationPolicy.exact(64)))
        assert got == pytest.approx(want, rel=1e-15)

    @given(q_params, st.fractions(min_value=0, max_value=1, max_denominator=16))
    @settings(max_examples=30, deadline=None)
    def test_positive_and_bounded_on_the_support(self, q, t):
        # x^2 = t * nu^2 keeps the node inside [-nu, nu], where every factor
        # of the kernel's product form is positive
        x2 = float(t / (1 - q.value))
        val = kernel_eval_x2(x2, q, DEFAULT_POLICY)
        assert 0 < val <= 1.0 + 1e-12


class TestNormalization:
    def test_reference_values(self):
        pol = DEFAULT_POLICY
        assert c_of_q(QParam(Fraction(1, 4)), pol).float_value == pytest.approx(
            2.192551320721914, rel=1e-14)
        assert c_of_q(Q_HALF, pol).float_value == pytest.approx(
            2.321619031711791, rel=1e-14)

    def test_exact_mode_returns_surd(self):
        # c(q) = r sqrt(1-q): surd_value is r, float_value is c(q) from r's float
        r = c_of_q(Q_HALF, TruncationPolicy.exact(48))
        assert isinstance(r.surd_value, QScalar)
        want = float(r.surd_value) * math.sqrt(1 - float(Q_HALF.value))
        assert r.float_value.hex() == want.hex()
        assert r.float_value == pytest.approx(c_of_q(Q_HALF).float_value, rel=1e-13)

    def test_float_mode_has_no_surd(self):
        assert c_of_q(Q_HALF, DEFAULT_POLICY).surd_value is None

    def test_methods_agree(self):
        for qv in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            q = QParam(qv)
            a = c_of_q(q, DEFAULT_POLICY, method="interchanged_sum").float_value
            b = c_of_q(q, DEFAULT_POLICY, method="double_sum").float_value
            assert abs(a - b) < 1e-12

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            c_of_q(Q_HALF, DEFAULT_POLICY, method="nope")

    def test_insufficient_budget_raises_instead_of_lying(self):
        q = QParam(Fraction(999, 1000))
        with pytest.raises(TruncationError):
            c_of_q(q, TruncationPolicy(max_terms=512))

    @pytest.mark.parametrize("qv, budget, needed", [
        (Fraction(999, 1000), 512, 916),
        (Fraction(9999, 10000), 2500, 8593),
    ])
    def test_short_budget_names_the_terms_it_needs(self, qv, budget, needed):
        with pytest.raises(TruncationError, match=f"needs about {needed} terms"):
            c_of_q(QParam(qv), TruncationPolicy.floating(budget))

    def test_hopeless_node_sum_is_refused_before_any_kernel(self, monkeypatch):
        # 0.999^2048 = 0.13: no 2048-node sum can reach a 1e-11 tail
        qgauss._node_kernels.clear()
        calls = []
        monkeypatch.setattr(qgauss, "kernel_eval_x2",
                            lambda *args: calls.append(args) or 1.0)
        with pytest.raises(TruncationError,
                           match=r"tail bounded by 1\.289e\+02 after 2048 nodes"):
            c_of_q(QParam(Fraction(999, 1000)), TruncationPolicy.floating(2048),
                   "double_sum")
        assert calls == []
        assert qgauss._node_kernels.entries == {}

    @pytest.mark.parametrize("text", ["1e-400", "0.99999999999999999999"])
    def test_q_whose_float_is_0_or_1_is_refused_by_float_routes_only(self, text):
        # the float routes took log10(0.0), log1p(-1.0) or 1/(1 - 1.0)
        q = QParam(Fraction(text))
        for method in ("interchanged_sum", "double_sum"):
            with pytest.raises(DomainError, match="use exact mode"):
                c_of_q(q, DEFAULT_POLICY, method)
        with pytest.raises(DomainError, match="use exact mode"):
            moment_by_integration(2, q, DEFAULT_POLICY)
        assert isinstance(c_of_q(q, TruncationPolicy.exact(8)).surd_value, QScalar)

    def test_classical_limit_approaches_sqrt_two_pi(self):
        gap_9 = abs(c_of_q(QParam(Fraction(9, 10)), DEFAULT_POLICY).float_value
                    - SQRT_TWO_PI)
        gap_99 = abs(c_of_q(QParam(Fraction(99, 100)), DEFAULT_POLICY).float_value
                     - SQRT_TWO_PI)
        assert gap_99 < gap_9


class TestMpNormalization:
    @pytest.mark.parametrize("qv", [Fraction(1, 1000), Fraction(1, 3), Fraction(1, 2),
                                    Fraction(5, 6), Fraction(16, 17), Fraction(48, 49),
                                    Fraction(137, 293), Fraction(140, 141),
                                    Fraction(409, 410), Fraction(1188, 1189)])
    def test_backward_sum_is_the_forward_sum(self, qv):
        value, used = qgauss._interchanged_c_mp(qv, 4096)
        want, needed = forward_c_mp(qv, 4096, 0)
        assert (float(value), used) == (float(want), needed)
        value, used = qgauss._interchanged_c_mp(qv, 4096, extra_dps=60)
        want, needed = forward_c_mp(qv, 4096, 60)
        assert (mp.nstr(exact_mpf(value), 50), used) == (mp.nstr(want, 50), needed)

    def test_integer_finish_rounds_as_the_mpf_finish(self):
        # every q = a/b with b < 60, the numeric benchmark's 1 - q grid and
        # two q near one; the scan picks the terms and digits as c_of_q does
        grid = {Fraction(a, b) for b in range(2, 60) for a in range(1, b)}
        grid |= {Fraction(n - 1, n) for n in (round(2 * 5000 ** (i / 8)) for i in range(9))}
        grid |= {Fraction(999, 1000), Fraction(4999, 5000)}
        for qv in sorted(grid):
            peak, needed = _magnitude_scan(
                qgauss._interchanged_log_terms(float(qv)), 16384)
            dps = max(30, int(peak) + 60)
            got = float(qgauss._interchanged_sum(qv, needed, dps))
            assert got.hex() == float(parent_mpf_sum(qv, needed, dps)).hex(), qv

    @pytest.mark.parametrize("qv, budget, used, pinned", [
        (Fraction(3447, 3448), 4000, 3006, "0x1.40d637a4c005dp+1"),
        (Fraction(9999, 10000), 10000, 8593, "0x1.40d82b26c58e0p+1"),
    ])
    def test_float_values_near_one_are_pinned(self, qv, budget, used, pinned):
        # the forward mpf sum's values; it takes seconds at these q
        result = c_of_q(QParam(qv), TruncationPolicy.floating(budget))
        assert (result.float_value.hex(), result.terms_used) == (pinned, used)


class TestMpNormalizationMemo:
    def test_moment_table_sums_the_series_once(self):
        qgauss._interchanged_sum.cache_clear()
        q = QParam(Fraction(140, 141))
        for k in range(11):
            moment_by_integration(k, q, TruncationPolicy.floating(4512))
        info = qgauss._interchanged_sum.cache_info()
        assert (info.misses, info.hits) == (1, 5)

    def test_refusal_and_terms_used_are_decided_per_call(self):
        q = QParam(Fraction(999, 1000))
        qgauss._interchanged_sum.cache_clear()
        cold = c_of_q(q, TruncationPolicy.floating(4096))
        warm = c_of_q(q, TruncationPolicy.floating(1024))
        assert (warm.float_value, warm.terms_used) == (cold.float_value, cold.terms_used)
        assert cold.terms_used == 916
        with pytest.raises(TruncationError) as refused:
            c_of_q(q, TruncationPolicy.floating(915))
        assert str(refused.value) == ("normalization series at q=999/1000 needs about 916 "
                                      "terms to converge, budget is 915; raise max_terms")
        info = qgauss._interchanged_sum.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_key_is_the_exact_q_not_its_float(self):
        third, near = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 40)
        assert float(third) == float(near)
        qgauss._interchanged_sum.cache_clear()
        values = [qgauss._interchanged_c_mp(qv, 4096, extra_dps=60)[0] for qv in (third, near)]
        assert qgauss._interchanged_sum.cache_info().misses == 2
        digits = [mp.nstr(exact_mpf(value), 50) for value in values]
        assert digits[0] != digits[1]
        assert digits[1] == mp.nstr(forward_c_mp(near, 4096, 60)[0], 50)


class TestFloatNodeSum:
    def test_double_sum_value_is_pinned(self):
        result = c_of_q(QParam(Fraction(409, 410)), TruncationPolicy.floating(13120),
                        "double_sum")
        assert (result.float_value.hex(), result.terms_used) == ("0x1.40c0230cd1da7p+1", 13120)

    def test_moment_values_are_pinned(self):
        q, trunc = QParam(Fraction(140, 141)), TruncationPolicy.floating(4512)
        got = [moment_by_integration(k, q, trunc).hex() for k in range(0, 11, 2)]
        assert got == ["0x1.ffffffffffbf8p-1", "0x1.fffffffffffe0p-1", "0x1.7d4874eb6f9e0p+1",
                       "0x1.d5e427b650930p+3", "0x1.92827047b0849p+6", "0x1.b830004d23435p+9"]

    @pytest.mark.parametrize("qv, n", [(Fraction(1, 2), 0), (Fraction(5, 6), 2),
                                       (Fraction(140, 141), 5)])
    def test_kernel_is_evaluated_at_every_node(self, monkeypatch, qv, n):
        qgauss._node_kernels.clear()
        calls = []
        original = qgauss.kernel_eval_x2
        monkeypatch.setattr(qgauss, "kernel_eval_x2",
                            lambda *args: calls.append(args) or original(*args))
        _, used = qgauss._node_sum(n, QParam(qv), TruncationPolicy.floating(4096))
        assert len(calls) == used > 2


class TestNodeKernelMemo:
    def test_each_node_kernel_is_evaluated_once(self, monkeypatch):
        qgauss._node_kernels.clear()
        calls = []
        original = qgauss.kernel_eval_x2
        monkeypatch.setattr(qgauss, "kernel_eval_x2",
                            lambda *args: calls.append(args) or original(*args))
        q, trunc = QParam(Fraction(140, 141)), TruncationPolicy.floating(4512)
        for k in range(11):
            moment_by_integration(k, q, trunc)
        assert 0 < len(calls) <= 4512     # 14,307 when every sum evaluates its own
        calls.clear()
        c_of_q(q, trunc, "double_sum")
        assert calls == []

    def test_memoized_sums_are_the_node_by_node_floats(self):
        qgauss._node_kernels.clear()
        for qv in (Fraction(1, 2), Fraction(5, 6), Fraction(140, 141)):
            q = QParam(qv)
            for n in (5, 2, 1, 0):      # n = 5 stops first, so n < 5 grow its entry
                got = qgauss._node_sum(n, q, TruncationPolicy.floating(4512))
                want = node_by_node_float(n, q, TruncationPolicy.floating(4512))
                assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (qv, n)

    def test_budgets_keep_their_own_kernels(self):
        # at 140/141 the outer node's kernel takes the mp fallback at 4512 and
        # the reciprocal route at 8192, so the two entries differ there
        q = QParam(Fraction(140, 141))
        qgauss._node_kernels.clear()
        warm = {budget: [qgauss._node_sum(n, q, TruncationPolicy.floating(budget))[0].hex()
                         for n in (2, 0)] for budget in (4512, 8192)}
        outer = {budget: qgauss._node_kernels.entry(q, budget)[0] for budget in warm}
        for budget in warm:
            trunc = TruncationPolicy.floating(budget)
            assert outer[budget] == kernel_eval_x2(1 / (1 - q.as_float), q, trunc)
            qgauss._node_kernels.clear()
            cold = [qgauss._node_sum(n, q, trunc)[0].hex() for n in (2, 0)]
            assert warm[budget] == cold, budget
        assert outer[4512] != outer[8192]

    def test_bound_evicts_the_oldest_then_stops_growing(self):
        memo = qgauss._NodeKernels(4)
        first, second = memo.entry(Q_HALF, 8), memo.entry(Q_HALF, 9)
        for kernel in (0.5, 0.25):
            assert memo.store(first, kernel) == kernel
        for kernel in (0.125, 0.0625, 0.03125, 0.015625):
            assert memo.store(second, kernel) == kernel
        assert list(memo.entries.values()) == [second]
        assert memo.store(second, 0.0078125) == 0.0078125   # computed, not stored
        assert (second.tolist(), memo.doubles) == ([0.125, 0.0625, 0.03125, 0.015625], 4)


class TestExactSums:
    @pytest.mark.parametrize("qv", [Fraction(1, 2), Fraction(4, 5), Fraction(6, 7),
                                    Fraction(137, 293)])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_node_sum_is_the_node_by_node_fraction(self, qv, n):
        q = QParam(qv)
        for M in (1, 2, 3, 8, 17, 32):
            assert qgauss._node_sum(n, q, TruncationPolicy.exact(M)) == (
                node_by_node_exact(n, q, M), M), M

    @given(st.fractions(min_value=Fraction(1, 30), max_value=Fraction(29, 30),
                        max_denominator=30),
           st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_node_sum_equals_node_by_node_property(self, qv, n, M):
        q = QParam(qv)
        assert qgauss._node_sum(n, q, TruncationPolicy.exact(M))[0] == node_by_node_exact(n, q, M)

    @pytest.mark.parametrize("qv, budgets", [
        (Fraction(1, 2), (1, 2, 31, 128)),
        (Fraction(6, 7), (1, 2, 31, 128)),
        (Fraction(137, 293), (1, 2, 31, 64)),
        (Fraction(999, 1000), (1, 2, 31, 64)),
    ])
    def test_nested_c_is_the_plain_partial_sum(self, qv, budgets):
        for M in budgets:
            got = c_of_q(QParam(qv), TruncationPolicy.exact(M)).surd_value.rational_part
            assert got == 2 * sum(islice(interchanged_terms(qv), M)), M

    def test_exact_values_are_pinned(self):
        # computed by the node-by-node loop and the plain partial sum
        moment = moment_by_integration(4, Q_HALF, TruncationPolicy.exact(128))
        assert hex_sha256(moment) == (
            "50a87b02485b5088d317a1ad47aa77c80bef08e225e9da670bb941f13e69879e")
        c = c_of_q(QParam(Fraction(6, 7)), TruncationPolicy.exact(128))
        assert hex_sha256(c.surd_value.rational_part) == (
            "eda45d514a712a493536b75468932a106d6b0f6d8d3001ff551f039635a9a2d4")

    def test_exact_moment_evaluates_no_kernel(self, monkeypatch):
        calls = []
        original = qgauss.kernel_eval_x2
        monkeypatch.setattr(qgauss, "kernel_eval_x2",
                            lambda *args: calls.append(args) or original(*args))
        moment_by_integration(4, Q_HALF, TruncationPolicy.exact(32))
        assert calls == []
        qgauss._node_kernels.clear()
        moment_by_integration(4, Q_HALF, DEFAULT_POLICY)
        assert calls


class TestMoments:
    def test_closed_form_is_double_factorial(self):
        assert moment_closed_form(0) == q_double_factorial(0)
        assert moment_closed_form(2) == q_bracket(1) * q_bracket(3)
        assert moment_closed_form(3) == q_bracket(1) * q_bracket(3) * q_bracket(5)

    def test_closed_form_values_at_half(self):
        assert moment_closed_form(2).eval(Q_HALF) == Fraction(7, 4)
        assert moment_closed_form(3).eval(Q_HALF) == Fraction(217, 64)

    @pytest.mark.parametrize("k", [0, 2, 4, 6])
    def test_quadrature_matches_closed_form(self, k):
        got = moment_by_integration(k, Q_HALF, DEFAULT_POLICY)
        want = float(moment_closed_form(k // 2).eval(Q_HALF))
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_odd_moments_vanish_exactly(self, k):
        assert moment_by_integration(k, Q_HALF, DEFAULT_POLICY) == 0.0
        exact = moment_by_integration(k, Q_HALF, TruncationPolicy.exact(8))
        assert exact == 0 and isinstance(exact, Fraction)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            moment_by_integration(-1, Q_HALF, DEFAULT_POLICY)

    def test_exact_mode_returns_rational_close_to_closed_form(self):
        got = moment_by_integration(4, Q_HALF, TruncationPolicy.exact(128))
        gap = got - Fraction(7, 4)
        # truncated node sum, not the closed form; compare only as floats
        assert got != Fraction(7, 4)
        assert abs(float(gap)) < 1e-30

    def test_recursion_ratio_is_odd_bracket(self):
        prev = moment_by_integration(2, Q_HALF, DEFAULT_POLICY)
        curr = moment_by_integration(4, Q_HALF, DEFAULT_POLICY)
        assert curr / prev == pytest.approx(float(q_bracket(3).eval(Q_HALF)), abs=1e-10)

    def test_tiny_budget_near_classical_limit_raises(self):
        q = QParam(Fraction(999, 1000))
        with pytest.raises(TruncationError):
            moment_by_integration(4, q, TruncationPolicy(max_terms=64))

    @given(q_params, st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_even_moments_positive_and_increasing_in_order(self, q, n):
        lo = moment_by_integration(2 * n, q, DEFAULT_POLICY)
        hi = moment_by_integration(2 * n + 2, q, DEFAULT_POLICY)
        assert lo > 0
        # ratio is [2n+1]_q >= 1
        assert hi >= lo * 0.999


class TestNearClassicalLimit:
    """q in [0.99, 0.9999]: every float route is right within its bound or raises."""

    @given(near_one, near_one_budgets)
    @example(QParam(Fraction(9652, 9707)), TruncationPolicy.floating(4096))
    @settings(max_examples=10, deadline=None)
    def test_normalization_routes_agree_or_one_raises(self, q, trunc):
        try:
            a = c_of_q(q, trunc, "interchanged_sum").float_value
            b = c_of_q(q, trunc, "double_sum").float_value
        except TruncationError:
            return
        assert abs(a - b) < 1e-10

    @given(st.integers(min_value=100, max_value=10000),
           st.integers(min_value=0, max_value=64 * 64))
    @example(10000, 64 * 64)
    @settings(max_examples=300, deadline=None)
    def test_float_kernel_matches_a_50_digit_forward_sum(self, N, k):
        # q = 1 - 1/N, x^2 = k/64 <= min(N, 64) = 64 lies inside [-nu, nu]
        got = kernel_eval_x2(k / 64, QParam(1 - Fraction(1, N)), TruncationPolicy.floating(512))
        with mp.workdps(50):
            qm = 1 - mp.mpf(1) / N
            want = entire_forward_mp(-qm * qm * k / 64 / (1 + qm), qm * qm)
        assert abs(got - want) <= 1e-12 * abs(want)

    @given(near_one, near_one_budgets, st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_moment_recursion_holds_or_the_node_sum_raises(self, q, trunc, n):
        try:
            ratio = (moment_by_integration(2 * n + 2, q, trunc)
                     / moment_by_integration(2 * n, q, trunc))
        except TruncationError:
            return
        assert abs(ratio - float(q_bracket(2 * n + 1).eval(q.value))) < 1e-8
