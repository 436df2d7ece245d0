"""Acceptance gate: the eleven contract checks, one test per criterion.

Each criterion runs the `verify` suite checks of qfj.suites with its own
ranges, prints a single pass/fail line (capture is suspended so the lines
always reach the console) and enforces its runtime budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from qfj import suites
from qfj.fseries import fj_coefficient
from qfj.qcalc import DEFAULT_POLICY, TruncationPolicy
from qfj.qcore import QParam

Q_HALF = QParam(Fraction(1, 2))
CLASSICAL_QS = (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))


def _report(capsys, num: int, passed: bool, detail: str, elapsed: float,
            budget: float):
    status = "PASS" if passed else "FAIL"
    line = (f"criterion {num:02d}: {status} - {detail} "
            f"({elapsed:.2f} s, budget {budget:.0f} s)")
    with capsys.disabled():
        print(line, flush=True)


@contextmanager
def criterion(capsys, num: int, budget: float, detail: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(capsys, num, False, detail, time.perf_counter() - t0, budget)
        raise
    elapsed = time.perf_counter() - t0
    _report(capsys, num, elapsed <= budget, detail, elapsed, budget)
    assert elapsed <= budget, f"runtime {elapsed:.2f} s over the {budget} s budget"


def check(fn, q=Q_HALF, trunc=DEFAULT_POLICY, **ranges):
    result = fn(q, trunc, **ranges)
    assert result.passed, (result.name, str(q), result.detail)


def test_c01_pairing_identity_exact(capsys):
    with criterion(capsys, 1, 5.0, "weighted pairing sum equals q-double factorial, n=1..6"):
        check(suites.weighted_sum_identity)


def test_c02_two_pair_weights(capsys):
    with criterion(capsys, 2, 1.0, "n=2 weights are {1, q, q^2} and sum to [3]_q"):
        check(suites.n2_weight_spectrum)


def test_c03_moments_match_closed_form(capsys):
    with criterion(capsys, 3, 10.0, "integrated moments hit [2n-1]_q!! within 1e-8, "
                            "odd moments exactly zero"):
        for qv in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            check(suites.moments_match_closed_form, QParam(qv), ks=range(0, 11, 2))
            check(suites.odd_moments_vanish, QParam(qv), ks=range(1, 11, 2))


def test_c04_moment_recursion(capsys):
    with criterion(capsys, 4, 5.0, "consecutive even moments step by [2n+1]_q within 1e-8"):
        check(suites.moment_recursion, ns=range(5))


def test_c05_normalization_methods_and_limit(capsys):
    with criterion(capsys, 5, 5.0, "c(q) methods agree to 1e-12; |c(q)-sqrt(2pi)| "
                           "shrinks along 0.9, 0.99, 0.999 and is < 0.05"):
        for qv in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            check(suites.normalization_methods_agree, QParam(qv))
        check(suites.normalization_classical_trend, trunc=TruncationPolicy(max_terms=2048),
              qs=CLASSICAL_QS, final_gap=0.05)


def test_c06_exponential_inverse(capsys):
    with criterion(capsys, 6, 1.0, "e_q * E_q(-x) convolution vanishes exactly "
                           "through degree 12"):
        check(suites.exponential_inverse_series)


def test_c07_lambda_closed_form_vs_oracle(capsys):
    with criterion(capsys, 7, 10.0, "weight-transfer coefficients equal the "
                            "series-division oracle, c+d <= 8"):
        for qv in (Fraction(1, 4), Fraction(1, 2)):
            check(suites.closed_form_matches_oracle, QParam(qv), max_total=8)
            check(suites.row_zero_collapses, QParam(qv), max_c=8)


def test_c08_series_normalization_and_parity(capsys):
    with criterion(capsys, 8, 5.0, "constant term is 1 with per-block cancellation, "
                           "odd orders vanish"):
        check(suites.g0_normalizes)
        check(suites.odd_powers_vanish)


def test_c09_finite_difference_oracle(capsys):
    with criterion(capsys, 9, 30.0, "finite-difference curvature of the numeric "
                            "integral reproduces the g^2 coefficient at O(h^2)"):
        target = float(fj_coefficient(2, Q_HALF, 20).rational_part)
        errors = [abs(suites.g2_by_finite_difference(Q_HALF, DEFAULT_POLICY, h) - target)
                  for h in (1e-2, 5e-3)]
        assert errors[0] > errors[1]
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 5.0, (errors, ratio)


def test_c10_classical_limit_of_second_order(capsys):
    with criterion(capsys, 10, 30.0, "g^2 coefficient approaches 5/24 along "
                             "q = 0.9, 0.99, 0.999, within 2%"):
        check(suites.classical_limit_trend, qs=CLASSICAL_QS, final_rel=0.02)


def test_c11_graph_sum_reproduces_series(capsys):
    with criterion(capsys, 11, 300.0, "graph sums equal series coefficients exactly, "
                              "blockwise and in aggregate"):
        # 16 flags covers every block of (m, max_c) = (0, 4), (2, 4) and (4, 2)
        check(suites.blocks_match_series_terms, flags=16)
        check(suites.aggregate_matches_series, cases=((0, 4), (2, 4), (4, 2)))
