"""Named verification suites behind the `verify` CLI command.

Every check is a module-level function (q, trunc, <its own ranges>) ->
CheckResult whose keyword defaults are its suite's ranges; the acceptance
tests call the same functions with their own. Exact arithmetic is compared
exactly, quadrature and floats within stated tolerances, and every detail
string states what was compared.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import SUITE_NAMES
from .errors import DomainError, TruncationError
from .fseries import (_summed_blocks, fj_blocks, fj_coefficient,
                      fj_coefficient_via_moments, fj_numeric, fj_series, fj_term,
                      lambda_closed_form, lambda_oracle)
from .pairings import (OrderedPairing, enumerate_pairings, weight,
                       weight_exponent_counts, weighted_pairing_sum)
from .qcalc import (DEFAULT_POLICY, E_q, TruncationPolicy, XPoly, e_q,
                    jackson_integral)
from .qcore import QParam, q_bracket, q_double_factorial, q_factorial
from .qgauss import (MOMENT_TOLERANCE, SQRT_TWO_PI, c_of_q, kernel_eval,
                     moment_by_integration, moment_closed_form)
from .qgraphs import graph_block_value, graph_sum_coefficient

CLASSICAL_PROBES = (Fraction(9, 10), Fraction(99, 100))  # q -> 1 trend points
# _series_max_c grows without bound as q -> 1 (828 at q = 99/100 for base 12),
# and a series coefficient's cost grows faster than linearly in max_c
MAX_C_CAP = 60


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _shrinking(name: str, label: str, qs, errs: list, bound: float) -> CheckResult:
    """Pass when errs fall strictly along qs and the last one is under bound."""
    ok = all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] < bound
    along = ", ".join(f"{err:.3e} at q={float(p)}" for p, err in zip(qs, errs))
    return CheckResult(name, ok, f"{label}: {along}")


def _series_max_c(q: QParam, base: int) -> int:
    """Smallest max_c >= base with q^(2 max_c) <= 4^(-base), at most MAX_C_CAP.

    The c-blocks of the series shrink like q^(2c), so this carries to any q
    the truncation that max_c = base gives at q = 1/2, where it returns base.
    """
    q_sq, bound = q.value ** 2, Fraction(1, 4 ** base)
    max_c = base
    while q_sq ** max_c > bound and max_c < MAX_C_CAP:
        max_c += 1
    return max_c


def q_derivative_product_rule(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    f = XPoly((Fraction(1), Fraction(0), Fraction(1)))          # 1 + x^2
    g = XPoly((Fraction(0), Fraction(1), Fraction(0), Fraction(1)))  # x + x^3
    lhs = (f * g).q_derivative(q)
    rhs = f.scale_argument(q.value) * g.q_derivative(q) + f.q_derivative(q) * g
    ok = all(lhs(Fraction(x, 7)) == rhs(Fraction(x, 7)) for x in range(-14, 15))
    return CheckResult("q-derivative-product-rule", ok,
                       "d_q(fg) = f(qx) d_q g + (d_q f) g on a rational grid")


def fundamental_theorem(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    p = XPoly((Fraction(0), Fraction(-2), Fraction(0), Fraction(1)))  # x^3 - 2x
    b = Fraction(2)
    integral = jackson_integral(p.q_derivative(q), b, q).value
    return CheckResult("fundamental-theorem", integral == p(b) - p(Fraction(0)),
                       f"integral of d_q(x^3-2x) over [0,2] = {integral}, "
                       f"boundary difference = {p(b) - p(Fraction(0))}")


def integration_by_parts(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    u = XPoly((Fraction(0), Fraction(0), Fraction(1)))  # x^2
    v = XPoly((Fraction(0), Fraction(1)))               # x
    b = Fraction(2)
    lhs = jackson_integral(u.scale_argument(q.value) * v.q_derivative(q), b, q).value
    rhs = (u(b) * v(b) - u(Fraction(0)) * v(Fraction(0))
           - jackson_integral(u.q_derivative(q) * v, b, q).value)
    return CheckResult("integration-by-parts", lhs == rhs, f"both sides equal {lhs}")


def classical_integral_probe(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    quad = jackson_integral(XPoly((Fraction(0), Fraction(0), Fraction(1))),
                            Fraction(1), QParam(Fraction(999, 1000))).value
    err = abs(quad - Fraction(1, 3))
    return CheckResult("classical-integral-probe", err < Fraction(1, 1000),
                       f"integral of x^2 over [0,1] at q=0.999 is off by {float(err):.3e}")


def exponential_inverse_series(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    qv = q.value
    factorials = [q_factorial(j).eval(qv) for j in range(13)]
    ok = all(sum(Fraction((-1) ** j) * qv ** (j * (j - 1) // 2)
                 / (factorials[j] * factorials[m - j])
                 for j in range(m + 1)) == 0
             for m in range(1, 13))
    return CheckResult("exponential-inverse-series", ok,
                       "coefficients of e_q(x) E_q(-x) vanish through degree 12")


def exponential_inverse_pointwise(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    product = e_q(0.3, q, trunc) * E_q(-0.3, q, trunc)
    return CheckResult("exponential-inverse-pointwise", abs(product - 1.0) < 1e-12,
                       f"e_q(0.3) E_q(-0.3) = {product!r}")


def kernel_even(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    exact = TruncationPolicy.exact(64)
    ok = all(kernel_eval(x, q, exact) == kernel_eval(-x, q, exact)
             for x in (Fraction(3, 2), Fraction(1, 4), Fraction(9, 8)))
    return CheckResult("kernel-even", ok, "kernel(x) = kernel(-x) exactly")


def moments_match_closed_form(q: QParam, trunc: TruncationPolicy,
                              ks=(0, 2, 4)) -> CheckResult:
    worst = max(abs(moment_by_integration(k, q, trunc)
                    - float(moment_closed_form(k // 2).eval(q.value))) for k in ks)
    return CheckResult("moments-match-closed-form", worst < MOMENT_TOLERANCE,
                       f"max |quadrature - closed form| = {worst:.3e} "
                       f"over k in {','.join(map(str, ks))}")


def odd_moments_vanish(q: QParam, trunc: TruncationPolicy, ks=(1, 3, 5)) -> CheckResult:
    ok = all(moment_by_integration(k, q, trunc) == 0 for k in ks)
    return CheckResult("odd-moments-vanish", ok,
                       "odd moments are exactly zero by declared parity")


def moment_recursion(q: QParam, trunc: TruncationPolicy, ns=(1, 2)) -> CheckResult:
    worst = max(abs(moment_by_integration(2 * n + 2, q, trunc)
                    / moment_by_integration(2 * n, q, trunc)
                    - float(q_bracket(2 * n + 1).eval(q.value))) for n in ns)
    return CheckResult("moment-recursion", worst < MOMENT_TOLERANCE,
                       f"max |m(2n+2)/m(2n) - [2n+1]_q| = {worst:.3e}")


def normalization_methods_agree(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    a = c_of_q(q, trunc, method="interchanged_sum").float_value
    b = c_of_q(q, trunc, method="double_sum").float_value
    return CheckResult("normalization-methods-agree", abs(a - b) < 1e-12,
                       f"interchanged {a!r} vs double {b!r}")


def normalization_classical_trend(q: QParam, trunc: TruncationPolicy,
                                  qs=CLASSICAL_PROBES, final_gap=math.inf) -> CheckResult:
    errs = [abs(c_of_q(QParam(p), trunc).float_value - SQRT_TWO_PI) for p in qs]
    return _shrinking("normalization-classical-trend", "|c(q) - sqrt(2 pi)|",
                      qs, errs, final_gap)


def pairing_count(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    ok = all(len(enumerate_pairings(n)) == math.prod(range(1, 2 * n, 2))
             for n in range(1, 6))
    return CheckResult("pairing-count", ok, "(2n-1)!! pairings enumerated for n = 1..5")


def weighted_sum_identity(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    ok = all(weighted_pairing_sum(n) == q_double_factorial(n) for n in range(1, 7))
    return CheckResult("weighted-sum-identity", ok,
                       "sum of pairing weights equals the q-double factorial, n = 1..6")


def n2_weight_spectrum(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    weights = [weight(p) for p in enumerate_pairings(2)]
    exps = sorted(w.as_monomial()[0] for w in weights)
    ok = exps == [0, 1, 2] and sum(weights[1:], weights[0]) == q_bracket(3)
    return CheckResult("n2-weight-spectrum", ok, f"n=2 exponents are {exps}")


def max_exponent(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    ok = all(max(weight_exponent_counts(n)) == n * (n - 1) for n in range(1, 7))
    return CheckResult("max-exponent", ok, "largest weight exponent is n(n-1), n = 1..6")


def q_one_degeneration(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    ok = all(weighted_pairing_sum(n).eval(Fraction(1)) == math.prod(range(1, 2 * n, 2))
             for n in range(1, 7))
    return CheckResult("q-one-degeneration", ok,
                       "weights collapse to the bare pairing count at q = 1")


def closed_form_matches_oracle(q: QParam, trunc: TruncationPolicy,
                               max_total=6) -> CheckResult:
    table = lambda_oracle(max_total, max_total, q)
    mismatches = [(c, d) for c in range(max_total + 1) for d in range(max_total + 1 - c)
                  if lambda_closed_form(c, d, q) != table.lam(c, d)]
    return CheckResult("closed-form-matches-oracle", not mismatches,
                       f"checked c+d <= {max_total} at q={q}; "
                       f"mismatches: {mismatches or 'none'}")


def row_zero_collapses(q: QParam, trunc: TruncationPolicy, max_c=6) -> CheckResult:
    ok = (lambda_closed_form(0, 0, q) == 1
          and all(lambda_closed_form(c, 0, q) == 0 for c in range(1, max_c + 1)))
    return CheckResult("row-zero-collapses", ok,
                       "lambda_{c,0} is 1 at c=0 and vanishes for c >= 1")


def classical_diagonal_probe(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    probe_q = QParam(Fraction(999, 1000))
    worst = max(abs(float(lambda_closed_form(0, d, probe_q)) * math.factorial(d) - 1.0)
                for d in range(4))
    return CheckResult("classical-diagonal-probe", worst < 0.01,
                       f"max |d! lambda_(0,d) - 1| = {worst:.3e} at q=0.999")


def g0_normalizes(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    blocks = fj_blocks(0, q, 6)
    ok = (blocks[0] == 1 and all(b == 0 for b in blocks[1:])
          and fj_coefficient(0, q) == 1)
    return CheckResult("g0-normalizes", ok,
                       "g^0 coefficient is 1 with every c >= 1 block cancelling")


def odd_powers_vanish(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    ok = all(fj_coefficient(m, q) == 0 for m in (1, 3, 5))
    return CheckResult("odd-powers-vanish", ok, "odd series coefficients are exactly zero")


def moment_route_agreement(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    ok = all(fj_coefficient(m, probe, 6) == fj_coefficient_via_moments(m, probe, 6)
             for m in (0, 2) for probe in (q, QParam(Fraction(1, 4))))
    return CheckResult("moment-route-agreement", ok,
                       "direct series and moment resummation agree exactly, m = 0, 2")


def classical_limit_trend(q: QParam, trunc: TruncationPolicy,
                          qs=CLASSICAL_PROBES, final_rel=math.inf) -> CheckResult:
    target = 5.0 / 24.0
    errs = [abs(float(fj_coefficient(2, QParam(p), 12)) - target) for p in qs]
    return _shrinking("classical-limit-trend", "|A2(q) - 5/24|", qs, errs,
                      final_rel * target)


def numeric_matches_series(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    # the series omits A6 g^6: g keeps that under a tenth of the 1e-10 tolerance
    max_c = _series_max_c(q, 12)
    a6 = abs(float(fj_coefficient(6, q, max_c)))    # 0.0 once A6 underflows
    g = 0.05 if a6 * 0.05 ** 6 <= 1e-11 else (1e-11 / a6) ** (1 / 6)
    gap = abs(fj_numeric(g, q, trunc) - fj_series(4, q, max_c).eval(g))
    return CheckResult("numeric-matches-series", gap < 1e-10,
                       f"float quadrature vs order-4 series at g={g:.3g}: gap {gap:.3e}")


def g6_scaling(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    """Residual against the order-4 series must scale like g^6.

    Needs the high-precision quadrature: at g = 0.025 the residual is below
    1e-19, far under float64 resolution on values near 1. The series sums
    c-blocks up to max_c = 36 at q = 1/2, carried to q by _series_max_c. They
    shrink like q^(2c), so |last block| q^2/(1-q^2) times g^m, over m = 0, 2, 4,
    bounds the series truncation at g; it must stay under a tenth of the residual.
    The quadrature's rounding noise is near 10^-(dps+1), so dps keeps about 20
    digits of it under |A6| (1/40)^6, the residual at the smallest g.
    """
    import mpmath as mp

    max_c = _series_max_c(q, 36)
    q_sq = q.value ** 2
    rows = {}                       # m: (A_m, |last block|), each from one integer pass
    for m in (0, 2, 4):
        total, last, denominator = _summed_blocks(m // 2, q.value, max_c)
        rows[m] = Fraction(total, denominator), abs(Fraction(last, denominator))
    gs, errs, bounds = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)), [], []
    a6, _, denominator = _summed_blocks(3, q.value, max_c)
    digits = math.log10(denominator) - math.log10(abs(a6)) - 6 * math.log10(gs[-1])
    dps = math.ceil(digits) + 20
    with mp.workdps(dps):
        for g in gs:
            exact = sum(coefficient * g ** m for m, (coefficient, _) in rows.items())
            target = mp.mpf(exact.numerator) / exact.denominator
            errs.append(abs(fj_numeric(g, q, trunc, dps=dps) - target))
            bounds.append(float(sum(last * g ** m for m, (_, last) in rows.items())
                                * q_sq / (1 - q_sq)))
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        detail = (f"residual ratios under g -> g/2: "
                  f"{float(ratios[0]):.1f}, {float(ratios[1]):.1f} (want ~64)")
    over = [(b, float(e), g) for g, b, e in zip(gs, bounds, errs) if 10 * b > e]
    if over:
        detail += ("; series truncation bound {:.1e} is above a tenth of the residual "
                   "{:.1e} at g={}").format(*over[-1])
    return CheckResult("g6-scaling", not over and all(32 <= r <= 128 for r in ratios), detail)


def g0_block_cancellation(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    ok = graph_block_value(0, 0, 0, q) == 1 and all(
        sum(graph_block_value(c, 0, k, q) for k in range(c + 1)) == 0
        for c in (1, 2))
    return CheckResult("g0-block-cancellation", ok,
                       "kernel-only rows cancel: c=0 gives 1, c=1,2 give 0")


def blocks_match_series_terms(q: QParam, trunc: TruncationPolicy,
                              flags=12) -> CheckResult:
    mismatches = [(c, dprime, k, str(probe))
                  for probe in (q, QParam(Fraction(1, 4)))
                  for dprime in range(0, flags // 3 + 1, 2)
                  for c in range((flags - 3 * dprime) // 2 + 1)
                  for k in range(c + 1)
                  if graph_block_value(c, dprime, k, probe) != fj_term(
                      c, k, dprime // 2, probe)]
    return CheckResult("blocks-match-series-terms", not mismatches,
                       f"all blocks with <= {flags} flags; "
                       f"mismatches: {mismatches or 'none'}")


def flag_order_independence(q: QParam, trunc: TruncationPolicy) -> CheckResult:
    forward = weighted_pairing_sum(4)
    # reading the flags 1..8 right to left maps the pair (a, b) to (9-b, 9-a)
    mirrored = [OrderedPairing(tuple(sorted((9 - b, 9 - a) for a, b in p.pairs)))
                for p in enumerate_pairings(4)]
    return CheckResult("flag-order-independence",
                       sum(map(weight, mirrored), start=forward * 0) == forward,
                       "pairing weight sum is invariant under reversing the flag line")


def aggregate_matches_series(q: QParam, trunc: TruncationPolicy,
                             cases=((2, 3),)) -> CheckResult:
    ok = all(graph_sum_coefficient(m, q, max_c=max_c) == fj_coefficient(m, q, max_c)
             for m, max_c in cases)
    reproduced = ", ".join(f"g^{m} coefficient at max_c = {max_c}" for m, max_c in cases)
    return CheckResult("aggregate-matches-series", ok, f"graph sum reproduces the {reproduced}")


_SUITES = {
    "qcalc": (q_derivative_product_rule, fundamental_theorem, integration_by_parts,
              classical_integral_probe, exponential_inverse_series,
              exponential_inverse_pointwise),
    "gauss": (kernel_even, moments_match_closed_form, odd_moments_vanish,
              moment_recursion, normalization_methods_agree,
              normalization_classical_trend),
    "pairings": (pairing_count, weighted_sum_identity, n2_weight_spectrum,
                 max_exponent, q_one_degeneration),
    "lambda": (closed_form_matches_oracle, row_zero_collapses, classical_diagonal_probe),
    "series": (g0_normalizes, odd_powers_vanish, moment_route_agreement,
               classical_limit_trend, numeric_matches_series, g6_scaling),
    "graphs": (g0_block_cancellation, blocks_match_series_terms,
               flag_order_independence, aggregate_matches_series),
}


def run_suite(name: str, q: QParam | None = None,
              trunc: TruncationPolicy = DEFAULT_POLICY) -> list[CheckResult]:
    """Run one named suite (or 'all') at the given q, default 1/2, with every
    series and quadrature cut off by trunc. A check whose budget trunc
    refuses is a failed result, named like its function, whose detail is the
    TruncationError's message."""
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    qp = q if q is not None else QParam(Fraction(1, 2))
    keys = SUITE_NAMES[:-1] if name == "all" else (name,)
    results = []
    for check in (fn for key in keys for fn in _SUITES[key]):
        try:
            results.append(check(qp, trunc))
        except TruncationError as exc:
            results.append(CheckResult(check.__name__.replace("_", "-"), False, str(exc)))
    return results
