"""The verify checks' own guards, beyond their pass/fail at q = 1/2."""

from fractions import Fraction

import pytest

from qfj import suites
from qfj.qcalc import DEFAULT_POLICY, TruncationPolicy
from qfj.qcore import QParam


# near q = 0, A6 g^6 sinks under dps=60's rounding noise (|A6| is about 1e-90
# at 1/1000), so the check sizes dps from A6 there; at 1e-20 the quadrature's
# tail bound underflowed to 0 and its halves stopped 3 nodes short
@pytest.mark.parametrize("qv", [Fraction(1, 2), Fraction(3, 4), Fraction(1, 100),
                                Fraction(1, 1000), Fraction(1, 10 ** 20)])
def test_g6_scaling_passes_on_an_untruncated_series(qv):
    result = suites.g6_scaling(QParam(qv), DEFAULT_POLICY)
    assert result.passed
    assert result.detail == "residual ratios under g -> g/2: 64.0, 64.0 (want ~64)"


@pytest.mark.parametrize("qv, budget, dps, detail", [
    (Fraction(1, 2), 512, 40, "64.0, 64.0"),
    (Fraction(3, 4), 512, 34, "64.0, 64.0"),
    (Fraction(99, 100), 4096, 30, "66.4, 64.6"),
])
def test_g6_scaling_runs_at_the_precision_its_residual_needs(monkeypatch, qv, budget,
                                                             dps, detail):
    # dps is 20 + the digits of 1/(|A6| (1/40)^6), below 60 at all three
    seen = []
    original = suites.fj_numeric
    monkeypatch.setattr(suites, "fj_numeric",
                        lambda *args, dps: seen.append(dps) or original(*args, dps=dps))
    result = suites.g6_scaling(QParam(qv), TruncationPolicy.floating(budget))
    assert seen == [dps] * 3
    assert result == (
        "g6-scaling", True, f"residual ratios under g -> g/2: {detail} (want ~64)")


def test_g6_scaling_refuses_a_residual_the_truncation_contaminates():
    # at 9/10 the max_c cap of 60 leaves a series error of about 7e-11 in the
    # g = 1/40 residual of 1.6e-10, whose ratios 61.3 and 38.2 would pass
    result = suites.g6_scaling(QParam(Fraction(9, 10)), DEFAULT_POLICY)
    assert not result.passed
    assert result.detail == (
        "residual ratios under g -> g/2: 61.3, 38.2 (want ~64); series truncation "
        "bound 7.0e-11 is above a tenth of the residual 1.6e-10 at g=1/40")


@pytest.mark.parametrize("qv, budget, g", [
    (Fraction(1, 2), 512, "0.05"),
    (Fraction(9, 10), 512, "0.0173"),       # g = 0.05 left a 6.2e-9 gap here
    (Fraction(99, 100), 4096, "0.0143"),    # and 1.9e-8 here
])
def test_numeric_matches_series_sizes_g_from_a6(qv, budget, g):
    result = suites.numeric_matches_series(QParam(qv), TruncationPolicy.floating(budget))
    assert result.passed
    assert result.detail.startswith(f"float quadrature vs order-4 series at g={g}: gap ")
