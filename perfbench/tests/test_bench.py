"""Tests of the benchmark itself (not of qfj).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import qfj  # noqa: E402
import qfj.cli  # noqa: E402,F401  (the tracer also wraps cli.main)

import cli_cold  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fixed_seed_generates_the_same_ops(workload):
    first = workloads.generate(workload, 7, 0)
    assert first == workloads.generate(workload, 7, 0)
    assert json.loads(json.dumps(first)) == first  # plain data only


@pytest.mark.parametrize("workload", ("exact", "numeric"))
def test_other_seed_or_pass_changes_the_inputs(workload):
    base = workloads.generate(workload, 7, 0)
    assert workloads.generate(workload, 8, 0) != base
    assert workloads.generate(workload, 7, 1) != base
    # the op mix is a fixed template: only inputs and order move
    assert workloads.op_mix(workloads.generate(workload, 8, 0)) == workloads.op_mix(base)


def test_exact_sessions_reuse_about_half_of_their_q_values():
    share = workloads.q_reuse_share([workloads.exact_ops(seed) for seed in range(20)])
    assert 0.4 <= share <= 0.6


def test_self_time_on_a_synthetic_span_tree():
    name, layer = tracing.NAME, tracing.LAYER
    spans = [
        ["root", "bench", 0.0, 10.0, -1, "op", None],
        ["a", "qgauss", 1.0, 5.0, 0, "op", None],
        ["b", "qcalc", 2.0, 3.0, 1, "op", None],
        ["c", "qcalc", 2.5, 4.0, 1, "op", None],   # overlaps b: a loses 2.0..4.0 once
        ["d", "qcore", 6.0, 12.0, 0, "op", None],  # runs past root: clipped to 6..10
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 1.5, 6.0])
    summary = tracing.summarize(spans, {"max_degree": 0, "eval_coeffs": 0, "nodes": 0,
                                        "caches": {}})
    assert summary["qgauss.self_s"] == pytest.approx(2.0)
    assert summary["qcalc.self_s"] == pytest.approx(2.5)
    assert summary["qcore.self_s"] == pytest.approx(6.0)
    assert summary["qcalc.calls"] == 2
    assert (spans[0][name], spans[1][layer]) == ("root", "qgauss")


def test_a_wrong_result_is_counted_in_fail_ratio():
    op = {"kind": "lambda_closed_form", "c": 2, "d": 2, "q": "3/5", "expect": "value"}
    good = ops.run_op(op)
    wrong = {"outcome": "value", "error": None,
             "result": qfj.lambda_closed_form(2, 2, qfj.QParam(Fraction(4, 5)))}
    rows = [{"id": f"p0.{i}", "passed": ops.check(op, outcome)[0], "time_s": 0.01}
            for i, outcome in enumerate((good, wrong))]
    assert run.counts(rows) == {"attempted": 2, "failed": 1, "fail_ratio": 0.5}
    metrics = run.end_to_end(rows, "cli_cold", [0.1], 1024)
    assert metrics["ops_per_s"]["value"] == pytest.approx(1 / 0.02)


def test_an_unexpected_exception_fails_the_op():
    op = {"kind": "fj_coefficient", "m": 2, "max_c": 4, "q": "3/2", "expect": "value"}
    outcome = ops.run_op(op)
    assert outcome["outcome"] == "error"
    assert not ops.check(op, outcome)[0]


def test_an_expected_refusal_that_does_not_raise_is_a_failure():
    op = {"kind": "cq", "method": "interchanged_sum", "q": "1/2", "M": 64,
          "expect": "refusal"}
    outcome = ops.run_op(op)
    assert outcome["outcome"] == "value"
    passed, reason = ops.check(op, outcome)
    assert not passed and "not raised" in reason
    refused = ops.run_op(dict(op, M=4))
    assert refused["outcome"] == "refusal"
    assert ops.check(dict(op, M=4), refused)[0]


def test_a_cli_output_differing_from_its_reference_fails():
    command = "pairings --n 7"
    reference = cli_cold.load_references()["cli"][command]
    stdout = "".join(json.dumps(record) + "\n" for record in reference["output"])
    assert cli_cold.check_output(command, 0, stdout, reference)[0]
    assert not cli_cold.check_output(command, 1, stdout, reference)[0]
    tampered = [dict(record) for record in reference["output"]]
    tampered[0]["exact_value"] = "1 + q"
    stdout = "".join(json.dumps(record) + "\n" for record in tampered)
    assert not cli_cold.check_output(command, 0, stdout, reference)[0]


def _bindings():
    import qfj.qcore
    modules = {key: dict(vars(mod)) for key, mod in sys.modules.items()
               if key == "qfj" or key.startswith("qfj.")}
    return modules, dict(vars(qfj.qcore.QPolynomial))


def test_wrappers_cover_every_binding_and_are_all_removed():
    before_modules, before_class = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # fseries binds c_of_q by name; it must see the wrapper too
        assert qfj.fseries.c_of_q is not before_modules["qfj.qgauss"]["c_of_q"]
        assert qfj.fseries.c_of_q is qfj.qgauss.c_of_q
        qfj.fj_numeric(0.01, qfj.QParam(Fraction(1, 2)))
        qfj.fj_coefficient(2, qfj.QParam(Fraction(1, 3)), 4)
    finally:
        tracer.uninstall()
    after_modules, after_class = _bindings()
    for key, names in before_modules.items():
        assert all(after_modules[key][n] is v for n, v in names.items()), key
    assert all(after_class[n] is v for n, v in before_class.items())
    called = {span[tracing.NAME] for span in tracer.spans}
    assert {"fj_numeric", "c_of_q", "fj_coefficient", "fj_term", "E_q"} <= called


def test_latency_tail_is_a_fixed_percentile_or_the_slowest_op_of_each_round():
    def rows(count, per_round):
        return [{"id": f"p{i // per_round}.{i % per_round}", "time_s": float(i + 1)}
                for i in range(count)]
    # the same percentile, whatever the number of rounds
    for count in (204, 408):
        assert run.latency_tail(rows(count, 68), "exact") == pytest.approx(
            run.quantile([float(i) for i in range(1, count + 1)], 0.95))
    # cli_cold: slowest op of each round (9, 18, 27), median over rounds
    assert run.latency_tail(rows(27, 9), "cli_cold") == 18.0


def test_a_quick_command_counts_once_a_round_at_its_median():
    ops_ = workloads.cli_ops(3, 0)
    assert len(ops_) == len(workloads.CLI_COMMANDS) + 4 * len(workloads.QUICK_COMMANDS)
    rows = [{"id": op["id"], "kind": op["command"], "time_s": float(i), "latency_s": 0.0,
             "passed": True} for i, op in enumerate(ops_)]
    timed = run.per_command(rows)
    assert sorted(row["kind"] for row in timed) == sorted(workloads.CLI_COMMANDS)
    quick = workloads.QUICK_COMMANDS[0]
    runs = [row["time_s"] for row in rows if row["kind"] == quick]
    assert len(runs) == workloads.QUICK_RUNS
    assert next(r for r in timed if r["kind"] == quick)["time_s"] == sorted(runs)[2]


def test_shortest_runs_keep_ten_samples_beyond_the_tail_percentile():
    for workload, percentile in workloads.TAIL_PERCENTILE.items():
        if percentile is None:
            continue
        shortest = workloads.MIN_ROUNDS[workload] * len(workloads.generate(workload, 1, 0))
        assert shortest * (1 - percentile / 100) >= 10
        assert shortest * (1 - (percentile + 1) / 100) < 10


def test_harrell_davis_quantile():
    values = [float(i) for i in range(1, 1002)]
    assert run.quantile(values, 0.5) == pytest.approx(501.0)
    assert run.quantile(values, 0.9) == pytest.approx(901.0, rel=2e-3)


def test_fj_numeric_is_checked_against_the_series():
    op = {"kind": "fj_numeric", "q": "5/6", "M": 192, "g": 0.046875, "expect": "value"}
    outcome = ops.run_op(op)
    assert ops.check(op, outcome)[0]
    # off by 1e-6 in both routes alike: the float-vs-mp comparison alone
    # would pass it
    as_float, as_mp = outcome["result"]
    shifted = dict(outcome, result=(as_float * (1 + 1e-6), as_mp * (1 + 1e-6)))
    passed, reason = ops.check(op, shifted)
    assert not passed and "from the series" in reason


def test_an_exponential_cut_at_its_budget_fails():
    q = qfj.QParam(Fraction(16, 17))
    partial = qfj.e_q(8.5, q, qfj.TruncationPolicy.floating(60))
    reason = ops._check_exponential("e_q", 8.5, q, partial, 60)
    assert reason is not None and "budget 60" in reason
    converged = qfj.e_q(8.5, q, qfj.TruncationPolicy.floating(256))
    assert ops._check_exponential("e_q", 8.5, q, converged, 256) is None
