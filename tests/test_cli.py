"""End-to-end checks of the command line interface via subprocess."""

import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qfj.cli import _format_exact, main
from qfj.errors import ResourceLimitError, TruncationError
from qfj.qcalc import TruncationPolicy
from qfj.qcore import QParam, QPolynomial
from qfj.qgauss import c_of_q


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "qfj", *args],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == expect, proc.stderr
    return proc


def json_records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


def test_version_flag():
    proc = run_cli("--version")
    assert proc.stdout.strip().startswith("qfj ")


def test_unknown_subcommand_is_usage_error():
    run_cli("badcmd", expect=2)


@pytest.mark.parametrize("bad_q", ["3/2", "abc", "1", "0", "-1/2"])
def test_invalid_q_exits_with_usage_error(bad_q):
    proc = run_cli("moments", "--q", bad_q, expect=2)
    assert proc.stderr


@pytest.mark.parametrize("args", [
    ("cq", "--q", "1e-400"), ("moments", "--q", "1e-400"),
    ("series", "--q", "1e-400", "--check", "numeric", "--float"),
    ("cq", "--q", "0.99999999999999999999"), ("moments", "--q", "0.99999999999999999999"),
])
def test_q_with_no_float_inside_the_unit_interval_is_a_usage_error(args):
    # each exited 1 with a traceback: log10(0.0), log1p(-1.0) or 1/(1 - 1.0)
    proc = run_cli(*args, expect=2)
    [line] = proc.stderr.splitlines()
    assert line.startswith("qfj: error: q=") and "use exact mode" in line


@pytest.mark.parametrize("args", [("series", "--order", "-1"), ("moments", "--max-k", "-1")])
def test_negative_order_exits_with_usage_error(args):
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    assert "must be non-negative" in proc.stderr


@pytest.mark.parametrize("args, phrase", [
    (("moments", "--q", "1e-5000"), "q has a 5001-digit integer"),
    (("cq", "--max-terms", "0"), "max_terms must be a positive integer"),
    (("moments", "--out", "/nonexistent/dir/x.json"),
     "cannot write --out /nonexistent/dir/x.json: No such file or directory"),
    (("cq", "--sweep", "1/2:3/4:2", "--out", "/nonexistent/dir/x.csv"),
     "cannot write --out /nonexistent/dir/x.csv: No such file or directory"),
    (("verify", "--q", "1e-400", "--suite", "gauss"),
     "an exact sum of 64 series terms would take about 3251417 digits"),
    (("verify", "--q", "1e-400", "--suite", "series"), "rounds to 0.0 as a float"),
    (("cq", "--q", "1e-200"), "q=1/1" + "0" * 400 + " rounds to 0.0 as a float"),
    (("cq", "--sweep", "1/2:3/4:2", "--format", "json"), "--sweep writes CSV only"),
    (("cq", "--sweep", "1/2:3/4"), "cannot parse sweep '1/2:3/4'; expected start:stop:count"),
    (("cq", "--sweep", "1/2:3/4:1"), "sweep count must be at least 2"),
    (("moments", "--q", "abc"), "cannot read 'abc' as an exact rational q"),
    (("pairings", "--q", "1/0"), "cannot read '1/0' as an exact rational q"),
])
def test_bad_input_exits_with_one_error_line(args, phrase):
    # 1e-5000 exited 1 with a ValueError traceback from str(q), an
    # unwritable --out with a FileNotFoundError traceback, the series suite at
    # 1e-400 with a ZeroDivisionError from its A6 underflowing, and the exact
    # kernel at q = 1e-400 was still summing after minutes. At q = 1e-200
    # float c(q) runs, its scan taking log q^2 from integers since q^2 is 0.0
    # as a float, and the double sum then refuses q^2. The sweep printed its
    # CSV table under --format json
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("qfj: error: ") and phrase in line


def test_verify_far_below_the_float_q_range_fails_its_checks_without_a_traceback():
    # Euler's product took log q as log1p(-1.0) once 1 - q rounded to 1.0,
    # so this exited 1 with a ValueError traceback
    proc = run_cli("verify", "--suite", "series", "--q", "1e-20", "--max-terms", "1",
                   "--reproducible", expect=1)
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("qfj verify: FAIL ") for line in lines)
    assert any("E_q product" in line and "needs about 2 terms" in line for line in lines)


class TestMoments:
    def test_records_and_exact_values(self):
        proc = run_cli("moments", "--max-k", "4", "--q", "1/2", "--reproducible")
        records = json_records(proc.stdout)
        assert len(records) == 5
        by_k = {r["inputs"]["k"]: r for r in records}
        assert by_k[4]["exact_value"] == "7/4"
        assert by_k[3]["float_value"] == 0.0
        assert by_k[2]["float_value"] == pytest.approx(1.0, abs=1e-10)
        assert all(r["quantity"] == "moment" for r in records)

    def test_check_mode_passes_at_default_q(self):
        run_cli("moments", "--max-k", "6", "--check", "--reproducible")

    def test_unprintable_closed_form_is_refused_quickly(self):
        # k = 94's closed form at 99/100 has a 4,393-digit numerator; the
        # bracket product reaches it in well under a second
        start = time.perf_counter()
        proc = run_cli("moments", "--q", "99/100", "--max-k", "110", "--max-terms", "4096",
                       "--reproducible", expect=2)
        assert time.perf_counter() - start < 5
        assert proc.stdout == ""
        assert proc.stderr.startswith("qfj: error: ") and proc.stderr.count("\n") == 1
        assert "4393-digit integer" in proc.stderr and "--float" not in proc.stderr

    def test_meta_envelope_only_without_reproducible(self):
        with_meta = json_records(run_cli("moments", "--max-k", "0").stdout)
        assert "meta" in with_meta[0]
        assert with_meta[0]["meta"]["tool"] == "qfj"
        plain = json_records(
            run_cli("moments", "--max-k", "0", "--reproducible").stdout)
        assert "meta" not in plain[0]


class TestNormalizationCommand:
    def test_reproducible_runs_are_byte_identical(self):
        a = run_cli("cq", "--q", "1/2", "--reproducible").stdout
        b = run_cli("cq", "--q", "1/2", "--reproducible").stdout
        assert a == b

    def test_method_records_and_agreement(self):
        records = json_records(
            run_cli("cq", "--q", "1/2", "--reproducible").stdout)
        by_quantity = {}
        for r in records:
            by_quantity.setdefault(r["quantity"], []).append(r)
        methods = {r["inputs"]["method"] for r in by_quantity["c_q"]}
        assert methods == {"interchanged_sum", "double_sum"}
        diff = by_quantity["c_q_method_difference"][0]["float_value"]
        assert diff < 1e-12
        assert by_quantity["c_q_classical_gap"][0]["float_value"] > 0

    def test_csv_format_parses_and_uses_full_precision(self):
        proc = run_cli("cq", "--q", "1/2", "--format", "csv", "--reproducible")
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert rows[0]["quantity"] == "c_q"
        assert rows[0]["float_value"] == "2.3216190317117911"
        # a boolean cell reads true or false
        proc = run_cli("verify", "--suite", "pairings", "--format", "csv", "--reproducible")
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert rows and {row["suite_pass"] for row in rows} == {"true"}

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "cq.jsonl"
        proc = run_cli("cq", "--q", "1/2", "--reproducible", "--out", str(target))
        assert proc.stdout == ""
        assert len(json_records(target.read_text())) >= 3


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_JSON_COMMANDS = [  # the README "Command line" block, less its CSV ones
    line.removeprefix("qfj ")
    for line in README.partition("## Command line")[2].partition("Records have")[0].splitlines()
    if line.startswith("qfj ") and "--format csv" not in line]


@pytest.mark.parametrize("command", README_JSON_COMMANDS)
def test_every_exact_value_is_null_or_a_string(command, capsys):
    # c(q) is r sqrt(1-q) for no finite rational r, so no record carries an
    # exact surd: a truncated sum is a float with its term count
    assert main([*command.split(), "--reproducible"]) == 0
    records = json_records(capsys.readouterr().out)
    assert records
    assert all(r["exact_value"] is None or isinstance(r["exact_value"], str) for r in records)


@pytest.mark.parametrize("max_terms", [2048, 16])
@pytest.mark.parametrize("qv", ["1/2", "3/4", "9/10", "19/20", "99/100", "999/1000"])
def test_cq_prints_the_float_c_of_q_or_refuses_its_budget(qv, max_terms, capsys):
    # the interchanged record is c_of_q's float route as is, never an exact
    # partial sum; a budget the series cannot converge in is an error, exit 2
    policy = TruncationPolicy.floating(max_terms)
    status = main(["cq", "--q", qv, "--max-terms", str(max_terms), "--reproducible"])
    out, err = capsys.readouterr()
    try:
        want = c_of_q(QParam(qv), policy)
    except TruncationError as exc:
        assert (status, out) == (2, "")
        assert str(exc) in err
        return
    assert status == 0
    record = next(r for r in json_records(out) if r["quantity"] == "c_q"
                  and r["inputs"]["method"] == "interchanged_sum")
    assert record["exact_value"] is None
    assert record["float_value"] == want.float_value
    assert record["truncation_terms_used"] == want.terms_used


class TestPairingsCommand:
    def test_listing_and_identity(self):
        proc = run_cli("pairings", "--n", "2", "--list", "--reproducible")
        records = json_records(proc.stdout)
        weights = [r for r in records if r["quantity"] == "pairing_weight"]
        assert [r["exact_value"] for r in weights] == ["1", "q", "q^2"]
        summed = next(r for r in records if r["quantity"] == "weighted_pairing_sum")
        closed = next(r for r in records if r["quantity"] == "q_double_factorial")
        assert summed["exact_value"] == closed["exact_value"] == "1 + q + q^2"

    def test_zero_pairs_list_the_empty_pairing(self):
        # --n 0 exited 0 but --n 0 --list exited 2: iter_pairings refused n = 0
        proc = run_cli("pairings", "--n", "0", "--list", "--reproducible")
        records = json_records(proc.stdout)
        [empty] = [r for r in records if r["quantity"] == "pairing_weight"]
        assert empty["inputs"]["pairing"] == "()" and empty["exact_value"] == "1"
        assert [r["exact_value"] for r in records[1:]] == ["1", "1"]

    def test_sum_flag_is_gone(self):
        # the weighted sum records are always emitted; --sum is not an option
        run_cli("pairings", "--sum", expect=2)


class TestSeriesCommand:
    def test_float_only_output_drops_exact_column(self):
        records = json_records(
            run_cli("series", "--order", "2", "--float", "--reproducible").stdout)
        assert all(r["exact_value"] is None for r in records)
        assert records[2]["float_value"] == pytest.approx(0.13586216253446884)

    def test_graph_check_passes(self):
        proc = run_cli("series", "--check", "graphs", "--max-c", "2",
                       "--reproducible")
        records = json_records(proc.stdout)
        checks = [r for r in records if r["quantity"] == "series_graph_check"]
        assert {r["inputs"]["m"] for r in checks} == {0, 2}
        assert all(r["suite_pass"] for r in checks)

    def test_numeric_check_passes_at_default_depth(self):
        run_cli("series", "--check", "numeric", "--reproducible")

    def test_numeric_check_fails_with_starved_truncation(self):
        # max_c=0 keeps only the leading block of the second-order
        # coefficient, so the finite-difference probe must disagree
        run_cli("series", "--check", "numeric", "--max-c", "0",
                "--reproducible", expect=1)

    # stdout sha256 as printed while the series had its own univariate class
    # that kept a zero top coefficient; the odd orders end on one
    @pytest.mark.parametrize("args, digest", [
        (("--order", "5", "--max-c", "12"),
         "09d15f638b9ebd6a67dbcb6dba502d30019ae16d2ff483132a8117229fab1ff1"),
        (("--order", "3", "--max-c", "6", "--float"),
         "f1f78ebb64ba94775bd6a15b7f5c65dd8fa4bad960d9fd96027fd8f2b2b65878"),
        (("--order", "1"),
         "591856e5cd4e9d733983a753c52db9d1d2f5ff03039e6deba2efc9feb228f4fc"),
        (("--order", "0"),
         "43f71114503afbb0115db1ccb1d5ff9533c7772c51357588fd31e738bb16478c"),
    ])
    def test_output_is_pinned(self, args, digest):
        stdout = run_cli("series", *args, "--reproducible").stdout
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_value_past_the_int_str_limit_is_a_usage_error(self):
        # the g^2 coefficient at 99/100, max_c 40 has a 5,515-digit
        # denominator, over the interpreter's default limit of 4,300 digits
        args = ("series", "--q", "99/100", "--order", "2", "--max-c", "40", "--reproducible")
        proc = run_cli(*args, expect=2)
        assert proc.stdout == ""
        assert proc.stderr.startswith("qfj: error: ") and proc.stderr.count("\n") == 1
        assert "5515-digit integer" in proc.stderr and "--float" in proc.stderr
        run_cli(*args, "--float")


def test_format_exact_refuses_integers_past_the_str_limit():
    # moments reach it too (k = 100 at 99/100), through the same function
    limit = sys.get_int_max_str_digits()
    assert _format_exact(Fraction(10 ** limit - 1, 7)).endswith("/7")
    for value, digits in ((Fraction(10 ** limit, 7), limit + 1),
                          (Fraction(3, 10 ** (limit + 4) - 1), limit + 4),
                          (QPolynomial((Fraction(1), Fraction(-(10 ** limit)))), limit + 1)):
        with pytest.raises(ResourceLimitError, match=f" {digits}-digit integer"):
            _format_exact(value)


COLD_PATH_PROBE = """
import contextlib, io, sys
from fractions import Fraction
import qfj, qfj.cli
assert "mpmath" not in sys.modules, "import"
for argv in ("pairings --n 7", "graphs --m 4 --max-c 2", "series --order 4",
             "series --check numeric", "moments --max-k 10", "cq",
             "cq --sweep 1/2:99/100:4"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qfj.cli.main(argv.split() + ["--reproducible"]) == 0, argv
    assert "mpmath" not in sys.modules, argv
assert qfj.E_q(-30.0, qfj.QParam(Fraction(3, 4))) > 0    # beyond the e_q radius
assert "mpmath" not in sys.modules, "E_q beyond the reciprocal route"
qfj.fj_numeric(Fraction(1, 64), qfj.QParam(Fraction(1, 2)), qfj.DEFAULT_POLICY, dps=60)
assert "mpmath" in sys.modules, "dps=60"
"""


def test_mpmath_is_imported_only_by_multiprecision_routes():
    proc = subprocess.run([sys.executable, "-c", COLD_PATH_PROBE],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# stdout sha256 of the two commands the bitmask memo of
# pairings.weight_exponent_counts speeds up, as printed by the leaf walk before it
@pytest.mark.parametrize("args, digest", [
    (("graphs", "--m", "4", "--max-c", "2"),
     "ebaac1810381531c397be8082d86ca3e013a1d07b54b22b4b2f60a4e65ecef13"),
    (("pairings", "--n", "7"),
     "3f04c575da99e23aff551d8b6cc38eb086ac85fa21547428319c6da6f61a0468"),
])
def test_pairing_histogram_commands_are_pinned(args, digest):
    stdout = run_cli(*args, "--reproducible").stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


class TestGraphsCommand:
    def test_blocks_match_series_terms(self):
        proc = run_cli("graphs", "--m", "2", "--max-c", "2", "--blocks",
                       "--reproducible")
        records = json_records(proc.stdout)
        blocks = [r for r in records if r["quantity"] == "graph_block"]
        assert len(blocks) == 6  # (c,k) with k <= c <= 2
        assert all(r["suite_pass"] for r in records)
        total = next(r for r in records if r["quantity"] == "graph_sum_coefficient")
        assert total["exact_value"] == "4918010717/36849254400"

    def test_odd_order_is_rejected(self):
        proc = run_cli("graphs", "--m", "3", expect=2)
        assert "no graphs" in proc.stderr


class TestVerifyCommand:
    def test_single_suite_passes(self):
        proc = run_cli("verify", "--suite", "pairings", "--reproducible")
        records = json_records(proc.stdout)
        assert records
        assert all(r["suite_pass"] is True for r in records)
        assert all(r["quantity"] == "verification_check" for r in records)

    def test_output_is_pinned(self):
        # stdout sha256 of the suites as written before the checks became shared
        # functions with the acceptance gate
        stdout = run_cli("verify", "--suite", "all", "--reproducible").stdout
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "75ff5274807335e00d8ee813a70d1c588cb2a059a096a68f8069cff7bc885929")

    def test_all_suites_pass_away_from_the_default_q(self):
        # the series checks size their max_c from q; at 3/4 a fixed 12 and 36
        # truncate the c-sum too early
        records = json_records(run_cli("verify", "--q", "3/4", "--suite", "all",
                                       "--reproducible").stdout)
        assert len(records) == 30
        assert all(r["suite_pass"] is True for r in records)

    def test_max_terms_reaches_the_checks(self):
        # at q = 0.99 the moment node sums need more than the default 512 nodes
        proc = run_cli("verify", "--q", "99/100", "--suite", "gauss", expect=1)
        assert "raise max_terms" in proc.stderr
        proc = run_cli("verify", "--q", "99/100", "--max-terms", "4096",
                       "--suite", "gauss", "--reproducible")
        records = json_records(proc.stdout)
        assert len(records) == 6
        assert all(r["suite_pass"] is True for r in records)

    def test_refused_budgets_are_failed_records(self):
        proc = run_cli("verify", "--q", "99/100", "--suite", "all", "--reproducible",
                       expect=1)
        records = json_records(proc.stdout)
        assert len(records) == 30
        refused = [r["inputs"]["check"] for r in records
                   if "raise max_terms" in r["inputs"]["detail"]]
        assert refused == ["moments-match-closed-form", "moment-recursion",
                           "normalization-methods-agree", "numeric-matches-series",
                           "g6-scaling"]
        assert all(r["suite_pass"] is (r["inputs"]["check"] not in refused)
                   for r in records)
        assert proc.stderr.count("qfj verify: FAIL") == 5


def test_cold_import_loads_every_layer_and_no_heavy_module():
    # perfbench's tracer looks up every layer module after importing qfj.cli
    code = ("import sys, qfj.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('qfj.') or m in ('dataclasses', 'inspect', 'mpmath'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    layers = ("qcore", "qcalc", "qgauss", "pairings", "fseries", "qgraphs", "suites", "cli")
    assert set(proc.stdout.split()) == {f"qfj.{layer}" for layer in layers} | {"qfj.errors"}


LAYER_PROBE = """
import contextlib, io, sys, types
import qfj.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        qfj.cli.main(sys.argv[1:] + ["--reproducible"])
# a layer that never ran still has the lazy loader's module type; type() reads
# it without loading the module
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if name.startswith("qfj.") and type(module) is types.ModuleType)))
"""

EAGER = {"qfj.errors", "qfj.qcore", "qfj.qcalc", "qfj.cli"}


# the perfbench cli_cold commands, and a bare import
@pytest.mark.parametrize("command, layers", [
    ("", set()),
    ("pairings --n 7", {"pairings"}),
    ("cq --q 999/1000 --max-terms 2048", {"qgauss"}),
    ("cq --sweep 1/2:99/100:8 --format csv", {"qgauss"}),
    ("moments --max-k 10", {"qgauss", "fseries"}),
    ("series --order 8 --max-c 36", {"qgauss", "fseries"}),
    ("graphs --m 4 --max-c 2", {"qgauss", "fseries", "pairings", "qgraphs"}),
    ("series --check graphs --max-c 3", {"qgauss", "fseries", "pairings", "qgraphs"}),
    ("series --check numeric", {"qgauss", "fseries"}),
    ("verify --suite all", {"qgauss", "fseries", "pairings", "qgraphs", "suites"}),
])
def test_a_command_runs_only_the_layers_it_calls(command, layers):
    proc = subprocess.run([sys.executable, "-c", LAYER_PROBE, *command.split()],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == EAGER | {f"qfj.{layer}" for layer in layers}
