"""Build references.json: the expected output of every cold CLI command, and
c(q) at the two fixed numeric grid points nearest q = 1.

    PYTHONPATH=src python3 perfbench/make_references.py

Every value is checked once by an independent route of the package before
it is stored; the script refuses to write anything that fails a check.
Regenerate only when the expected output changes on purpose.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import qfj
from qfj.errors import TruncationError

import cli_cold
import ops as opsmod
import workloads

ROOT = Path(__file__).resolve().parent.parent
Q_HALF = qfj.QParam(Fraction(1, 2))


def _series_records_ok(records, max_c: int) -> bool:
    ok = True
    for record in records:
        if record["quantity"] != "series_coefficient":
            continue
        m = record["inputs"]["m"]
        value = Fraction(record["exact_value"])
        other = qfj.fj_coefficient_via_moments(m, Q_HALF, max_c).rational_part
        ok = ok and value == other and math.isclose(record["float_value"], float(value),
                                                    rel_tol=1e-15)
    return ok


def _graph_records_ok(records) -> bool:
    ok = True
    for record in records:
        if record["quantity"] in ("graph_sum_coefficient", "series_graph_check"):
            m, max_c = record["inputs"]["m"], record["inputs"]["max_c"]
            series = qfj.fj_coefficient(m, Q_HALF, max_c).rational_part
            ok = ok and Fraction(record["exact_value"]) == series
    return ok


def _double_sum(q: Fraction) -> float:
    return qfj.c_of_q(qfj.QParam(q), qfj.TruncationPolicy.floating(
        opsmod.cq_budget(str(q), "double_sum")), "double_sum").float_value


def verify(command: str, records) -> bool:
    """Independent-route check of one command's reference output."""
    if command == "verify --suite all":
        return bool(records) and all(r["suite_pass"] is True for r in records)
    if command.startswith("series"):
        max_c = int(command.split("--max-c ")[1].split()[0]) if "--max-c" in command else 12
        ok = _series_records_ok(records, max_c) and _graph_records_ok(records)
        return ok and all(r["suite_pass"] is not False for r in records)
    if command.startswith("graphs"):
        return _graph_records_ok(records) and all(r["suite_pass"] for r in records
                                                  if r["suite_pass"] is not None)
    if command == "cq --q 999/1000 --max-terms 2048":
        q = Fraction(999, 1000)
        inter, double = records[0], records[1]
        try:
            qfj.c_of_q(qfj.QParam(q), qfj.TruncationPolicy.floating(2048), "double_sum")
            return False
        except TruncationError:
            pass
        ok = double["float_value"] is None
        ok = ok and math.isclose(inter["float_value"], _double_sum(q), rel_tol=1e-10)
        if inter["exact_value"] is not None:
            rational = Fraction(inter["exact_value"]["rational"])
            ok = ok and math.isclose(float(rational) * math.sqrt(1 - float(q)),
                                     inter["float_value"], rel_tol=1e-13)
        return ok
    if command.startswith("moments"):
        ok = True
        for r in records:
            k = r["inputs"]["k"]
            expected = (Fraction(0) if k % 2 else
                        qfj.weighted_pairing_sum(k // 2).eval(Fraction(1, 2)))
            ok = ok and Fraction(r["exact_value"]) == expected
            ok = ok and abs(r["float_value"] - float(expected)) <= 1e-8
        return ok
    if command.startswith("cq --sweep"):
        header, *rows = records
        return header[0] == "q" and len(rows) == 8 and all(
            math.isclose(float(row[1]), _double_sum(Fraction(row[0]).limit_denominator(1000)),
                         rel_tol=1e-10) for row in rows)
    if command.startswith("pairings"):
        by_quantity = {r["quantity"]: r["exact_value"] for r in records}
        return by_quantity["weighted_pairing_sum"] == by_quantity["q_double_factorial"]
    raise ValueError(f"no independent check for {command!r}")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    references = {"cli": {}, "stored_cq": {}}
    for command in workloads.CLI_COMMANDS:
        result = cli_cold.run_command(command, env, ROOT, traced=False)
        entry = cli_cold.reference_entry(command, result["returncode"], result["stdout"])
        if entry["exit_code"] != 0 or not verify(command, cli_cold.parse_output(
                command, result["stdout"])):
            print(f"reference check failed for {command!r}", file=sys.stderr)
            return 1
        references["cli"][command] = entry
        print(f"ok {command} ({result['latency_s']:.1f} s)", file=sys.stderr)
    for N in workloads.GRID_NS:
        if N < 3000:
            continue
        q = Fraction(N - 1, N)
        double = _double_sum(q)
        inter = qfj.c_of_q(qfj.QParam(q), qfj.TruncationPolicy.floating(
            opsmod.cq_budget(str(q), "interchanged_sum")), "interchanged_sum").float_value
        if not math.isclose(double, inter, rel_tol=opsmod.CQ_REL_TOL):
            print(f"c(q) routes disagree at q={q}: {double} vs {inter}", file=sys.stderr)
            return 1
        references["stored_cq"][str(q)] = double
        print(f"ok c({q}) = {double!r}", file=sys.stderr)
    with open(cli_cold.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
