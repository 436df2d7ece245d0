"""Command line interface.

Every command but cq --sweep (a CSV table) emits one line-delimited JSON
record per result, or CSV with --format csv. Records share a fixed schema so
downstream tooling can parse any command's output the same way; fields that
do not apply are null. --reproducible drops the timestamp envelope, the only
non-deterministic content, so the output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

# the layers a command needs load when it first reads them (see qfj/__init__.py)
from . import SUITE_NAMES, __version__, fseries, pairings, qgauss, qgraphs, suites
from .errors import DomainError, QfjError, ResourceLimitError, TruncationError
from .qcalc import TruncationPolicy
from .qcore import QParam, QPolynomial, decimal_digits, index, q_double_factorial

RECORD_FIELDS = ("quantity", "inputs", "exact_value", "float_value",
                 "truncation_terms_used", "residual", "suite_pass")

NUMERIC_CHECK_TOLERANCE = 1e-7


def _record(quantity, inputs, exact_value=None, float_value=None,
            truncation_terms_used=None, residual=None, suite_pass=None):
    return dict(zip(RECORD_FIELDS, (quantity, inputs, exact_value, float_value,
                                    truncation_terms_used, residual, suite_pass)))


def _format_exact(value, hint=None):
    """Exact values as strings. A value whose integers are too long for the
    interpreter's int-to-str limit raises ResourceLimitError, ending in
    `hint` when one is given."""
    if value is None:
        return None
    if not isinstance(value, (int, Fraction, QPolynomial)):
        raise TypeError(f"cannot format {value!r} as an exact value")
    try:
        return str(value)
    except ValueError:
        parts = value.coefficients if isinstance(value, QPolynomial) else (value,)
        digits = decimal_digits(max(max(abs(p.numerator), p.denominator) for p in parts))
        raise ResourceLimitError(
            f"an exact value has a {digits}-digit integer, over the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit limit for printing one"
            + (f"; {hint}" if hint else "")) from None


def _match_record(quantity, inputs, graph, series):
    """Record of a graph-side exact value checked against its series counterpart."""
    return _record(quantity, inputs, exact_value=_format_exact(graph),
                   float_value=float(graph), residual=abs(float(graph) - float(series)),
                   suite_pass=graph == series)


def _parse_q(text: str) -> QParam:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(
            f"cannot parse q={text!r}; give an exact rational like 1/2 or 0.9"
        ) from exc
    return QParam(value)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None


def _emit_records(records, args) -> None:
    if args.format != "csv":
        lines = []
        if not args.reproducible:
            import datetime
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            lines.append(json.dumps(
                {"meta": {"tool": "qfj", "version": __version__, "generated_at": stamp}},
                separators=(",", ":")))
        for record in records:
            lines.append(json.dumps(record, separators=(",", ":")))
        _write_output("".join(line + "\n" for line in lines), args.out)
    else:
        import csv
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(RECORD_FIELDS)
        for record in records:
            writer.writerow([_csv_cell(record[field]) for field in RECORD_FIELDS])
        _write_output(buffer.getvalue(), args.out)


def _cmd_moments(args, q: QParam, policy: TruncationPolicy):
    records = []
    worst = 0.0
    for k in range(index(args.max_k, "--max-k") + 1):
        closed = fseries._ddf_at(k // 2, q.value) if k % 2 == 0 else Fraction(0)
        quad = qgauss.moment_by_integration(k, q, policy)
        residual = abs(quad - float(closed))
        worst = max(worst, residual)
        records.append(_record(
            "moment",
            {"k": k, "q": str(q), "max_terms": policy.max_terms},
            exact_value=_format_exact(closed),
            float_value=quad,
            residual=residual,
        ))
    return records, 1 if args.check and worst > qgauss.MOMENT_TOLERANCE else 0


def _cq_sweep(args, policy: TruncationPolicy):
    try:
        start_text, stop_text, count_text = args.sweep.split(":")
        start, stop, count = Fraction(start_text), Fraction(stop_text), int(count_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(
            f"cannot parse sweep {args.sweep!r}; expected start:stop:count "
            "with exact rational endpoints, like 0.5:0.99:10") from exc
    if count < 2:
        raise DomainError("sweep count must be at least 2")
    if args.format == "json":
        raise DomainError("--sweep writes CSV only; drop --format json")
    import csv
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["q", f"c_q[max_terms={policy.max_terms}]", "sqrt_2pi"])
    for i in range(count):
        qv = start + (stop - start) * i / (count - 1)
        result = qgauss.c_of_q(QParam(qv), policy)
        writer.writerow([f"{float(qv):.17g}", f"{result.float_value:.17g}",
                         f"{qgauss.SQRT_TWO_PI:.17g}"])
    _write_output(buffer.getvalue(), args.out)
    return None, 0


def _cmd_cq(args, q: QParam, policy: TruncationPolicy):
    if args.sweep:
        return _cq_sweep(args, policy)
    records = []
    interchanged = qgauss.c_of_q(q, policy, "interchanged_sum")
    try:
        double = qgauss.c_of_q(q, policy, "double_sum")
    except TruncationError as exc:
        # the node-by-node route needs ~1/(1-q) times more terms than the
        # production route; report it as unconverged instead of failing the
        # whole command
        print(f"qfj: note: {exc}", file=sys.stderr)
        double = None

    records.append(_record(
        "c_q",
        {"q": str(q), "method": "interchanged_sum", "max_terms": policy.max_terms},
        float_value=interchanged.float_value,
        truncation_terms_used=interchanged.terms_used,
    ))
    records.append(_record(
        "c_q",
        {"q": str(q), "method": "double_sum", "max_terms": policy.max_terms},
        float_value=None if double is None else double.float_value,
        truncation_terms_used=None if double is None else double.terms_used,
    ))
    records.append(_record(
        "c_q_method_difference", {"q": str(q)},
        float_value=None if double is None
        else abs(interchanged.float_value - double.float_value)))
    records.append(_record(
        "c_q_classical_gap", {"q": str(q)},
        float_value=abs(interchanged.float_value - qgauss.SQRT_TWO_PI)))
    return records, 0


def _cmd_pairings(args, q: QParam, policy: TruncationPolicy):
    records = []
    if args.list:
        for index, pairing in enumerate(pairings.enumerate_pairings(args.n)):
            mono = pairings.weight(pairing)
            records.append(_record(
                "pairing_weight",
                {"n": args.n, "index": index, "pairing": str(pairing), "q": str(q)},
                exact_value=_format_exact(mono),
                float_value=mono.eval(q.as_float),
            ))
    total = pairings.weighted_pairing_sum(args.n)
    target = q_double_factorial(args.n)
    records.append(_record(
        "weighted_pairing_sum", {"n": args.n, "q": str(q)},
        exact_value=_format_exact(total),
        float_value=total.eval(q.as_float)))
    records.append(_record(
        "q_double_factorial", {"n": args.n, "q": str(q)},
        exact_value=_format_exact(target),
        float_value=target.eval(q.as_float)))
    return records, 0 if total == target else 1


def _cmd_series(args, q: QParam, policy: TruncationPolicy):
    records = []
    series = fseries.fj_series(args.order, q, args.max_c)
    for m in range(args.order + 1):
        coefficient = series.coefficient(m)
        records.append(_record(
            "series_coefficient",
            {"m": m, "q": str(q), "max_c": args.max_c},
            exact_value=None if args.float else _format_exact(
                coefficient, "series --float prints float values only"),
            float_value=float(coefficient),
        ))
    code = 0
    if args.check == "numeric":
        h = 5e-3
        estimate = suites.g2_by_finite_difference(q, policy, h)
        target = float(fseries.fj_coefficient(2, q, args.max_c))
        err = abs(estimate - target)
        passed = err < NUMERIC_CHECK_TOLERANCE
        records.append(_record(
            "series_numeric_check",
            {"q": str(q), "h": h, "max_c": args.max_c},
            float_value=estimate,
            residual=err,
            suite_pass=passed,
        ))
        code = 0 if passed else 1
    elif args.check == "graphs":
        max_c = min(args.max_c, 4)
        checks = [_match_record("series_graph_check", {"m": m, "q": str(q), "max_c": max_c},
                                qgraphs.graph_sum_coefficient(m, q, max_c),
                                fseries.fj_coefficient(m, q, max_c))
                  for m in (0, 2)]
        records.extend(checks)
        code = 0 if all(r["suite_pass"] for r in checks) else 1
    return records, code


def _cmd_graphs(args, q: QParam, policy: TruncationPolicy):
    records = []
    if args.blocks:
        records = [_match_record("graph_block",
                                 {"c": c, "dprime": args.m, "k": k, "q": str(q)},
                                 qgraphs.graph_block_value(c, args.m, k, q),
                                 fseries.fj_term(c, k, args.m // 2, q))
                   for c in range(args.max_c + 1) for k in range(c + 1)]
    records.append(_match_record(
        "graph_sum_coefficient", {"m": args.m, "q": str(q), "max_c": args.max_c},
        qgraphs.graph_sum_coefficient(args.m, q, args.max_c),
        fseries.fj_coefficient(args.m, q, args.max_c)))
    return records, 0 if all(r["suite_pass"] for r in records) else 1


def _cmd_verify(args, q: QParam, policy: TruncationPolicy):
    results = suites.run_suite(args.suite, q, policy)
    records = []
    for check in results:
        records.append(_record(
            "verification_check",
            {"suite": args.suite, "check": check.name, "q": str(q),
             "detail": check.detail},
            suite_pass=check.passed,
        ))
        if not check.passed:
            print(f"qfj verify: FAIL {check.name}: {check.detail}", file=sys.stderr)
    return records, 0 if all(check.passed for check in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfj",
        description="Exact and numeric engine for q-deformed Gaussian integration.")
    parser.add_argument("--version", action="version", version=f"qfj {__version__}")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--q", default="1/2", metavar="NUM/DEN",
                        help="deformation parameter, exact rational in (0,1) "
                             "(default 1/2; decimals like 0.9 are read exactly)")
    shared.add_argument("--max-terms", type=int, default=512,
                        help="truncation budget for series and quadrature (default 512)")
    shared.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json, line-delimited records)")
    shared.add_argument("--out", metavar="PATH", default=None,
                        help="write output to a file instead of stdout")
    shared.add_argument("--reproducible", action="store_true",
                        help="suppress the timestamp envelope for byte-identical output")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", parents=[shared],
                       help="normalized q-Gaussian moments, quadrature vs closed form")
    p.add_argument("--max-k", type=int, default=6, help="largest moment order (default 6)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if any quadrature moment is off by more than 1e-8")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("cq", parents=[shared],
                       help="normalization constant c(q) by both summation methods")
    p.add_argument("--sweep", metavar="START:STOP:COUNT", default=None,
                   help="CSV sweep of c(q) over evenly spaced rational q")
    p.set_defaults(func=_cmd_cq)

    p = sub.add_parser("pairings", parents=[shared],
                       help="ordered pairings, their weights, and the weighted sum")
    p.add_argument("--n", type=int, default=3, help="number of pairs (default 3)")
    p.add_argument("--list", action="store_true", help="emit one record per pairing")
    p.set_defaults(func=_cmd_pairings)

    p = sub.add_parser("series", parents=[shared],
                       help="perturbative series coefficients")
    p.add_argument("--order", type=int, default=4, help="highest power of g (default 4)")
    p.add_argument("--max-c", type=int, default=12,
                   help="kernel-insertion cutoff per coefficient (default 12)")
    p.add_argument("--float", action="store_true",
                   help="emit float values only, no exact rationals")
    p.add_argument("--check", choices=("numeric", "graphs"), default=None,
                   help="cross-check the coefficients and gate the exit code")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("graphs", parents=[shared],
                       help="graph-sum form of a series coefficient")
    p.add_argument("--m", type=int, default=2, help="power of g (default 2)")
    p.add_argument("--max-c", type=int, default=4,
                   help="kernel-insertion cutoff (default 4)")
    p.add_argument("--blocks", action="store_true",
                   help="emit every (c,k) block with its series-term comparison")
    p.set_defaults(func=_cmd_graphs)

    p = sub.add_parser("verify", parents=[shared],
                       help="run a named verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all",
                   help="which suite to run (default all)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        q = _parse_q(args.q)
        policy = TruncationPolicy(max_terms=args.max_terms)
        records, code = args.func(args, q, policy)
        if records is not None:
            _emit_records(records, args)
    except QfjError as exc:
        print(f"qfj: error: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
