"""Running one op against qfj, and checking its result afterwards.

Every call goes through an attribute lookup on the qfj package at call time,
so the tracing wrappers, when installed, see the top-level call too.

Checks use independent routes the package already has. They run after the
timed phase, so checking work never warms a cache for a later timed op.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import mpmath
import qfj
from qfj.errors import TruncationError

import cli_cold
import workloads

# stated tolerances of the float and mp routes against their references
CQ_REL_TOL = 1e-10
MOMENT_REL_TOL = 1e-8
KERNEL_REL_TOL = 1e-10
FJ_NUMERIC_ABS_TOL = 1e-10
# the series reference of fj_numeric: I(g) through g^FJ_ORDER at max_c FJ_MAX_C
FJ_ORDER = 6
FJ_MAX_C = 24
# the exact reference of kernel_eval, e_q and E_q may sum up to this many
# times the op's budget
EXPONENTIAL_WALK_CAP = 16
# E_q has zeros (at x = -q^-k/(1-q)), where only an absolute comparison works;
# the float routes resolve the series to about 1e-30 of its leading term
ABS_FLOOR = 1e-25


def _q(op) -> "qfj.QParam":
    return qfj.QParam(Fraction(op["q"]))


def _float_policy(M: int) -> "qfj.TruncationPolicy":
    return qfj.TruncationPolicy.floating(M)


def execute(op: dict):
    """Run one op; returns its raw result. Exceptions propagate."""
    kind = op["kind"]
    if kind == "fj_coefficient":
        return qfj.fj_coefficient(op["m"], _q(op), op["max_c"])
    if kind == "fj_series":
        return qfj.fj_series(op["order"], _q(op), op["max_c"])
    if kind == "fj_via_moments":
        return qfj.fj_coefficient_via_moments(op["m"], _q(op), op["max_c"])
    if kind == "graph_sum":
        return qfj.graph_sum_coefficient(op["m"], _q(op), op["max_c"])
    if kind == "weighted_pairing_sum":
        return qfj.weighted_pairing_sum(op["n"])
    if kind == "lambda_oracle":
        return qfj.lambda_oracle(op["max_c"], op["max_d"], _q(op))
    if kind == "lambda_closed_form":
        return qfj.lambda_closed_form(op["c"], op["d"], _q(op))
    if kind == "moment_exact":
        return qfj.moment_by_integration(op["k"], _q(op), qfj.TruncationPolicy.exact(op["M"]))
    if kind == "cq_exact":
        return qfj.c_of_q(_q(op), qfj.TruncationPolicy.exact(op["M"]), op["method"])
    if kind == "cq":
        return qfj.c_of_q(_q(op), _float_policy(op["M"]), op["method"])
    if kind == "moment":
        return qfj.moment_by_integration(op["k"], _q(op), _float_policy(op["M"]))
    if kind == "moments":
        return [qfj.moment_by_integration(k, _q(op), _float_policy(op["M"])) for k in op["ks"]]
    if kind == "exponentials":
        q, M = _q(op), op["M"]
        return {"kernel": [qfj.kernel_eval(x, q, _float_policy(M)) for x in op["kernel"]],
                "e_q": [qfj.e_q(x, q, _float_policy(4 * M)) for x in op["e_q"]],
                "E_q": [qfj.E_q(x, q, _float_policy(4 * M)) for x in op["E_q"]],
                "fallback": [qfj.E_q(x, q, _float_policy(8 * M)) for x in op["fallback"]]}
    if kind == "fj_numeric":
        q, policy = _q(op), _float_policy(op["M"])
        return (qfj.fj_numeric(op["g"], q, policy),
                qfj.fj_numeric(Fraction(op["g"]), q, policy, dps=60))
    raise ValueError(f"unknown op kind {kind!r}")


def run_op(op: dict) -> dict:
    """Execute and classify. outcome is 'value', 'refusal' (TruncationError)
    or 'error' (anything else, with its type and message)."""
    try:
        result = execute(op)
    except TruncationError as exc:
        return {"outcome": "refusal", "result": None, "error": str(exc)[:200]}
    except Exception as exc:  # an unexpected exception is a failed op, not a crash
        return {"outcome": "error", "result": None,
                "error": f"{type(exc).__name__}: {str(exc)[:200]}"}
    return {"outcome": "value", "result": result, "error": None}


# -- exact results as canonical text, for equality and fingerprints ----------

def _frac_text(value: Fraction) -> str:
    # hex, because decimal conversion of these integers can exceed
    # Python's int-to-str digit limit
    value = Fraction(value)
    return f"{value.numerator:x}/{value.denominator:x}"


def canonical(op: dict, result) -> str | None:
    """Canonical text of an exact result; None for float results."""
    kind = op["kind"]
    if kind in ("fj_coefficient", "fj_via_moments", "graph_sum", "lambda_closed_form"):
        return _frac_text(result.rational_part)
    if kind == "fj_series":
        return ",".join(_frac_text(c.rational_part) for c in result.coefficients)
    if kind == "weighted_pairing_sum":
        return ",".join(_frac_text(c) for c in result.coefficients)
    if kind == "lambda_oracle":
        return ";".join(f"{c},{d}:{_frac_text(result.lam(c, d).rational_part)}"
                        for c in range(result.max_c + 1) for d in range(result.max_d + 1))
    if kind == "moment_exact":
        return _frac_text(result)
    if kind == "cq_exact":
        return _frac_text(result.surd_value.rational_part)
    return None


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- checks ------------------------------------------------------------------

def _rel_close(a: float, b: float, tol: float, floor: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol * abs(b) + max(floor, 1e-300)


def _check_exact(op: dict, result) -> tuple[bool, str]:
    kind = op["kind"]
    if kind == "weighted_pairing_sum":
        return result == qfj.q_double_factorial(op["n"]), \
            "weighted_pairing_sum == q_double_factorial"
    q = _q(op)
    qv = q.value
    if kind == "fj_coefficient":
        other = qfj.fj_coefficient_via_moments(op["m"], q, op["max_c"])
        return result == other, "fj_coefficient == fj_coefficient_via_moments"
    if kind == "fj_series":
        ok = all(c == qfj.fj_coefficient_via_moments(m, q, op["max_c"])
                 for m, c in enumerate(result.coefficients))
        return ok, "every coefficient == fj_coefficient_via_moments"
    if kind == "fj_via_moments":
        return result == qfj.fj_coefficient(op["m"], q, op["max_c"]), \
            "fj_coefficient_via_moments == fj_coefficient"
    if kind == "graph_sum":
        return result == qfj.fj_coefficient(op["m"], q, op["max_c"]), \
            "graph_sum_coefficient == fj_coefficient"
    if kind == "lambda_oracle":
        ok = all(result.lam(c, d) == qfj.lambda_closed_form(c, d, q)
                 for c in range(result.max_c + 1) for d in range(result.max_d + 1))
        return ok, "lambda_oracle table == lambda_closed_form"
    if kind == "lambda_closed_form":
        table = qfj.lambda_oracle(op["c"], op["d"], q)
        return result == table.lam(op["c"], op["d"]), "lambda_closed_form == lambda_oracle"
    if kind == "moment_exact":
        k, M = op["k"], op["M"]
        if k % 2:
            return result == 0, "odd moment is 0"
        closed = qfj.moment_closed_form(k // 2).eval(qv)
        bound = qv ** M / (1 - qv) ** (k // 2 + 1)
        return abs(result - closed) <= bound, "|moment - closed form| <= q^M/(1-q)^(n+1)"
    if kind == "cq_exact":
        M = op["M"]
        other_method = ("interchanged_sum" if op["method"] == "double_sum"
                        else "double_sum")
        if other_method == "double_sum" and M > 32:
            # the exact node sum costs seconds to minutes here; the float
            # node sum at a converging budget is the other route
            nodes = cq_budget(op["q"], "double_sum")
            other = qfj.c_of_q(q, _float_policy(nodes), "double_sum").float_value
            return _rel_close(result.float_value, other, CQ_REL_TOL), \
                "exact interchanged c(q) ~ float double sum"
        other = qfj.c_of_q(q, qfj.TruncationPolicy.exact(M), other_method)
        gap = abs(result.surd_value.rational_part - other.surd_value.rational_part)
        # the node sum omits nodes M.. of weight q^m with kernel <= 1
        bound = Fraction(201, 100) * qv ** M / (1 - qv)
        return gap <= bound, "|double - interchanged| <= 2 q^M/(1-q)"
    raise ValueError(kind)


def _terms_needed(kind: str, x: float, q: float, result: float,
                  cap: int) -> tuple[int | None, int | None]:
    """(float terms, exact terms) of the series summed directly, from a
    log-magnitude walk over its terms up to `cap`: after the first count the
    terms are below 1e-17 of |result| (the float sum no longer changes),
    after the second below 1e-30 (the exact reference is converged). None
    where the walk ends first."""
    log_result = math.log10(max(abs(result), 1e-300))
    log_term = 0.0
    bracket = 0.0
    float_terms = None
    for n in range(1, cap):
        if kind == "kernel":
            # (-1)^n q^(n(n+1)) x^(2n) / ((1+q)^n [n]_{q^2}!)
            bracket += q ** (2 * (n - 1))
            log_term += (2 * n * math.log10(q) + math.log10(max(x, 1e-300))
                         - math.log10(1 + q) - math.log10(bracket))
        else:
            # x^n / [n]_q!, times q^(n(n-1)/2) for E_q
            bracket += q ** (n - 1)
            log_term += math.log10(max(abs(x), 1e-300)) - math.log10(bracket)
            if kind == "E_q":
                log_term += (n - 1) * math.log10(q)
        if n > 2 and float_terms is None and log_term < log_result - 17:
            float_terms = n
        if n > 2 and log_term < log_result - 30:
            return float_terms, n + 5
    return float_terms, None


def _check_exponential(series: str, x, q: "qfj.QParam", value: float,
                       budget: int) -> str | None:
    """None when `value` is the converged series at x, else the reason.
    The reference is summed past the op's budget, so a float route that
    stops at its budget with a partial sum does not match it; and the op
    fails outright when the series needs more terms than its budget."""
    arg = float(Fraction(x) ** 2) if series == "kernel" else x
    float_terms, exact_terms = _terms_needed(series, arg, float(q.value), value,
                                             EXPONENTIAL_WALK_CAP * budget)
    if exact_terms is None:
        return f"{series}({x}) not converged within {EXPONENTIAL_WALK_CAP * budget} terms"
    if float_terms > budget:
        return f"{series}({x}) needs {float_terms} terms, budget {budget}"
    policy = qfj.TruncationPolicy.exact(exact_terms)
    if series == "kernel":
        exact = qfj.qgauss.kernel_eval_x2(Fraction(x) ** 2, q, policy)
    else:
        exact = (qfj.e_q if series == "e_q" else qfj.E_q)(Fraction(x), q, policy)
    if not _rel_close(value, float(exact), KERNEL_REL_TOL, ABS_FLOOR):
        return f"{series}({x}) = {value!r}, converged series {float(exact)!r}"
    return None


def _fj_series_reference(q: "qfj.QParam") -> tuple[list[Fraction], list[float]]:
    """Coefficients f_0..f_FJ_ORDER of I(g) at max_c FJ_MAX_C (the sums of
    the per-c blocks, as fj_coefficient forms them), and a bound on each
    one's truncation in c. The blocks of f_m decay with ratio tending to
    q^2 from below (measured at q = 1/2, 5/6, 16/17 up to c = 40), so the
    blocks after the last are bounded by |b_last| q^2 / (1 - q^2)."""
    qv = q.value
    ratio = float(qv * qv)
    coefficients, tails = [], []
    for m in range(0, FJ_ORDER + 1, 2):
        blocks = [b.rational_part for b in qfj.fseries.fj_blocks(m, q, FJ_MAX_C)]
        coefficients.append(sum(blocks, Fraction(0)))
        tails.append(abs(float(blocks[-1])) * ratio / (1 - ratio))
    return coefficients, tails


def _check_fj_numeric(op: dict, result, context: dict) -> tuple[bool, str]:
    """dps=60 quadrature against the series route (I(g) through g^6 at
    max_c FJ_MAX_C). The tolerance adds the c-truncation of each
    coefficient times g^m, |f_6| g^6 for the orders left out, and
    2 q^M / (1-q) for the quadrature nodes past its budget M (the bound the
    exact c(q) check uses). The float quadrature must agree with the dps=60
    one to FJ_NUMERIC_ABS_TOL."""
    as_float, as_mp = result
    memo = context.setdefault("fj_series", {})
    if op["q"] not in memo:
        memo[op["q"]] = _fj_series_reference(_q(op))
    coefficients, tails = memo[op["q"]]
    g = Fraction(op["g"])
    series = sum(f * g ** (2 * i) for i, f in enumerate(coefficients))
    tolerance = (sum(t * float(g) ** (2 * i) for i, t in enumerate(tails))
                 + abs(float(coefficients[-1])) * float(g) ** FJ_ORDER
                 + 2 * float(_q(op).value) ** op["M"] / (1 - float(_q(op).value)))
    with mpmath.workdps(60):
        gap = float(abs(as_mp - mpmath.mpf(series.numerator) / series.denominator))
    if gap > tolerance:
        return False, f"dps=60 quadrature {float(as_mp)!r} is {gap:.3e} from the series " \
                      f"(tolerance {tolerance:.3e})"
    if abs(as_float - float(as_mp)) > FJ_NUMERIC_ABS_TOL:
        return False, f"float quadrature {as_float!r} != dps=60 {float(as_mp)!r}"
    return True, "dps=60 quadrature ~ series within its truncation; float ~ dps=60"


def cq_budget(q_text: str, method: str) -> int:
    """The converging budget the numeric workload gives c(q) at this q."""
    return workloads.converge_budget(math.ceil(1 / (1 - Fraction(q_text))), method)


def _check_numeric(op: dict, result, context: dict) -> tuple[bool, str]:
    kind = op["kind"]
    q = _q(op)
    qv = q.value
    if kind == "cq":
        value = result.float_value
        stored = cli_cold.load_references()["stored_cq"]
        if op["q"] in stored:
            return _rel_close(value, stored[op["q"]], CQ_REL_TOL), \
                "c(q) ~ stored node-sum reference"
        other_method = ("interchanged_sum" if op["method"] == "double_sum"
                        else "double_sum")
        memo = context.setdefault("cq_values", {})
        key = (op["q"], other_method)
        if key not in memo:
            memo[key] = qfj.c_of_q(q, _float_policy(cq_budget(op["q"], other_method)),
                                   other_method).float_value
        return _rel_close(value, memo[key], CQ_REL_TOL), f"c(q) ~ {other_method}"
    if kind == "moments":
        ok = True
        for k, value in zip(op["ks"], result):
            if k % 2:
                ok = ok and value == 0.0
            else:
                closed = float(qfj.moment_closed_form(k // 2).eval(qv))
                ok = ok and _rel_close(value, closed, MOMENT_REL_TOL)
        return ok, "moments ~ closed form, odd moments 0"
    if kind == "exponentials":
        budgets = {"kernel": op["M"], "e_q": 4 * op["M"], "E_q": 4 * op["M"],
                   "fallback": 8 * op["M"]}
        for part, values in result.items():
            series = "E_q" if part == "fallback" else part
            for x, value in zip(op[part], values):
                reason = _check_exponential(series, x, q, value, budgets[part])
                if reason is not None:
                    return False, reason
        return True, "kernel_eval, e_q, E_q ~ their converged series, within budget"
    if kind == "fj_numeric":
        return _check_fj_numeric(op, result, context)
    raise ValueError(kind)


def check(op: dict, outcome: dict, context: dict | None = None) -> tuple[bool, str]:
    """(passed, reason). An expected refusal must raise TruncationError and
    nothing else; an op expected to give a value must give a correct one.

    context carries float c(q) values of converged ops of the same run
    ("cq_values", keyed by (q, method)) and the series references of
    fj_numeric ("fj_series", keyed by q), so a check does not recompute
    what the run already has."""
    if outcome["outcome"] == "error":
        return False, f"unexpected exception {outcome['error']}"
    if op["expect"] == "refusal":
        if outcome["outcome"] != "refusal":
            return False, "expected TruncationError was not raised"
        return True, "refused as expected"
    if outcome["outcome"] == "refusal":
        return False, f"unexpected TruncationError: {outcome['error']}"
    result = outcome["result"]
    try:
        if canonical(op, result) is not None:
            return _check_exact(op, result)
        return _check_numeric(op, result, {} if context is None else context)
    except Exception as exc:  # a check that cannot run fails the op
        return False, f"check raised {type(exc).__name__}: {str(exc)[:200]}"
