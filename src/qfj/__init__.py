"""qfj: exact and numeric engine for q-deformed Gaussian integration.

Rational arithmetic throughout the identity layer (Jackson integrals,
q-Gaussian moments, pairing weights, series coefficients, graph sums), with
float and high-precision routes only where a classical-limit or quadrature
check genuinely needs them.

The layers below are in sys.modules from the start but load on first use:
`qfj.fj_series` or `from qfj import fj_series` runs fseries (and what it
imports) then, so a command compiles only the layers it calls.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .errors import (DivergenceError, DomainError, EvaluationError, QfjError,
                     ResourceLimitError, TruncationError, ValidationError)

__version__ = "0.1.0"

# the suites that qfj.suites.run_suite runs, "all" last; here so that the CLI
# can offer them as choices without loading the suites
SUITE_NAMES = ("qcalc", "gauss", "pairings", "lambda", "series", "graphs", "all")

# the public names of each layer, resolved on first use by __getattr__
_EXPORTS = {
    "qcore": ("QParam", "QScalar", "QPolynomial", "q_bracket", "q_factorial",
              "q_double_factorial", "q_squared_factorial", "binomial"),
    "qcalc": ("TruncationPolicy", "DEFAULT_POLICY", "QuadratureResult", "XPoly", "q_derivative",
              "jackson_integral", "jackson_integral_symmetric", "e_q", "E_q"),
    "qgauss": ("kernel_eval", "NormalizationResult", "c_of_q", "moment_closed_form",
               "moment_by_integration"),
    "pairings": ("OrderedPairing", "iter_pairings", "enumerate_pairings", "weight",
                 "weight_exponent_counts", "weighted_pairing_sum"),
    "fseries": ("LambdaTable", "lambda_closed_form", "lambda_oracle", "fj_term", "fj_blocks",
                "fj_coefficient", "fj_series", "fj_coefficient_via_moments", "fj_numeric",
                "integrand_expansion"),
    "qgraphs": ("GraphEncoding", "enumerate_graphs", "omega_q", "a_q", "graph_block_value",
                "graph_sum_coefficient"),
    "suites": ("CheckResult", "run_suite"),
}
_HOMES = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = ["QfjError", "DomainError", "ValidationError", "DivergenceError", "EvaluationError",
           "TruncationError", "ResourceLimitError", *_HOMES, "SUITE_NAMES", "__version__"]


def _lazy(layer):
    """The importlib documentation's lazy-import recipe."""
    name = f"{__name__}.{layer}"
    spec = find_spec(name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


qcore, qcalc, qgauss, pairings, fseries, qgraphs, suites = map(_lazy, _EXPORTS)


def __getattr__(name):
    # not cached here: qfj.X stays whatever its layer binds, wrappers included
    if name in _HOMES:
        return getattr(globals()[_HOMES[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
