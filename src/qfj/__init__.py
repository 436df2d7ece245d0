"""qfj: exact and numeric engine for q-deformed Gaussian integration.

Rational arithmetic throughout the identity layer (Jackson integrals,
q-Gaussian moments, pairing weights, series coefficients, graph sums), with
float and high-precision routes only where a classical-limit or quadrature
check genuinely needs them.
"""

from .errors import (DivergenceError, DomainError, EvaluationError, QfjError,
                     ResourceLimitError, TruncationError, ValidationError)
from .fseries import (LambdaTable, fj_blocks, fj_coefficient,
                      fj_coefficient_via_moments, fj_numeric, fj_series, fj_term,
                      integrand_expansion, lambda_closed_form, lambda_oracle)
from .pairings import (OrderedPairing, enumerate_pairings, iter_pairings,
                       weight, weight_exponent_counts, weighted_pairing_sum)
from .qcalc import (DEFAULT_POLICY, E_q, QuadratureResult, TruncationPolicy,
                    XPoly, e_q, jackson_integral, jackson_integral_symmetric,
                    q_derivative)
from .qcore import (QParam, QPolynomial, QScalar, binomial, q_bracket,
                    q_double_factorial, q_factorial, q_squared_factorial)
from .qgauss import (NormalizationResult, c_of_q, kernel_eval,
                     moment_by_integration, moment_closed_form)
from .qgraphs import (GraphEncoding, a_q, enumerate_graphs, graph_block_value,
                      graph_sum_coefficient, omega_q)
from .suites import SUITE_NAMES, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "QfjError", "DomainError", "ValidationError", "DivergenceError",
    "EvaluationError", "TruncationError", "ResourceLimitError",
    "QParam", "QScalar", "QPolynomial", "q_bracket",
    "q_factorial", "q_double_factorial", "q_squared_factorial", "binomial",
    "TruncationPolicy", "DEFAULT_POLICY", "QuadratureResult", "XPoly",
    "q_derivative", "jackson_integral", "jackson_integral_symmetric",
    "e_q", "E_q",
    "kernel_eval", "NormalizationResult", "c_of_q",
    "moment_closed_form", "moment_by_integration",
    "OrderedPairing", "iter_pairings", "enumerate_pairings", "weight",
    "weight_exponent_counts", "weighted_pairing_sum",
    "LambdaTable", "lambda_closed_form", "lambda_oracle", "fj_term", "fj_blocks",
    "fj_coefficient", "fj_series", "fj_coefficient_via_moments", "fj_numeric",
    "integrand_expansion",
    "GraphEncoding", "enumerate_graphs", "omega_q", "a_q",
    "graph_block_value", "graph_sum_coefficient",
    "CheckResult", "SUITE_NAMES", "run_suite",
    "__version__",
]
