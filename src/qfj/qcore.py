"""Exact scalars, polynomials in q, and the basic q-combinatorial quantities.

Everything here is exact (fractions.Fraction); polynomial products and values
at rational points are summed in integers and normalized once. Floats enter
only when the caller evaluates at a float point; nothing here rounds on its own.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

from .errors import DomainError, ValidationError

RationalLike = Union[int, Fraction, str]


def as_fraction(value, what: str = "value") -> Fraction:
    """Coerce to Fraction, refusing floats (binary roundoff would leak in silently)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise DomainError(
            f"{what} must be exact (int, Fraction, or a string like '1/2' or '0.9'); "
            f"got float {value!r}"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot read {value!r} as an exact rational {what}") from exc


def index(value, name: str, low: int = 0) -> int:
    """value as an integer index at least low (0 or 1), or DomainError naming
    the argument. A bool is refused although it is an int, and so is an
    integral float: neither is a count."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= low:
        return value
    wanted = "a positive integer" if low else "non-negative and an integer"
    raise DomainError(f"{name} must be {wanted}, got {value!r}")


def decimal_digits(n: int) -> int:
    """Number of decimal digits of n != 0, from its bit length: no int-to-str
    conversion, which the interpreter limits to sys.get_int_max_str_digits()."""
    n = abs(n)
    digits = int(n.bit_length() * math.log10(2)) + 1     # at most one too many
    return digits - (n < 10 ** (digits - 1))


class Frozen:
    """Immutable value: __init__ stores the fields named in _fields once, with
    _set; repr, == and hash go by them. The instance __dict__ stays, so copy,
    deepcopy and pickle restore an instance without __setattr__."""

    _fields: tuple[str, ...] = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


class QParam(Frozen):
    """The deformation parameter: an exact rational strictly inside (0, 1)."""

    _fields = ("value",)

    def __init__(self, value: RationalLike):
        value = as_fraction(value, "q")
        limit = sys.get_int_max_str_digits()
        digits = decimal_digits(max(abs(value.numerator), value.denominator))
        if limit and digits > limit:
            raise DomainError(f"q has a {digits}-digit integer, over the interpreter's "
                              f"{limit}-digit limit for printing one")
        if not (0 < value < 1):
            raise DomainError(f"q must satisfy 0 < q < 1, got {value}")
        self._set(value)

    @cached_property
    def as_float(self) -> float:
        value = float(self.value)
        if not 0.0 < value < 1.0:
            raise DomainError(f"q={self.value} rounds to {value!r} as a float, outside "
                              "(0, 1); float routes cannot run there, use exact mode")
        return value

    @cached_property
    def squared(self) -> "QParam":
        # inside (0, 1) as q is; built past __init__, whose digit limit q^2
        # may pass although q does not
        square = object.__new__(QParam)
        square._set(self.value * self.value)
        return square

    def __str__(self) -> str:
        return str(self.value)


class QScalar(Fraction):
    """A Fraction that also answers .rational_part, the value itself.

    Only the exact results that perfbench reads through .rational_part are
    QScalars; every other exact value is a plain Fraction, and so is the
    result of any arithmetic on a QScalar.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        # Fraction's own signature: copy, deepcopy and pickle rebuild through it
        if denominator is None:
            numerator = as_fraction(numerator, "scalar")
        return super().__new__(cls, numerator, denominator)

    @property
    def rational_part(self) -> Fraction:
        return self


class QPolynomial(Frozen):
    """Polynomial with exact rational coefficients, in q, in the integration
    variable x, or in the coupling g.

    coefficients[i] is the coefficient of the i-th power; trailing zeros are
    stripped so the zero polynomial is the empty tuple. As a polynomial in x
    it is an integrand with exact closed-form Jackson integrals and exact
    q-derivatives; it is callable, like any other integrand.
    """

    _fields = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(as_fraction(c, "coefficient") for c in coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self._set(coeffs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((Fraction(1),))

    @classmethod
    def monomial(cls, exponent: int, coefficient: RationalLike = 1) -> "QPolynomial":
        return cls((Fraction(0),) * index(exponent, "exponent") + (as_fraction(coefficient),))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> Fraction:
        if index(i, "i") < len(self.coefficients):
            return self.coefficients[i]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coefficients

    @staticmethod
    def _coerce(other) -> "QPolynomial":
        if isinstance(other, QPolynomial):
            return other
        return QPolynomial((as_fraction(other, "operand"),))

    def __add__(self, other):
        a, b = self.coefficients, self._coerce(other).coefficients
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def _integers(self) -> tuple[list[int], int]:
        """(numerators, L): the coefficients over their common denominator L."""
        denominator = math.lcm(*(c.denominator for c in self.coefficients))
        return [c.numerator * (denominator // c.denominator)
                for c in self.coefficients], denominator

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return QPolynomial.zero()
        (left, d_left), (right, d_right) = self._integers(), other._integers()
        out = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            if a:
                for j, b in enumerate(right, i):
                    out[j] += a * b
        return QPolynomial([Fraction(n, d_left * d_right) for n in out])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        index(n, "power")
        out = QPolynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __hash__(self):   # == is Frozen's, so a polynomial equals only a polynomial
        return hash(self.coefficients)

    def eval(self, point):
        """Evaluate by Horner. Float at floats; exact at Fraction/int points a/b,
        as sum n_i a^i b^(m-i) / (L b^m), m the degree, summed in integers."""
        if isinstance(point, QParam):
            point = point.value
        if not self.coefficients:
            return 0.0 if isinstance(point, float) else Fraction(0)
        if isinstance(point, float):
            acc = float(self.coefficients[-1])
            for c in reversed(self.coefficients[:-1]):
                acc = acc * point + float(c)
            return acc
        point = as_fraction(point, "evaluation point")
        a, b = point.numerator, point.denominator
        numerators, denominator = self._integers()
        acc, b_power = numerators[-1], 1
        for n in reversed(numerators[:-1]):
            b_power *= b
            acc = acc * a + n * b_power
        return Fraction(acc, denominator * b_power)

    __call__ = eval

    def reflect(self) -> "QPolynomial":
        """x -> -x."""
        return QPolynomial(tuple(c if i % 2 == 0 else -c
                                 for i, c in enumerate(self.coefficients)))

    def scale_argument(self, factor) -> "QPolynomial":
        """x -> factor * x, exactly."""
        f = as_fraction(factor, "scale factor")
        return QPolynomial(tuple(c * f ** i for i, c in enumerate(self.coefficients)))

    def q_derivative(self, q: QParam) -> "QPolynomial":
        """Exact q-derivative in x: x^t maps to [t]_q x^(t-1)."""
        qv = q.value
        out = []
        bracket = Fraction(0)
        power = Fraction(1)
        for t in range(1, len(self.coefficients)):
            bracket += power          # [t]_q accumulated as 1 + q + ... + q^(t-1)
            power *= qv
            out.append(self.coefficients[t] * bracket)
        return QPolynomial(tuple(out))

    def compose_power(self, k: int) -> "QPolynomial":
        """Substitute q -> q^k at the polynomial level."""
        index(k, "k", 1)
        out = [Fraction(0)] * (self.degree * k + 1)
        for i, c in enumerate(self.coefficients):
            out[i * k] = c
        return QPolynomial(tuple(out))

    def as_monomial(self) -> tuple[int, Fraction]:
        """Return (exponent, coefficient); error if more than one term."""
        terms = [(i, c) for i, c in enumerate(self.coefficients) if c != 0]
        if len(terms) > 1:
            raise ValidationError(f"not a monomial: {self}")
        if not terms:
            return (0, Fraction(0))
        return terms[0]

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                var = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = f"-{var}"
                else:
                    term = f"{c}{var}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"QPolynomial({self})"


def q_bracket(n: int) -> QPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q is the zero polynomial."""
    return QPolynomial((Fraction(1),) * index(n, "n"))


@lru_cache(maxsize=None)
def q_factorial(n: int) -> QPolynomial:
    """[n]_q! = [n]_q [n-1]_q ... [2]_q [1]_q; empty product for n = 0."""
    if index(n, "n") == 0:
        return QPolynomial.one()
    return q_factorial(n - 1) * q_bracket(n)


@lru_cache(maxsize=None)
def q_double_factorial(n: int) -> QPolynomial:
    """Product of the first n odd brackets, [2n-1]_q [2n-3]_q ... [1]_q.

    Indexed by the number of factors n (so n=2 gives [3]_q [1]_q), avoiding
    any off-by-one around the 2n-1 in the usual notation.
    """
    if index(n, "n") == 0:
        return QPolynomial.one()
    return q_double_factorial(n - 1) * q_bracket(2 * n - 1)


def q_squared_factorial(n: int) -> QPolynomial:
    """[n]_{q^2}!: the q-factorial with q replaced by q^2 at the polynomial level."""
    return q_factorial(n).compose_power(2)


def binomial(n: int, k: int) -> int:
    """Ordinary binomial coefficient; 0 when k > n, error on negative input."""
    return math.comb(index(n, "n"), index(k, "k"))
