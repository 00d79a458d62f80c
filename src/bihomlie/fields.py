"""Exact scalar arithmetic: the rationals and prime fields F_p.

Every public value is either a ``fractions.Fraction`` (kept in lowest terms
with positive denominator by the stdlib) or an ``FpElement``. A field
descriptor (``QQ`` or ``GF(p)``) builds, parses and formats its scalars;
matrices and algebras carry one and refuse to mix fields. Hot kernels
compute on plain ints instead: ``plain_rows`` gives entry rows as ``(scale,
int rows)``, over Q times the lcm of their denominators and over F_p the
residues with scale 1, and ``is_zero`` tests unreduced int sums. ``plain``
views one scalar (over Q the Fraction itself, over F_p its residue).
"""

import math
import re
from fractions import Fraction
from functools import cache


class FieldMismatchError(TypeError):
    """Raised when scalars from different fields meet in one operation."""


class ReductionError(ValueError):
    """Raised when rational data cannot be reduced modulo the requested prime."""


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    """Miller-Rabin at the prime bases up to 37, exact below 2^64: for p
    prime and p - 1 = 2^r d, d odd, each base a has a^d = 1 or
    a^(2^t d) = -1 for some t < r."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    r = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> r
    return all(pow(a, d, p) == 1
               or p - 1 in (pow(a, d << t, p) for t in range(r))
               for a in _WITNESSES)


class FpElement:
    """Residue modulo a prime. Immutable; operations stay within one modulus."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _residue(self, other):
        """other as a plain int to combine with self.value: the residue of
        an FpElement of the same modulus or a plain int as it is; None for
        any other type, so the operator returns NotImplemented."""
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    "mixed moduli %d and %d" % (self.p, other.p))
            return other.value
        return other if isinstance(other, int) else None

    def __add__(self, other):
        v = (other.value if type(other) is FpElement and other.p == self.p
             else self._residue(other))
        if v is None:
            return NotImplemented
        return FpElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = (other.value if type(other) is FpElement and other.p == self.p
             else self._residue(other))
        if v is None:
            return NotImplemented
        return FpElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.value, self.p)

    def __mul__(self, other):
        v = (other.value if type(other) is FpElement and other.p == self.p
             else self._residue(other))
        if v is None:
            return NotImplemented
        return FpElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        return FpElement(v * self.inverse().value, self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElement(pow(self.value, n, self.p), self.p)

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse in F_%d" % self.p)
        return FpElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        return (isinstance(other, FpElement)
                and self.p == other.p and self.value == other.value)

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "FpElement(%d, p=%d)" % (self.value, self.p)


class RationalField:
    """Descriptor for the rational numbers."""

    characteristic = 0

    def __call__(self, num, den=1):
        return Fraction(num, den)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return parse_scalar(x, self)
        raise FieldMismatchError("not a rational scalar: %r" % (x,))

    def plain(self, x):
        return x

    def plain_rows(self, rows):
        rows = tuple(map(tuple, rows))
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        return scale, tuple(tuple(x.numerator * (scale // x.denominator)
                                  for x in row) for row in rows)

    def is_zero(self, x):
        return not x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Descriptor for F_p, p prime."""

    characteristic = None  # set per instance

    def __init__(self, p):
        if p >= 2 ** 64:
            raise ValueError("modulus %r is not below 2^64" % (p,))
        if not _is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.characteristic = p

    def __call__(self, value):
        return FpElement(value, self.p)

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldMismatchError(
                    "element of F_%d used in F_%d" % (x.p, self.p))
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            return reduce_fraction_mod(x, self.p)
        if isinstance(x, str):
            return parse_scalar(x, self)
        raise FieldMismatchError("not an F_%d scalar: %r" % (self.p, x))

    def plain(self, x):
        return x.value

    def plain_rows(self, rows):
        return 1, tuple(tuple(x.value for x in row) for row in rows)

    def is_zero(self, x):
        return x % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


@cache
def GF(p):
    return PrimeField(p)


def reduce_fraction_mod(x, p):
    """Image of a rational in F_p; the denominator must be coprime to p."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ReductionError(
            "denominator of %s is divisible by %d" % (x, p))
    den_inv = pow(x.denominator % p, p - 2, p)
    return FpElement(x.numerator * den_inv, p)


_SCALAR = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_scalar(text, field):
    """Parse an exact scalar: an int, or a string "num" or "num/den" of
    decimal digits with an optional sign on num and den nonzero.

    Anything else, decimals and scientific notation included, is refused
    by its format before any number is built.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return field.coerce(text)
    match = _SCALAR.fullmatch(text) if isinstance(text, str) else None
    value = None
    if match:
        try:
            value = Fraction(int(match.group(1)), int(match.group(2) or 1))
        except (ValueError, ZeroDivisionError):  # digit limit, zero den
            pass
    if value is None:
        raise ValueError("not an exact scalar string: %r" % (text,))
    return field.coerce(value)


def format_scalar(x):
    """Exact string form, inverse to parse_scalar on canonical values."""
    if isinstance(x, FpElement):
        return str(x.value)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def field_of_scalar(x):
    if isinstance(x, FpElement):
        return GF(x.p)
    if isinstance(x, (Fraction, int)):
        return QQ
    raise FieldMismatchError("not a field scalar: %r" % (x,))
