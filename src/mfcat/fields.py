"""Exact scalar arithmetic for the two supported coefficient fields.

Scalars are plain Python values.  Over the rationals an integral value is
an ``int`` and any other a ``fractions.Fraction`` (lowest terms and
positive denominator are guaranteed by Fraction itself); over a prime field
a scalar is an ``int`` in the canonical range [0, p).  A field object
supplies the operations and the canonical parsing/formatting, so a scalar
is always interpreted relative to the field carried by the surrounding ring
context.

``RationalField`` is the one place that decides how a rational is stored:
``coerce``, ``zero``, ``one``, ``from_int`` and ``from_fraction`` return an
int for an integral value.  The ring operations, ``inv`` and ``div`` return
whatever Python gives: an int for two ints, and otherwise a Fraction, which
may be integral.  An integral Fraction equals its int, hashes the same and
prints the same, so no result depends on which of the two a value is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import MfcatError

Scalar = Union[Fraction, int]


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PROVEN_BELOW (Sorenson and Webster, Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_BELOW = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether 2 <= p < PROVEN_BELOW is prime, by deterministic Miller-Rabin."""
    if p < 2:
        return False
    if p >= PROVEN_BELOW:
        raise MfcatError(
            "context-mismatch", f"modulus {p} is too large to prove prime (bound {PROVEN_BELOW})"
        )
    if p in _BASES or any(p % b == 0 for b in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers with exact int and Fraction arithmetic."""

    name: str = "Q"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n

    def coerce(self, value) -> Scalar:
        if type(value) is int:
            return value
        if isinstance(value, bool):
            raise MfcatError("context-mismatch", "bool is not a rational scalar")
        if isinstance(value, (int, Fraction)):
            return value.numerator if value.denominator == 1 else value
        raise MfcatError("context-mismatch", f"cannot coerce {value!r} into Q")

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b

    def neg(self, a: Scalar) -> Scalar:
        return -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return Fraction(a) / Fraction(b)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def from_fraction(self, num: int, den: int) -> Scalar:
        if den == 0:
            raise MfcatError("non-invertible-denominator", "zero denominator")
        return self.coerce(Fraction(num, den))

    def is_negative(self, a: Scalar) -> bool:
        # Used only for pretty-printing the sign of a term.
        return a < 0

    def abs(self, a: Scalar) -> Scalar:
        return -a if a < 0 else a

    def format(self, a: Scalar) -> str:
        return str(a)


@dataclass(frozen=True)
class PrimeField:
    """The prime field with p elements, values stored canonically in [0, p)."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise MfcatError("context-mismatch", f"{self.p!r} is not a prime modulus")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def coerce(self, value) -> int:
        if isinstance(value, bool):
            raise MfcatError("context-mismatch", "bool is not a prime-field scalar")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        raise MfcatError("context-mismatch", f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def from_fraction(self, num: int, den: int) -> int:
        if den == 0:
            raise MfcatError("non-invertible-denominator", "zero denominator")
        if den % self.p == 0:
            raise MfcatError(
                "non-invertible-denominator", f"{den} is not invertible mod {self.p}"
            )
        return self.mul(num % self.p, self.inv(den % self.p))

    def is_negative(self, a: int) -> bool:
        # Canonical representatives are never printed with a minus sign.
        return False

    def abs(self, a: int) -> int:
        return a % self.p

    def format(self, a: int) -> str:
        return str(a % self.p)


QQ = RationalField()

Field = Union[RationalField, PrimeField]


def field_from_token(token: str) -> Field:
    """Build a field from a CLI token: "Q" or "Fp:<prime>"."""
    if token == "Q":
        return QQ
    if token.startswith("Fp:"):
        try:
            p = int(token[3:])
        except ValueError:
            raise MfcatError("context-mismatch", f"bad field token {token!r}") from None
        return PrimeField(p)
    raise MfcatError("context-mismatch", f"bad field token {token!r} (want Q or Fp:<p>)")
