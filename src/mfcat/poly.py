"""Sparse multivariate polynomials over an exact coefficient field.

A polynomial is a map from exponent tuples to nonzero scalars, tied to a
``RingContext`` that fixes the field, the variable names, optional positive
integer weights, and the base point w0 used to shift a superpotential.

Canonical serialization emits terms in graded-lexicographic order: higher
total degree first, ties broken by the lexicographic order on exponent
tuples (variables in context order).  Printing then parsing is the
identity on polynomials, and parsing then printing canonicalizes any
accepted expression, which is what makes file formats diff-stable.

The zero polynomial has no degree: ``degree``/``weighted_degree`` raise on
it rather than returning a sentinel value.

Inputs are validated once, by ``Poly(ctx, terms)``, which also coerces
each coefficient into the field, so over Q an integral coefficient is
stored as an int and products of integral terms stay in ints;
``RingContext.constant`` and ``monomial`` build through it.  Arithmetic
keeps what the field returns (a Fraction that cancels to an integer stays
a Fraction, and equals, hashes and prints as its int), and
``univariate_coefficients`` returns the stored coefficients for the dense
univariate code.  The results of ``+``, ``-`` and ``*`` are clean by
construction (checked operands; a coefficient that cancels is dropped),
so they skip the per-term checks, except that a product still checks its
exponents against the machine-width bound.  A sum with a zero operand is
the other operand, and a product with one is zero.  ``PolyMatrix``
products share the term loop, ``_add_products``, summing each entry over
k into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Optional, Tuple

from .errors import MfcatError
from .fields import Field, QQ, Scalar

# Exponents live in machine range; arithmetic checks sums explicitly.
EXPONENT_LIMIT = 2**31 - 1

Exponent = Tuple[int, ...]


@dataclass(frozen=True)
class RingContext:
    """Fixes field, variables, optional weights, and the base point w0."""

    field: Field = QQ
    variables: Tuple[str, ...] = ("z",)
    weights: Optional[Tuple[int, ...]] = None
    w0: Scalar = 0

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise MfcatError("variable-collision", f"duplicate names in {self.variables}")
        for v in self.variables:
            if not v or not (v[0].isalpha() or v[0] == "_") or not all(
                ch.isalnum() or ch == "_" for ch in v
            ):
                raise MfcatError("unknown-variable", f"{v!r} is not a valid name")
        if self.weights is not None:
            if len(self.weights) != len(self.variables):
                raise MfcatError(
                    "shape-mismatch", "weights must match variables "
                    f"({len(self.weights)} vs {len(self.variables)})"
                )
            if any((not isinstance(w, int)) or w <= 0 for w in self.weights):
                raise MfcatError("shape-mismatch", f"weights must be positive integers, got {self.weights}")
        object.__setattr__(self, "w0", self.field.coerce(self.w0))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise MfcatError("unknown-variable", f"{name!r} not in {self.variables}") from None

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(self.field.one())

    def constant(self, c) -> "Poly":
        return Poly(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Poly":
        i = self.var_index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {exp: self.field.one()})

    def monomial(self, exponents: Iterable[int], coeff=1) -> "Poly":
        return Poly(self, {tuple(exponents): coeff})

    def parse(self, text: str) -> "Poly":
        from .parse import parse_poly

        return parse_poly(self, text)

    def shifted(self, **changes) -> "RingContext":
        """A copy with some fields replaced (weights, w0, ...)."""
        return replace(self, **changes)


def _check_exponents(exp: Exponent) -> None:
    for e in exp:
        if not isinstance(e, int) or e < 0:
            raise MfcatError("malformed-exponent", f"{e!r}")
        if e > EXPONENT_LIMIT:
            raise MfcatError("malformed-exponent", f"{e} exceeds the machine-width bound")


def _add_products(fld: Field, acc: Dict[Exponent, Scalar], left, right) -> None:
    """Add the product of the term dicts left and right into acc, checking
    each exponent's bound and dropping a coefficient that cancels."""
    mul, fadd, is_zero = fld.mul, fld.add, fld.is_zero
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(add, e1, e2))
            if max(e, default=0) > EXPONENT_LIMIT:
                _check_exponents(e)
            c = mul(c1, c2)
            if e in acc:
                c = fadd(acc[e], c)
                if is_zero(c):
                    del acc[e]
                    continue
            acc[e] = c


def grlex_key(exp: Exponent):
    return (sum(exp), exp)


class Poly:
    """Immutable sparse polynomial attached to a RingContext."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms: Dict[Exponent, Scalar]):
        clean: Dict[Exponent, Scalar] = {}
        fld = ctx.field
        for exp, c in terms.items():
            if len(exp) != ctx.nvars:
                raise MfcatError(
                    "shape-mismatch", f"exponent tuple {exp} for {ctx.nvars} variables"
                )
            _check_exponents(exp)
            c = fld.coerce(c)
            if not fld.is_zero(c):
                clean[exp] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _clean(cls, ctx: RingContext, terms: Dict[Exponent, Scalar]) -> "Poly":
        """A Poly from terms already known to be valid and nonzero."""
        p = object.__new__(cls)
        object.__setattr__(p, "ctx", ctx)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    # -- degrees -------------------------------------------------------

    def degree(self) -> int:
        if not self.terms:
            raise MfcatError("zero-polynomial", "degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def weighted_degree(self) -> int:
        w = self.ctx.weights
        if w is None:
            raise MfcatError("no-weights-configured", "context has no weights")
        if not self.terms:
            raise MfcatError("zero-polynomial", "degree of the zero polynomial is undefined")
        return max(sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms)

    def weighted_degrees(self) -> set:
        """Set of weighted degrees of the individual terms."""
        w = self.ctx.weights
        if w is None:
            raise MfcatError("no-weights-configured", "context has no weights")
        return {sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms}

    def is_quasi_homogeneous(self) -> bool:
        return len(self.weighted_degrees()) <= 1

    # -- arithmetic ----------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise MfcatError("context-mismatch", "polynomials from different contexts")
            return other
        return self.ctx.constant(other)

    def __add__(self, other) -> "Poly":
        other = self._coerce_other(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        fld = self.ctx.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = fld.add(terms[e], c) if e in terms else c
            if fld.is_zero(acc):
                del terms[e]
            else:
                terms[e] = acc
        return Poly._clean(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        neg = self.ctx.field.neg
        return Poly._clean(self.ctx, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce_other(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce_other(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce_other(other)
        if not self.terms or not other.terms:
            return Poly._clean(self.ctx, {})
        out: Dict[Exponent, Scalar] = {}
        _add_products(self.ctx.field, out, self.terms, other.terms)
        return Poly._clean(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise MfcatError("malformed-exponent", f"{n!r}")
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c) -> "Poly":
        return self * self.ctx.constant(c)

    def partial_derivative(self, var: str) -> "Poly":
        """No two terms meet, as e -> e - e_i is one-to-one; `Poly` drops zeros."""
        i = self.ctx.var_index(var)
        fld = self.ctx.field
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = fld.mul(c, e[i])
        return Poly(self.ctx, out)

    # -- views ---------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical (descending graded-lex) order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def used_variables(self) -> Tuple[str, ...]:
        used = [False] * self.ctx.nvars
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return tuple(v for v, u in zip(self.ctx.variables, used) if u)

    def univariate_coefficients(self, var: str):
        """Dense coefficient list [c0, c1, ...] in the named variable.

        Raises not-univariate if any other variable occurs.
        """
        i = self.ctx.var_index(var)
        others = [v for v in self.used_variables() if v != var]
        if others:
            raise MfcatError("not-univariate", f"also uses {others}")
        fld = self.ctx.field
        if not self.terms:
            return []
        d = max(e[i] for e in self.terms)
        coeffs = [fld.zero()] * (d + 1)
        for e, c in self.terms.items():
            coeffs[e[i]] = c
        return coeffs

    # -- equality and printing ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return (self.ctx is other.ctx or self.ctx == other.ctx) and self.terms == other.terms
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        try:
            return self == self.ctx.constant(other)
        except MfcatError:  # no image in the field, such as 1/3 over F_3
            return False

    def __hash__(self):
        return hash((self.ctx, tuple(self.sorted_terms())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        fld = self.ctx.field
        pieces = []
        for k, (exp, c) in enumerate(self.sorted_terms()):
            negative = fld.is_negative(c)
            mag = fld.abs(c)
            factors = []
            for name, e in zip(self.ctx.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = fld.format(mag)
            elif fld.is_zero(fld.sub(mag, fld.one())):
                body = "*".join(factors)
            else:
                body = fld.format(mag) + "*" + "*".join(factors)
            if k == 0:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"
