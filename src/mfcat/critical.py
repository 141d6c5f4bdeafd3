"""Critical values of a univariate superpotential over the rationals.

The fiber W = t is singular exactly when W - t and W' share a root, that is
when t is an eigenvalue of multiplication by W on the Jacobian algebra
k[z]/(W').  The eigenvalues are the roots of the minimal polynomial of that
map, read off the first kernel vector of the linear system whose columns are
1, W, ..., W^d mod W', with d = deg W'.  Its rational roots are the integer
roots of a monic integer rescaling, found by p-adic lifting of its roots
modulo a small prime, and each one is verified directly through a gcd
computation on the fiber.
"""

from __future__ import annotations

from itertools import count
from math import gcd, lcm
from typing import List, Tuple

from . import linalg
from . import univariate as uni
from .errors import MfcatError
from .fields import PrimeField, RationalField, Scalar, _is_prime
from .poly import Poly


def _horner(coeffs: List[int], x: int, m: int = 0) -> int:
    """The integer polynomial coeffs at x, reduced mod m unless m is 0."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if m:
            acc %= m
    return acc


def _integer_roots(field: RationalField, g: List[Scalar]) -> List[int]:
    """The integer roots of a monic integer polynomial g of positive degree.

    The square-free part s of g is monic with integer coefficients (Gauss's
    lemma) and has the roots of g.  By the same lemma a repeated factor of
    g can be taken monic and integral, so it stays repeated mod every
    prime: s is g when g is square-free mod 2^31 - 1, and only otherwise is
    s found by a gcd over Q, on coefficients of up to thousands of bits.
    At the first odd prime p where every root of s mod p is simple, each
    integer root of s reduces to one of those roots, and Newton's step
    r <- r - s(r)/s'(r) lifts each one uniquely mod p^2, p^4, ... (Hensel's
    lemma; Loos, SIAM J. Comput. 12, 1983).  Once the modulus exceeds twice
    the Cauchy bound, an integer root is the symmetric residue of its lift,
    and each residue is tested exactly.
    """
    fp = PrimeField(2**31 - 1)
    gp = [fp.coerce(c) for c in g]
    s = g
    if uni.deg(uni.gcd(fp, gp, uni.derivative(fp, gp))):
        s = uni.divmod_poly(field, g, uni.gcd(field, g, uni.derivative(field, g)))[0]
    s = [int(c) for c in s]
    ds = [i * c for i, c in enumerate(s)][1:]
    for p in count(3, 2):
        if _is_prime(p):
            roots = [r for r in range(p) if _horner(s, r, p) == 0]
            if all(_horner(ds, r, p) for r in roots):
                break
    bound = 1 + max(abs(c) for c in g[:-1])
    m = p
    while m <= 2 * bound:
        m *= m
        roots = [(r - _horner(s, r, m) * pow(_horner(ds, r, m), -1, m)) % m for r in roots]
    residues = [r if 2 * r < m else r - m for r in roots]
    return [y for y in residues if _horner(s, y) == 0]


def _rational_roots(field: RationalField, coeffs: List[Scalar]) -> List[Scalar]:
    """The rational roots, in increasing order, of the nonzero polynomial
    with the given coefficients; `_integer_roots` finds the root 0 too."""
    coeffs = uni.trim(field, coeffs)
    if len(coeffs) == 1:
        return []
    # Clear denominators and divide out the content, giving a primitive f
    # with leading coefficient a and degree d.  Its rational roots are y/a
    # for the integer roots y of the monic g(y) = a^(d-1) f(y/a).
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (denom // c.denominator) for c in coeffs]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    a, d = ints[-1], len(ints) - 1
    g = [c * a ** (d - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    return sorted(field.from_fraction(y, a) for y in _integer_roots(field, g))


def critical_values(w: Poly) -> Tuple[List[Scalar], bool]:
    """Rational critical values of w, plus a flag for irrational ones.

    Returns (values, has_irrational) where values lists the rational roots
    of the minimal polynomial of multiplication by W on k[z]/(W') in
    increasing order, each verified by checking that gcd(W - value, W') is
    nonconstant.
    """
    ctx = w.ctx
    if not isinstance(ctx.field, RationalField):
        raise MfcatError("context-mismatch", "critical values need the rational field")
    if len(ctx.variables) != 1:
        raise MfcatError("not-univariate", "critical values need one variable")
    if w.is_constant():  # the zero polynomial too
        raise MfcatError("constant-superpotential", "no critical fiber structure")
    field = ctx.field
    wc = uni.from_poly(w, ctx.variables[0])
    # W is nonconstant in one variable over Q, so W' is nonzero.
    deriv = uni.derivative(field, wc)
    # Column k of the system holds the coefficients of W^k mod W'.  The
    # algebra has dimension d, so the d + 1 powers are dependent, and the
    # first power that depends on the lower ones gives the minimal polynomial.
    d = uni.deg(deriv)
    rows = [{} for _ in range(d)]
    power = uni.mod(field, [field.one()], deriv)
    for k in range(d + 1):
        for i, c in enumerate(power):
            if c:
                rows[i][k] = c
        power = uni.mod(field, uni.mul(field, power, wc), deriv)
    # The first kernel vector ends in 1: the minimal polynomial is monic (1 for a linear W).
    kernel = linalg.null_basis(field, linalg.sparse_rref(field, rows), d + 1)[0]
    minimal = [kernel.get(k, field.zero()) for k in range(max(kernel) + 1)]
    roots = _rational_roots(field, minimal)
    verified = []
    for value in roots:
        shifted = list(wc)
        shifted[0] = field.sub(shifted[0], value)
        g = uni.gcd(field, shifted, deriv)
        if (uni.deg(g) or 0) >= 1:
            verified.append(value)
    # The minimal polynomial is square-free, with one root per critical
    # value, so an irrational value leaves it more roots than rational ones.
    # At a critical point c of multiplicity m in W', W - W(c) vanishes to
    # order m + 1, so W acts as the scalar W(c) on the local factor
    # k[z]/(z - c)^m of the algebra: multiplication by W is diagonalisable
    # over the algebraic closure, and its eigenvalues are the critical values.
    has_irrational = len(verified) < uni.deg(minimal)
    return verified, has_irrational
