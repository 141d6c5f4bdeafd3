"""Critical values of a univariate superpotential over the rationals.

The fiber W = t is singular exactly when W - t and W' share a root, that is
when t is an eigenvalue of multiplication by W on the Jacobian algebra
k[z]/(W').  The eigenvalues are the roots of the minimal polynomial of that
map, read off the first kernel vector of the linear system whose columns are
1, W, ..., W^d mod W', with d = deg W'.  Its rational roots are the integer
roots of a monic integer rescaling, isolated with a Sturm chain, and each
one is verified directly through a gcd computation on the fiber.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Tuple

from . import linalg
from . import univariate as uni
from .errors import MfcatError
from .fields import RationalField
from .poly import Poly


def _integer_roots(field: RationalField, g: List[Fraction]) -> List[int]:
    """The integer roots of a monic integer polynomial g of positive degree.

    A Sturm chain of the square-free part counts the distinct real roots in
    each interval (lo, hi] as V(lo) - V(hi), where V(x) is the number of
    sign changes along the chain at x.  Every root lies inside the Cauchy
    bound, so bisecting integer intervals down to width 1 and testing each
    right end exactly finds every integer root in O(deg g * log bound)
    evaluations.
    """
    common = uni.gcd(field, g, uni.derivative(field, g))
    chain = [uni.divmod_poly(field, g, common)[0]]
    chain.append(uni.derivative(field, chain[0]))
    while uni.deg(chain[-1]):
        chain.append(uni.neg(field, uni.mod(field, chain[-2], chain[-1])))

    def variations(x: int) -> int:
        values = [uni.eval_at(field, p, x) for p in chain]
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + int(max(abs(c) for c in g[:-1]))
    roots = []
    pending = [(-bound - 1, bound, variations(-bound - 1), variations(bound))]
    while pending:
        lo, hi, v_lo, v_hi = pending.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if uni.eval_at(field, g, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        pending += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return roots


def _rational_roots(field: RationalField, coeffs: List[Fraction]) -> List[Fraction]:
    """All rational roots of the polynomial with the given coefficients."""
    coeffs = uni.trim(field, coeffs)
    if not coeffs:
        raise MfcatError("zero-superpotential", "polynomial vanished identically")
    # Strip powers of w dividing the polynomial; they contribute the root 0.
    low = 0
    while field.is_zero(coeffs[low]):
        low += 1
    roots = []
    if low > 0:
        roots.append(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    # Clear denominators and divide out the content, giving a primitive f
    # with leading coefficient a and degree d.  Its rational roots are y/a
    # for the integer roots y of the monic g(y) = a^(d-1) f(y/a).
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    a, d = ints[-1], len(ints) - 1
    g = [Fraction(c * a ** (d - 1 - i)) for i, c in enumerate(ints[:-1])] + [Fraction(1)]
    roots += [Fraction(y, a) for y in _integer_roots(field, g)]
    roots.sort()
    return roots


def critical_values(w: Poly) -> Tuple[List[Fraction], bool]:
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
    if w.is_zero() or w.is_constant():
        raise MfcatError("constant-superpotential", "no critical fiber structure")
    field = ctx.field
    wc = uni.from_poly(w, ctx.variables[0])
    deriv = uni.derivative(field, wc)
    if uni.is_zero(deriv):
        raise MfcatError("constant-superpotential", "derivative vanishes identically")
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
    kernel = linalg.null_basis(field, linalg.sparse_rref(field, rows), d + 1)[0]
    minimal = [kernel.get(k, field.zero()) for k in range(max(kernel) + 1)]
    roots = _rational_roots(field, minimal)
    verified = []
    for value in roots:
        shifted = list(wc)
        shifted[0] = field.sub(shifted[0], field.coerce(value))
        g = uni.gcd(field, shifted, deriv)
        if (uni.deg(g) or 0) >= 1:
            verified.append(value)
    # Roots of the minimal polynomial not explained by rational critical
    # values signal irrational ones: divide out each verified root completely.
    work = minimal
    for value in verified:
        factor = [field.sub(field.zero(), field.coerce(value)), field.one()]
        while (uni.deg(work) or 0) >= 1:
            quot, rem = uni.divmod_poly(field, work, factor)
            if uni.is_zero(rem):
                work = quot
            else:
                break
    has_irrational = (uni.deg(work) or 0) >= 1
    return verified, has_irrational
