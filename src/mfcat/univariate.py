"""Dense univariate polynomial helpers over an exact field.

Internal representation: list of coefficients [c0, c1, ...] with no
trailing zeros (the zero polynomial is the empty list).  These lists feed
the Smith reduction, cokernel extraction, and the critical values.
"""

from __future__ import annotations

from .fields import Field
from .poly import Poly, RingContext


def trim(field: Field, coeffs):
    out = list(coeffs)
    while out and field.is_zero(out[-1]):
        out.pop()
    return out

def is_zero(coeffs) -> bool:
    return not coeffs

def deg(coeffs):
    """Degree, or None for the zero polynomial."""
    return len(coeffs) - 1 if coeffs else None

def add(field: Field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero()
        y = b[i] if i < len(b) else field.zero()
        out.append(field.add(x, y))
    return trim(field, out)

def neg(field: Field, a):
    return [field.neg(x) for x in a]

def mul(field: Field, a, b):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not field.is_zero(y):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return trim(field, out)

def scale(field: Field, c, a):
    return trim(field, [field.mul(c, x) for x in a])

def divmod_poly(field: Field, a, b):
    """Euclidean division: a = q*b + r with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    n = len(b) - 1
    r = list(a)
    q = [field.zero()] * max(0, len(a) - n)
    inv_lead = field.inv(b[-1])
    for k in reversed(range(len(q))):
        q[k] = factor = field.mul(r[k + n], inv_lead)
        for i, y in enumerate(b):
            r[k + i] = field.sub(r[k + i], field.mul(factor, y))
    return trim(field, q), trim(field, r[:n])

def mod(field: Field, a, b):
    return divmod_poly(field, a, b)[1]

def monic(field: Field, a):
    if not a:
        return []
    inv = field.inv(a[-1])
    return [field.mul(inv, x) for x in a]

def gcd(field: Field, a, b):
    a, b = trim(field, a), trim(field, b)
    while b:
        a, b = b, mod(field, a, b)
    return monic(field, a)

def divides(field: Field, a, b) -> bool:
    """Whether a divides b."""
    if not a:
        return not b
    return not mod(field, b, a)

def derivative(field: Field, a):
    return trim(
        field, [field.mul(field.from_int(i), a[i]) for i in range(1, len(a))]
    )


def from_poly(p: Poly, var: str):
    return trim(p.ctx.field, p.univariate_coefficients(var))

def to_poly(ctx: RingContext, var: str, coeffs) -> Poly:
    i = ctx.var_index(var)
    terms = {}
    for k, c in enumerate(coeffs):
        if not ctx.field.is_zero(c):
            exp = tuple(k if j == i else 0 for j in range(ctx.nvars))
            terms[exp] = c
    return Poly(ctx, terms)
