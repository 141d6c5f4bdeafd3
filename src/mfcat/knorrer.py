"""Stabilization by one hyperbolic plane: tensoring a factorization of W
with the rank-one factorization (x, y) of x*y produces a factorization of
W + x*y in two more variables.  On morphism spaces this operation is an
equivalence, which the verification helpers check dimension by dimension.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import MfcatError
from .factorization import (
    MatrixFactorization, MFMorphism, direct_sum_morphism, morphism_new, shift_morphism,
)
from .matrices import PolyMatrix
from .poly import Poly, RingContext


def extended_context(
    ctx: RingContext, x_var: str, y_var: str, dw: Optional[int]
) -> RingContext:
    """Context with the two hyperbolic variables appended.

    With weights configured the new variables split the fiber degree dw as
    evenly as integers allow, keeping x*y homogeneous of degree dw; that
    needs dw >= 2.
    """
    if x_var == y_var or x_var in ctx.variables or y_var in ctx.variables:
        raise MfcatError(
            "variable-collision", f"{x_var!r}, {y_var!r} against {ctx.variables}"
        )
    variables = ctx.variables + (x_var, y_var)
    weights = None
    if ctx.weights is not None:
        if dw is None or dw < 2:
            raise MfcatError(
                "non-quasi-homogeneous", "hyperbolic extension needs fiber degree >= 2"
            )
        weights = ctx.weights + (math.ceil(dw / 2), math.floor(dw / 2))
    return RingContext(field=ctx.field, variables=variables, weights=weights, w0=ctx.w0)


def _lift(big: RingContext, mat: PolyMatrix) -> PolyMatrix:
    """The matrix over the extended ring, constant in the two new variables."""
    rows = [
        [Poly(big, {exp + (0, 0): c for exp, c in p.terms.items()}) for p in row]
        for row in mat.entries
    ]
    return PolyMatrix(big, rows, cols=mat.cols)


def knorrer(
    m: MatrixFactorization, x_var: str = "x", y_var: str = "y"
) -> MatrixFactorization:
    """Tensor with the rank-one factorization (x, y) of x*y.

    Sends (p1, p0) of rank n to the rank-2n factorization
        k1 = [[p1, -y], [x, p0]],   k0 = [[p0, y], [-x, p1]]
    of W + x*y over the extended ring, built raw: p1 p0 = p0 p1 =
    (W - w0) I gives k1 k0 = (W - w0 + x*y) I.
    """
    ctx = m.ctx
    dw = None
    if ctx.weights is not None:
        if not m.w.is_quasi_homogeneous():
            raise MfcatError("non-quasi-homogeneous", "fiber polynomial")
        dw = m.w.weighted_degree()
    big = extended_context(ctx, x_var, y_var, dw)

    n = m.rank
    xm = PolyMatrix.scalar(big, big.variable(x_var), n)
    ym = PolyMatrix.scalar(big, big.variable(y_var), n)
    p1 = _lift(big, m.p1)
    p0 = _lift(big, m.p0)
    k1 = PolyMatrix.block([[p1, -ym], [xm, p0]])
    k0 = PolyMatrix.block([[p0, ym], [-xm, p1]])
    w = Poly(big, {exp + (0, 0): c for exp, c in m.w.terms.items()})
    return MatrixFactorization(big, w + big.variable(x_var) * big.variable(y_var), 2 * n, k1, k0)


def knorrer_morphism(
    f: MFMorphism, x_var: str = "x", y_var: str = "y"
) -> MFMorphism:
    """The functor on morphisms: the components of f + f[1], that is
    f1 + f0 on odd and f0 + f1 on even, lifted to the extended ring."""
    kx = knorrer(f.source, x_var, y_var)
    ky = knorrer(f.target, x_var, y_var)
    g = direct_sum_morphism(f, shift_morphism(f))
    return morphism_new(kx, ky, _lift(kx.ctx, g.f1), _lift(kx.ctx, g.f0))
