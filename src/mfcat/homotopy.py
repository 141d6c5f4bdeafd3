"""Homotopy-level computations: null-homotopy search, graded dimensions,
and isomorphism detection in the homotopy category.

Every search reduces to exact linear algebra over the coefficient field:
unknown matrix entries get a finite monomial support (bounded total degree,
or exact weighted degree in graded mode) and the defining identities become
linear systems in the unknown coefficients.

All of those systems live in the Z/2-graded complex Hom(X, Y) between
X = (p1, p0) and Y = (q1, q0), and `HomComplex` is the one place that writes
its equations.  An even pair f = (f1, f0) is a morphism exactly when
f1 p0 = q0 f0 and q1 f1 = f0 p1; an odd pair (s, t) has the boundary
D(s, t) = (q0 t + s p1, t p0 + q1 s), with no further signs.  The signs of
a shifted object live in its matrices (X[1] = (-p0, -p1)), not here.

Degree-bounded mode can only certify presence: it tries ansatz bounds
upward from zero and returns the first solution with free variables set to
zero, which makes witnesses canonical.  Graded mode, available when the
data is quasi-homogeneous for the configured weights, splits the morphism
complex by weighted degree; each degree is decided exactly, so absence is
certified.  The dimension scan terminates at a hard bound derived from the
annihilation of the cohomology by all partial derivatives of W (top socle
degree of the Jacobian quotient plus one period) and additionally requires
a run of consecutive empty degrees, recording every degree examined in the
certificate.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .factorization import (
    Homotopy,
    MatrixFactorization,
    MFMorphism,
    compose,
    identity_morphism,
    morphism_add,
    morphism_new,
    morphism_scale,
    morphism_sub,
    _check_same_fiber,
)
from .matrices import PolyMatrix
from .poly import Poly, RingContext, grlex_key

DEFAULT_BOUND_ENV = "MFCAT_DEFAULT_BOUND"
DEFAULT_STALE_WINDOW = 3


# -- policies and results ----------------------------------------------


@dataclass(frozen=True)
class SearchPolicy:
    """How a homotopy search is allowed to look for witnesses."""

    mode: str = "bounded"  # "bounded" or "graded"
    bound: Optional[int] = None
    window: int = DEFAULT_STALE_WINDOW

    def __post_init__(self):
        if self.mode not in ("bounded", "graded"):
            raise ValueError(f"policy-infeasible: unknown mode {self.mode!r}")
        if self.bound is not None and self.bound < 0:
            raise ValueError("policy-infeasible: negative degree bound")
        if self.window < 1:
            raise ValueError("policy-infeasible: stale window must be positive")


@dataclass
class SearchResult:
    status: str  # "found", "none-up-to-bound", "proven-none"
    homotopy: Optional[Homotopy]
    certificate: dict

    @property
    def found(self) -> bool:
        return self.status == "found"


@dataclass
class IsoResult:
    status: str  # "iso", "not-iso", "unknown"
    u: Optional[MFMorphism]
    v: Optional[MFMorphism]
    source_homotopy: Optional[Homotopy]  # bounds v u - id
    target_homotopy: Optional[Homotopy]  # bounds u v - id
    certificate: dict


def resolve_bound(policy: Optional[SearchPolicy], *objects_and_maps) -> int:
    """Explicit policy bound, else the environment, else the derived default.

    The derived default is the maximal total entry degree over all supplied
    matrices plus the total degree of the fiber polynomial.
    """
    if policy is not None and policy.bound is not None:
        return policy.bound
    env = os.environ.get(DEFAULT_BOUND_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"policy-infeasible: bad {DEFAULT_BOUND_ENV}={env!r}") from None
        if value < 0:
            raise ValueError(f"policy-infeasible: negative {DEFAULT_BOUND_ENV}")
        return value
    matrices = []
    fiber = None
    for item in objects_and_maps:
        if isinstance(item, MatrixFactorization):
            matrices += [item.p1, item.p0]
            fiber = item.w
        elif isinstance(item, MFMorphism):
            matrices += [item.f1, item.f0]
            fiber = item.source.w
        else:
            matrices.append(item)
    degree = _max_entry_degree(matrices)
    if fiber is not None and not fiber.is_zero():
        degree += fiber.degree()
    return degree


def _max_entry_degree(matrices: Sequence[PolyMatrix]) -> int:
    """Largest total degree of a nonzero entry, or 0."""
    return max(
        (p.degree() for m in matrices for row in m.entries for p in row if not p.is_zero()),
        default=0,
    )


# -- monomial supports -------------------------------------------------


def monomials_up_to_degree(nvars: int, bound: int) -> List[Tuple[int, ...]]:
    out = [
        exp
        for exp in itertools.product(range(bound + 1), repeat=nvars)
        if sum(exp) <= bound
    ]
    out.sort(key=grlex_key)
    return out


def monomials_of_weighted_degree(weights: Tuple[int, ...], target: int) -> List[Tuple[int, ...]]:
    if target < 0:
        return []
    if not weights:
        return [()] if target == 0 else []
    out = []
    head = weights[0]
    for e in range(target // head + 1):
        for rest in monomials_of_weighted_degree(weights[1:], target - e * head):
            out.append((e,) + rest)
    out.sort(key=grlex_key)
    return out


# -- linear systems in unknown polynomial matrices ---------------------


class _Unknown:
    __slots__ = ("name", "rows", "cols", "supports", "offsets", "base", "size")

    def __init__(self, name, rows, cols, supports, base):
        self.name = name
        self.rows = rows
        self.cols = cols
        self.supports = supports
        self.offsets = []
        self.base = base
        size = 0
        for r in range(rows):
            row_offsets = []
            for c in range(cols):
                row_offsets.append(size)
                size += len(supports[r][c])
            self.offsets.append(row_offsets)
        self.size = size

    def index(self, r, c, k):
        return self.base + self.offsets[r][c] + k


class LinearSystem:
    """Linear equations in the coefficients of unknown polynomial matrices."""

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        self.field = ctx.field
        self.unknowns: List[_Unknown] = []
        self.total = 0
        self.rows: List[Tuple[Dict[int, object], object]] = []

    def unknown(self, name: str, rows: int, cols: int, support: Callable[[int, int], Sequence[Tuple[int, ...]]]) -> _Unknown:
        supports = [[list(support(r, c)) for c in range(cols)] for r in range(rows)]
        unk = _Unknown(name, rows, cols, supports, self.total)
        self.unknowns.append(unk)
        self.total += unk.size
        return unk

    def add_matrix_equation(self, terms, rhs: Optional[PolyMatrix], shape: Tuple[int, int]):
        """Sum of sign * L @ U @ R over the terms equals rhs (entrywise)."""
        field = self.field
        buckets: Dict[Tuple[int, int, Tuple[int, ...]], Dict[int, object]] = {}
        consts: Dict[Tuple[int, int, Tuple[int, ...]], object] = {}
        nrows, ncols = shape
        for left, unk, right, sign in terms:
            left_cols = unk.rows if left is None else left.cols
            right_rows = unk.cols if right is None else right.rows
            if left is not None and (left.rows != nrows or left.cols != unk.rows):
                raise ValueError("shape-mismatch: left factor in linear system")
            if right is not None and (right.rows != unk.cols or right.cols != ncols):
                raise ValueError("shape-mismatch: right factor in linear system")
            if left is None and unk.rows != nrows:
                raise ValueError("shape-mismatch: unknown rows in linear system")
            if right is None and unk.cols != ncols:
                raise ValueError("shape-mismatch: unknown cols in linear system")
            sgn = field.coerce(sign)
            for k in range(unk.rows):
                left_entries = (
                    [(k, ((0,) * self.ctx.nvars, field.one()))]
                    if left is None
                    else [
                        (i, term)
                        for i in range(nrows)
                        for term in left.entries[i][k].terms.items()
                    ]
                )
                if not left_entries:
                    continue
                for l in range(unk.cols):
                    support = unk.supports[k][l]
                    if not support:
                        continue
                    right_entries = (
                        [(l, ((0,) * self.ctx.nvars, field.one()))]
                        if right is None
                        else [
                            (j, term)
                            for j in range(ncols)
                            for term in right.entries[l][j].terms.items()
                        ]
                    )
                    if not right_entries:
                        continue
                    for i, (e_left, c_left) in left_entries:
                        for j, (e_right, c_right) in right_entries:
                            coeff = field.mul(sgn, field.mul(c_left, c_right))
                            if field.is_zero(coeff):
                                continue
                            for k_idx, e_unk in enumerate(support):
                                key = (
                                    i,
                                    j,
                                    tuple(
                                        a + b + c
                                        for a, b, c in zip(e_left, e_unk, e_right)
                                    ),
                                )
                                row = buckets.setdefault(key, {})
                                var = unk.index(k, l, k_idx)
                                acc = field.add(row.get(var, field.zero()), coeff)
                                if field.is_zero(acc):
                                    row.pop(var, None)
                                else:
                                    row[var] = acc
        if rhs is not None:
            if rhs.rows != nrows or rhs.cols != ncols:
                raise ValueError("shape-mismatch: right-hand side in linear system")
            for i in range(nrows):
                for j in range(ncols):
                    for exp, c in rhs.entries[i][j].terms.items():
                        key = (i, j, exp)
                        consts[key] = field.add(consts.get(key, field.zero()), c)
        keys = sorted(set(buckets) | set(consts), key=lambda k: (k[0], k[1], grlex_key(k[2])))
        for key in keys:
            self.rows.append((buckets.get(key, {}), consts.get(key, field.zero())))

    def solve(self) -> Optional[Dict[str, PolyMatrix]]:
        """One solution with free variables set to zero, or None.  The
        constants form column `total`, so a pivot there is inconsistent."""
        field = self.field
        total = self.total
        reduced = linalg.sparse_rref(
            field,
            [row if field.is_zero(const) else {**row, total: const} for row, const in self.rows],
        )
        if total in reduced:
            return None
        zero = field.zero()
        values = [zero] * total
        for c, row in reduced.items():
            values[c] = row.get(total, zero)
        return self._extract(values)

    def _extract(self, values) -> Dict[str, PolyMatrix]:
        field = self.field
        out = {}
        for unk in self.unknowns:
            rows = []
            for r in range(unk.rows):
                row = []
                for c in range(unk.cols):
                    terms = {}
                    for k, exp in enumerate(unk.supports[r][c]):
                        v = values[unk.index(r, c, k)]
                        if not field.is_zero(v):
                            terms[exp] = field.add(terms.get(exp, field.zero()), v)
                    row.append(Poly(self.ctx, terms))
                rows.append(row)
            out[unk.name] = PolyMatrix(self.ctx, rows, cols=unk.cols)
        return out

    def _coefficient_rref(self):
        return linalg.sparse_rref(self.field, (row for row, _ in self.rows))

    def coefficient_rank(self) -> int:
        return len(self._coefficient_rref())

    def nullspace_assignments(self) -> List[Dict[str, PolyMatrix]]:
        field = self.field
        for _, const in self.rows:
            if not field.is_zero(const):
                raise ValueError("shape-mismatch: nullspace of an inhomogeneous system")
        return self.homogeneous_nullspace()

    def homogeneous_nullspace(self) -> List[Dict[str, PolyMatrix]]:
        """Nullspace basis of the coefficient matrix, constants ignored."""
        basis = linalg.null_basis(self.field, self._coefficient_rref(), self.total)
        return [self._extract(v) for v in basis]


class HomComplex:
    """The equations of Hom(X, Y) over pairs of unknown maps X -> Y.

    `closed` and `boundary` write the two conditions of the module
    docstring; `compose` writes a known morphism composed with an unknown
    pair.  Each returns one term list per component, the f1 slot (P1 -> Q1)
    first, and `equate` adds their sum as two equations in that order.
    """

    def __init__(self, x: MatrixFactorization, y: MatrixFactorization):
        _check_same_fiber(x, y)
        self.x = x
        self.y = y
        self.shape = (y.rank, x.rank)

    def unknowns(
        self, system: LinearSystem, names: Tuple[str, str], supports
    ) -> Tuple[_Unknown, _Unknown]:
        """Declare two unknown maps X -> Y, in order, with a support each."""
        return tuple(
            system.unknown(name, self.y.rank, self.x.rank, support)
            for name, support in zip(names, supports)
        )

    def bounded_supports(self, bound: int):
        """Every monomial of total degree <= bound, for both maps of a pair."""
        support = monomials_up_to_degree(self.x.ctx.nvars, bound)
        return (lambda r, c: support,) * 2

    def graded_supports(self, grading, phi: int):
        """Supports of map degree phi: (f1, f0) of the even piece and
        (s, t) of the odd piece, for grading = _graded_setup(x, y)."""
        ax, bx, ay, by, dw = grading
        weights = self.x.ctx.weights

        def support(offset):
            return lambda r, c: monomials_of_weighted_degree(weights, phi + offset(r, c))

        even = (support(lambda r, c: bx[c] - by[r]), support(lambda r, c: ax[c] - ay[r]))
        odd = (support(lambda r, c: ax[c] - by[r]), support(lambda r, c: bx[c] - ay[r] - dw))
        return even, odd

    def closed(self, f1: _Unknown, f0: _Unknown):
        """f1 p0 - q0 f0 and q1 f1 - f0 p1: both vanish exactly on morphisms."""
        x, y = self.x, self.y
        return (
            [(None, f1, x.p0, 1), (y.p0, f0, None, -1)],
            [(y.p1, f1, None, 1), (None, f0, x.p1, -1)],
        )

    def boundary(self, s: _Unknown, t: _Unknown, sign: int = 1):
        """sign * D(s, t) = sign * (q0 t + s p1, t p0 + q1 s)."""
        x, y = self.x, self.y
        return (
            [(y.p0, t, None, sign), (None, s, x.p1, sign)],
            [(None, t, x.p0, sign), (y.p1, s, None, sign)],
        )

    def compose(self, g, f):
        """g after f, where one of the two is a known MFMorphism and the
        other a pair of unknowns."""
        if isinstance(f, MFMorphism):
            return [(None, g[0], f.f1, 1)], [(None, g[1], f.f0, 1)]
        return [(g.f1, f[0], None, 1)], [(g.f0, f[1], None, 1)]

    def equate(
        self, system: LinearSystem, *parts, rhs: Optional[Tuple[PolyMatrix, PolyMatrix]] = None
    ):
        """The sum of the term pairs equals rhs = (rhs1, rhs0), or zero."""
        rhs1, rhs0 = (None, None) if rhs is None else rhs
        system.add_matrix_equation([term for part in parts for term in part[0]], rhs1, self.shape)
        system.add_matrix_equation([term for part in parts for term in part[1]], rhs0, self.shape)


# -- gradings ----------------------------------------------------------


def infer_generator_degrees(x: MatrixFactorization) -> Tuple[List[int], List[int]]:
    """Generator degrees (for P0 and P1) making p1 degree-preserving and
    p0 of degree deg W, or policy-infeasible if no such grading exists."""
    ctx = x.ctx
    if ctx.weights is None:
        raise ValueError("policy-infeasible: graded mode requires configured weights")
    if not x.w.is_quasi_homogeneous():
        raise ValueError("policy-infeasible: non-quasi-homogeneous fiber polynomial")
    dw = x.w.weighted_degree()
    n = x.rank
    # Nodes 0..n-1 are P0 generators, n..2n-1 are P1 generators.
    adj: Dict[int, List[Tuple[int, int]]] = {k: [] for k in range(2 * n)}

    def entry_degree(p: Poly) -> Optional[int]:
        if p.is_zero():
            return None
        degs = p.weighted_degrees()
        if len(degs) != 1:
            raise ValueError(
                "policy-infeasible: non-quasi-homogeneous entry "
                f"{p} for weights {ctx.weights}"
            )
        return degs.pop()

    for r in range(n):
        for c in range(n):
            d1 = entry_degree(x.p1.entries[r][c])
            if d1 is not None:
                # b_c - a_r = d1
                adj[n + c].append((r, d1))
                adj[r].append((n + c, -d1))
            d0 = entry_degree(x.p0.entries[r][c])
            if d0 is not None:
                # a_c - b_r = d0 - dw
                adj[c].append((n + r, d0 - dw))
                adj[n + r].append((c, -(d0 - dw)))
    degree: Dict[int, int] = {}
    for start in range(2 * n):
        if start in degree:
            continue
        degree[start] = 0
        queue = [start]
        while queue:
            node = queue.pop()
            for other, diff in adj[node]:
                want = degree[node] - diff
                if other in degree:
                    if degree[other] != want:
                        raise ValueError(
                            "policy-infeasible: entries admit no consistent grading"
                        )
                else:
                    degree[other] = want
                    queue.append(other)
    a = [degree[i] for i in range(n)]
    b = [degree[n + i] for i in range(n)]
    return a, b


def _graded_setup(x: MatrixFactorization, y: MatrixFactorization):
    ax, bx = infer_generator_degrees(x)
    ay, by = infer_generator_degrees(y)
    dw = x.w.weighted_degree()
    return ax, bx, ay, by, dw


# -- null-homotopy search ----------------------------------------------


def _homotopy_system(
    hom: HomComplex, supports, rhs: Tuple[PolyMatrix, PolyMatrix]
) -> LinearSystem:
    """D(s, t) = rhs."""
    system = LinearSystem(hom.x.ctx)
    s, t = hom.unknowns(system, ("s", "t"), supports)
    hom.equate(system, hom.boundary(s, t), rhs=rhs)
    return system


def find_null_homotopy(f: MFMorphism, policy: Optional[SearchPolicy] = None) -> SearchResult:
    """Search for (s, t) with D(s, t) = f.

    Bounded mode tries ansatz total-degree bounds 0..D and reports
    none-up-to-bound on failure; graded mode decides each weighted degree
    of f exactly and certifies nonexistence.
    """
    if policy is None:
        policy = SearchPolicy()
    x, y = f.source, f.target
    if f.is_zero():
        zero = PolyMatrix.zero(x.ctx, y.rank, x.rank)
        h = Homotopy(x, y, zero, zero)
        return SearchResult("found", h, {"mode": policy.mode, "trivial": True})
    if policy.mode == "graded":
        return _find_null_homotopy_graded(f, policy)
    return _find_null_homotopy_bounded(f, policy)


def _find_null_homotopy_bounded(f: MFMorphism, policy: SearchPolicy) -> SearchResult:
    x, y = f.source, f.target
    hom = HomComplex(x, y)
    bound = resolve_bound(policy, x, y, f)
    for b in range(bound + 1):
        system = _homotopy_system(hom, hom.bounded_supports(b), (f.f1, f.f0))
        sol = system.solve()
        if sol is not None:
            h = Homotopy(x, y, sol["s"], sol["t"])
            if not h.bounds(f):
                raise ValueError("not-a-morphism: solver returned a bad witness")
            return SearchResult(
                "found", h, {"mode": "bounded", "bound": bound, "bound_used": b}
            )
    return SearchResult(
        "none-up-to-bound", None, {"mode": "bounded", "bound": bound}
    )


def _morphism_degree_components(f: MFMorphism, grading) -> Dict[int, Tuple[Dict, Dict]]:
    """Split f into components by map degree; returns degree -> (f1 terms, f0 terms)."""
    ax, bx, ay, by, _ = grading
    ctx = f.source.ctx
    weights = ctx.weights
    out: Dict[int, Tuple[Dict, Dict]] = {}

    def push(which, r, c, exp, coeff, offset):
        wdeg = sum(w * e for w, e in zip(weights, exp))
        phi = wdeg - offset
        slot = out.setdefault(phi, ({}, {}))
        slot[which].setdefault((r, c), {})[exp] = coeff

    for r in range(f.target.rank):
        for c in range(f.source.rank):
            for exp, coeff in f.f1.entries[r][c].terms.items():
                push(0, r, c, exp, coeff, bx[c] - by[r])
            for exp, coeff in f.f0.entries[r][c].terms.items():
                push(1, r, c, exp, coeff, ax[c] - ay[r])
    return out


def _component_matrices(f: MFMorphism, slot) -> Tuple[PolyMatrix, PolyMatrix]:
    ctx = f.source.ctx
    f1_terms, f0_terms = slot
    rows1 = [
        [Poly(ctx, f1_terms.get((r, c), {})) for c in range(f.source.rank)]
        for r in range(f.target.rank)
    ]
    rows0 = [
        [Poly(ctx, f0_terms.get((r, c), {})) for c in range(f.source.rank)]
        for r in range(f.target.rank)
    ]
    return (
        PolyMatrix(ctx, rows1, cols=f.source.rank),
        PolyMatrix(ctx, rows0, cols=f.source.rank),
    )


def _find_null_homotopy_graded(f: MFMorphism, policy: SearchPolicy) -> SearchResult:
    x, y = f.source, f.target
    ctx = x.ctx
    weights = ctx.weights
    if weights is None:
        raise ValueError("policy-infeasible: graded mode requires configured weights")
    hom = HomComplex(x, y)
    grading = _graded_setup(x, y)
    components = _morphism_degree_components(f, grading)
    total_s = PolyMatrix.zero(ctx, y.rank, x.rank)
    total_t = PolyMatrix.zero(ctx, y.rank, x.rank)
    degrees = []
    for phi in sorted(components):
        _, odd = hom.graded_supports(grading, phi)
        system = _homotopy_system(hom, odd, _component_matrices(f, components[phi]))
        sol = system.solve()
        if sol is None:
            return SearchResult(
                "proven-none",
                None,
                {
                    "mode": "graded",
                    "degrees": sorted(components),
                    "failed_degree": phi,
                    "weights": list(weights),
                },
            )
        total_s = total_s + sol["s"]
        total_t = total_t + sol["t"]
        degrees.append(phi)
    h = Homotopy(x, y, total_s, total_t)
    if not h.bounds(f):
        raise ValueError("not-a-morphism: solver returned a bad witness")
    return SearchResult("found", h, {"mode": "graded", "degrees": degrees})


def homotopy_equal(f: MFMorphism, g: MFMorphism, policy: Optional[SearchPolicy] = None) -> SearchResult:
    return find_null_homotopy(morphism_sub(f, g), policy)


def is_contractible(x: MatrixFactorization, policy: Optional[SearchPolicy] = None) -> SearchResult:
    return find_null_homotopy(identity_morphism(x), policy)


# -- graded stable morphism dimensions ---------------------------------


def graded_stable_hom_dim(
    x: MatrixFactorization,
    y: MatrixFactorization,
    window: int = DEFAULT_STALE_WINDOW,
) -> Tuple[int, dict]:
    """Dimension of degree-zero morphisms in the homotopy category,
    computed one weighted degree at a time with a certificate.

    In each internal degree the space of closed morphism pairs is computed
    exactly and the image of the adjacent-parity piece under the morphism
    differential is divided out.  The scan covers every degree up to the
    annihilation bound and stops after `window` consecutive empty degrees.
    """
    weights = x.ctx.weights
    hom = HomComplex(x, y)
    grading = _graded_setup(x, y)
    ax, bx, ay, by, dw = grading
    if x.rank == 0 or y.rank == 0:
        return 0, {"degrees": [], "total": 0, "scan_bound": 0, "window": window}
    offsets = [by[r] - bx[c] for r in range(y.rank) for c in range(x.rank)]
    offsets += [ay[r] - ax[c] for r in range(y.rank) for c in range(x.rank)]
    sigma = max(0, sum(dw - 2 * w for w in weights))
    phi_lo = min(offsets)
    scan_bound = max(offsets) + sigma + dw
    total = 0
    degrees = []
    zero_run = 0
    phi = phi_lo
    while phi <= scan_bound or zero_run < window:
        dim_phi = _slot_dimension(hom, grading, phi)
        degrees.append([phi, dim_phi])
        total += dim_phi
        zero_run = 0 if dim_phi else zero_run + 1
        phi += 1
    certificate = {
        "total": total,
        "degrees": degrees,
        "scan_bound": scan_bound,
        "window": window,
        "weights": list(weights),
    }
    return total, certificate


def _slot_dimension(hom: HomComplex, grading, phi: int) -> int:
    ctx = hom.x.ctx
    even, odd = hom.graded_supports(grading, phi)
    cycle = LinearSystem(ctx)
    g1, g0 = hom.unknowns(cycle, ("g1", "g0"), even)
    even_dim = g1.size + g0.size
    if even_dim == 0:
        return 0
    hom.equate(cycle, hom.closed(g1, g0))
    cycle_dim = even_dim - cycle.coefficient_rank()
    if cycle_dim == 0:
        return 0
    boundary = LinearSystem(ctx)
    s, t = hom.unknowns(boundary, ("s", "t"), odd)
    # Image of D on the adjacent parity.
    hom.equate(boundary, hom.boundary(s, t))
    boundary_dim = boundary.coefficient_rank()
    dim_phi = cycle_dim - boundary_dim
    if dim_phi < 0:
        raise ValueError("not-a-factorization: boundary space escapes the cycle space")
    return dim_phi


def bounded_stable_hom_estimate(
    x: MatrixFactorization, y: MatrixFactorization, bound: int
) -> int:
    """Morphisms of entry degree <= bound modulo boundaries of homotopies
    of entry degree <= bound.  Not a certificate: raising the bound can
    change the answer in either direction; the graded scan is the
    certified route when a grading exists.
    """
    hom = HomComplex(x, y)
    supports = hom.bounded_supports(bound)
    # Z is the space of closed maps and B the span of the boundaries
    # D(s, t), every piece of degree <= bound; C, D and V are the ranks of
    # `cycles`, `boundaries` and `meets`.  Every D(s, t) is closed, so the
    # solutions of f = D(s, t) have dimension dim(Z meet B) + dim ker D, and
    # the answer dim(Z + B) - dim B = dim Z - dim(Z meet B) is V - C - D.
    cycles = LinearSystem(x.ctx)
    f1, f0 = hom.unknowns(cycles, ("f1", "f0"), supports)
    hom.equate(cycles, hom.closed(f1, f0))
    boundaries = LinearSystem(x.ctx)
    s, t = hom.unknowns(boundaries, ("s", "t"), supports)
    hom.equate(boundaries, hom.boundary(s, t))
    meets = LinearSystem(x.ctx)
    f = hom.unknowns(meets, ("f1", "f0"), supports)
    s, t = hom.unknowns(meets, ("s", "t"), supports)
    hom.equate(meets, hom.compose(identity_morphism(y), f), hom.boundary(s, t, -1))
    return meets.coefficient_rank() - cycles.coefficient_rank() - boundaries.coefficient_rank()


# -- morphism spaces and isomorphism search ----------------------------


def morphism_space_basis(
    x: MatrixFactorization, y: MatrixFactorization, bound: int
) -> List[MFMorphism]:
    """Basis of the space of morphisms with entry degrees up to the bound."""
    hom = HomComplex(x, y)
    system = LinearSystem(x.ctx)
    f1, f0 = hom.unknowns(system, ("f1", "f0"), hom.bounded_supports(bound))
    hom.equate(system, hom.closed(f1, f0))
    out = []
    for assignment in system.nullspace_assignments():
        out.append(morphism_new(x, y, assignment["f1"], assignment["f0"]))
    return out


def _iso_candidates(basis: List[MFMorphism], cap: int = 240):
    """Deterministic stream of nonzero candidate maps from a basis."""
    seen = 0
    for u in basis:
        if seen >= cap:
            return
        seen += 1
        yield u
    coeffs = (1, -1, 2, -2)
    for i, j in itertools.combinations(range(len(basis)), 2):
        for ci in (1,):
            for cj in coeffs:
                if seen >= cap:
                    return
                seen += 1
                yield morphism_add(
                    morphism_scale(basis[i], ci), morphism_scale(basis[j], cj)
                )
    for combo in itertools.combinations(range(len(basis)), 3):
        for signs in itertools.product((1, -1), repeat=2):
            if seen >= cap:
                return
            seen += 1
            acc = basis[combo[0]]
            acc = morphism_add(acc, morphism_scale(basis[combo[1]], signs[0]))
            acc = morphism_add(acc, morphism_scale(basis[combo[2]], signs[1]))
            yield acc


def _two_sided_inverse(u: MFMorphism, bound: int) -> Optional[Tuple[MFMorphism, Homotopy, Homotopy]]:
    """Solve for v with v u ~ id and u v ~ id, with homotopy witnesses."""
    x, y = u.source, u.target
    h_bound = bound + _max_entry_degree([x.p1, x.p0, y.p1, y.p0, u.f1, u.f0])
    hom_v, hom_x, hom_y = HomComplex(y, x), HomComplex(x, x), HomComplex(y, y)
    system = LinearSystem(x.ctx)
    v_pair = hom_v.unknowns(system, ("v1", "v0"), hom_v.bounded_supports(bound))
    s1, t1 = hom_x.unknowns(system, ("s1", "t1"), hom_x.bounded_supports(h_bound))
    s2, t2 = hom_y.unknowns(system, ("s2", "t2"), hom_y.bounded_supports(h_bound))
    hom_v.equate(system, hom_v.closed(*v_pair))
    # v u - id_X = D(s1, t1) and u v - id_Y = D(s2, t2).
    ident_x = PolyMatrix.identity(x.ctx, x.rank)
    ident_y = PolyMatrix.identity(x.ctx, y.rank)
    hom_x.equate(
        system, hom_x.compose(v_pair, u), hom_x.boundary(s1, t1, -1), rhs=(ident_x, ident_x)
    )
    hom_y.equate(
        system, hom_y.compose(u, v_pair), hom_y.boundary(s2, t2, -1), rhs=(ident_y, ident_y)
    )
    sol = system.solve()
    if sol is None:
        return None
    v = morphism_new(y, x, sol["v1"], sol["v0"])
    h_source = Homotopy(x, x, sol["s1"], sol["t1"])
    h_target = Homotopy(y, y, sol["s2"], sol["t2"])
    if not h_source.bounds(morphism_sub(compose(v, u), identity_morphism(x))):
        raise ValueError("not-a-morphism: inverse witness failed on the source")
    if not h_target.bounds(morphism_sub(compose(u, v), identity_morphism(y))):
        raise ValueError("not-a-morphism: inverse witness failed on the target")
    return v, h_source, h_target


def is_iso_in_db(
    x: MatrixFactorization,
    y: MatrixFactorization,
    policy: Optional[SearchPolicy] = None,
) -> IsoResult:
    """Decide isomorphism in the homotopy category by witness search.

    A graded dimension mismatch between End(X), End(Y) and Hom(X, Y) is a
    certified negative; a found pair (u, v) with both composites homotopic
    to identities is a certified positive; otherwise the answer is the
    non-certified "unknown" (nothing found up to the bound).
    """
    if policy is None:
        policy = SearchPolicy()
    certificate: dict = {"mode": policy.mode}
    if x.rank == 0 and y.rank == 0:
        _check_same_fiber(x, y)
        empty = PolyMatrix(x.ctx, [], cols=0)
        u = MFMorphism(x, y, empty, empty)
        v = MFMorphism(y, x, empty, empty)
        h = Homotopy(x, x, empty, empty)
        return IsoResult("iso", u, v, h, h, {"trivial": True})
    if x.ctx.weights is not None and policy.mode == "graded":
        try:
            dim_xy, _ = graded_stable_hom_dim(x, y, policy.window)
            dim_xx, _ = graded_stable_hom_dim(x, x, policy.window)
            dim_yy, _ = graded_stable_hom_dim(y, y, policy.window)
            certificate["stable_dims"] = {
                "hom": dim_xy,
                "end_source": dim_xx,
                "end_target": dim_yy,
            }
            if not (dim_xy == dim_xx == dim_yy):
                certificate["obstruction"] = "stable dimension mismatch"
                return IsoResult("not-iso", None, None, None, None, certificate)
        except ValueError as exc:
            # Data not gradable: fall through to the bounded witness search.
            if not str(exc).startswith("policy-infeasible"):
                raise
    bound = resolve_bound(policy, x, y)
    certificate["bound"] = bound
    basis = morphism_space_basis(x, y, bound)
    certificate["candidates_tried"] = 0
    for u in _iso_candidates(basis):
        if u.is_zero():
            continue
        certificate["candidates_tried"] += 1
        found = _two_sided_inverse(u, bound)
        if found is not None:
            v, h_source, h_target = found
            return IsoResult("iso", u, v, h_source, h_target, certificate)
    return IsoResult("unknown", None, None, None, None, certificate)
