"""Homotopy-level computations: null-homotopy search, graded dimensions,
and isomorphism detection in the homotopy category.

Every search reduces to exact linear algebra over the coefficient field:
unknown matrix entries get a finite monomial support (bounded total degree,
or exact weighted degree in graded mode) and the defining identities become
linear systems in the unknown coefficients.

All of those systems live in the Z/2-graded complex Hom(X, Y) between
X = (p1, p0) and Y = (q1, q0), and `HomComplex` is the one place that
declares their unknowns and writes their equations.  An even pair
f = (f1, f0) is a morphism (is closed) exactly when f1 p0 = q0 f0 and
q1 f1 = f0 p1; an odd pair (s, t) has the boundary D(s, t) =
(q0 t + s p1, t p0 + q1 s), with no further signs.  The signs of a shifted
object live in its matrices (X[1] = (-p0, -p1)), not here.

Only the f1 slot (P1 -> Q1) of each equation is written, because for
closed pairs the f0 slot (P0 -> Q0) follows from it.  Two identities,
from p0 p1 = q1 q0 = (W - w0) I with W - w0 nonzero in the polynomial
ring, a domain (Eisenbud 1980), give this:

    q1 (f1 p0 - q0 f0) p1 = (W - w0) (q1 f1 - f0 p1),

so f1 p0 = q0 f0 implies q1 f1 = f0 p1; and q0 is injective, so a closed
pair g with g1 = 0 has q0 g0 = g1 p0 = 0 and hence g0 = 0.  The
precondition is that every pair an equation relates is closed: constrained
by `closed`, a boundary D(s, t), or a known MFMorphism or a graded
component of one.  Each system then has the same solutions, and so the
same reduced row echelon form and witnesses, as with both slots written.
Degree by degree, a closed f has f0 components only where f1 has some.

Degree-bounded mode can only certify presence: it tries ansatz bounds
upward from zero and returns the first solution with free variables set to
zero, which makes witnesses canonical.  That solution is 0 on every block
of equations that shares no unknown with a nonzero constant, and the
reduced form of a block-diagonal system is that of its blocks, so `solve`
builds and eliminates only the rows that a walk from the constants reaches
(the trivial case of the block triangular form, Pothen and Fan 1990); the
rank and nullspace read every row, built once and left unsorted, with no
constant column: both depend only on the column order.  Graded mode,
available when the data is quasi-homogeneous for the configured weights,
splits the morphism complex by weighted degree; each degree is decided
exactly, so absence is certified; `HomComplex` infers this grading once
per complex.  The
dimension scan runs to a hard bound derived from the annihilation of the
cohomology by all partial derivatives of W (top socle degree of the
Jacobian quotient plus one period), then to a run of empty degrees, and
records every degree in the certificate; one past the bound that is
nonzero means the Jacobian algebra is not finite (policy-infeasible).
Degrees share no unknown and no equation, so the scan eliminates one system
of closed pairs and one of boundaries for all of them, and reads each
degree's rank off its own pivot columns.

Isomorphism search and triangle certification share one system,
`_comparison_system`: a closed map through two squares that commute up to
homotopy.  The inverse of u is its case a = c = u with identities on the
right; a catalogue triangle's comparison map is its case with the two
triangles' maps.  They also share `_find_invertible`: a fixed stream of
maps in base + span(directions), each tested by that system for an inverse
and both homotopies.  Assembly keeps the rule of the `factorization`
docstring: `HomComplex` checks that its ends share a fiber, and the
systems it writes trust the shapes it pairs.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import MfcatError
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
    zero_morphism,
    _check_same_fiber,
)
from .matrices import PolyMatrix
from .poly import EXPONENT_LIMIT, Exponent, Poly, RingContext, grlex_key

DEFAULT_STALE_WINDOW = 3
ISO_CANDIDATE_CAP = 240


# -- policies and results ----------------------------------------------


@dataclass(frozen=True)
class SearchPolicy:
    """How a homotopy search is allowed to look for witnesses."""

    mode: str = "bounded"  # "bounded" or "graded"
    bound: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("bounded", "graded"):
            raise MfcatError("policy-infeasible", f"unknown mode {self.mode!r}")
        if self.bound is not None:
            _check_bound(self.bound)


def _check_bound(bound: int):
    """Refuse a negative degree bound, and one above EXPONENT_LIMIT, which
    no monomial reaches, as policy-infeasible."""
    if bound < 0:
        raise MfcatError("policy-infeasible", "negative degree bound")
    if bound > EXPONENT_LIMIT:
        raise MfcatError("policy-infeasible", f"degree bound above the exponent limit {EXPONENT_LIMIT}")


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


def resolve_bound(policy: Optional[SearchPolicy], x: MatrixFactorization, *others) -> int:
    """Explicit policy bound, else the largest total entry degree of x and
    of others, factorizations or morphisms of x's fiber, plus deg(W - w0);
    W - w0 is nonzero, as `mf_new` requires and every construction keeps."""
    if policy is not None and policy.bound is not None:
        return policy.bound
    pairs = [(m.p1, m.p0) if isinstance(m, MatrixFactorization) else (m.f1, m.f0) for m in (x, *others)]
    return _max_entry_degree([m for pair in pairs for m in pair]) + x.w.degree()


def _max_entry_degree(matrices: Sequence[PolyMatrix]) -> int:
    """Largest total degree of a nonzero entry, or 0."""
    return max(
        (p.degree() for m in matrices for row in m.entries for p in row if not p.is_zero()),
        default=0,
    )


# -- monomial supports -------------------------------------------------


def monomials_up_to_degree(nvars: int, bound: int) -> List[Tuple[int, ...]]:
    """Every exponent of total degree at most bound, in grlex order."""
    ones = (1,) * nvars
    return [exp for d in range(bound + 1) for exp in monomials_of_weighted_degree(ones, d)]


@functools.lru_cache(maxsize=1024)
def monomials_of_weighted_degree(weights: Tuple[int, ...], target: int) -> Tuple[Exponent, ...]:
    if target < 0:
        return ()
    if not weights:
        return ((),) if target == 0 else ()
    out = []
    head = weights[0]
    for e in range(target // head + 1):
        for rest in monomials_of_weighted_degree(weights[1:], target - e * head):
            out.append((e,) + rest)
    out.sort(key=grlex_key)
    return tuple(out)


# -- linear systems in unknown polynomial matrices ---------------------


def _pack(vec: Sequence[int], exp: Exponent) -> int:
    """exp as one int, its dot product with vec: for vec[i] = base**nvars +
    base**(nvars - 1 - i), the total degree times base**nvars plus the
    exponents as digits in the given base."""
    return sum(map(operator.mul, exp, vec))


class _Unknown:
    __slots__ = ("name", "rows", "cols", "supports", "starts", "base", "size", "degree")

    def __init__(self, name, rows, cols, supports, base):
        self.name = name
        self.rows = rows
        self.cols = cols
        self.supports = supports
        self.base = base
        # starts[r * cols + c]: offset of the first coefficient of entry (r, c)
        self.starts = list(itertools.accumulate((len(s) for row in supports for s in row), initial=0))
        self.size = self.starts.pop()
        # Entries often share one support object: take each top degree once.
        distinct = {id(s): s for row in supports for s in row}.values()
        self.degree = max((max(map(sum, s), default=0) for s in distinct), default=0)

    def index(self, r, c, k):
        return self.base + self.starts[r * self.cols + c] + k


def _row(field, terms, i: int, j: int, e: Exponent, positions) -> Dict[int, object]:
    """Row (i, j, e) of an equation with these terms: {column: nonzero
    coefficient}.  Coefficient x^e' of U[k][l] enters it through the terms
    x^e1 of L[i][k] and x^e2 of R[l][j] with e' = e - e1 - e2, if that is
    in the support.  positions[id(support)] maps a support's exponents to
    their places, filled on first use."""
    add, mul = field.add, field.mul
    zero = (0,) * len(e)
    row: Dict[int, object] = {}
    for left, unk, right, sign in terms:
        ks = [(i, {zero: 1})] if left is None else [(k, p.terms) for k, p in enumerate(left.entries[i]) if p.terms]
        ls = [(j, {zero: 1})] if right is None else [(l, r[j].terms) for l, r in enumerate(right.entries) if r[j].terms]
        for k, left_terms in ks:
            for l, right_terms in ls:
                support = unk.supports[k][l]
                where = positions.get(id(support))
                if where is None:
                    where = positions[id(support)] = {exp: p for p, exp in enumerate(support)}
                first = unk.index(k, l, 0)
                for e1, c1 in left_terms.items():
                    rest = tuple(map(operator.sub, e, e1))
                    for e2, c2 in right_terms.items():
                        p = where.get(tuple(map(operator.sub, rest, e2)))
                        if p is None:
                            continue
                        var, coeff = first + p, mul(mul(sign, c1), c2)
                        if var in row:
                            acc = add(row[var], coeff)
                            if acc:
                                row[var] = acc
                            else:
                                del row[var]
                        else:
                            row[var] = coeff
    return row


def _rows_of(n: int, terms, unk: _Unknown, k: int, l: int, exp: Exponent) -> List[Tuple[int, int, int, Exponent]]:
    """The rows (n, i, j, e1 + e2 + exp) of equation n, with these terms,
    that coefficient x^exp of U[k][l] enters through a term L @ U @ R, for
    x^e1 in L[i][k] and x^e2 in R[l][j], a cancelling sum included."""
    zero = (0,) * len(exp)
    out = []
    for left, other, right, _ in terms:
        if other is not unk:
            continue
        lefts = [(k, zero)] if left is None else [(i, e1) for i, r in enumerate(left.entries) for e1 in r[k].terms]
        rights = [(l, zero)] if right is None else [(j, e2) for j, p in enumerate(right.entries[l]) for e2 in p.terms]
        for i, e1 in lefts:
            e1u = tuple(map(operator.add, e1, exp))
            out += [(n, i, j, tuple(map(operator.add, e1u, e2))) for j, e2 in rights]
    return out


class LinearSystem:
    """Linear equations in the coefficients of unknown polynomial matrices.

    `add_matrix_equation` records each equation, and its rows are built
    when they are read: `solve` builds only the rows that its constants
    reach, while `coefficient_rank` and `homogeneous_nullspace` build every
    row once (`_assemble`) and eliminate the coefficient rows in the order
    they were built, without the constants.  `rows` is the sorted
    (coefficients, constant) view of the same rows for readers outside
    those two."""

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        self.field = ctx.field
        self.unknowns: List[_Unknown] = []
        self.total = 0
        self.equations: List[Tuple[list, Optional[PolyMatrix], Tuple[int, int]]] = []
        self._parts: List[Tuple[Dict[int, Dict[int, object]], Dict[int, object]]] = []

    def unknown(self, name: str, rows: int, cols: int, support: Callable[[int, int], Sequence[Tuple[int, ...]]]) -> _Unknown:
        """A rows x cols unknown matrix whose entry (r, c) has a coefficient
        for each exponent of support(r, c), a sequence of distinct, valid
        exponent tuples."""
        supports = [[tuple(support(r, c)) for c in range(cols)] for r in range(rows)]
        unk = _Unknown(name, rows, cols, supports, self.total)
        self.unknowns.append(unk)
        self.total += unk.size
        return unk

    def add_matrix_equation(self, terms, rhs: Optional[PolyMatrix], shape: Tuple[int, int]):
        """Sum of sign * L @ U @ R over the terms equals rhs (entrywise), all of the
        given shape, unchecked: the one caller, `HomComplex.equate`, pairs X's and Y's."""
        self.equations.append((terms, rhs, shape))

    @property
    def rows(self) -> List[Tuple[Dict[int, object], object]]:
        """Every row (coefficients, constant), equation by equation, each
        in (i, j, grlex) order of its entry (i, j) and monomial: the sorted
        view of the assembled rows for readers outside the rank and
        nullspace, which read them as they are."""
        return [
            (buckets.get(key, {}), consts.get(key, 0))
            for buckets, consts in self._assembled()
            for key in sorted(buckets.keys() | consts.keys())
        ]

    def _assembled(self):
        """(coefficient rows, constants) of every equation, each assembled
        on the first read after it is added."""
        for terms, rhs, shape in self.equations[len(self._parts):]:
            self._parts.append(self._assemble(terms, rhs, shape))
        return self._parts

    def _coefficient_rows(self):
        """Every coefficient row, equation by equation, as assembled:
        unsorted and without the constants."""
        return itertools.chain.from_iterable(buckets.values() for buckets, _ in self._assembled())

    def _assemble(self, terms, rhs: Optional[PolyMatrix], shape: Tuple[int, int]):
        """The rows of one equation, each term added to every row it enters:
        {row key: coefficient row} and {row key: constant}, a row
        key growing with (i, j, grlex) of the row's entry and monomial."""
        field = self.field
        add, mul = field.add, field.mul
        nrows, ncols = shape
        top = 0 if rhs is None else _max_entry_degree([rhs])
        for left, unk, right, sign in terms:
            factors = [_max_entry_degree([m]) for m in (left, right) if m is not None]
            top = max(top, sum(factors) + unk.degree)
        # Row (i, j, e) has key (i * ncols + j) * stride + pack(e), digits in a base
        # above every degree: adding keys adds exponents; int order is (i, j, grlex_key).
        base = top + 1
        nvars = self.ctx.nvars
        stride = base ** (nvars + 1)
        pack = functools.partial(_pack, [base**nvars + base ** (nvars - 1 - i) for i in range(nvars)])
        buckets: Dict[int, Dict[int, object]] = {}
        packed_supports: Dict[Tuple[Exponent, ...], List[int]] = {}
        for left, unk, right, sign in terms:
            sgn = field.coerce(sign)
            if field.is_zero(sgn):
                continue  # adds nothing; every other factor below is a nonzero scalar
            # lefts[k]: (key offset of row i plus monomial, sign * coefficient)
            if left is None:
                lefts = [[(k * ncols * stride, sgn)] for k in range(unk.rows)]
            else:
                lefts = [
                    [
                        (i * ncols * stride + pack(e), mul(sgn, c))
                        for i in range(nrows)
                        for e, c in left.entries[i][k].terms.items()
                    ]
                    for k in range(unk.rows)
                ]
            if right is None:
                rights = [[(l * stride, 1)] for l in range(unk.cols)]
            else:
                rights = [
                    [
                        (j * stride + pack(e), c)
                        for j in range(ncols)
                        for e, c in right.entries[l][j].terms.items()
                    ]
                    for l in range(unk.cols)
                ]
            for k in range(unk.rows):
                if not lefts[k]:
                    continue
                for l in range(unk.cols):
                    support = unk.supports[k][l]
                    if not support or not rights[l]:
                        continue
                    packed = packed_supports.get(support)
                    if packed is None:
                        packed = packed_supports[support] = [pack(e) for e in support]
                    first = unk.index(k, l, 0)
                    for key_left, c_left in lefts[k]:
                        for key_right, c_right in rights[l]:
                            coeff = mul(c_left, c_right)
                            key_lr = key_left + key_right
                            for var, key_unk in enumerate(packed, first):
                                key = key_lr + key_unk
                                row = buckets.get(key)
                                if row is None:
                                    buckets[key] = {var: coeff}
                                elif var in row:
                                    acc = add(row[var], coeff)
                                    if acc:
                                        row[var] = acc
                                    else:
                                        del row[var]
                                else:
                                    row[var] = coeff
        consts: Dict[int, object] = {}
        if rhs is not None:
            for i in range(nrows):
                for j in range(ncols):
                    for e, c in rhs.entries[i][j].terms.items():
                        key = (i * ncols + j) * stride + pack(e)
                        consts[key] = add(consts.get(key, 0), c)
        return buckets, consts

    def solve(self) -> Optional[Dict[str, PolyMatrix]]:
        """One solution with free variables set to zero, or None.  The
        constants form column `total`, the one right-hand side, so the
        elimination stops at the first equation that it reduces to
        0 = a nonzero constant.  Only the rows that the constants reach are
        built and eliminated, in the graph linking each row to its columns:
        a block-diagonal system reduces block by block, and a block with no
        constant has zero right-hand sides, so its pivots are 0.

        The walk starts at the rows with a constant.  A row links to the
        columns it holds (`_row`), and a column to every row that a term
        puts it in, even where the sum cancels (`_rows_of`).  That may add
        blocks with no constant, which solve to 0.  The rows reached go to
        `linalg.sparse_solve` in the order of `rows`."""
        field, total = self.field, self.total
        # Row (n, i, j, e) is the coefficient of x^e in entry (i, j) of
        # equation n.  Each equation keeps its terms with a nonzero sign.
        equations, consts = [], {}
        for n, (terms, rhs, _) in enumerate(self.equations):
            signed = [(left, unk, right, field.coerce(sign)) for left, unk, right, sign in terms]
            equations.append([term for term in signed if not field.is_zero(term[3])])
            if rhs is not None:
                for i, entries in enumerate(rhs.entries):
                    for j, p in enumerate(entries):
                        for e, c in p.terms.items():
                            consts[n, i, j, e] = c
        bases = [unk.base for unk in self.unknowns]
        positions: Dict[int, Dict[Exponent, int]] = {}
        queue, reached, linked = list(consts), {}, set()
        seen = set(queue)
        while queue:
            n, i, j, e = rid = queue.pop()
            row = reached[rid] = _row(field, equations[n], i, j, e, positions)
            for c in row.keys() - linked:
                linked.add(c)
                u, cell, exp = self._locate(bases, c)
                unk = self.unknowns[u]
                for m, terms in enumerate(equations):
                    for target in _rows_of(m, terms, unk, *divmod(cell, unk.cols), exp):
                        if target not in seen:
                            seen.add(target)
                            queue.append(target)
        rows = []
        for rid in sorted(reached, key=lambda rid: (*rid[:3], grlex_key(rid[3]))):
            const = consts.get(rid)
            rows.append({**reached[rid], total: const} if const else reached[rid])
        solution = linalg.sparse_solve(field, rows, total)
        if solution is None:
            return None
        return self._extract({c: x[total] for c, x in solution.items()})

    def _locate(self, bases: List[int], i: int) -> Tuple[int, int, Exponent]:
        """(unknown number, entry number r * cols + c, exponent) of column i,
        for bases, the first column of each unknown."""
        u = bisect_right(bases, i) - 1
        unk = self.unknowns[u]
        k = i - unk.base
        cell = bisect_right(unk.starts, k) - 1
        return u, cell, unk.supports[cell // unk.cols][cell % unk.cols][k - unk.starts[cell]]

    def _extract(self, values: Dict[int, object]) -> Dict[str, PolyMatrix]:
        """The unknown matrices of the assignment {index: nonzero value},
        every other coefficient zero.  Supports hold distinct, valid
        exponents, so each entry and matrix is built without re-checking."""
        ctx = self.ctx
        bases = [unk.base for unk in self.unknowns]
        cells = [[{} for _ in range(unk.rows * unk.cols)] for unk in self.unknowns]
        # In index order, so each entry's terms follow its support.
        for i in sorted(values):
            u, cell, exp = self._locate(bases, i)
            cells[u][cell][exp] = values[i]
        out = {}
        for unk, terms in zip(self.unknowns, cells):
            polys = tuple(Poly._clean(ctx, t) for t in terms)
            rows = tuple(polys[r * unk.cols:(r + 1) * unk.cols] for r in range(unk.rows))
            out[unk.name] = PolyMatrix._trusted(ctx, unk.rows, unk.cols, rows)
        return out

    def coefficient_rank(self, labels: Optional[Sequence] = None):
        """The rank of the coefficient matrix; given labels[c] for every
        column c, {label: the number of pivot columns with it} instead."""
        pivots = linalg.pivot_columns(self.field, self._coefficient_rows())
        return len(pivots) if labels is None else Counter(labels[c] for c in pivots)

    def homogeneous_nullspace(self) -> List[Dict[str, PolyMatrix]]:
        """Nullspace basis of the coefficient matrix, constants ignored."""
        reduced = linalg.sparse_rref(self.field, self._coefficient_rows())
        return [self._extract(v) for v in linalg.null_basis(self.field, reduced, self.total)]


class HomComplex:
    """The unknowns and equations of Hom(X, Y), over pairs of maps X -> Y.

    `bounded_unknowns` and `graded_unknowns` declare every unknown pair, the
    latter by `offsets`, the one grading of the complex.  `closed` and
    `boundary` write the two conditions of the module docstring; `compose`
    writes a known morphism composed with an unknown pair.  Each returns the
    term list of the f1 slot (P1 -> Q1) only, and `equate` adds their sum as
    one matrix equation.  The f0 slot follows from it by q1 (f1 p0 - q0 f0)
    p1 = (W - w0) (q1 f1 - f0 p1) and the injectivity of q0, provided every
    pair related is closed (see the module docstring): a free pair equated
    to a closed one must also be constrained by `closed`.
    """

    def __init__(self, x: MatrixFactorization, y: MatrixFactorization):
        _check_same_fiber(x, y)
        self.x = x
        self.y = y
        self.shape = (y.rank, x.rank)

    def bounded_unknowns(
        self, system: LinearSystem, names: Tuple[str, str], bound: int
    ) -> Tuple[_Unknown, _Unknown]:
        """Declare two unknown maps X -> Y, in order, each entry supported on
        every monomial of total degree <= bound."""
        _check_bound(bound)
        support = tuple(monomials_up_to_degree(self.x.ctx.nvars, bound))
        return tuple(system.unknown(name, *self.shape, lambda r, c: support) for name in names)

    @functools.cached_property
    def offsets(self) -> Tuple[Tuple[List[List[int]], ...], ...]:
        """offsets[piece][k][r][c]: the weighted degree that entry (r, c) of
        map k adds to the map degree, for piece 0, the even pair (f1, f0),
        and piece 1, the odd pair (s, t).  Inferred on first use."""
        ax, bx = infer_generator_degrees(self.x)
        ay, by = infer_generator_degrees(self.y)
        dw = self.x.w.weighted_degree()
        rows, cols = self.shape

        def table(source, target, shift=0):
            return [[source[c] - target[r] - shift for c in range(cols)] for r in range(rows)]

        return (table(bx, by), table(ax, ay)), (table(ax, by), table(bx, ay, dw))

    def graded_unknowns(
        self, system: LinearSystem, names: Tuple[str, str], piece: int, degrees: Sequence[int]
    ) -> Tuple[_Unknown, _Unknown, List[int]]:
        """Declare the two maps of `offsets[piece]`, in order, each entry
        holding the monomials of each map degree listed in turn, and return
        them with the map degree of each column they add."""
        weights = tuple(self.x.ctx.weights)
        labels: List[int] = []
        out = []
        # One support tuple, and its labels, per shift, shared by its entries.
        by_shift: Dict[int, Tuple[Tuple[Exponent, ...], List[int]]] = {}
        for name, offset in zip(names, self.offsets[piece]):
            for shift in itertools.chain.from_iterable(offset):
                if shift not in by_shift:
                    parts = [monomials_of_weighted_degree(weights, phi + shift) for phi in degrees]
                    shift_labels = [phi for phi, part in zip(degrees, parts) for _ in part]
                    by_shift[shift] = tuple(itertools.chain.from_iterable(parts)), shift_labels
                labels += by_shift[shift][1]
            out.append(system.unknown(name, *self.shape, lambda r, c: by_shift[offset[r][c]][0]))
        return out[0], out[1], labels

    def closed(self, f1: _Unknown, f0: _Unknown):
        """f1 p0 - q0 f0: it vanishes exactly on morphisms."""
        return [(None, f1, self.x.p0, 1), (self.y.p0, f0, None, -1)]

    def boundary(self, s: _Unknown, t: _Unknown, sign: int = 1):
        """The f1 slot of sign * D(s, t), sign * (q0 t + s p1)."""
        return [(self.y.p0, t, None, sign), (None, s, self.x.p1, sign)]

    def compose(self, g, f):
        """The f1 slot of g after f, where one of the two is a known
        MFMorphism and the other a pair of unknowns."""
        if isinstance(f, MFMorphism):
            return [(None, g[0], f.f1, 1)]
        return [(g.f1, f[0], None, 1)]

    def equate(self, system: LinearSystem, *parts, rhs: Optional[PolyMatrix] = None):
        """The sum of the term lists equals rhs, the f1 slot of a closed
        pair, or zero."""
        system.add_matrix_equation([term for part in parts for term in part], rhs, self.shape)


# -- gradings ----------------------------------------------------------


def infer_generator_degrees(x: MatrixFactorization) -> Tuple[List[int], List[int]]:
    """Generator degrees (for P0 and P1) making p1 degree-preserving and
    p0 of degree deg W, or policy-infeasible if no such grading exists."""
    ctx = x.ctx
    if ctx.weights is None:
        raise MfcatError("policy-infeasible", "graded mode requires configured weights")
    if not x.w.is_quasi_homogeneous():
        raise MfcatError("policy-infeasible", "non-quasi-homogeneous fiber polynomial")
    dw = x.w.weighted_degree()
    n = x.rank
    # Nodes 0..n-1 are P0 generators, n..2n-1 are P1 generators.
    adj: Dict[int, List[Tuple[int, int]]] = {k: [] for k in range(2 * n)}

    def entry_degree(p: Poly) -> Optional[int]:
        if p.is_zero():
            return None
        degs = p.weighted_degrees()
        if len(degs) != 1:
            raise MfcatError(
                "policy-infeasible", "non-quasi-homogeneous entry "
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
                        raise MfcatError(
                            "policy-infeasible", "entries admit no consistent grading"
                        )
                else:
                    degree[other] = want
                    queue.append(other)
    a = [degree[i] for i in range(n)]
    b = [degree[n + i] for i in range(n)]
    return a, b


# -- null-homotopy search ----------------------------------------------


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
        system = LinearSystem(x.ctx)
        s, t = hom.bounded_unknowns(system, ("s", "t"), b)
        hom.equate(system, hom.boundary(s, t), rhs=f.f1)
        sol = system.solve()
        if sol is not None:
            h = Homotopy(x, y, sol["s"], sol["t"])
            if not h.bounds(f):
                raise MfcatError("not-a-morphism", "solver returned a bad witness")
            return SearchResult(
                "found", h, {"mode": "bounded", "bound": bound, "bound_used": b}
            )
    return SearchResult(
        "none-up-to-bound", None, {"mode": "bounded", "bound": bound}
    )


def _morphism_degree_components(hom: HomComplex, f: MFMorphism) -> Dict[int, PolyMatrix]:
    """The f1 slot of f split by map degree: degree -> component.  For a
    closed f these are the degrees of its f0 slot too, since q0 and p0 are
    injective (module docstring)."""
    ctx, (rows, cols) = f.source.ctx, hom.shape
    offset = hom.offsets[0][0]
    cells: Dict[int, List[List[Dict]]] = {}
    for r in range(rows):
        for c in range(cols):
            for exp, coeff in f.f1.entries[r][c].terms.items():
                phi = sum(w * e for w, e in zip(ctx.weights, exp)) - offset[r][c]
                part = cells.setdefault(phi, [[{} for _ in range(cols)] for _ in range(rows)])
                part[r][c][exp] = coeff
    return {
        phi: PolyMatrix(ctx, [[Poly(ctx, t) for t in row] for row in part], cols=cols)
        for phi, part in cells.items()
    }


def _find_null_homotopy_graded(f: MFMorphism, policy: SearchPolicy) -> SearchResult:
    x, y = f.source, f.target
    ctx = x.ctx
    hom = HomComplex(x, y)
    components = _morphism_degree_components(hom, f)
    degrees = sorted(components)
    total_s = total_t = PolyMatrix.zero(ctx, y.rank, x.rank)
    for phi in degrees:
        system = LinearSystem(ctx)
        s, t, _ = hom.graded_unknowns(system, ("s", "t"), 1, [phi])
        # A graded component of a morphism is closed: its f1 slot decides it.
        hom.equate(system, hom.boundary(s, t), rhs=components[phi])
        sol = system.solve()
        if sol is None:
            return SearchResult(
                "proven-none",
                None,
                {
                    "mode": "graded",
                    "degrees": degrees,
                    "failed_degree": phi,
                    "weights": list(ctx.weights),
                },
            )
        total_s = total_s + sol["s"]
        total_t = total_t + sol["t"]
    h = Homotopy(x, y, total_s, total_t)
    if not h.bounds(f):
        raise MfcatError("not-a-morphism", "solver returned a bad witness")
    return SearchResult("found", h, {"mode": "graded", "degrees": degrees})


def homotopy_equal(f: MFMorphism, g: MFMorphism, policy: Optional[SearchPolicy] = None) -> SearchResult:
    return find_null_homotopy(morphism_sub(f, g), policy)


def is_contractible(x: MatrixFactorization, policy: Optional[SearchPolicy] = None) -> SearchResult:
    return find_null_homotopy(identity_morphism(x), policy)


# -- graded stable morphism dimensions ---------------------------------


def graded_stable_hom_dim(x: MatrixFactorization, y: MatrixFactorization) -> Tuple[int, dict]:
    """Dimension of degree-zero morphisms in the homotopy category, with a
    certificate listing the dimension of every weighted degree scanned.

    The scan covers every degree up to the annihilation bound in one
    system per parity, with ranks read per degree (`_degree_dimensions`),
    then as one more batch the degrees past it that complete a run of
    DEFAULT_STALE_WINDOW empty ones.  The bound holds when the Jacobian
    algebra of W is finite; a nonzero degree above it raises
    policy-infeasible (the singularity is not isolated).
    """
    hom = HomComplex(x, y)
    offsets = [o for table in hom.offsets[0] for row in table for o in row]
    degrees, scan_bound = [], None
    if offsets:
        dw = x.w.weighted_degree()
        sigma = max(0, sum(dw - 2 * w for w in x.ctx.weights))
        scan_bound = sigma + dw - min(offsets)
        scan = range(-max(offsets), scan_bound + 1)
        dims = _degree_dimensions(hom, scan)
        # Past the bound, the degrees that complete a run of empty ones.
        empty_run = len(list(itertools.takewhile(lambda d: not d, reversed(dims))))
        late = range(scan_bound + 1, scan_bound + 1 + max(0, DEFAULT_STALE_WINDOW - empty_run))
        for phi, dim_phi in zip(late, _degree_dimensions(hom, late) if late else []):
            if dim_phi:
                raise MfcatError(
                    "policy-infeasible", f"non-isolated singularity: dimension {dim_phi} in "
                    f"degree {phi}, above the scan bound {scan_bound}"
                )
        degrees = [[phi, d] for phi, d in zip(scan, dims)] + [[phi, 0] for phi in late]
    total = sum(d for _, d in degrees)
    return total, {
        "total": total,
        "degrees": degrees,
        "scan_bound": scan_bound,
        "window": DEFAULT_STALE_WINDOW,
        "weights": list(x.ctx.weights),
    }


def _degree_dimensions(hom: HomComplex, degrees: Sequence[int]) -> List[int]:
    """dim H_phi, closed pairs of degree phi modulo boundaries, for each phi
    in degrees: one cycle system for all of them and one boundary system for
    those with cycles, each rank counted per degree.  The rows and columns of
    one degree keep their order, so it is eliminated as it would be alone."""
    cycle = LinearSystem(hom.x.ctx)
    g1, g0, labels = hom.graded_unknowns(cycle, ("g1", "g0"), 0, degrees)
    hom.equate(cycle, hom.closed(g1, g0))
    ranks, sizes = cycle.coefficient_rank(labels), Counter(labels)
    cycles = [sizes[phi] - ranks[phi] for phi in degrees]
    live = [phi for phi, dim in zip(degrees, cycles) if dim]
    # Image of D on the adjacent parity; with no live degree, the empty Counter.
    boundary = LinearSystem(hom.x.ctx)
    s, t, labels = hom.graded_unknowns(boundary, ("s", "t"), 1, live)
    hom.equate(boundary, hom.boundary(s, t))
    images = boundary.coefficient_rank(labels)
    dims = [dim - images[phi] for phi, dim in zip(degrees, cycles)]
    if min(dims) < 0:
        raise MfcatError("not-a-factorization", "boundary space escapes the cycle space")
    return dims


def bounded_stable_hom_estimate(
    x: MatrixFactorization, y: MatrixFactorization, bound: int
) -> int:
    """Morphisms of entry degree <= bound modulo boundaries of homotopies
    of entry degree <= bound.  Not a certificate: raising the bound can
    change the answer in either direction; the graded scan is the
    certified route when a grading exists.
    """
    hom = HomComplex(x, y)
    # Z is the space of closed maps and B the span of the boundaries
    # D(s, t), every piece of degree <= bound; dim Z = N - C for the N
    # coefficients of f and C the rank of `cycles`.  The solutions of
    # `meets`, f closed and f = D(s, t), map onto Z meet B with kernel ker D.
    # A column is a pivot exactly when it is not a combination of earlier
    # ones, so rank D pivots lie among the (s, t) columns, declared first, and
    # N - dim(Z meet B) among the f columns; the answer dim(Z + B) - dim B =
    # dim Z - dim(Z meet B) is that count minus C.  With the f1 slot alone,
    # f = D(s, t) needs f closed to imply the f0 slot, so `meets` also
    # constrains f; that leaves its solutions as they are.
    cycles = LinearSystem(x.ctx)
    f1, f0 = hom.bounded_unknowns(cycles, ("f1", "f0"), bound)
    hom.equate(cycles, hom.closed(f1, f0))
    meets = LinearSystem(x.ctx)
    s, t = hom.bounded_unknowns(meets, ("s", "t"), bound)
    homotopies = meets.total
    f = hom.bounded_unknowns(meets, ("f1", "f0"), bound)
    hom.equate(meets, hom.closed(*f))
    hom.equate(meets, hom.compose(identity_morphism(y), f), hom.boundary(s, t, -1))
    labels = [c >= homotopies for c in range(meets.total)]
    return meets.coefficient_rank(labels)[True] - cycles.coefficient_rank()


# -- morphism spaces and isomorphism search ----------------------------


def morphism_space_basis(
    x: MatrixFactorization, y: MatrixFactorization, bound: int
) -> List[MFMorphism]:
    """Basis of the space of morphisms with entry degrees up to the bound."""
    hom = HomComplex(x, y)
    system = LinearSystem(x.ctx)
    f1, f0 = hom.bounded_unknowns(system, ("f1", "f0"), bound)
    hom.equate(system, hom.closed(f1, f0))
    out = []
    for assignment in system.homogeneous_nullspace():
        out.append(morphism_new(x, y, assignment["f1"], assignment["f0"]))
    return out


def _comparison_system(
    a: MFMorphism, b: MFMorphism, c: MFMorphism, d: MFMorphism, bound: int, h_bound: int
) -> LinearSystem:
    """The system for a closed m : A -> B with m a - b = D(s1, t1) and
    c m - d = D(s2, t2), for a : X -> A, b : X -> B, c : B -> Y, d : A -> Y.
    Unknowns, in order: (m1, m0) of entry degree <= bound, then (s1, t1) and
    (s2, t2) of entry degree <= h_bound; equations: closed(m), then the
    first square, then the second."""
    hom_m = HomComplex(a.target, c.source)
    hom_a, hom_c = HomComplex(a.source, c.source), HomComplex(a.target, c.target)
    system = LinearSystem(a.source.ctx)
    m = hom_m.bounded_unknowns(system, ("m1", "m0"), bound)
    s1, t1 = hom_a.bounded_unknowns(system, ("s1", "t1"), h_bound)
    s2, t2 = hom_c.bounded_unknowns(system, ("s2", "t2"), h_bound)
    hom_m.equate(system, hom_m.closed(*m))
    hom_a.equate(system, hom_a.compose(m, a), hom_a.boundary(s1, t1, -1), rhs=b.f1)
    hom_c.equate(system, hom_c.compose(c, m), hom_c.boundary(s2, t2, -1), rhs=d.f1)
    return system


def _two_sided_inverse(u: MFMorphism, bound: int) -> Optional[Tuple[MFMorphism, Homotopy, Homotopy]]:
    """Solve for v with v u ~ id and u v ~ id, with homotopy witnesses: the
    comparison system with a = c = u, b = id_X and d = id_Y."""
    x, y = u.source, u.target
    id_x, id_y = identity_morphism(x), identity_morphism(y)
    h_bound = bound + _max_entry_degree([x.p1, x.p0, y.p1, y.p0, u.f1, u.f0])
    sol = _comparison_system(u, id_x, u, id_y, bound, h_bound).solve()
    if sol is None:
        return None
    v = morphism_new(y, x, sol["m1"], sol["m0"])
    h_source = Homotopy(x, x, sol["s1"], sol["t1"])
    h_target = Homotopy(y, y, sol["s2"], sol["t2"])
    if not h_source.bounds(morphism_sub(compose(v, u), id_x)):
        raise MfcatError("not-a-morphism", "inverse witness failed on the source")
    if not h_target.bounds(morphism_sub(compose(u, v), id_y)):
        raise MfcatError("not-a-morphism", "inverse witness failed on the target")
    return v, h_source, h_target


def _find_invertible(
    certificate: dict,
    bound: int,
    base: Optional[MFMorphism],
    directions: Callable[[], List[MFMorphism]],
) -> Optional[Tuple[MFMorphism, MFMorphism, Homotopy, Homotopy]]:
    """The first invertible u in base + span(directions()) as (u, v, h, k),
    h bounding v u - id and k bounding u v - id, or None.  `base` is tried
    first, even when zero; `directions()` runs only if it fails.  Then come
    at most ISO_CANDIDATE_CAP combinations, zero ones skipped: each
    direction, each pair with coefficients (1, 1 | -1 | 2 | -2), each triple
    with (1, +-1, +-1).  Each candidate tried adds one to
    certificate["candidates_tried"].
    """

    def combinations(basis):
        yield from basis
        for a, b in itertools.combinations(basis, 2):
            for c in (1, -1, 2, -2):
                yield morphism_add(a, morphism_scale(b, c))
        for a, b, c in itertools.combinations(basis, 3):
            for sb, sc in itertools.product((1, -1), repeat=2):
                yield morphism_add(morphism_add(a, morphism_scale(b, sb)), morphism_scale(c, sc))

    def candidates():
        if base is not None:
            yield base
        for combo in itertools.islice(combinations(directions()), ISO_CANDIDATE_CAP):
            if not combo.is_zero():
                yield combo if base is None else morphism_add(base, combo)

    for u in candidates():
        certificate["candidates_tried"] += 1
        found = _two_sided_inverse(u, bound)
        if found is not None:
            return (u,) + found
    return None


def is_iso_in_db(
    x: MatrixFactorization,
    y: MatrixFactorization,
    policy: Optional[SearchPolicy] = None,
) -> IsoResult:
    """Decide isomorphism in the homotopy category by witness search.

    A graded dimension mismatch between End(X), End(Y) and Hom(X, Y) is a
    certified negative; a pair (u, v) with both composites homotopic to
    identities, u found by `_find_invertible` among combinations of a basis
    of the morphisms up to the bound (the zero map if one rank is 0), is a
    certified positive; otherwise the answer is the non-certified "unknown".
    """
    if policy is None:
        policy = SearchPolicy()
    certificate: dict = {"mode": policy.mode}
    if x.rank == 0 and y.rank == 0:
        empty = PolyMatrix(x.ctx, [], cols=0)
        h = Homotopy(x, x, empty, empty)
        return IsoResult("iso", zero_morphism(x, y), zero_morphism(y, x), h, h, {"trivial": True})
    if x.ctx.weights is not None and policy.mode == "graded":
        try:
            dim_xy, _ = graded_stable_hom_dim(x, y)
            dim_xx, _ = graded_stable_hom_dim(x, x)
            dim_yy, _ = graded_stable_hom_dim(y, y)
            certificate["stable_dims"] = {
                "hom": dim_xy,
                "end_source": dim_xx,
                "end_target": dim_yy,
            }
            if not (dim_xy == dim_xx == dim_yy):
                certificate["obstruction"] = "stable dimension mismatch"
                return IsoResult("not-iso", None, None, None, None, certificate)
        except MfcatError as exc:
            # Data not gradable: fall through to the bounded witness search.
            if exc.code != "policy-infeasible":
                raise
    bound = resolve_bound(policy, x, y)
    certificate["bound"] = bound
    certificate["candidates_tried"] = 0
    base = zero_morphism(x, y) if 0 in (x.rank, y.rank) else None
    found = _find_invertible(certificate, bound, base, lambda: morphism_space_basis(x, y, bound))
    if found is None:
        return IsoResult("unknown", None, None, None, None, certificate)
    return IsoResult("iso", *found, certificate)
