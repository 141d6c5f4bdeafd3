"""Matrices with polynomial entries over a shared ring context.

PolyMatrix carries its context explicitly so that the 0x0 and 0xN shapes
that arise from rank-zero factorizations stay well defined.  All
operations are exact; shape and context violations raise with the
corresponding identifier (shape-mismatch, context-mismatch).

The public constructor checks every shape and entry.  The results of
``@``, ``+``, ``-``, ``zero``, ``identity`` and ``block`` on checked
operands are built once, by ``_trusted``, and not checked again; ``@``
sums each entry's terms into one dict, with no ``Poly`` per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .errors import MfcatError
from .poly import Poly, RingContext, _add_products


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PolyMatrix:
    ctx: RingContext
    rows: int
    cols: int
    entries: Tuple[Tuple[Poly, ...], ...]

    def __init__(self, ctx: RingContext, entries: Sequence[Sequence[Poly]], cols: int = None):
        rows = len(entries)
        if rows == 0:
            if cols is None:
                cols = 0
            elif cols < 0:
                raise MfcatError("shape-mismatch", f"negative size 0x{cols}")
        else:
            widths = {len(r) for r in entries}
            if len(widths) != 1:
                raise MfcatError("shape-mismatch", f"ragged rows with widths {sorted(widths)}")
            width = widths.pop()
            if cols is None:
                cols = width
            elif cols != width:
                raise MfcatError("shape-mismatch", f"declared {cols} columns, rows have {width}")
        checked: List[Tuple[Poly, ...]] = []
        for r in entries:
            row = []
            for p in r:
                if not isinstance(p, Poly):
                    p = ctx.constant(p)
                if p.ctx is not ctx and p.ctx != ctx:
                    raise MfcatError("context-mismatch", "entry from a different context")
                row.append(p)
            checked.append(tuple(row))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(checked))

    @classmethod
    def _trusted(cls, ctx: RingContext, rows: int, cols: int, entries) -> "PolyMatrix":
        """A matrix from a tuple of `rows` tuples of `cols` Polys of ctx,
        already known to be valid."""
        m = object.__new__(cls)
        object.__setattr__(m, "ctx", ctx)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @staticmethod
    def zero(ctx: RingContext, rows: int, cols: int) -> "PolyMatrix":
        if rows < 0 or cols < 0:
            raise MfcatError("shape-mismatch", f"negative size {rows}x{cols}")
        row = (ctx.zero(),) * cols
        return PolyMatrix._trusted(ctx, rows, cols, (row,) * rows)

    @staticmethod
    def identity(ctx: RingContext, n: int) -> "PolyMatrix":
        if n < 0:
            raise MfcatError("shape-mismatch", f"negative size {n}x{n}")
        one, zero = ctx.one(), ctx.zero()
        entries = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return PolyMatrix._trusted(ctx, n, n, entries)

    @staticmethod
    def scalar(ctx: RingContext, value, n: int) -> "PolyMatrix":
        p = value if isinstance(value, Poly) else ctx.constant(value)
        zero = ctx.zero()
        return PolyMatrix(
            ctx, [[p if i == j else zero for j in range(n)] for i in range(n)], cols=n
        )

    @staticmethod
    def block(grid: Sequence[Sequence["PolyMatrix"]]) -> "PolyMatrix":
        """Assemble a block matrix from a grid of compatible blocks."""
        if not grid or not grid[0]:
            raise MfcatError("shape-mismatch", "empty block grid")
        ctx = grid[0][0].ctx
        for row in grid:
            for blockm in row:
                if blockm.ctx is not ctx and blockm.ctx != ctx:
                    raise MfcatError("context-mismatch", "blocks from different contexts")
        widths = [b.cols for b in grid[0]]
        entries: List[Tuple[Poly, ...]] = []
        for row in grid:
            if [b.cols for b in row] != widths:
                raise MfcatError("shape-mismatch", "inconsistent block column widths")
            height = {b.rows for b in row}
            if len(height) != 1:
                raise MfcatError("shape-mismatch", "inconsistent block row heights")
            h = height.pop()
            for i in range(h):
                entries.append(tuple(p for b in row for p in b.entries[i]))
        return PolyMatrix._trusted(ctx, len(entries), sum(widths), tuple(entries))

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other: "PolyMatrix"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise MfcatError("context-mismatch", "matrices from different contexts")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MfcatError(
                "shape-mismatch", f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        entries = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        )
        return PolyMatrix._trusted(self.ctx, self.rows, self.cols, entries)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        entries = tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        )
        return PolyMatrix._trusted(self.ctx, self.rows, self.cols, entries)

    def __neg__(self) -> "PolyMatrix":
        entries = tuple(tuple(-a for a in row) for row in self.entries)
        return PolyMatrix._trusted(self.ctx, self.rows, self.cols, entries)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        ctx = self.ctx
        if other.ctx is not ctx and other.ctx != ctx:
            raise MfcatError("context-mismatch", "matrices from different contexts")
        if self.cols != other.rows:
            raise MfcatError("shape-mismatch", f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        fld, clean = ctx.field, Poly._clean
        right = [[b.terms for b in row] for row in other.entries]
        out = []
        for row in self.entries:
            # (terms of a_ik, terms of row k of other) for the nonzero a_ik
            pairs = [(a.terms, right[k]) for k, a in enumerate(row) if a.terms]
            out_row = []
            for j in range(other.cols):
                acc = {}
                for left, rk in pairs:
                    if rk[j]:
                        _add_products(fld, acc, left, rk[j])
                out_row.append(clean(ctx, acc))
            out.append(tuple(out_row))
        return PolyMatrix._trusted(ctx, self.rows, other.cols, tuple(out))

    def scale(self, factor) -> "PolyMatrix":
        p = factor if isinstance(factor, Poly) else self.ctx.constant(factor)
        return PolyMatrix(
            self.ctx, [[p * a for a in row] for row in self.entries], cols=self.cols
        )

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.ctx,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def map_entries(self, fn: Callable[[Poly], Poly]) -> "PolyMatrix":
        return PolyMatrix(
            self.ctx, [[fn(a) for a in row] for row in self.entries], cols=self.cols
        )

    def partial_derivative(self, var: str) -> "PolyMatrix":
        return self.map_entries(lambda p: p.partial_derivative(var))

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(a) for a in row) for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}: {self})"
