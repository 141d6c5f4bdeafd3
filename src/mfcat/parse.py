"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant, unary minus only at expression head):

    expression := ['-'] term (('+'|'-') term)*
    term       := coeff ('*' factor)* | factor ('*' factor)*
    factor     := var ('^' uint)? | '(' expression ')'
    coeff      := int | int '/' uint

Coefficients are read in the context's field; a denominator that is not
invertible there raises non-invertible-denominator.  Unknown variable
names raise unknown-variable, bad exponents raise malformed-exponent.
"""

from __future__ import annotations

from .errors import MfcatError
from .poly import EXPONENT_LIMIT, Poly, RingContext


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []  # (kind, value, position)
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.items.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise MfcatError("parse-error", f"unexpected character {ch!r} at position {i}")
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok


def parse_poly(ctx: RingContext, text: str) -> Poly:
    toks = _Tokens(text)
    result = _expression(ctx, toks)
    kind, val, pos = toks.peek()
    if kind != "end":
        raise MfcatError("parse-error", f"unexpected {val!r} at position {pos}")
    return result


def _expression(ctx: RingContext, toks: _Tokens) -> Poly:
    negate = False
    if toks.peek()[0] == "-":
        toks.next()
        negate = True
    acc = _term(ctx, toks)
    if negate:
        acc = -acc
    while True:
        kind = toks.peek()[0]
        if kind == "+":
            toks.next()
            acc = acc + _term(ctx, toks)
        elif kind == "-":
            toks.next()
            acc = acc - _term(ctx, toks)
        else:
            return acc


def _term(ctx: RingContext, toks: _Tokens) -> Poly:
    acc = (_coeff if toks.peek()[0] == "int" else _factor)(ctx, toks)
    while toks.peek()[0] == "*":
        toks.next()
        acc = acc * _factor(ctx, toks)
    return acc


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # a digit outside 0-9, or more digits than int() reads
        raise MfcatError("parse-error", f"unreadable integer at position {pos}") from None


def _coeff(ctx: RingContext, toks: _Tokens) -> Poly:
    # `_term`, the one caller, calls it only when the next token is an int.
    _, val, pos = toks.next()
    num = _int(val, pos)
    if toks.peek()[0] == "/":
        toks.next()
        dkind, dval, dpos = toks.next()
        if dkind != "int":
            raise MfcatError("parse-error", f"expected denominator at position {dpos}")
        den = _int(dval, dpos)
        return ctx.constant(ctx.field.from_fraction(num, den))
    return ctx.constant(ctx.field.from_int(num))


def _factor(ctx: RingContext, toks: _Tokens) -> Poly:
    kind, val, pos = toks.next()
    if kind == "(":
        inner = _expression(ctx, toks)
        ckind, cval, cpos = toks.next()
        if ckind != ")":
            raise MfcatError("parse-error", f"expected ')' at position {cpos}, got {cval!r}")
        return inner
    if kind == "name":
        if val not in ctx.variables:
            raise MfcatError("unknown-variable", f"{val!r} at position {pos}")
        base = ctx.variable(val)
        if toks.peek()[0] == "^":
            toks.next()
            ekind, eval_, epos = toks.next()
            if ekind != "int":
                raise MfcatError(
                    "malformed-exponent", f"expected unsigned integer at position {epos}, got {eval_!r}"
                )
            e = _int(eval_, epos)
            if e > EXPONENT_LIMIT:
                raise MfcatError("malformed-exponent", f"{e} exceeds the machine-width bound")
            return base**e
        return base
    raise MfcatError("parse-error", f"unexpected {val!r} at position {pos}")
