"""Critical values, checked against a test-only reference.

The reference is the sampled pipeline: the resultant R(t) = Res_z(W - t, W')
evaluated at deg W' + 2 integers and interpolated by Lagrange's formula,
then the same rational roots, gcd verification and division as
`critical_values`.  R is a nonzero constant times the characteristic
polynomial of multiplication by W on k[z]/(W'), so it has the roots of the
minimal polynomial that `critical_values` reads off the sparse kernel, and
both give the same values and the same irrational flag.
"""

import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from mfcat import QQ, PrimeField, RingContext, critical_values, parse_poly
from mfcat import univariate as uni
from mfcat.critical import _integer_roots, _rational_roots
from mfcat.fields import Field


CTX = RingContext(QQ, ("z",))
F = Fraction


# -- reference: sampled resultants and Lagrange interpolation ----------


def horner(field: Field, a, x):
    """The polynomial with coefficients a at the point x."""
    acc = field.zero()
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def resultant(field: Field, f, g):
    """Resultant of two univariate polynomials via the Euclidean chain.

    Uses res(f, g) = lc(g)^(deg f - deg r) * (-1)^(deg f * deg g) * res(g, r)
    with r = f mod g, plus the base cases for constants.
    """
    f, g = uni.trim(field, f), uni.trim(field, g)
    if not f or not g:
        return field.zero()
    acc = field.one()
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if dg == 0:
            # res(f, c) = c^deg f
            return field.mul(acc, _power(field, g[0], df))
        r = uni.mod(field, f, g)
        if not r:
            return field.zero()
        dr = len(r) - 1
        sign = field.one() if (df * dg) % 2 == 0 else field.neg(field.one())
        acc = field.mul(acc, field.mul(sign, _power(field, g[-1], df - dr)))
        f, g = g, r


def _power(field: Field, c, n: int):
    out = field.one()
    for _ in range(n):
        out = field.mul(out, c)
    return out


def lagrange_interpolate(field: Field, points):
    """The unique polynomial of degree < len(points) through the points.

    points: list of (x, y) with distinct x.
    """
    result = []
    for i, (xi, yi) in enumerate(points):
        basis = [field.one()]
        denom = field.one()
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = uni.mul(field, basis, [field.neg(xj), field.one()])
            denom = field.mul(denom, field.sub(xi, xj))
        factor = field.div(yi, denom)
        result = uni.add(field, result, uni.scale(field, factor, basis))
    return result


def reference_critical_values(w):
    """(values, has_irrational) from the sampled resultant R(t)."""
    wc = uni.from_poly(w, "z")
    deriv = uni.derivative(QQ, wc)
    points = []
    for k in range(uni.deg(deriv) + 2):
        shifted = [wc[0] - k] + wc[1:]
        points.append((F(k), resultant(QQ, shifted, deriv)))
    work = lagrange_interpolate(QQ, points)
    verified = []
    for value in _rational_roots(QQ, work):
        if uni.deg(uni.gcd(QQ, [wc[0] - value] + wc[1:], deriv)) >= 1:
            verified.append(value)
    for value in verified:
        while uni.deg(work) >= 1:
            quot, rem = uni.divmod_poly(QQ, work, [-value, F(1)])
            if rem:
                break
            work = quot
    return verified, uni.deg(work) >= 1


def test_cubic_with_two_rational_values():
    vals, has_irr = critical_values(parse_poly(CTX, "z^3 - 3*z"))
    assert vals == [F(-2), F(2)]
    assert not has_irr


def test_constant_shift_moves_values():
    vals, has_irr = critical_values(parse_poly(CTX, "z^3 - 3*z + 1"))
    assert vals == [F(-1), F(3)]
    assert not has_irr


def test_pure_power():
    vals, has_irr = critical_values(parse_poly(CTX, "z^5"))
    assert vals == [F(0)]
    assert not has_irr


def test_degenerate_critical_point():
    # z = 0 is a double critical point of z^4 - 2z^2; values are 0 and -1
    vals, has_irr = critical_values(parse_poly(CTX, "z^4 - 2*z^2"))
    assert vals == [F(-1), F(0)]
    assert not has_irr


def test_linear_superpotential_has_no_critical_value():
    # W' is a unit, so the Jacobian algebra is 0 and the minimal polynomial constant.
    assert critical_values(parse_poly(CTX, "3*z + 1")) == ([], False)


def test_rational_coefficients():
    # W = z^2 - z has its only critical point at z = 1/2
    vals, has_irr = critical_values(parse_poly(CTX, "z^2 - z"))
    assert vals == [F(-1, 4)]
    assert not has_irr


def test_irrational_remainder_detected():
    # critical points of z^4 - 4z are the cube roots of unity; only z = 1
    # gives a rational value
    vals, has_irr = critical_values(parse_poly(CTX, "z^4 - 4*z"))
    assert vals == [F(-3)]
    assert has_irr


def test_all_values_irrational():
    # z^3 - z has critical points +-1/sqrt(3)
    vals, has_irr = critical_values(parse_poly(CTX, "z^3 - z"))
    assert vals == []
    assert has_irr


def test_input_validation():
    with pytest.raises(ValueError, match="constant-superpotential"):
        critical_values(parse_poly(CTX, "7"))
    with pytest.raises(ValueError, match="constant-superpotential"):
        critical_values(parse_poly(CTX, "0"))
    two_vars = RingContext(QQ, ("z", "x"))
    with pytest.raises(ValueError, match="not-univariate"):
        critical_values(parse_poly(two_vars, "z*x"))
    fp = RingContext(PrimeField(5), ("z",))
    with pytest.raises(ValueError, match="context-mismatch"):
        critical_values(parse_poly(fp, "z^3"))


def test_values_verified_against_fiber():
    # every reported value really is singular: gcd(W - v, W') nonconstant
    from mfcat import univariate as uni

    w = parse_poly(CTX, "z^3 - 3*z")
    vals, _ = critical_values(w)
    coeffs = uni.from_poly(w, "z")
    deriv = uni.derivative(QQ, coeffs)
    for v in vals:
        shifted = list(coeffs)
        shifted[0] -= v
        g = uni.gcd(QQ, shifted, deriv)
        assert uni.deg(g) >= 1


def test_large_coefficient_answers_quickly():
    # The rational root theorem would have to factor 3000000000039.
    start = time.perf_counter()
    vals, has_irr = critical_values(parse_poly(CTX, "z^3 - 3000000000039*z"))
    assert time.perf_counter() - start < 1
    assert vals == []
    assert has_irr


def _divisors(n):
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


def _sieve_rational_roots(coeffs):
    """Reference: every candidate p/q of the rational root theorem, tried."""
    coeffs = uni.trim(QQ, coeffs)
    low = 0
    while coeffs[low] == 0:
        low += 1
    roots = [Fraction(0)] if low else []
    coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    ints = [c // gcd(*ints) for c in ints]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and horner(QQ, ints, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def test_rational_roots_match_the_divisor_sieve():
    rng = random.Random(13)

    def scalar():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 2))

    for trial in range(400):
        degree = rng.randint(2, 5)
        if trial % 2:
            # A product of linear factors (q z - p) and a random cofactor,
            # so that rational roots, repeated ones and 0 all occur.
            coeffs = [scalar() for _ in range(rng.randint(0, degree - 2))] + [Fraction(rng.randint(1, 6))]
            while len(coeffs) <= degree:
                coeffs = uni.mul(QQ, coeffs, [Fraction(rng.randint(-6, 6)), Fraction(rng.randint(1, 3))])
        else:
            coeffs = [scalar() for _ in range(degree + 1)]
        if not uni.trim(QQ, coeffs):
            continue
        assert _rational_roots(QQ, coeffs) == _sieve_rational_roots(coeffs), coeffs


def _random_superpotential(rng, kind):
    if kind == "roots":
        # A product of (z - a)^e, sometimes times z^2 - c, plus a constant.
        coeffs = [F(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 2)):
            for _ in range(rng.randint(1, 2)):
                coeffs = uni.mul(QQ, coeffs, [F(-rng.randint(-3, 3)), F(1)])
        if rng.random() < 0.5:
            coeffs = uni.mul(QQ, coeffs, [F(-rng.randint(-3, 3)), F(0), F(1)])
        return uni.add(QQ, coeffs, [F(rng.randint(-4, 4), rng.randint(1, 2))])
    if kind == "dense":
        # A dense W of degree 2 to 5.
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(3, 6))]
        return coeffs[:-1] + [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))]
    # A linear W has no critical values.
    return [F(rng.randint(-5, 5)), F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))]


def seeded_superpotentials():
    """(z^2 - 2)^2, (z^2 - 3)^3 and 200 seeded W of the three kinds above."""
    rng = random.Random(20)
    square, cube = [F(4), F(0), F(-4), F(0), F(1)], [F(-27), F(0), F(27), F(0), F(-9), F(0), F(1)]
    cases = [square, cube]
    for trial in range(200):
        cases.append(_random_superpotential(rng, ("roots", "dense", "linear")[trial % 3]))
    return cases


def dense_superpotential(degree):
    """A dense integer W of the given degree, coefficients in [-50, 50]."""
    rng = random.Random(degree)
    return [F(rng.randint(-50, 50)) for _ in range(degree)] + [F(rng.choice([-1, 1]) * rng.randint(1, 50))]


def root_product(rng, size):
    """c * prod (q z - p)^e with |p| <= size, 1 <= q <= 5 and e <= 3, sometimes
    times z^2 + a, which has no real root; returns it and its rational roots."""
    coeffs, roots = [F(rng.choice([-3, -2, -1, 1, 2, 3]))], set()
    for _ in range(rng.randint(1, 3)):
        p, q = rng.randint(-size, size), rng.randint(1, 5)
        for _ in range(rng.randint(1, 3)):
            coeffs = uni.mul(QQ, coeffs, [F(-p), F(q)])
        roots.add(F(p, q))
    if rng.random() < 0.5:
        coeffs = uni.mul(QQ, coeffs, [F(rng.randint(1, size)), F(0), F(1)])
    return coeffs, sorted(roots)


def test_seeded_superpotentials_match_the_sampled_resultant():
    cases = seeded_superpotentials()
    # Rational values at irrational points: (z^2 - 2)^2 takes 0 at +-sqrt(2)
    # and 4 at 0, (z^2 - 3)^3 takes 0 at +-sqrt(3) and -27 at 0.
    assert critical_values(uni.to_poly(CTX, "z", cases[0])) == ([F(0), F(4)], False)
    assert critical_values(uni.to_poly(CTX, "z", cases[1])) == ([F(-27), F(0)], False)
    outcomes = set()
    for coeffs in cases:
        w = uni.to_poly(CTX, "z", coeffs)
        values, has_irrational = critical_values(w)
        assert (values, has_irrational) == reference_critical_values(w), coeffs
        outcomes.add((bool(values), has_irrational))
    # Rational values with and without irrational ones, irrational only, none.
    assert len(outcomes) == 4


def test_rational_roots_of_products_with_large_roots():
    # Beyond the divisor sieve: |p| up to 10^12 makes the constant term of
    # the monic rescaling hundreds of bits long.
    rng = random.Random(21)
    for size in (10, 10**6, 10**12):
        for _ in range(60):
            coeffs, roots = root_product(rng, size)
            assert _rational_roots(QQ, coeffs) == roots, coeffs


def test_integer_roots_that_collide_mod_small_primes():
    # Roots meet mod 3 (0, 3, 21), mod 5 (0, 5, 10), mod 7 (0, 7, 14, 21)
    # and mod 11 (3, 14), so the prime search has to go on to 13.
    roots = [0, 3, 5, 7, 10, 14, 21]
    for shift in (0, -10):
        g = [F(1)]
        for r in roots:
            g = uni.mul(QQ, g, [F(-r - shift), F(1)])
        assert sorted(_integer_roots(QQ, g)) == [r + shift for r in roots]
        assert sorted(_integer_roots(QQ, uni.mul(QQ, g, g))) == [r + shift for r in roots]


def test_integer_roots_take_a_rational_gcd_only_without_a_square_free_test(monkeypatch):
    fields = []
    gcd = uni.gcd

    def recording(field, a, b):
        fields.append(field)
        return gcd(field, a, b)

    monkeypatch.setattr(uni, "gcd", recording)
    roots = [-4, 0, 3, 7]
    g = [F(1)]
    for r in roots:
        g = uni.mul(QQ, g, [F(-r), F(1)])
    p = 2**31 - 1
    cases = (
        (g, roots, False),  # square-free mod p
        (uni.mul(QQ, g, g), roots, True),
        ([F(0), F(-p), F(1)], [0, p], True),  # z (z - p): square-free over Q only
    )
    for poly, want, rational in cases:
        fields.clear()
        assert sorted(_integer_roots(QQ, poly)) == want
        assert (QQ in fields) is rational


def test_dense_degree_14_answers_quickly():
    start = time.perf_counter()
    values = critical_values(uni.to_poly(CTX, "z", dense_superpotential(14)))
    assert time.perf_counter() - start < 2
    assert values == ([], True)
