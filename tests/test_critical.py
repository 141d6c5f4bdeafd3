import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from mfcat import QQ, PrimeField, RingContext, critical_values, parse_poly
from mfcat import univariate as uni
from mfcat.critical import _rational_roots


CTX = RingContext(QQ, ("z",))
F = Fraction


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
                if cand not in roots and uni.eval_at(QQ, ints, cand) == 0:
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
