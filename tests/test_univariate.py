import random
from fractions import Fraction

import pytest

from mfcat import QQ, PrimeField, RingContext, parse_poly
from mfcat import univariate as uni
from test_critical import horner, lagrange_interpolate, resultant


F = Fraction


def test_trim_and_deg():
    assert uni.trim(QQ, [F(1), F(0), F(0)]) == [F(1)]
    assert uni.trim(QQ, [F(0)]) == []
    assert uni.deg([]) is None
    assert uni.deg([F(3)]) == 0
    assert uni.deg([F(0), F(1)]) == 1
    assert uni.is_zero([])


def test_divmod():
    # z^3 - 1 = (z - 1)(z^2 + z + 1)
    a = [F(-1), F(0), F(0), F(1)]
    b = [F(-1), F(1)]
    q, r = uni.divmod_poly(QQ, a, b)
    assert q == [F(1), F(1), F(1)]
    assert r == []
    q2, r2 = uni.divmod_poly(QQ, a, [F(0), F(0), F(1)])
    assert q2 == [F(0), F(1)]
    assert r2 == [F(-1)]
    with pytest.raises(ZeroDivisionError):
        uni.divmod_poly(QQ, a, [])


def reference_divmod(field, a, b):
    """Euclidean division by trimming the remainder after every step."""
    r = list(a)
    q = [field.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    while len(r) >= len(b) and uni.trim(field, r):
        r = uni.trim(field, r)
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        factor = field.mul(r[-1], inv_lead)
        q[shift] = field.add(q[shift], factor)
        for i, y in enumerate(b):
            r[shift + i] = field.sub(r[shift + i], field.mul(factor, y))
    return uni.trim(field, q), uni.trim(field, r)


def test_divmod_matches_reference():
    # Dividends are left untrimmed (trailing zeros kept) and may be shorter
    # than the divisor; divisors are trimmed, as division requires.
    rng = random.Random(22)
    shapes = set()
    for field in (QQ, PrimeField(2), PrimeField(5), PrimeField(101)):
        for _ in range(500):
            a = [field.coerce(rng.randrange(-4, 5)) for _ in range(rng.randrange(0, 9))]
            b = uni.trim(field, [field.coerce(rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 6))])
            if not b:
                continue
            q, r = uni.divmod_poly(field, a, b)
            assert (q, r) == reference_divmod(field, a, b)
            assert uni.add(field, uni.mul(field, q, b), r) == uni.trim(field, a)
            shapes.add((len(a) < len(b), a != uni.trim(field, a)))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_gcd_is_monic():
    # gcd(z^2 - 1, z^2 - 2z + 1) = z - 1
    a = [F(-1), F(0), F(1)]
    b = [F(1), F(-2), F(1)]
    assert uni.gcd(QQ, a, b) == [F(-1), F(1)]
    assert uni.gcd(QQ, [F(2)], a) == [F(1)]
    assert uni.gcd(QQ, [], []) == []


def test_eval_and_derivative():
    p = [F(1), F(0), F(3)]  # 3z^2 + 1
    assert uni.derivative(QQ, p) == [F(0), F(6)]
    assert uni.derivative(QQ, [F(5)]) == []


def test_resultant_frozen_values():
    # Res(z^2 - 1, 2z) = lc^1 * g(1) * g(-1) = -4
    assert resultant(QQ, [F(-1), F(0), F(1)], [F(0), F(2)]) == F(-4)
    # shared root makes the resultant vanish
    assert resultant(QQ, [F(-1), F(1)], [F(-1), F(0), F(1)]) == F(0)
    # Res(z^2 + 1, z^2 - 1): product of g over roots +-i is (i^2-1)(..) = 4
    assert resultant(QQ, [F(1), F(0), F(1)], [F(-1), F(0), F(1)]) == F(4)


def test_resultant_product_rule_randomized():
    rng = random.Random(3)
    for _ in range(20):
        f = [F(rng.randrange(-3, 4)) for _ in range(rng.randrange(2, 4))]
        g = [F(rng.randrange(-3, 4)) for _ in range(rng.randrange(2, 4))]
        h = [F(rng.randrange(-3, 4)) for _ in range(rng.randrange(2, 4))]
        f, g, h = uni.trim(QQ, f), uni.trim(QQ, g), uni.trim(QQ, h)
        if not f or not g or not h or uni.deg(f) == 0:
            continue
        lhs = resultant(QQ, f, uni.mul(QQ, g, h))
        rhs = QQ.mul(resultant(QQ, f, g), resultant(QQ, f, h))
        assert lhs == rhs


def test_lagrange_interpolation():
    pts = [(F(0), F(1)), (F(1), F(2)), (F(2), F(5))]
    p = lagrange_interpolate(QQ, pts)
    assert p == [F(1), F(0), F(1)]  # z^2 + 1
    for x, y in pts:
        assert horner(QQ, p, x) == y


def test_poly_conversion_roundtrip():
    ctx = RingContext(QQ, ("z",))
    p = parse_poly(ctx, "z^4 - 2*z + 3")
    coeffs = uni.from_poly(p, "z")
    assert coeffs == [F(3), F(-2), F(0), F(0), F(1)]
    assert uni.to_poly(ctx, "z", coeffs) == p


def test_prime_field_gcd():
    f = PrimeField(5)
    # over F_5, z^5 - z = prod(z - a); gcd with z^2 - 1 is (z-1)(z+1)
    z5z = [0, 4, 0, 0, 0, 1]
    a = uni.gcd(f, z5z, [4, 0, 1])
    assert a == [4, 0, 1]
