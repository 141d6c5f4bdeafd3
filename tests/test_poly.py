import random
from fractions import Fraction

import pytest

from mfcat import QQ, Poly, PrimeField, RingContext, parse_poly


ZX = RingContext(QQ, ("z", "x"))


def test_parse_and_format_roundtrip():
    p = parse_poly(ZX, "3/2*z*x - 1")
    assert str(p) == "3/2*z*x - 1"
    assert parse_poly(ZX, str(p)) == p


def test_parse_over_prime_field():
    ctx = RingContext(PrimeField(7), ("z", "x"))
    p = parse_poly(ctx, "3/2*z*x - 1")
    # 3/2 = 3 * inv(2) = 5 and -1 = 6 in F_7
    assert str(p) == "5*z*x + 6"


def test_parse_errors_carry_positions():
    with pytest.raises(ValueError, match=r"parse-error.*position"):
        parse_poly(ZX, "z + * x")
    with pytest.raises(ValueError, match=r"unknown-variable: 'q' at position 0"):
        parse_poly(ZX, "q + 1")
    with pytest.raises(ValueError, match="malformed-exponent"):
        parse_poly(ZX, "z^")
    with pytest.raises(ValueError, match="malformed-exponent"):
        parse_poly(ZX, "z^-2")
    with pytest.raises(ValueError, match="non-invertible-denominator"):
        parse_poly(ZX, "1/0")


def test_parse_accepts_whitespace_and_parens():
    assert parse_poly(ZX, "(z + 1)*(z - 1)") == parse_poly(ZX, "z^2 - 1")
    assert parse_poly(ZX, "  z ^ 2  -  1 ") == parse_poly(ZX, "z^2-1")
    assert parse_poly(ZX, "-(z - x)") == parse_poly(ZX, "x - z")


def test_arithmetic():
    z = ZX.variable("z")
    x = ZX.variable("x")
    p = (z + x) * (z - x)
    assert p == z**2 - x**2
    assert (p - p).is_zero()
    assert (z + 1) ** 3 == parse_poly(ZX, "z^3 + 3*z^2 + 3*z + 1")
    assert z * 0 == ZX.zero()
    assert (2 * z).scale(Fraction(1, 2)) == z


def test_degree_and_weighted_degree():
    ctx = RingContext(QQ, ("z", "x", "y"), weights=(2, 3, 3))
    w = parse_poly(ctx, "z^3 + x*y")
    assert w.degree() == 3
    assert w.weighted_degree() == 6
    assert w.is_quasi_homogeneous()
    bad = parse_poly(ctx, "z^3 + x")
    assert not bad.is_quasi_homogeneous()
    assert bad.weighted_degrees() == {6, 3}


def test_partial_derivative():
    ctx = RingContext(QQ, ("z", "x"))
    p = parse_poly(ctx, "z^3*x - 2*z + x^2")
    assert p.partial_derivative("z") == parse_poly(ctx, "3*z^2*x - 2")
    assert p.partial_derivative("x") == parse_poly(ctx, "z^3 + 2*x")
    with pytest.raises(ValueError, match="unknown-variable"):
        p.partial_derivative("q")


def test_partial_derivative_drops_exponents_the_characteristic_divides():
    ctx = RingContext(PrimeField(3), ("z", "x"))
    p = parse_poly(ctx, "z^3*x + z^6 + 2*z^4 + z")
    assert p.partial_derivative("z") == parse_poly(ctx, "2*z^3 + 1")
    assert parse_poly(ctx, "z^3 + x^6").partial_derivative("z").is_zero()


def test_term_order_is_graded():
    # Higher total degree prints first; ties broken lexicographically.
    p = parse_poly(ZX, "1 + z + x^2 + z*x")
    assert str(p) == "z*x + x^2 + z + 1"


def test_univariate_coefficients():
    ctx = RingContext(QQ, ("z",))
    p = parse_poly(ctx, "z^3 - 3*z")
    coeffs = p.univariate_coefficients("z")
    assert list(coeffs) == [0, -3, 0, 1]
    multi = parse_poly(ZX, "z*x")
    with pytest.raises(ValueError):
        multi.univariate_coefficients("z")


def test_context_mismatch_rejected():
    other = RingContext(QQ, ("z",))
    with pytest.raises(ValueError, match="context-mismatch"):
        parse_poly(ZX, "z") + parse_poly(other, "z")


def test_context_validation():
    with pytest.raises(ValueError, match="variable-collision"):
        RingContext(QQ, ("z", "z"))
    with pytest.raises(ValueError, match="shape-mismatch"):
        RingContext(QQ, ("z", "x"), weights=(1,))
    with pytest.raises(ValueError, match="shape-mismatch"):
        RingContext(QQ, ("z",), weights=(0,))
    with pytest.raises(ValueError, match="unknown-variable"):
        RingContext(QQ, ("2bad",))


def test_exponent_limit():
    ctx = RingContext(QQ, ("z",))
    with pytest.raises(ValueError, match="malformed-exponent"):
        parse_poly(ctx, "z^9999999999")


def test_monomial_checks_exponents_before_coefficients():
    ctx = RingContext(QQ, ("z",))
    for coeff in (0, 1, 0.5):
        with pytest.raises(ValueError, match="malformed-exponent"):
            ctx.monomial((-1,), coeff)
    with pytest.raises(ValueError, match="shape-mismatch"):
        ctx.monomial((1, 1), 0)
    assert ctx.monomial((3,), 0).is_zero()
    assert ctx.constant(Fraction(0)).is_zero()


def test_exponent_limit_in_products():
    ctx = RingContext(QQ, ("z",))
    top = ctx.monomial((2**31 - 1,))
    with pytest.raises(ValueError, match="malformed-exponent"):
        top * ctx.variable("z")


def _evaluate(p, point):
    fld = p.ctx.field
    total = fld.zero()
    for exp, c in p.terms.items():
        for v, e in zip(point, exp):
            c = fld.mul(c, v**e if fld == QQ else pow(v, e, fld.p))
        total = fld.add(total, c)
    return total


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_arithmetic_results_are_clean(field):
    # Sums and products skip the constructor's per-term checks; each must
    # still be a valid polynomial with no zero coefficient, and agree with
    # pointwise evaluation.
    ctx = RingContext(field, ("z", "x"))
    rng = random.Random(11)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exp = (rng.randint(0, 3), rng.randint(0, 2))
            terms[exp] = field.coerce(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        return Poly(ctx, terms)

    for _ in range(200):
        a, b = random_poly(), random_poly()
        b = b - a if rng.random() < 0.3 else b
        point = [field.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(2)]
        va, vb = _evaluate(a, point), _evaluate(b, point)
        for result, value in (
            (a + b, field.add(va, vb)),
            (a - b, field.sub(va, vb)),
            (-a, field.neg(va)),
            (a * b, field.mul(va, vb)),
            (a + (-a), field.zero()),
        ):
            assert result == Poly(ctx, result.terms)
            assert not any(field.is_zero(c) for c in result.terms.values())
            assert _evaluate(result, point) == value


def test_constructor_coerces_coefficients():
    with pytest.raises(ValueError, match="context-mismatch"):
        Poly(RingContext(), {(1,): 0.5})
    f7 = RingContext(PrimeField(7), ("z",))
    p = Poly(f7, {(1,): 9})
    assert p == f7.monomial((1,), 2)
    assert str(p) == "2*z"
    assert Poly(f7, {(1,): 7}).is_zero()
    assert type(Poly(f7, {(1,): Fraction(1, 2)}).terms[1,]) is int
    stored = Poly(RingContext(), {(2,): 3, (1,): Fraction(4, 2), (0,): Fraction(3, 2)}).terms
    assert stored == {(2,): 3, (1,): 2, (0,): Fraction(3, 2)}
    assert [type(c) for c in stored.values()] == [int, int, Fraction]


def _coefficient_types(*polys):
    return {type(c) for p in polys for c in p.terms.values()}


def test_integral_rationals_are_stored_as_ints():
    p = parse_poly(ZX, "3*z^2*x - 2*z + 1")
    assert _coefficient_types(p) == {int}
    z = ZX.variable("z")
    assert _coefficient_types(z, ZX.one(), ZX.constant(Fraction(6, 3)), ZX.monomial((1, 1), -4)) == {int}
    assert _coefficient_types(p * p, p + z, p - 1, -p, p**3, p.partial_derivative("z")) == {int}
    half = parse_poly(ZX, "1/2*z + 1")
    assert [type(c) for _, c in half.sorted_terms()] == [Fraction, int]
    # Arithmetic keeps what the field gives: (1/2) * 2 is Fraction(1), equal to 1.
    doubled = half * 2
    assert doubled == parse_poly(ZX, "z + 2")
    assert [type(c) for _, c in doubled.sorted_terms()] == [Fraction, int]


@pytest.mark.parametrize("two", [2, Fraction(2)], ids=["int", "Fraction"])
def test_integral_coefficient_is_the_same_value_either_way(two):
    built = Poly(ZX, {(1, 0): two, (0, 0): -two})
    stored = Poly._clean(ZX, {(1, 0): Fraction(2), (0, 0): Fraction(-2)})
    assert built == stored and stored == built
    assert hash(built) == hash(stored)
    assert str(built) == str(stored) == "2*z - 2"
    assert built == parse_poly(ZX, "2*z - 2")


def test_univariate_coefficients_are_field_elements():
    ctx = RingContext(QQ, ("z",))
    coeffs = parse_poly(ctx, "z^3 - 3/2*z + 2").univariate_coefficients("z")
    assert coeffs == [2, Fraction(-3, 2), 0, 1]
    assert [type(c) for c in coeffs] == [int, Fraction, int, int]
    f5 = RingContext(PrimeField(5), ("z",))
    coeffs = parse_poly(f5, "z^3 - 3/2*z + 2").univariate_coefficients("z")
    assert coeffs == [2, 1, 0, 1]
    assert {type(c) for c in coeffs} == {int}


def test_eq_with_scalars_never_raises():
    one = parse_poly(ZX, "1")
    assert one == 1 and one == Fraction(1) and not one == 2
    # A bool is no scalar: Poly declines, and Python falls back to identity.
    assert one.__eq__(True) is NotImplemented
    assert (one == True) is False and (one != True) is True  # noqa: E712
    f3 = RingContext(PrimeField(3), ("z",))
    third = Fraction(1, 3)
    assert (parse_poly(f3, "1") == third) is False
    assert (parse_poly(f3, "0") != third) is True
    assert parse_poly(f3, "2") == Fraction(1, 2)
