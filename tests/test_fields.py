from fractions import Fraction

import pytest

from mfcat import QQ, PrimeField, RationalField, field_from_token
from mfcat.fields import _is_prime


def test_rational_basics():
    f = QQ
    assert f.zero() == 0
    assert f.one() == 1
    assert f.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert f.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert f.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    assert f.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    assert f.neg(Fraction(7)) == -7
    assert f.is_zero(Fraction(0))
    assert not f.is_zero(Fraction(1, 10**9))


def test_rational_canonical_form():
    # Fraction normalizes sign and lowest terms on its own.
    a = QQ.from_fraction(-6, -4)
    assert a == Fraction(3, 2)
    assert a.denominator == 2
    b = QQ.from_fraction(2, -4)
    assert b.denominator == 2 and b.numerator == -1


def test_rational_integral_values_are_ints():
    values = [QQ.coerce(3), QQ.coerce(Fraction(4, 2)), QQ.zero(), QQ.one(), QQ.from_int(-5)]
    values += [QQ.from_fraction(4, 2), QQ.from_fraction(0, 7)]
    assert values == [3, 2, 0, 1, -5, 2, 0]
    assert {type(v) for v in values} == {int}
    assert type(QQ.coerce(Fraction(3, 2))) is Fraction
    assert type(QQ.from_fraction(3, -2)) is Fraction


def test_rational_zero_denominator():
    with pytest.raises(ValueError, match="non-invertible-denominator"):
        QQ.from_fraction(1, 0)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.coerce(10) == 3
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    assert f.sub(1, 6) == 2
    # 3/2 maps to 3 * inv(2) = 3 * 4 = 12 = 5 mod 7
    assert f.from_fraction(3, 2) == 5
    assert f.coerce(Fraction(3, 2)) == 5


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(101)


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_primality_matches_trial_division():
    assert [p for p in range(-3, 10**5) if _is_prime(p)] == [
        p for p in range(-3, 10**5) if _trial_division(p)
    ]


def test_primality_of_large_moduli():
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    # 318665857834031151167461 to each of the first 12 primes.
    for composite in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="not a prime modulus"):
            PrimeField(composite)
    assert PrimeField(1000000000000000003).p == 10**18 + 3
    assert PrimeField(2**64 - 59).p == 2**64 - 59
    # Above the Sorenson-Webster bound no answer would be proven, even for
    # the Mersenne prime 2^89 - 1.
    with pytest.raises(ValueError, match="context-mismatch: modulus .* too large"):
        PrimeField(2**89 - 1)


def test_prime_field_noninvertible():
    f = PrimeField(5)
    with pytest.raises(ValueError, match="non-invertible-denominator"):
        f.from_fraction(1, 10)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_inverse_roundtrip_exhaustive():
    f = PrimeField(11)
    for a in range(1, 11):
        assert f.mul(a, f.inv(a)) == 1


def test_field_tokens():
    assert isinstance(field_from_token("Q"), RationalField)
    fp = field_from_token("Fp:13")
    assert isinstance(fp, PrimeField) and fp.p == 13
    for bad in ("R", "Fp:", "Fp:4", "Fp:x", ""):
        with pytest.raises(ValueError):
            field_from_token(bad)


def test_formatting():
    assert QQ.format(Fraction(-3, 2)) == "-3/2"
    assert QQ.format(Fraction(4)) == "4"
    f = PrimeField(7)
    assert f.format(12) == "5"
    assert not f.is_negative(f.neg(1))
