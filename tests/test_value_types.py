"""Value objects are immutable and compare by value.

Assigning an attribute of a polynomial, a polynomial matrix, a
factorization, a morphism, a homotopy, a module or a catalogue morphism
raises AttributeError.  Two objects built separately from equal data
compare equal, and the hashable ones hash equal.
"""

from fractions import Fraction

import pytest

from mfcat import QQ, PrimeField, RingContext, cyclic_module, morphism_from_polys, rank_one
from mfcat.andyn import an_basis_morphism
from mfcat.factorization import Homotopy
from mfcat.matrices import PolyMatrix


def _ctx():
    return RingContext(QQ, ("z",), weights=(1,))


def _poly():
    return _ctx().parse("z^2 - 3*z")


def _matrix():
    ctx = _ctx()
    return PolyMatrix(ctx, [[ctx.parse("z"), 1], [0, ctx.parse("z^2")]])


def _factorization():
    ctx = _ctx()
    z = ctx.variable("z")
    return rank_one(ctx, z**3, z, z**2)


def _morphism():
    x = _factorization()
    return morphism_from_polys(x, x, [["z"]], [["z"]])


def _homotopy():
    x = _factorization()
    one = PolyMatrix(x.ctx, [[1]])
    return Homotopy(x, x, one, one)


def _module():
    return cyclic_module(PrimeField(101), 5, 3)


def _an_morphism():
    return an_basis_morphism(QQ, 5, 2, 3, 4)


BUILDERS = {
    "Poly": _poly,
    "PolyMatrix": _matrix,
    "MatrixFactorization": _factorization,
    "MFMorphism": _morphism,
    "Homotopy": _homotopy,
    "QuotModule": _module,
    "AnMorphism": _an_morphism,
}
VALUE_EQUAL = ("Poly", "PolyMatrix", "MatrixFactorization", "MFMorphism", "QuotModule", "AnMorphism")
HASHABLE = ("Poly", "PolyMatrix", "AnMorphism")
ATTRIBUTES = {
    "Poly": ("ctx", "terms"),
    "PolyMatrix": ("ctx", "rows", "cols", "entries"),
    "MatrixFactorization": ("ctx", "w", "rank", "p1", "p0"),
    "MFMorphism": ("source", "target", "f1", "f0"),
    "Homotopy": ("source", "target", "s", "t"),
    "QuotModule": ("ctx", "w", "dim", "z_action"),
    "AnMorphism": ("field", "n", "mu", "nu", "peaks", "coeffs"),
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_assignment_raises(kind):
    obj = BUILDERS[kind]()
    assert type(obj).__name__ == kind
    for name in ATTRIBUTES[kind]:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        assert getattr(obj, name) is before
    # A name that is no field: Poly raises AttributeError, and the frozen
    # slotted dataclasses raise TypeError from their generated __setattr__.
    with pytest.raises((AttributeError, TypeError)):
        setattr(obj, "extra", None)
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("kind", VALUE_EQUAL)
def test_separately_built_objects_are_equal(kind):
    a, b = BUILDERS[kind](), BUILDERS[kind]()
    assert a is not b
    assert a == b
    assert not a != b


@pytest.mark.parametrize("kind", HASHABLE)
def test_equal_objects_hash_equal(kind):
    a, b = BUILDERS[kind](), BUILDERS[kind]()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_changed_data_compares_unequal():
    ctx = _ctx()
    assert _poly() != ctx.parse("z^2 + 3*z")
    assert _matrix() != PolyMatrix(ctx, [[ctx.parse("z"), 1], [0, ctx.parse("z^3")]])
    x = _factorization()
    assert _morphism() != morphism_from_polys(x, x, [["z^2"]], [["z^2"]])
    assert _module() != cyclic_module(PrimeField(101), 5, 2)
    assert _an_morphism() != an_basis_morphism(QQ, 5, 2, 3, 3)
    assert _an_morphism() != an_basis_morphism(PrimeField(101), 5, 2, 3, 4)


def test_shifted_replaces_fields_and_validates():
    ctx = _ctx()
    moved = ctx.shifted(w0=2)
    assert moved == RingContext(QQ, ("z",), weights=(1,), w0=Fraction(2))
    assert ctx.w0 == 0
    with pytest.raises(ValueError, match="shape-mismatch"):
        ctx.shifted(weights=(0,))
    with pytest.raises(ValueError, match="shape-mismatch"):
        ctx.shifted(variables=("x", "y"))
