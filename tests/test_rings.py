import random

import pytest

from ffheight.rings import (
    NEG_INF,
    FracField,
    PolyRing,
    PrimeField,
    RatFunc,
    UniPoly,
    uni_gcd,
    uni_lcm,
    valuation_at,
)


F5 = PrimeField(5)
F7 = PrimeField(7)


def poly(coeffs, field=F5):
    return UniPoly(field, list(coeffs))


def test_field_arithmetic_basics():
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.neg(0) == 0
    for a in range(1, 5):
        assert F5.mul(a, F5.inv(a)) == 1


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_field_sqrt():
    # squares mod 7: 1, 2, 4
    assert F7.sqrt(2) in (3, 4)
    assert F7.sqrt(3) is None
    assert F7.sqrt(0) == 0


def test_unipoly_degree_conventions():
    assert poly([]).is_zero()
    assert poly([]).deg is NEG_INF
    assert poly([3]).deg == 0
    assert poly([0, 0, 2]).deg == 2
    # trailing zeros are trimmed on construction
    assert poly([1, 0, 0]).deg == 0


def test_unipoly_mul_divmod_random():
    rng = random.Random(0)
    for _ in range(300):
        a = poly([rng.randrange(5) for _ in range(rng.randrange(1, 7))])
        b = poly([rng.randrange(5) for _ in range(rng.randrange(1, 7))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.deg < b.deg


def test_unipoly_gcd_properties():
    rng = random.Random(1)
    for _ in range(200):
        a = poly([rng.randrange(5) for _ in range(rng.randrange(1, 6))])
        b = poly([rng.randrange(5) for _ in range(rng.randrange(1, 6))])
        if a.is_zero() and b.is_zero():
            continue
        g = uni_gcd(a, b)
        if not a.is_zero():
            assert (a % g).is_zero()
        if not b.is_zero():
            assert (b % g).is_zero()
        assert g.lc == 1


def test_eval_and_shift():
    f = poly([1, 2, 1])  # 1 + 2t + t^2 = (t+1)^2
    assert f.eval_at(4) == 0  # t = -1
    assert f.shift(2) == poly([0, 0, 1, 2, 1])
    with pytest.raises(ValueError):
        f.shift(-1)


def test_valuation_at():
    t = poly([0, 1])
    f = t * t * poly([1, 1])
    assert valuation_at(f, t) == 2
    assert valuation_at(poly([3]), t) == 0
    with pytest.raises(ValueError):
        valuation_at(poly([]), t)


def test_valuation_rejects_reducible_prime():
    with pytest.raises(ValueError):
        valuation_at(poly([1]), poly([0, 0, 1]))  # t^2 has a root at 0


def test_valuation_checks_irreducibility_in_every_degree():
    F3 = PrimeField(3)
    q2 = poly([1, 0, 1], F3)  # t^2 + 1, irreducible over F_3
    with pytest.raises(ValueError, match="reducible"):
        valuation_at(q2, q2 * q2)  # a quartic without roots, still reducible
    quartic = poly([2, 0, 0, 2, 1], F3)  # t^4 + 2t^3 + 2, irreducible over F_3
    assert valuation_at(quartic * quartic * q2, quartic) == 2
    assert valuation_at(q2, quartic) == 0


def test_ratfunc_normalization():
    t = poly([0, 1])
    r = RatFunc(t * t, t)
    assert r.num == t and r.den == UniPoly.one(F5)
    r2 = RatFunc(poly([2]), poly([0, 2]))  # 2/(2t) = 1/t
    assert r2.num == poly([1]) and r2.den == t


def test_ratfunc_field_ops():
    rng = random.Random(2)
    one = RatFunc.from_int(F5, 1)
    for _ in range(100):
        num = poly([rng.randrange(5) for _ in range(3)])
        den = poly([rng.randrange(5) for _ in range(2)] + [1])
        if num.is_zero():
            continue
        r = RatFunc(num, den)
        assert r * r.inv() == one
        assert r - r == RatFunc.from_int(F5, 0)


def test_lcm():
    t = poly([0, 1])
    a = t * poly([1, 1])
    b = t * poly([4, 1])
    l = uni_lcm(a, b)
    assert (l % a).is_zero() and (l % b).is_zero()
    assert l.deg == 3


def test_polyring_fracfield_wrappers():
    ring = PolyRing(F5)
    K = FracField(F5)
    assert ring.zero.is_zero()
    assert not ring.is_zero(ring.one)
    assert K.base == F5
