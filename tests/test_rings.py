import random

import pytest

from ffheight.rings import (
    NEG_INF,
    PolyRing,
    PrimeField,
    UniPoly,
    is_prime,
    uni_gcd,
    uni_lcm,
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


def test_field_sqrt_is_smallest_root_for_every_small_prime():
    for p in filter(is_prime, range(200)):
        F = PrimeField(p)
        for a in range(p):
            # the linear search this replaces: the least r >= 1 with r^2 = a
            want = 0 if a == 0 else next((r for r in range(1, p) if r * r % p == a), None)
            assert F.sqrt(a) == want, (p, a)


def test_field_sqrt_large_prime():
    # 998244353 = 119 * 2^23 + 1 runs every Tonelli-Shanks step; the others are 3 mod 4
    for p in (1000000007, 998244353, 4294967311):
        F = PrimeField(p)
        assert F.sqrt(123456789 ** 2) == 123456789
        r = F.sqrt(p - 1)
        assert r is None if p % 4 == 3 else (r * r % p == p - 1 and r <= p - r)
    # 1000000007 = 2 mod 5, so 5 is a non-residue by reciprocity
    assert PrimeField(1000000007).sqrt(5) is None


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


def test_lcm():
    t = poly([0, 1])
    a = t * poly([1, 1])
    b = t * poly([4, 1])
    l = uni_lcm(a, b)
    assert (l % a).is_zero() and (l % b).is_zero()
    assert l.deg == 3


def test_polyring_fracfield_wrappers():
    ring = PolyRing(F5)
    assert ring.zero.is_zero()
    assert not ring.is_zero(ring.one)
