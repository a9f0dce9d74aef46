import random

import pytest

from ffheight.multipoly import (
    MultiPoly,
    grevlex_key,
    monomial_divides,
    reduce_mod,
)
from ffheight.rings import PolyRing, PrimeField, UniPoly


F5 = PrimeField(5)
OK5 = PolyRing(F5)


def rand_poly(rng, ring, nvars, nterms=4, maxdeg=3):
    f = MultiPoly.zero(ring, nvars)
    for _ in range(nterms):
        exps = tuple(rng.randrange(maxdeg) for _ in range(nvars))
        c = ring.from_int(rng.randrange(1, 5))
        f = f + MultiPoly(ring, nvars, {exps: c})
    return f


def test_grevlex_ordering():
    # grevlex on 3 vars: x*y > z^2 is false, total degree first
    assert grevlex_key((2, 0, 0)) > grevlex_key((1, 1, 0))
    assert grevlex_key((1, 1, 0)) > grevlex_key((1, 0, 1))
    assert grevlex_key((0, 0, 3)) > grevlex_key((2, 0, 0))


def test_monomial_divides():
    assert monomial_divides((1, 0, 2), (2, 0, 2))
    assert not monomial_divides((1, 1, 0), (2, 0, 2))


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(60):
        a = rand_poly(rng, OK5, 3)
        b = rand_poly(rng, OK5, 3)
        c = rand_poly(rng, OK5, 3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_zero_and_constant_coeff_never_none():
    f = MultiPoly.var(OK5, 2, 0)
    assert f.constant_coeff() == OK5.zero
    assert (5, 5) not in f.terms
    assert f.terms[(1, 0)] == OK5.one


def test_homogeneity():
    x = MultiPoly.var(OK5, 3, 0)
    y = MultiPoly.var(OK5, 3, 1)
    z = MultiPoly.var(OK5, 3, 2)
    f = x * x - y * z
    assert f.is_homogeneous()
    assert not (f + x).is_homogeneous()
    assert {e for e in (f + x).terms if sum(e) == 1} == set(x.terms)


def test_evaluate_matches_compose_with_constants():
    rng = random.Random(4)
    for _ in range(50):
        f = rand_poly(rng, OK5, 3)
        vals = [OK5.from_int(rng.randrange(5)) for _ in range(3)]
        direct = f.evaluate(vals)
        consts = [MultiPoly.const(OK5, 3, v) for v in vals]
        via_compose = f.compose(consts)
        assert via_compose.total_degree() <= 0
        assert via_compose.constant_coeff() == direct


def test_compose_is_substitution_hom():
    rng = random.Random(5)
    for _ in range(30):
        f = rand_poly(rng, OK5, 2, nterms=3)
        g = rand_poly(rng, OK5, 2, nterms=3)
        subs = [rand_poly(rng, OK5, 2, nterms=2, maxdeg=2) for _ in range(2)]
        assert (f * g).compose(subs) == f.compose(subs) * g.compose(subs)
        assert (f + g).compose(subs) == f.compose(subs) + g.compose(subs)


def test_substitute_coeff():
    t = UniPoly.gen(F5)
    x = MultiPoly.var(OK5, 2, 0)
    y = MultiPoly.var(OK5, 2, 1)
    f = x * x + y
    g = f.substitute_coeff(0, t)  # x := t
    assert g.nvars == 2
    assert all(e[0] == 0 for e in g.terms)
    assert g.constant_coeff() == t * t
    assert g.terms[(0, 1)] == OK5.one


def test_content_primitive():
    t = UniPoly.gen(F5)
    x = MultiPoly.var(OK5, 2, 0)
    y = MultiPoly.var(OK5, 2, 1)
    f = x.scale(t * t) + y.scale(t * t * t)
    assert f.content() == t * t
    pp = f.primitive_part()
    assert pp.content().deg == 0
    assert pp.scale(f.content()) == f


def test_divides_and_divexact():
    rng = random.Random(7)
    for ring in (OK5, F5):
        hits = 0
        for _ in range(40):
            f = rand_poly(rng, ring, 2, nterms=2)
            g = rand_poly(rng, ring, 2, nterms=2)
            if f.is_zero() or g.is_zero():
                continue
            assert f.divides(f * g)
            hits += 1
        assert hits > 20


def _rand_coeff_poly(rng, ring, nterms):
    """Random polynomial in x, y with coefficients of degree <= 2 in F_q[t]."""
    q = ring.base.p
    terms = {}
    for _ in range(nterms):
        exps = (rng.randrange(3), rng.randrange(3))
        terms[exps] = UniPoly(ring.base, [rng.randrange(q) for _ in range(3)])
    return MultiPoly(ring, 2, terms)


def test_divides_matches_sympy_over_fraction_field():
    sympy = pytest.importorskip("sympy")
    t, x, y = sympy.symbols("t x y")

    def to_sympy(f):
        return sympy.sympify(f.to_str(["x", "y"]).replace("^", "**"), locals={"t": t})

    rng = random.Random(8)
    outcomes = set()
    for q in (2, 3, 5):
        ring = PolyRing(PrimeField(q))
        domain = sympy.GF(q).frac_field(t)
        for _ in range(12):
            f = _rand_coeff_poly(rng, ring, 2)
            h = _rand_coeff_poly(rng, ring, 2)
            c = UniPoly(ring.base, [rng.randrange(q), rng.randrange(q), 1])  # nonconstant
            stray = MultiPoly(ring, 2, {(rng.randrange(4), rng.randrange(4)): UniPoly.gen(ring.base)})
            if f.is_zero() or h.is_zero():
                continue
            cases = [
                (f, f * h),
                (f, f * h + stray),
                (f.scale(c), f * h),
                (f, (f * h).scale(c) + stray),
                (MultiPoly.const(ring, 2, c), f * h + stray),
            ]
            for d, g in cases:
                _, r = sympy.div(to_sympy(g), to_sympy(d), x, y, domain=domain)
                want = r == 0
                assert d.divides(g) == want, (q, d, g)
                outcomes.add(want)
    assert outcomes == {True, False}
    with pytest.raises(ZeroDivisionError):
        MultiPoly.zero(OK5, 2).divides(MultiPoly.var(OK5, 2, 0))


def test_reduce_mod_is_evaluation_at_prime():
    t = UniPoly.gen(F5)
    p = t - UniPoly.const(F5, 2)
    x = MultiPoly.var(OK5, 2, 0)
    f = x.scale(t * t) + MultiPoly.const(OK5, 2, t + UniPoly.one(F5))
    fbar = reduce_mod(f, p)
    assert fbar.ring == F5
    assert fbar.terms[(1, 0)] == 4  # t^2 at t=2
    assert fbar.constant_coeff() == 3


def test_to_str_names():
    x = MultiPoly.var(OK5, 2, 0)
    y = MultiPoly.var(OK5, 2, 1)
    f = x * x - y
    s = f.to_str(["x", "y"])
    assert "x^2" in s and "y" in s


def test_mixed_ring_addition_rejected():
    a = MultiPoly.var(OK5, 2, 0)
    b = MultiPoly.var(F5, 2, 0)
    with pytest.raises((ValueError, TypeError)):
        _ = a + b
