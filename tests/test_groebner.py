import itertools
import random

import pytest

from ffheight.census import BudgetExceeded
from ffheight.groebner import (
    groebner,
    ideal_member,
    krull_dimension,
    normal_form,
)
from ffheight.multipoly import MultiPoly, monomial_divides
from ffheight.parsing import parse_poly
from ffheight.rings import PrimeField


F5 = PrimeField(5)


def P(text, names=("x", "y", "z"), field=F5):
    return parse_poly(text, list(names), field)


def test_principal_ideal():
    G = groebner([P("x^2 - y")])
    assert len(G.gens) == 1
    member, nf = ideal_member(P("x^3 - x*y"), G)
    assert member and nf.is_zero()
    member, nf = ideal_member(P("x^3"), G)
    assert not member


def test_unit_ideal():
    G = groebner([P("x"), P("x + 1")])
    assert G.is_unit_ideal
    assert krull_dimension(G) is None


def test_zero_ideal():
    G = groebner([], nvars=3, field=F5)
    assert G.is_zero_ideal
    assert krull_dimension(G) == 3
    member, nf = ideal_member(P("x"), G)
    assert not member and nf == P("x")


def test_normal_form_is_reduced():
    gens = [P("x^2 - y"), P("y^2 - z")]
    G = groebner(gens)
    nf = normal_form(P("x^4 + x^2*y + y^3"), G.gens)
    lead_exps = [g.leading_term()[0] for g in G.gens]
    for e in nf.terms:
        assert not any(monomial_divides(le, e) for le in lead_exps)


def test_membership_certificate_random():
    """f in <gens> iff normal form vanishes; random combinations must pass."""
    rng = random.Random(20)
    gens = [P("x^2 - y"), P("x*y - z")]
    G = groebner(gens)
    names = ("x", "y", "z")
    for _ in range(50):
        combo = MultiPoly.zero(F5, 3)
        for g in gens:
            exps = tuple(rng.randrange(2) for _ in range(3))
            c = rng.randrange(5)
            combo = combo + g * MultiPoly(F5, 3, {exps: c}) if c else combo
        member, _ = ideal_member(combo, G)
        assert member


def test_krull_dimension_examples():
    # hypersurface in A^3
    assert krull_dimension(groebner([P("x^2 - y*z")])) == 2
    # two generic surfaces meet in a curve
    assert krull_dimension(groebner([P("x^2 - y"), P("y^2 - z")])) == 1
    # a point
    assert krull_dimension(groebner([P("x"), P("y"), P("z - 1")])) == 0


def test_krull_dimension_monomial_ideal():
    # <xy, xz> leading ideal: S = {y, z} works
    G = groebner([P("x*y"), P("x*z")])
    assert krull_dimension(G) == 2


def test_groebner_buchberger_closure():
    """Every S-polynomial of the output reduces to zero."""
    rng = random.Random(21)
    for _ in range(20):
        gens = []
        for _ in range(2):
            f = MultiPoly.zero(F5, 3)
            for _ in range(3):
                exps = tuple(rng.randrange(3) for _ in range(3))
                f = f + MultiPoly(F5, 3, {exps: rng.randrange(1, 5)})
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        G = groebner(gens)
        if G.is_zero_ideal:
            continue
        for i in range(len(G.gens)):
            for j in range(i + 1, len(G.gens)):
                fi, fj = G.gens[i], G.gens[j]
                ei, ci = fi.leading_term()
                ej, cj = fj.leading_term()
                from ffheight.multipoly import monomial_div, monomial_lcm

                l = monomial_lcm(ei, ej)
                s = fi.term_mul(monomial_div(l, ei), F5.inv(ci)) - fj.term_mul(
                    monomial_div(l, ej), F5.inv(cj)
                )
                assert normal_form(s, G.gens).is_zero()


def test_variable_budget():
    many = 40
    gens = [MultiPoly.var(F5, many, 0)]
    with pytest.raises(BudgetExceeded):
        groebner(gens)


def test_rejects_poly_ring_coefficients():
    from ffheight.rings import PolyRing

    f = parse_poly("t*x - y", ["x", "y"], PolyRing(F5))
    with pytest.raises(TypeError):
        groebner([f])


def test_package_attribute_is_the_module():
    import types

    import ffheight.groebner as gb

    assert isinstance(gb, types.ModuleType)
    assert callable(gb.groebner)


def _sympy_basis(sp, gens, nvars, p):
    """sympy's reduced grevlex basis, as sets of (exponents, coefficient mod p)."""
    xs = sp.symbols(f"x0:{nvars}")
    exprs = [
        sum(c * sp.Mul(*(x**k for x, k in zip(xs, e))) for e, c in g.terms.items())
        for g in gens
    ]
    G = sp.groebner(exprs, *xs, modulus=p, order="grevlex")
    return {frozenset((e, int(c) % p) for e, c in g.terms()) for g in G.polys}


def _basis_terms(G):
    return {frozenset(g.terms.items()) for g in G.gens}


def _random_ideal(rng, field, nvars):
    """2-3 generators of 1-3 terms, total degree at most 5 - nvars."""
    monos = [
        e
        for e in itertools.product(range(6 - nvars), repeat=nvars)
        if sum(e) <= 5 - nvars
    ]
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {rng.choice(monos): rng.randrange(1, field.p) for _ in range(3)}
        gens.append(MultiPoly(field, nvars, terms))
    return gens


@pytest.mark.parametrize("p", [2, 3, 5])
def test_groebner_matches_sympy_reduced_basis(p):
    sp = pytest.importorskip("sympy")
    field = PrimeField(p)
    rng = random.Random(f"groebner-vs-sympy:{p}")
    x = MultiPoly.var(field, 3, 0)
    one = MultiPoly.const(field, 3, 1)
    ideals = [
        [x, x + one],  # the unit ideal
        [MultiPoly.zero(field, 3)],  # the zero ideal
    ]
    ideals += [_random_ideal(rng, field, rng.choice((2, 3))) for _ in range(20)]
    for gens in ideals:
        nvars = gens[0].nvars
        G = groebner(gens, nvars=nvars, field=field)
        assert _basis_terms(G) == _sympy_basis(sp, gens, nvars, p), gens
    assert groebner(ideals[0]).is_unit_ideal
    assert groebner(ideals[1], nvars=3, field=field).is_zero_ideal
