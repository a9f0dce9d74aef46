import random

import pytest

from ffheight.multipoly import MultiPoly
from ffheight.parsing import ParseError, parse_poly, parse_unipoly, poly_to_str
from ffheight.rings import PolyRing, PrimeField, UniPoly


F5 = PrimeField(5)
OK5 = PolyRing(F5)
NAMES = ["x", "y", "z"]


def P(text, names=NAMES, ring=OK5):
    return parse_poly(text, names, ring)


def test_simple_difference():
    f = P("y - x^2")
    assert len(f.terms) == 2
    assert f.terms[(0, 1, 0)] == OK5.one
    assert f.terms[(2, 0, 0)] == OK5.from_int(-1)


def test_coefficient_in_t():
    f = P("t*x^2 - y*z")
    t = UniPoly.gen(F5)
    assert f.terms[(2, 0, 0)] == t
    assert f.terms[(0, 1, 1)] == OK5.from_int(-1)


def test_parenthesized_t_coefficients():
    f = P("(t^2 + 1)*x + (t - 3)*y")
    t = UniPoly.gen(F5)
    assert f.terms[(1, 0, 0)] == t * t + UniPoly.one(F5)
    assert f.terms[(0, 1, 0)] == t - UniPoly.const(F5, 3)


def test_implicit_products_and_powers():
    assert P("x*y*z") == P("x * y * z")
    assert P("x^2*x") == P("x^3")
    assert P("2*x + 3*x") == P("5*x")  # = 0 mod 5
    assert P("2*x + 3*x").is_zero()


def test_unary_minus_and_constants():
    f = P("-x + 4")
    assert f.terms[(1, 0, 0)] == OK5.from_int(4)
    assert f.constant_coeff() == OK5.from_int(4)
    assert P("-(x - y)") == P("y - x")


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as e:
        P("x^")
    assert e.value.pos == 2
    with pytest.raises(ParseError):
        P("x ++ y")
    with pytest.raises(ParseError):
        P("(x + y")


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        P("x + w")


def test_parse_unipoly():
    t = UniPoly.gen(F5)
    assert parse_unipoly("t^2 - 1", F5) == t * t - UniPoly.one(F5)
    assert parse_unipoly("3", F5) == UniPoly.const(F5, 3)
    with pytest.raises(ParseError):
        parse_unipoly("t + x", F5)


def rand_poly(rng, nvars=3, nterms=5):
    f = MultiPoly.zero(OK5, nvars)
    for _ in range(nterms):
        exps = tuple(rng.randrange(4) for _ in range(nvars))
        c = UniPoly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        if c.is_zero():
            continue
        f = f + MultiPoly(OK5, nvars, {exps: c})
    return f


def test_print_parse_round_trip():
    rng = random.Random(9)
    for _ in range(500):
        f = rand_poly(rng)
        s = poly_to_str(f, NAMES)
        if f.is_zero():
            assert P(s).is_zero()
            continue
        assert P(s) == f, s


def test_round_trip_field_coefficients():
    rng = random.Random(10)
    for _ in range(100):
        f = MultiPoly.zero(F5, 2)
        for _ in range(4):
            exps = (rng.randrange(3), rng.randrange(3))
            f = f + MultiPoly(F5, 2, {exps: rng.randrange(1, 5)})
        s = poly_to_str(f, ["x", "y"])
        g = parse_poly(s, ["x", "y"], F5)
        assert g == f, s
