import itertools
import random
import time

import pytest

from ffheight.pell import (
    LaurentSeries,
    PellInstance,
    continued_fraction_unit,
    family_beta,
    family_gamma,
    find_family_prime,
    pell_family,
    pell_solutions,
    sqrt_series,
    unit_orbit,
)
from ffheight.parsing import parse_unipoly
from ffheight.rings import PrimeField, UniPoly


F5 = PrimeField(5)


def T(text, field=F5):
    return parse_unipoly(text, field)


def brute_solutions(inst, b):
    """Every (x, y) with both degrees <= b and x^2 - beta y^2 = gamma."""
    fld = inst.field
    out = set()
    for cx in itertools.product(range(fld.p), repeat=b + 1):
        for cy in itertools.product(range(fld.p), repeat=b + 1):
            x = UniPoly(fld, list(cx))
            y = UniPoly(fld, list(cy))
            if inst.norm(x, y) == inst.gamma:
                out.add((x, y))
    return out


def test_laurent_series_arithmetic():
    t2 = LaurentSeries.from_poly(T("t^2 + 1"), floor=-3)
    prod = t2 * t2
    assert prod.coeff(4) == 1
    assert prod.coeff(2) == 2
    assert prod.coeff(0) == 1
    diff = prod - prod
    assert diff.vanishes()


def test_laurent_poly_part():
    s = LaurentSeries(F5, 1, [1, 0, 3, 2])  # t + 3 t^-1 + 2 t^-2
    assert s.poly_part() == T("t")


def test_sqrt_series_squares_back():
    for beta_str in ("t^2 - 1", "t^2 + t", "t^4 + t + 1", "4*t^2 + 1"):
        beta = T(beta_str)
        s = sqrt_series(beta, 12)
        err = s * s - LaurentSeries.from_poly(beta, floor=2 * s.precision)
        for e in range(2 * s.lead, err.precision - 1, -1):
            assert err.coeff(e) == 0, (beta_str, e)


def test_sqrt_series_rejects_bad_input():
    with pytest.raises(ValueError):
        sqrt_series(T("t^3"), 5)  # odd degree
    with pytest.raises(ValueError):
        sqrt_series(T("2*t^2"), 5)  # 2 is not a square mod 5
    with pytest.raises(ValueError):
        sqrt_series(UniPoly(PrimeField(2), [1, 0, 1]), 5)


def test_nonresidue_leading_coefficient_rejected_fast_over_large_prime():
    F = PrimeField(1000000007)  # 5 is a non-residue mod this prime
    beta = T("5*t^2 + 1", F)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="leading coefficient"):
        sqrt_series(beta, 5)
    with pytest.raises(ValueError, match="square leading coefficient"):
        PellInstance(beta, UniPoly.one(F))
    assert time.perf_counter() - start < 1.0


def test_instance_validation():
    with pytest.raises(ValueError):
        PellInstance(T("t^2"), UniPoly.one(F5))  # square beta
    with pytest.raises(ValueError):
        PellInstance(T("t^2 - 1"), UniPoly.zero(F5))  # zero gamma
    with pytest.raises(ValueError):
        PellInstance(T("t^3"), UniPoly.one(F5))  # odd degree
    inst = PellInstance(T("t^2 - 1"), UniPoly.one(F5))
    assert inst.is_solution(T("t"), T("1"))


def test_continued_fraction_fundamental_unit():
    # t^2 - (t^2 - 1) * 1 = 1: the smallest possible unit
    u, v = continued_fraction_unit(T("t^2 - 1"))
    assert (u, v) == (T("t"), T("1"))
    # deg 4 radicand closes too, with a constant norm
    u, v = continued_fraction_unit(T("t^4 + t + 1"))
    n = u * u - T("t^4 + t + 1") * v * v
    assert n.deg == 0
    assert not v.is_zero()


def test_unit_orbit_preserves_norm():
    inst = PellInstance(T("t^2 - 1"), UniPoly.one(F5))
    orbit = unit_orbit(inst, (T("t"), T("1")), 4)
    assert len(orbit) > 2
    for x, y in orbit:
        assert inst.norm(x, y) == inst.gamma
        assert max(x.deg, y.deg if not y.is_zero() else 0) <= 4


def test_pell_solutions_match_brute_force():
    cases = [
        ("t^2 - 1", "1"),
        ("t^2 + t", "4"),
        ("t^2 - 1", "t^2 - 2*t + 1"),
    ]
    for bs, gs in cases:
        inst = PellInstance(T(bs), T(gs))
        for b in (1, 2):
            got = pell_solutions(inst, b)
            want = brute_solutions(inst, b)
            assert set(got.solutions) == want, (bs, gs, b)


def test_pell_solution_heights_and_order():
    inst = PellInstance(T("t^2 - 1"), UniPoly.one(F5))
    res = pell_solutions(inst, 2)
    hs = [max(x.deg, y.deg if not y.is_zero() else 0) for x, y in res.solutions]
    assert hs == sorted(hs)
    assert all(h <= 2 for h in hs)


def test_pell_solutions_json():
    inst = PellInstance(T("t^2 - 1"), UniPoly.one(F5))
    js = pell_solutions(inst, 1).to_json()
    assert js["beta"] == "t^2 + 4"  # coefficients print mod 5
    assert js["count"] == len(js["solutions"])
    assert js["unit"] == ["t", "1"]


def test_family_gamma_product():
    F11 = PrimeField(11)
    g = family_gamma(F11, 3)
    # (t-1)(t-2)(t-3)
    assert g == T("t^3 - 6*t^2 + 11*t - 6", F11)
    assert family_beta(F11) == T("t^2 + t + 1", F11)


def test_family_counts_and_heights():
    for n in (1, 2):
        q = find_family_prime(n)
        sols = pell_family(n, q)
        assert len(sols) == 2**n
        fld = PrimeField(q)
        beta = family_beta(fld)
        gamma = family_gamma(fld, n)
        for x, y in sols:
            assert x * x - beta * y * y == gamma
            h = max(x.deg, y.deg if not y.is_zero() else 0)
            assert h <= n + 1


def test_family_prime_reports_search():
    q = find_family_prime(1)
    assert q > 1
    sols = pell_family(1, q)
    assert len(sols) == 2


def test_family_needs_large_enough_prime():
    # q = 3 < n + 1 residues cannot support distinct factors
    with pytest.raises(ValueError):
        pell_family(3, 3)
