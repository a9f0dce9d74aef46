"""Every engine limit stops the same way: census.BudgetExceeded."""

import pytest

from ffheight import detmethod, groebner, pell
from ffheight.census import DEFAULT_BUDGET, BudgetExceeded, count_points
from ffheight.multipoly import MultiPoly
from ffheight.parsing import parse_poly, parse_unipoly
from ffheight.rings import PolyRing, PrimeField
from ffheight.varieties import variety_from_strs

F5 = PrimeField(5)
# the unit of t^4 + 3t^3 + 4t + 3 over F_5 takes five partial quotients
BETA = parse_unipoly("t^4 + 3*t^3 + 4*t + 3", F5)


def census_over_budget(monkeypatch):
    X = variety_from_strs("affine", ("x", "y", "z"), ("x*y - z^2",), 5)
    count_points(X, 6, budget=10)


def groebner_too_many_variables(monkeypatch):
    groebner.groebner([MultiPoly.var(F5, 40, 0)])


def groebner_basis_too_large(monkeypatch):
    # the S-polynomial of the two generators adds a third basis element
    monkeypatch.setattr(groebner, "MAX_BASIS", 2)
    gens = [parse_poly(f, ("x", "y"), F5) for f in ("x^2 - y", "x*y - 1")]
    groebner.groebner(gens)


def degree_search_never_accepts(monkeypatch):
    detmethod._search_kernel(
        [], 2, 3, PolyRing(F5), 1, lambda *args: None, DEFAULT_BUDGET
    )


def continued_fraction_past_guard(monkeypatch):
    monkeypatch.setattr(pell, "CF_GUARD", 3)
    pell.continued_fraction_unit(BETA)


@pytest.mark.parametrize(
    "trip",
    [
        census_over_budget,
        groebner_too_many_variables,
        groebner_basis_too_large,
        degree_search_never_accepts,
        continued_fraction_past_guard,
    ],
    ids=lambda f: f.__name__,
)
def test_engine_limit_raises_budget_exceeded(monkeypatch, trip):
    with pytest.raises(BudgetExceeded):
        trip(monkeypatch)


def test_continued_fraction_closes_at_the_guard(monkeypatch):
    monkeypatch.setattr(pell, "CF_GUARD", 5)
    u, v = pell.continued_fraction_unit(BETA)
    assert (u * u - BETA * v * v).deg == 0


def test_degree_search_budget_counts_the_residue_tables():
    # 5 residues x 2 points x |B[10]| = 66 entries: m_max = 10 at d = 2, b = 1
    one = parse_unipoly("1", F5)
    args = ([(one, one, one)] * 2, 2, 3, PolyRing(F5), 1, lambda *a: 0)
    with pytest.raises(BudgetExceeded) as info:
        detmethod._search_kernel(*args, 659)
    assert info.value.estimate == 5 * 2 * 66
    assert detmethod._search_kernel(*args, 660) == 0
