import itertools
import random
import time

import pytest

from ffheight import pell
from ffheight.pell import (
    PellInstance,
    _floor_sqrt,
    continued_fraction_unit,
    family_beta,
    family_gamma,
    find_family_prime,
    pell_family,
    pell_solutions,
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


def admissible_betas(q, deg):
    """Every beta of degree deg over F_q with a square leading coefficient
    that is not itself a square in F_q[t]."""
    fld = PrimeField(q)
    lcs = sorted({a * a % q for a in range(1, q)})
    squares = set()
    for lc in lcs:
        r = fld.sqrt(lc)
        for low in itertools.product(range(q), repeat=deg // 2):
            s = UniPoly(fld, list(low) + [r])
            squares.add(s * s)
    for lc in lcs:
        for low in itertools.product(range(q), repeat=deg):
            beta = UniPoly(fld, list(low) + [lc])
            if beta not in squares:
                yield beta


def test_floor_sqrt_is_polynomial_part_of_sqrt():
    # deg(beta - A^2) < deg A and lc A = sqrt(lc beta) fix A uniquely: they
    # say sqrt(beta) - A has negative degree in F_q((1/t))
    for q in (3, 5, 7):
        fld = PrimeField(q)
        for deg in (2, 4):
            n = 0
            for beta in admissible_betas(q, deg):
                A = _floor_sqrt(beta)
                assert (beta - A * A).deg < A.deg, (q, str(beta), str(A))
                assert A.lc == fld.sqrt(beta.lc), (q, str(beta), str(A))
                n += 1
            assert n == (q - 1) // 2 * (q**deg - q ** (deg // 2))


def test_floor_sqrt_rejects_bad_input():
    with pytest.raises(ValueError):
        _floor_sqrt(T("t^3"))  # odd degree
    with pytest.raises(ValueError):
        _floor_sqrt(T("2*t^2"))  # 2 is not a square mod 5
    with pytest.raises(ValueError):
        _floor_sqrt(UniPoly(PrimeField(2), [1, 0, 1]))


def test_nonresidue_leading_coefficient_rejected_fast_over_large_prime():
    F = PrimeField(1000000007)  # 5 is a non-residue mod this prime
    beta = T("5*t^2 + 1", F)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="leading coefficient"):
        _floor_sqrt(beta)
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


def test_fundamental_unit_is_minimal_for_quartics_over_f3():
    # brute force: no v != 0 of smaller degree than v0 makes beta v^2 + c a
    # square u^2 for a constant c != 0; squares come from a table of u^2
    F3 = PrimeField(3)
    polys = {
        d: [UniPoly(F3, list(co)) for co in itertools.product(range(3), repeat=d + 1)]
        for d in range(7)
    }
    squares = {u * u for u in polys[6]}
    consts = (UniPoly.const(F3, 1), UniPoly.const(F3, 2))
    betas = list(admissible_betas(3, 4))
    assert len(betas) == 72
    unit_degs = set()
    for beta in betas:
        u0, v0 = continued_fraction_unit(beta)
        norm = u0 * u0 - beta * v0 * v0
        assert norm.deg == 0 and not v0.is_zero()
        unit_degs.add(u0.deg)
        for v in polys[v0.deg - 1] if v0.deg > 0 else ():
            if v.is_zero():
                continue
            for c in consts:
                assert beta * v * v + c not in squares, (str(beta), str(v), str(c))
    assert min(unit_degs) == 2 and max(unit_degs) == 7


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


def test_no_norm_one_unit_when_no_step_fits(monkeypatch):
    # deg u = 15: a step by w moves a solution to height >= 30 + 0 - 1 - 4,
    # past b = 1, so w is never built
    def refuse(*args):
        raise AssertionError("w built although no step fits in height 1")

    monkeypatch.setattr(pell, "_norm_one_unit", refuse)
    F11 = PrimeField(11)
    inst = PellInstance(T("t^4 + t + 1", F11), UniPoly.one(F11))
    js = pell_solutions(inst, 1).to_json()
    assert js["unit"] == [
        "2*t^15 + 6*t^14 + 9*t^13 + 3*t^12 + 8*t^10 + t^9 + 2*t^8 + t^7 + 5*t^6"
        " + 10*t^5 + 5*t^4 + 3*t^3 + 2*t^2 + 7*t + 9",
        "2*t^13 + 6*t^12 + 9*t^11 + 2*t^10 + 7*t^9 + 6*t^8 + 4*t^7 + 7*t^6"
        " + 7*t^5 + 10*t^4 + 9*t^3 + 9*t^2 + 9*t + 5",
    ]
    assert js["solutions"] == [["1", "0"], ["10", "0"]]


# over F_5, w = (2t^2 - 1, 2t) takes (1, 0) to height 2: dropping all four
# sign changes of it leaves only the unit step to notice
W_CLASS = [("2*t^2 + 4", "2*t"), ("2*t^2 + 4", "3*t"), ("3*t^2 + 1", "2*t"),
           ("3*t^2 + 1", "3*t")]


@pytest.mark.parametrize("dropped", [W_CLASS[:1], W_CLASS], ids=["one", "sign-class"])
def test_check_catches_a_dropped_solution(monkeypatch, dropped):
    drop = {(T(x), T(y)) for x, y in dropped}
    stream = pell.point_stream
    monkeypatch.setattr(
        pell,
        "point_stream",
        lambda *a, **k: [pt for pt in stream(*a, **k) if pt.coords not in drop],
    )
    inst = PellInstance(T("t^2 - 1"), UniPoly.one(F5))
    with pytest.raises(AssertionError, match="unit step"):
        pell_solutions(inst, 2)


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


def test_family_n0_is_the_trivial_solution():
    # q = 3 is skipped: there t^2 + t + 1 = (t + 2)^2 is a square
    assert find_family_prime(0) == 5
    assert pell_family(0, 5) == ((UniPoly.one(F5), UniPoly.zero(F5)),)
    assert [find_family_prime(n) for n in (1, 2, 3)] == [11, 47, 131]


def test_family_needs_large_enough_prime():
    # q = 3 < n + 1 residues cannot support distinct factors
    with pytest.raises(ValueError):
        pell_family(3, 3)


def norm_loop_unit(beta):
    """Oracle: fold every convergent p/q as it comes and stop at the first
    whose norm p^2 - beta*q^2 is constant.  Exact but O(deg^2) a step, so
    only small units are affordable."""
    root = _floor_sqrt(beta)
    zero, one = UniPoly.zero(beta.field), UniPoly.one(beta.field)
    P, Q = zero, one
    p_prev, p_prev2 = one, zero
    q_prev, q_prev2 = zero, one
    while True:
        a = (P + root) // Q
        p_cur = a * p_prev + p_prev2
        q_cur = a * q_prev + q_prev2
        if (p_cur * p_cur - beta * q_cur * q_cur).deg == 0:
            return p_cur, q_cur
        P = a * Q - P
        Q = (beta - P * P).divexact(Q)
        p_prev2, p_prev = p_prev, p_cur
        q_prev2, q_prev = q_prev, q_cur


def random_admissible_beta(rng, fld, deg):
    q = fld.p
    while True:
        lc = rng.randrange(1, q) ** 2 % q
        beta = UniPoly(fld, [rng.randrange(q) for _ in range(deg)] + [lc])
        root = _floor_sqrt(beta)
        if root * root != beta:
            return beta


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_unit_matches_norm_loop_oracle(q):
    rng = random.Random(q)
    fld = PrimeField(q)
    for deg in (2, 4, 6):
        for _ in range(8):
            beta = random_admissible_beta(rng, fld, deg)
            assert continued_fraction_unit(beta) == norm_loop_unit(beta), str(beta)
