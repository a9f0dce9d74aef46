import json
import math
import random
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from ffheight import detmethod
from ffheight.detmethod import (
    AuxPolyResult,
    CongruenceDatum,
    auxiliary_poly_affine,
    auxiliary_poly_projective,
    basis_size,
    build_eval_matrix,
    congruence_class,
    divisibility_exponent,
    monomial_basis,
    mult_at,
    _local_smith_valuations,
)
from ffheight.multipoly import reduce_mod
from ffheight.parsing import parse_poly, parse_unipoly
from ffheight.rings import PolyRing, PrimeField, UniPoly, uni_content
from ffheight.varieties import HeightPoint, on_variety, variety_from_strs
from minors_oracle import unipoly_det


F5 = PrimeField(5)
OK5 = PolyRing(F5)


def P(text, names, ring=OK5):
    return parse_poly(text, list(names), ring)


def T(text, field=F5):
    return parse_unipoly(text, field)


def test_monomial_basis_sizes():
    for d in range(6):
        for n in (2, 3, 4):
            B = monomial_basis(d, n)
            assert len(B) == math.comb(d + n - 1, n - 1)
            assert all(sum(e) == d for e in B.monomials)
    assert basis_size(-1, 3) == 0


def test_evaluate_row_matches_direct():
    rng = random.Random(23)
    B = monomial_basis(3, 3)
    for _ in range(20):
        coords = tuple(
            UniPoly(F5, [rng.randrange(5) for _ in range(2)]) for _ in range(3)
        )
        row = B.evaluate_row(coords)
        for j, e in enumerate(B.monomials):
            want = UniPoly.one(F5)
            for c, k in zip(coords, e):
                want = want * c**k
            assert row[j] == want


def test_mult_at_smooth_and_singular():
    # nodal cubic: lowest recentred terms have degree 2 at the node
    f = P("y^2 - x^2 - x^3", ["x", "y"], F5)
    assert mult_at(f, (0, 0)) == 2
    # cusp
    g = P("y^2 - x^3", ["x", "y"], F5)
    assert mult_at(g, (0, 0)) == 2
    # smooth point of the parabola
    h = P("y - x^2", ["x", "y"], F5)
    assert mult_at(h, (1, 1)) == 1
    # triple point
    k = P("y^3 - x^4", ["x", "y"], F5)
    assert mult_at(k, (0, 0)) == 3


def test_mult_at_projective_chart():
    f = P("x^2 - y*z", ["x", "y", "z"], F5)
    assert mult_at(f, (2, 1, 4)) == 1
    # scaling the point must not matter
    assert mult_at(f, (4, 2, 8)) == 1


def test_mult_at_off_variety():
    f = P("y - x^2", ["x", "y"], F5)
    with pytest.raises(ValueError):
        mult_at(f, (1, 2))


def test_mult_at_with_prime_reduction():
    # t*y - x^2 mod t-1 is y - x^2, smooth at (1, 1)
    f = P("t*y - x^2", ["x", "y"])
    assert mult_at(f, (1, 1), prime=T("t - 1")) == 1
    with pytest.raises(TypeError):
        mult_at(f, (1, 1))


def test_congruence_datum_validation():
    f = P("x^2 - y*z", ["x", "y", "z"])
    datum = CongruenceDatum(T("t - 1"), (2, 1, 4))
    resolved = datum.resolved(f)
    assert resolved.multiplicity == 1
    bad = CongruenceDatum(T("t - 1"), (2, 1, 4), multiplicity=2)
    with pytest.raises(ValueError):
        bad.resolved(f)
    with pytest.raises(ValueError):
        CongruenceDatum(T("t^2 - 1"), (1, 1, 1))


def test_congruence_class_filters_exactly():
    X = variety_from_strs("affine", ["x", "y"], ["y - x^2"], 5)
    datum = CongruenceDatum(T("t"), (1, 1))
    cls = congruence_class(X, 3, [datum])
    assert cls
    for pt in cls:
        assert on_variety(X, pt)
        assert pt.reduce_at(0) == (1, 1)
    # complement check against the full stream
    from ffheight.census import point_stream

    full = point_stream(X, 3)
    outside = [pt for pt in full if pt.reduce_at(0) != (1, 1)]
    assert len(cls) + len(outside) == len(full)


def test_congruence_class_projective_scaling():
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    datum = CongruenceDatum(T("t - 1"), (4, 2, 8))  # same orbit as (2, 1, 4)
    cls = congruence_class(X, 2, [datum])
    for pt in cls:
        red = pt.reduce_at(1)
        i = next(k for k, c in enumerate(red) if c)
        s = F5.div(2, red[0]) if red[0] else None
        # reduces into the orbit of (2, 1, 4)
        assert any(
            tuple(c * u % 5 for c in red) == (2, 1, 4) for u in range(1, 5)
        )


def linear_valuation(a: UniPoly, p: UniPoly) -> int:
    """Largest e with p^e | a, for a nonzero a and a degree-1 prime p."""
    assert p.deg == 1 and not a.is_zero()
    e = 0
    while True:
        q, r = divmod(a, p)
        if not r.is_zero():
            return e
        a, e = q, e + 1


def minors_gcd_valuation(rows, s: int, p: UniPoly):
    """v_p of the gcd of all s x s minors of a matrix of UniPolys (small matrices).

    Direct enumeration; used as a cross-check oracle for the local Smith
    computation in the determinant-method module.
    """
    ncols = len(rows[0])
    best = None
    for row_idx in combinations(range(len(rows)), s):
        for col_idx in combinations(range(ncols), s):
            sub = [[rows[i][j] for j in col_idx] for i in row_idx]
            det = unipoly_det(sub)
            if det.is_zero():
                continue
            v = linear_valuation(det, p)
            best = v if best is None else min(best, v)
            if best == 0:
                return 0
    return best  # None when every minor vanishes


def test_minors_gcd_valuation_matches_direct():
    # rows over O_K, 2x2 minors, valuation at t
    t = UniPoly.gen(F5)
    one = UniPoly.one(F5)
    rows = [
        [t, one],
        [t * t, t],
        [t, t * t],
    ]
    # row pairs (0,1), (0,2), (1,2)
    minors = [
        t * t - one * (t * t),
        t * (t * t) - one * t,
        (t * t) * (t * t) - t * t,
    ]
    vals = [linear_valuation(m, t) for m in minors if not m.is_zero()]
    assert minors_gcd_valuation(rows, 2, t) == min(vals)


def brute_exponent(points, basis, prime):
    """Independent oracle: valuation of the gcd of all s x s minors."""
    rows = build_eval_matrix(points, basis)
    return minors_gcd_valuation(rows, len(points), prime)


def test_divisibility_conic_triangular_bound():
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    datum = CongruenceDatum(T("t - 1"), (2, 1, 4))
    pts = congruence_class(X, 3, [datum])
    assert len(pts) >= 3
    sample = pts[:3]
    B = monomial_basis(2, 3)
    rep = divisibility_exponent(sample, B, T("t - 1"), residue_point=(2, 1, 4))
    assert rep.s == 3
    assert rep.certified == 3  # s(s-1)/2
    assert rep.exponent >= rep.certified
    assert rep.exponent == brute_exponent(sample, B, T("t - 1"))


def test_divisibility_matches_minor_oracle_random():
    rng = random.Random(24)
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    datum = CongruenceDatum(T("t - 1"), (2, 1, 4))
    pts = congruence_class(X, 3, [datum])
    B = monomial_basis(3, 3)
    for _ in range(10):
        s = rng.randrange(2, 6)
        sample = rng.sample(pts, s)
        rep = divisibility_exponent(sample, B, T("t - 1"), residue_point=(2, 1, 4))
        if rep.rank == s:
            assert rep.exponent == brute_exponent(sample, B, T("t - 1"))
        else:
            assert rep.exponent == float("inf")


def _smith_case(rng, fld, lam, kind):
    """A random matrix over F_q[t] of one of four shapes, at most 4 x 5."""
    q = fld.p
    nr = rng.randrange(1, 5)
    nc = rng.randrange(nr, 6)  # s = nr <= number of columns, often below it
    lin = UniPoly(fld, [-lam % q, 1])

    def entry(maxdeg):
        return UniPoly(fld, [rng.randrange(q) for _ in range(rng.randrange(maxdeg + 1) + 1)])

    if kind == "tight":
        # (t - lam)^k times a constant row: full-rank minors have valuation N - 1
        return [[lin ** rng.randrange(4) * entry(0) for _ in range(nc)] for _ in range(nr)]
    rows = [[entry(3) for _ in range(nc)] for _ in range(nr)]
    if kind == "scaled":
        rows = [[lin ** k * e for e in row] for row, k in
                zip(rows, [rng.randrange(5) for _ in rows])]
    elif kind == "deficient" and nr > 1:
        a, b = entry(1), entry(1)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (nr - 1)])]
    return rows


@pytest.mark.parametrize("q", [5, 7])
def test_smith_kernel_matches_minor_oracle(q):
    """After k pivots the running sum is v_p of the gcd of the k x k minors,
    and the pivots stop exactly at the rank."""
    fld = PrimeField(q)
    rng = random.Random(q)
    kinds = ("plain", "scaled", "tight", "deficient")
    for trial in range(48):
        lam = rng.randrange(q) if trial % 4 else 1 + rng.randrange(q - 1)
        rows = _smith_case(rng, fld, lam, kinds[trial % 4])
        prime = UniPoly(fld, [-lam % q, 1])
        pivots = _local_smith_valuations(rows, lam)
        assert all(type(v) is int for v in pivots)
        for k in range(1, len(rows) + 1):
            want = minors_gcd_valuation(rows, k, prime)
            got = sum(pivots[:k]) if k <= len(pivots) else None
            assert got == want, (rows, lam, k)


def test_smith_kernel_large_prime_uses_exact_ints():
    # (q - 1)^2 overflows int64 here, so the kernel must fall back to Python ints
    q = 4294967311
    fld = PrimeField(q)
    lam = q - 3
    lin = UniPoly(fld, [3, 1])
    rows = [
        [lin * UniPoly(fld, [q - 1, 2]), UniPoly(fld, [5, q - 2, 1]), lin],
        [UniPoly(fld, [q - 7]), lin * lin, UniPoly(fld, [1, 1])],
    ]
    pivots = _local_smith_valuations(rows, lam)
    for k in (1, 2):
        assert sum(pivots[:k]) == minors_gcd_valuation(rows, k, lin)


@pytest.mark.parametrize("q", [5, 7])
def test_divisibility_matches_minor_oracle_shifted(q):
    """Random projective points at t = lam != 0: plain, scaled by powers of
    t - lam, and with a repeated point (rank deficient, exponent inf)."""
    fld = PrimeField(q)
    rng = random.Random(100 + q)
    for trial in range(24):
        lam = 1 + rng.randrange(q - 1)
        prime = UniPoly(fld, [-lam % q, 1])
        B = monomial_basis(rng.randrange(1, 3), 3)
        s = rng.randrange(1, min(len(B), 4) + 1)
        pts = []
        for _ in range(s):
            k = rng.randrange(3) if trial % 3 == 1 else 0
            coords = [prime ** k * UniPoly(fld, [rng.randrange(q) for _ in range(3)])
                      for _ in range(3)]
            if all(c.is_zero() for c in coords):
                coords[0] = UniPoly.one(fld)
            pts.append(HeightPoint(tuple(coords), projective=True))
        if trial % 3 == 2 and s > 1:
            pts[-1] = pts[0]
        rep = divisibility_exponent(pts, B, prime)
        want = brute_exponent(pts, B, prime)
        assert rep.exponent == (math.inf if want is None else want)
        assert (rep.rank < s) == (want is None)


def test_divisibility_needs_a_degree_one_prime():
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    pts = congruence_class(X, 2, [CongruenceDatum(T("t - 1"), (2, 1, 4))])
    with pytest.raises(ValueError, match="degree-1"):
        divisibility_exponent(pts[:1], monomial_basis(2, 3), T("t^2 + 2"))


def test_divisibility_report_is_json():
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    pts = congruence_class(X, 3, [CongruenceDatum(T("t - 1"), (2, 1, 4))])
    rep = divisibility_exponent(pts[:3], monomial_basis(2, 3), T("t - 1"))
    js = json.loads(json.dumps(rep.to_json()))
    assert js["pivot_valuations"] == list(rep.pivots)
    assert all(type(v) is int for v in rep.pivots)


def test_divisibility_rejects_stray_point():
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    pts = congruence_class(X, 3, [CongruenceDatum(T("t - 1"), (2, 1, 4))])
    B = monomial_basis(2, 3)
    stray = HeightPoint(
        (UniPoly.one(F5), UniPoly.one(F5), UniPoly.one(F5)), projective=True
    )
    with pytest.raises(ValueError):
        divisibility_exponent(
            pts[:2] + [stray], B, T("t - 1"), residue_point=(2, 1, 4)
        )


@pytest.mark.parametrize("mu", [0, -1])
def test_divisibility_rejects_nonpositive_multiplicity(mu):
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    pts = congruence_class(X, 3, [CongruenceDatum(T("t - 1"), (2, 1, 4))])
    with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
        divisibility_exponent(pts[:2], monomial_basis(2, 3), T("t - 1"), multiplicity=mu)


def test_divisibility_main_term():
    B = monomial_basis(2, 3)
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    pts = congruence_class(X, 3, [CongruenceDatum(T("t - 1"), (2, 1, 4))])
    rep = divisibility_exponent(pts[:3], B, T("t - 1"))
    # n = 1: main term is s^2 / 2
    assert rep.main_term == pytest.approx(3**2 / 2)


def test_aux_poly_projective_conic():
    f = P("x^2 - y*z", ["x", "y", "z"])
    datum = CongruenceDatum(T("t - 1"), (2, 1, 4))
    out = auxiliary_poly_projective(f, 2, [datum])
    # the first accepted kernel element, pinned
    assert out.to_json(["x", "y", "z"]) == {
        "g": "2*x^2 + x*y",
        "M": 2,
        "points_captured": 1,
        "coprime_to_f": True,
        "vacuous": False,
        "rank": 1,
        "kernel_dim": 5,
        "s_target": 5,
    }
    assert out.g.is_homogeneous()
    assert not f.divides(out.g)
    assert not out.vacuous
    for pt in out.certificate:
        assert out.g.evaluate(list(pt.coords)).is_zero()


def test_aux_poly_projective_vacuous_class():
    f = P("x^2 - y*z", ["x", "y", "z"])
    # no conic point reduces to (1, 0, 0): 1 - 0 != 0
    datum = CongruenceDatum(T("t - 1"), (1, 0, 0), multiplicity=2)
    with pytest.raises(ValueError):
        auxiliary_poly_projective(f, 2, [datum])


def test_aux_poly_projective_empty_class_monomial():
    # the line x = 0 with a class forcing x != 0
    f = P("x^3 - y^2*z", ["x", "y", "z"])
    datum = CongruenceDatum(T("t - 2"), (0, 0, 1))
    out = auxiliary_poly_projective(f, 1, [datum])
    if out.vacuous:
        assert len(out.g.terms) == 1
    assert not f.divides(out.g)


def test_aux_poly_projective_inhomogeneous_rejected():
    with pytest.raises(ValueError):
        auxiliary_poly_projective(P("x^2 - y", ["x", "y", "z"]), 2, [])


def test_aux_poly_affine_parabola():
    f = P("y - x^2", ["x", "y"])
    out = auxiliary_poly_affine(f, 3, [], rng=random.Random(0))
    assert not f.divides(out.g)
    assert "H" in out.details
    H = T(out.details["H"]) if isinstance(out.details["H"], str) else out.details["H"]
    # g vanishes on every height < 3 point of the parabola
    from ffheight.census import point_stream

    X = variety_from_strs("affine", ["x", "y"], ["y - x^2"], 5)
    for pt in point_stream(X, 3):
        assert out.g.evaluate(list(pt.coords)).is_zero()


def test_aux_poly_affine_with_class():
    f = P("y - x^3", ["x", "y"])
    datum = CongruenceDatum(T("t"), (1, 1))
    out = auxiliary_poly_affine(f, 2, [datum], rng=random.Random(1))
    assert out.to_json(["x", "y"]) == {
        "g": "x + 4",
        "M": 3,
        "points_captured": 1,
        "coprime_to_f": True,
        "vacuous": False,
        "rank": 1,
        "kernel_dim": 9,
        "H": "t + 4",
        "lambda": 1,
        "shift": [0, 1],
        "s_target": 9,
    }
    assert not f.divides(out.g)
    X = variety_from_strs("affine", ["x", "y"], ["y - x^3"], 5)
    cls = congruence_class(X, 2, [datum])
    assert cls
    for pt in cls:
        assert out.g.evaluate(list(pt.coords)).is_zero()


def test_aux_poly_json():
    f = P("x^2 - y*z", ["x", "y", "z"])
    out = auxiliary_poly_projective(f, 2, [CongruenceDatum(T("t - 1"), (2, 1, 4))])
    js = out.to_json(["x", "y", "z"])
    assert js["M"] == out.M
    assert isinstance(js["g"], str)
    assert js["coprime_to_f"] is True


def test_aux_poly_projective_rejects_zero_residue_point():
    f = P("x^2 - y*z", ["x", "y", "z"])
    for pt in ((0, 0, 0), (5, 5, 10)):
        with pytest.raises(ValueError, match="all zero"):
            auxiliary_poly_projective(f, 2, [CongruenceDatum(T("t - 1"), pt)])


def _class_datum(f, q, rng):
    """A datum at a random t - lam whose residue point lies on f mod t - lam."""
    fld = f.ring.base
    lam = rng.randrange(q)
    prime = UniPoly(fld, [-lam % q, 1])
    reduced = reduce_mod(f, prime)
    pts = [
        pt
        for pt in product(range(q), repeat=f.nvars)
        if any(pt) and reduced.evaluate(list(pt)) == 0
    ]
    return CongruenceDatum(prime, rng.choice(pts))


def _seeded_aux_builds(q):
    """Projective and affine builds over F_q, with and without a class, as
    (g, to_json(), certificate) triples."""
    ring = PolyRing(PrimeField(q))
    rng = random.Random(f"aux-builds:{q}")
    out = []
    for eq in ("x^2 - y*z", "x^3 - y^2*z", "t*x^2 - y*z"):
        f = parse_poly(eq, ["x", "y", "z"], ring)
        for data in ([], [_class_datum(f, q, rng)]):
            out.append(auxiliary_poly_projective(f, 2, data))
    if q == 3:
        # more points than F_3 can tell apart: some skips need the elimination
        f = parse_poly("t*x^2 - y*z", ["x", "y", "z"], ring)
        out.append(auxiliary_poly_projective(f, 3, []))
    for eq in ("y - x^2", "y^2 - x^3 - 1"):
        f = parse_poly(eq, ["x", "y"], ring)
        for data in ([], [_class_datum(f, q, rng)]):
            seed = rng.randrange(10**6)
            out.append(auxiliary_poly_affine(f, 2, data, rng=random.Random(seed)))
    return [
        (res.g.to_str(), res.to_json(), tuple(str(pt) for pt in res.certificate))
        for res in out
    ]


def _counted_builds(monkeypatch, q):
    """The seeded builds, and how often an F_q[t] elimination ran and how
    often one reached its kernel."""
    counts = Counter()

    class CountedRREF(detmethod._IncrementalRREF):
        def __init__(self, width, field):
            counts["eliminated"] += 1
            super().__init__(width, field)

        def kernel_basis(self):
            counts["kernels"] += 1
            return super().kernel_basis()

    with monkeypatch.context() as m:
        m.setattr(detmethod, "_IncrementalRREF", CountedRREF)
        return _seeded_aux_builds(q), counts


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_residue_rank_skips_change_no_answer(monkeypatch, q):
    fast, fast_n = _counted_builds(monkeypatch, q)
    # zero ranks certify nothing: every degree goes through the elimination
    monkeypatch.setattr(
        detmethod,
        "gauss_jordan",
        lambda aug, ncols, q: np.zeros(len(aug), dtype=np.int64),
    )
    slow, slow_n = _counted_builds(monkeypatch, q)
    assert fast == slow
    assert fast_n["kernels"] == slow_n["kernels"]
    certified = slow_n["eliminated"] - fast_n["eliminated"]
    left_to_elimination = fast_n["eliminated"] - fast_n["kernels"]
    assert certified >= 0
    if q == 3:
        assert left_to_elimination > 0
    if q == 7:
        assert certified > 0


@pytest.mark.parametrize("q", [5, 7])
def test_kernel_basis_is_canonical(q):
    """Each kernel vector is the unique one with A v = 0, zero at the other
    free columns, monic at its own and content 1."""
    fld = PrimeField(q)
    rng = random.Random(20 + q)

    def rand_row(n, maxdeg=3):
        return [
            UniPoly(fld, [rng.randrange(q) for _ in range(rng.randrange(maxdeg + 1) + 1)])
            for _ in range(n)
        ]

    deficient = 0
    for trial in range(60):
        m = rng.randrange(1, 4)
        n = m + rng.randrange(1, 4)
        rows = [rand_row(n) for _ in range(m)]
        if trial % 2:
            a, b = rand_row(2, maxdeg=1)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        rref = detmethod._IncrementalRREF(n, fld)
        added = [rref.add(r) for r in rows]
        deficient += rref.rank < len(rows)
        assert added.count(True) == rref.rank
        free = [j for j in range(n) if j not in rref.rows]
        basis = rref.kernel_basis()
        assert len(basis) == n - rref.rank == len(free)
        for j, v in zip(free, basis):
            for r in rows:
                acc = UniPoly.zero(fld)
                for a, x in zip(r, v):
                    acc = acc + a * x
                assert acc.is_zero()
            assert all(v[k].is_zero() for k in free if k != j)
            assert v[j].lc == 1
            assert uni_content(v).deg == 0
    assert deficient >= 30
