"""Acceptance gate: the ten headline behaviors, one test each.

Every test prints a single PASS line with the measured quantities so the
run log doubles as a conformance report.  Tolerances are pinned in the
assertions, not in helper defaults.
"""

import itertools
import math
import random
import time

from ffheight.census import InstanceSpec, count_points, dim_estimate
from ffheight.detmethod import (
    CongruenceDatum,
    auxiliary_poly_affine,
    auxiliary_poly_projective,
    congruence_class,
    divisibility_exponent,
    monomial_basis,
    mult_at,
    _exponents,
)
from ffheight.groebner import groebner, ideal_member, krull_dimension
from ffheight.lattices import (
    kernel_lattice,
    lattice_height,
    linear_space_count,
    plucker_minors,
    reduce_basis,
    row_height,
    short_kernel_vector,
)
from ffheight.multipoly import MultiPoly, reduce_mod
from ffheight.parsing import parse_poly
from ffheight.pell import (
    family_beta,
    family_gamma,
    find_family_prime,
    pell_family,
    pell_solutions,
)
from ffheight.rings import PolyRing, PrimeField, UniPoly, uni_gcd
from ffheight.suite import (
    PELL_HEIGHT,
    PELL_INSTANCES,
    PELL_QS,
    pell_instance,
    random_hypersurfaces,
)
from ffheight.varieties import VarietySpec, expand, variety_from_strs


def report(n, line):
    print(f"criterion {n:02d} PASS: {line}")


def test_criterion_01_monomial_curve_census_exact():
    """N(y = x^d, b) = q^ceil(b/d), exactly, across a (d, q, b) grid."""
    t0 = time.time()
    cases = 0
    for d in (2, 3, 4):
        for q in (3, 5, 7):
            X = variety_from_strs("affine", ["x", "y"], [f"y - x^{d}"], q)
            for b in range(1, 9):
                got = count_points(X, b).count
                want = q ** math.ceil(b / d)
                assert got == want, (d, q, b, got, want)
                cases += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
    report(1, f"{cases} exact counts for y = x^d in {elapsed:.1f}s")


def test_criterion_02_projective_curve_dimension():
    """Fitted dimension of y z^(d-1) = x^d is 2*ceil(b/d) - 1, stable."""
    t0 = time.time()
    cases = 0
    for d in (2, 3):
        inst = InstanceSpec(
            name=f"projective monomial curve d={d}",
            ambient="projective",
            names=("x", "y", "z"),
            equations=(f"y*z^{d-1} - x^{d}",),
            dim=1,
            degree=d,
        )
        for b in range(1, 6):
            rep = dim_estimate(inst, b, (3, 5, 7))
            want = 2 * math.ceil(b / d) - 1
            assert rep.fit["stable"], (d, b, rep.counts)
            assert rep.fit["dim"] == want, (d, b, rep.fit["dim"], want)
            cases += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s"
    report(2, f"{cases} stable dimension fits 2*ceil(b/d)-1 in {elapsed:.1f}s")


def test_criterion_03_random_hypersurfaces_conform():
    """Ten seeded random hypersurfaces stay inside the m*b growth bound."""
    t0 = time.time()
    batch = random_hypersurfaces(random.Random(0), 10)
    assert len(batch) == 10
    for inst, b in batch:
        rep = dim_estimate(inst, b, (3, 5, 7))
        bound = inst.dim * b
        if rep.fit["stable"] and rep.fit["dim"] is not None:
            assert rep.fit["dim"] <= bound, (inst.name, rep.fit["dim"], bound)
        # count bound at the largest prime: N <= (d + 1) * q^(m b)
        cap = (inst.degree + 1) * 7**bound
        assert rep.counts[-1] <= cap, (inst.name, rep.counts, cap)
    elapsed = time.time() - t0
    assert elapsed < 600, f"took {elapsed:.1f}s, budget 600s"
    report(3, f"10 random hypersurfaces within m*b and (d+1)q^mb in {elapsed:.1f}s")


def test_criterion_04_graph_surface_constants():
    """x y = z fits dimension b + 1 with constants within 25% of b."""
    qs = (5, 7, 11)
    inst = InstanceSpec(
        name="multiplication graph",
        ambient="affine",
        names=("x", "y", "z"),
        equations=("x*y - z",),
        dim=2,
        degree=2,
    )
    worst = 0.0
    for b in (2, 3, 4):
        rep = dim_estimate(inst, b, qs)
        assert rep.fit["stable"], (b, rep.counts)
        assert rep.fit["dim"] == b + 1, (b, rep.fit["dim"])
        for q, n in zip(qs, rep.counts):
            margin = abs(n / q ** (b + 1) - b) / b
            worst = max(worst, margin)
            assert margin <= 0.25, (b, q, n, margin)
    report(4, f"dimension b+1 at b=2,3,4; worst constant margin {worst:.0%} <= 25%")


def rand_lattice_rows(rng, field, m, n, maxdeg=3):
    return [
        [
            UniPoly(
                field,
                [rng.randrange(field.p) for _ in range(rng.randrange(maxdeg + 1) + 1)],
            )
            for _ in range(n)
        ]
        for _ in range(m)
    ]


def brute_lattice_points(rows, b, field):
    m, n = len(rows), len(rows[0])
    seen = set()
    for coeffs in itertools.product(range(field.p), repeat=m * b):
        lams = [UniPoly(field, list(coeffs[i * b : (i + 1) * b])) for i in range(m)]
        vec = [UniPoly.zero(field)] * n
        for lam, r in zip(lams, rows):
            for j in range(n):
                vec[j] = vec[j] + r[j] * lam
        h = max((e.deg for e in vec if not e.is_zero()), default=None)
        if h is None or h < b:
            seen.add(tuple(vec))
    return len(seen)


def test_criterion_05_lattice_laws_random():
    """200 random lattices: minima law, kernel height, short vectors, counts."""
    rng = random.Random(5)
    F5 = PrimeField(5)
    F3 = PrimeField(3)
    checked = saturated = counted = 0
    while checked < 200:
        m = rng.randrange(1, 4)
        n = m + rng.randrange(1, 3)
        rows = rand_lattice_rows(rng, F5, m, n)
        minors = [d for d in plucker_minors(rows) if not d.is_zero()]
        if not minors:
            continue
        g = None
        for d in minors:
            g = d.monic() if g is None else uni_gcd(g, d)
        rb = reduce_basis([list(r) for r in rows])
        h = lattice_height(rows)
        # successive minima sum to the Plucker height plus the minor gcd
        assert rb.height() == h + g.deg, (checked, rb.minima, h, g.deg)
        if g.deg == 0:
            saturated += 1
            assert rb.height() == h
        if n > m:
            kb = kernel_lattice(rows)
            assert lattice_height(list(kb.vectors)) == h
            assert kb.height() == h  # kernels are saturated
            v = short_kernel_vector(rows)
            assert row_height(v) * (n - m) <= h
        checked += 1
        if checked % 10 == 0:
            small = rand_lattice_rows(rng, F3, 2, 3, maxdeg=1)
            if all(d.is_zero() for d in plucker_minors(small)):
                continue
            srb = reduce_basis([list(r) for r in small])
            for b in (1, 2):
                dim = linear_space_count(srb, b)
                want = brute_lattice_points([list(r) for r in srb.vectors], b, F3)
                assert 3**dim == want, (b, dim, want)
            counted += 1
    report(
        5,
        f"200 lattices: minima law ({saturated} saturated), kernel heights, "
        f"short vectors, {counted} brute-force count agreements",
    )


def random_plane_curve(rng, ring, d):
    f = MultiPoly.zero(ring, 3)
    p = ring.base.p
    for e in _exponents(d, 3):
        c = UniPoly(ring.base, [rng.randrange(p) for _ in range(rng.randrange(1, 3))])
        if not c.is_zero():
            f = f + MultiPoly(ring, 3, {tuple(e): c})
    return f


def smooth_residue_point(f, prime):
    fbar = reduce_mod(f, prime)
    if fbar.is_zero():
        return None
    p = prime.field.p
    for x in range(p):
        for y in range(p):
            if fbar.evaluate([x, y, 1]) == 0:
                try:
                    if mult_at(fbar, (x, y, 1)) == 1:
                        return (x, y, 1)
                except ValueError:
                    pass
    return None


def test_criterion_06a_divisibility_triangular_bound():
    """100 random plane-curve classes: v_p(det gcd) >= s(s-1)/2."""
    rng = random.Random(6)
    F5 = PrimeField(5)
    OK5 = PolyRing(F5)
    done = finite = 0
    while done < 100:
        d = rng.choice((2, 3))
        f = random_plane_curve(rng, OK5, d)
        if not f.is_homogeneous() or f.is_zero() or f.total_degree() != d:
            continue
        lam = rng.randrange(5)
        prime = UniPoly(F5, [F5.neg(lam), 1])
        pt = smooth_residue_point(f, prime)
        if pt is None:
            continue
        X = VarietySpec("projective", ("x", "y", "z"), (f,))
        cls = congruence_class(X, 3, [CongruenceDatum(prime, pt)])
        if len(cls) < 2:
            continue
        s = min(8, len(cls))
        sample = rng.sample(cls, s)
        rep = divisibility_exponent(
            sample, monomial_basis(d + 2, 3), prime, residue_point=pt
        )
        bound = s * (s - 1) // 2
        assert rep.certified == bound
        assert rep.exponent >= bound, (done, rep.exponent, bound)
        if rep.exponent != float("inf"):
            finite += 1
        done += 1
    assert finite >= 50, f"only {finite} full-rank instances"
    report(6, f"a: 100 classes meet s(s-1)/2 ({finite} with full-rank matrices)")


def test_criterion_06b_auxiliary_polynomials():
    """20 auxiliary-polynomial builds: coprime, vanishing, degree-bounded."""
    rng = random.Random(7)
    F5 = PrimeField(5)
    OK5 = PolyRing(F5)

    def check(out, f, pts, d, b, ell):
        assert not f.divides(out.g), "g must avoid the ideal of f"
        for pt in pts:
            assert out.g.evaluate(list(pt.coords)).is_zero()
        cap = 50 * (d * d * b + d**3 * ell)
        assert out.M <= cap, (out.M, cap)

    built = 0
    proj_cases = [
        ("x^2 - y*z", 2, []),
        ("x^2 - y*z", 3, [CongruenceDatum(UniPoly(F5, [4, 1]), (2, 1, 4))]),
        (
            "x^2 - y*z",
            3,
            [
                CongruenceDatum(UniPoly(F5, [4, 1]), (2, 1, 4)),
                CongruenceDatum(UniPoly(F5, [0, 1]), (0, 0, 1)),
            ],
        ),
        ("x^3 - y^2*z", 2, []),
        ("x^3 - y^2*z", 2, [CongruenceDatum(UniPoly(F5, [0, 1]), (1, 1, 1))]),
        ("x^3 + y^3 + z^3", 2, []),
        ("x^6 + y^6 - z^6", 1, []),
        ("t*x^2 - y*z", 2, []),
        ("x^2 + x*y - z^2", 2, []),
        ("x^3 - x*y*z + z^3", 2, []),
    ]
    for eq, b, data in proj_cases:
        f = parse_poly(eq, ["x", "y", "z"], OK5)
        d = f.total_degree()
        out = auxiliary_poly_projective(f, b, data)
        X = VarietySpec("projective", ("x", "y", "z"), (f,))
        pts = congruence_class(X, b, [dm.resolved(f) for dm in data])
        check(out, f, pts, d, b, len(data))
        built += 1

    aff_cases = [
        ("y - x^2", 2, []),
        ("y - x^2", 3, []),
        ("y - x^3", 2, []),
        ("y - x^3", 2, [CongruenceDatum(UniPoly(F5, [0, 1]), (1, 1))]),
        ("x*y - 1", 2, []),
        ("x^2 + y^2 - 1", 2, []),
        ("y^2 - x^3 - x", 2, []),
        ("t*y - x^2", 2, []),
        ("y - x^2", 2, [CongruenceDatum(UniPoly(F5, [3, 1]), (1, 1))]),
        ("x^2 - y^2 - 1", 2, []),
    ]
    for eq, b, data in aff_cases:
        f = parse_poly(eq, ["x", "y"], OK5)
        d = f.total_degree()
        out = auxiliary_poly_affine(f, b, data, rng=random.Random(rng.randrange(10**6)))
        X = VarietySpec("affine", ("x", "y"), (f,))
        pts = congruence_class(X, b, [dm.resolved(f) for dm in data])
        check(out, f, pts, d, b, len(data))
        built += 1

    assert built == 20
    report(6, f"b: 20 auxiliary polynomials coprime + vanishing, M within 50(d^2 b + d^3 l)")


def test_criterion_07_pell_counts_stable_and_family():
    """Solution counts are prime-independent; the norm family hits 2^n."""
    for eq, bc, gc, expected in PELL_INSTANCES:
        counts = []
        for q in PELL_QS:
            inst = pell_instance(bc, gc, q)
            res = pell_solutions(inst, PELL_HEIGHT)
            counts.append(len(res.solutions))
        assert counts == [expected] * len(PELL_QS), (eq, counts)
    for n in (1, 2, 3):
        q = find_family_prime(n)
        sols = pell_family(n, q)
        assert len(sols) == 2**n
        fld = PrimeField(q)
        beta, gamma = family_beta(fld), family_gamma(fld, n)
        for x, y in sols:
            assert x * x - beta * y * y == gamma
            assert max(x.deg, y.deg if not y.is_zero() else 0) <= n + 1
    report(
        7,
        f"10 instances constant across q={PELL_QS}; family 2^n solutions at "
        "q=11,47,131 for n=1,2,3",
    )


def test_criterion_08_nonreduced_coefficient_ideal():
    """t x^2 = y z: top coefficient is nilpotent in the expanded ideal."""
    for b in (1, 2, 3):
        X = variety_from_strs("projective", ["x", "y", "z"], ["t*x^2 - y*z"], 5)
        S = expand(X, b)
        G = groebner(list(S.equations), nvars=S.nvars, field=S.field)
        names = (
            [f"x{i}" for i in range(b)]
            + [f"y{i}" for i in range(b)]
            + [f"z{i}" for i in range(b)]
        )
        sq = parse_poly(f"x{b-1}^2", names, S.field)
        lin = parse_poly(f"x{b-1}", names, S.field)
        assert ideal_member(sq, G)[0], f"x{b-1}^2 should lie in the ideal (b={b})"
        assert not ideal_member(lin, G)[0], f"x{b-1} should stay outside (b={b})"
    report(8, "x_(b-1)^2 in, x_(b-1) out of the expanded ideal for b=1,2,3")


CROSSCHECK_FIXTURES = (
    ("parabola b=1", ("x", "y"), ("y - x^2",), 1, (3, 5, 7)),
    ("parabola b=2", ("x", "y"), ("y - x^2",), 2, (3, 5, 7)),
    ("parabola b=3", ("x", "y"), ("y - x^2",), 3, (3, 5, 7)),
    ("cubic b=2", ("x", "y"), ("y - x^3",), 2, (3, 5, 7)),
    ("cubic b=3", ("x", "y"), ("y - x^3",), 3, (3, 5, 7)),
    ("graph b=1", ("x", "y", "z"), ("x*y - z",), 1, (3, 5, 7)),
    ("graph b=2", ("x", "y", "z"), ("x*y - z",), 2, (3, 5, 7)),
    ("cone b=1", ("x", "y", "z"), ("t*x^2 - y*z",), 1, (3, 5, 7)),
    ("free line b=2", ("x",), (), 2, (3, 5, 7)),
    ("circle b=1", ("x", "y"), ("x^2 + y^2 - 1",), 1, (5, 13, 17)),
    ("hyperbola b=1", ("x", "y"), ("x*y - 1",), 1, (3, 5, 7)),
)


def test_criterion_09_krull_matches_fitted_dimension():
    """Combinatorial dimension of the expanded ideal equals the census fit."""
    for name, names, eqs, b, qs in CROSSCHECK_FIXTURES:
        inst = InstanceSpec(name=name, ambient="affine", names=names, equations=eqs)
        rep = dim_estimate(inst, b, qs)
        assert rep.fit["stable"], (name, rep.counts)
        S = expand(inst.variety(5), b)
        G = groebner(list(S.equations), nvars=S.nvars, field=S.field)
        krull = krull_dimension(G)
        assert krull == rep.fit["dim"], (name, krull, rep.fit["dim"])
    report(9, f"{len(CROSSCHECK_FIXTURES)} affine fixtures: Krull == fitted dimension")


def test_criterion_10_scope_statement():
    """Document what the numeric gate deliberately does not certify."""
    statement = (
        "out of numeric scope, documented rather than tested: "
        "the asymptotic component-count bounds of order d^7 and d^4, "
        "the full line-stripping argument for sextic surfaces, and every "
        "statement over the complex numbers; the suite certifies the "
        "finite-field census laws, the lattice height identities, the "
        "divisibility lower bound, and the Pell solution structure only."
    )
    assert "out of numeric scope" in statement
    report(10, statement)
