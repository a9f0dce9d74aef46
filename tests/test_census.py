import itertools
import math
import random

import numpy as np
import pytest

from ffheight import census, modq, suite
from ffheight.census import (
    MAX_Q,
    BudgetExceeded,
    CountResult,
    InstanceSpec,
    count_points,
    dim_estimate,
    point_stream,
)
from ffheight.lattices import kernel_lattice, linear_space_count
from ffheight.multipoly import MultiPoly
from ffheight.rings import PolyRing, PrimeField, UniPoly
from ffheight.varieties import HeightPoint, VarietySpec, on_variety, variety_from_strs
from minors_oracle import plucker_minors


def brute_affine_count(X, b):
    """Enumerate every coordinate tuple with all degrees < b."""
    q = X.base_field.p
    n = X.ncoords
    count = 0
    for flat in itertools.product(range(q), repeat=n * b):
        coords = tuple(
            UniPoly(X.base_field, list(flat[i * b : (i + 1) * b])) for i in range(n)
        )
        if on_variety(X, HeightPoint(coords)):
            count += 1
    return count


def brute_projective_count(X, b):
    """Orbit count: primitive tuples up to scalars, all degrees < b."""
    q = X.base_field.p
    n = X.ncoords
    seen = set()
    for flat in itertools.product(range(q), repeat=n * b):
        coords = tuple(
            UniPoly(X.base_field, list(flat[i * b : (i + 1) * b])) for i in range(n)
        )
        if all(c.is_zero() for c in coords):
            continue
        pt = HeightPoint(coords, projective=True)
        if not on_variety(X, pt):
            continue
        pt = pt.primitive()
        # normalize the leading nonzero coordinate to be monic
        lead = next(c for c in pt.coords if not c.is_zero())
        inv = X.base_field.inv(lead.lc)
        seen.add(tuple(c.scale(inv) for c in pt.coords))
    return len(seen)


def test_affine_parabola_counts():
    for q in (3, 5):
        for b in (1, 2, 3):
            X = variety_from_strs("affine", ["x", "y"], ["y - x^2"], q)
            got = count_points(X, b).count
            # x free of degree < b, y forced: q^b points, but y needs deg < b too
            want = brute_affine_count(X, b)
            assert got == want, (q, b, got, want)


def test_monomial_curve_census_law():
    """y = x^d has exactly q^ceil(b/d) points of height below b."""
    for q in (3, 5):
        for d in (2, 3):
            X = variety_from_strs("affine", ["x", "y"], [f"y - x^{d}"], q)
            for b in (1, 2, 3, 4):
                got = count_points(X, b).count
                assert got == q ** math.ceil(b / d), (q, d, b, got)


def test_projective_conic_counts():
    for q in (3, 5):
        X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], q)
        for b in (1, 2):
            got = count_points(X, b)
            want = brute_projective_count(X, b)
            assert got.count == want, (q, b, got.count, want)
            # primitive tuples: orbit count times (q - 1) scalars
            assert got.primitive == want * (q - 1)


def test_count_with_inequation():
    q = 3
    X = variety_from_strs(
        "affine", ["x", "y"], ["y - x^2"], q, inequation_strs=["x"]
    )
    assert count_points(X, 2).count == brute_affine_count(X, 2)


def test_point_stream_heights_below_b():
    X = variety_from_strs("affine", ["x", "y"], ["y - x^3"], 5)
    for b in (1, 2, 3):
        pts = point_stream(X, b)
        assert len(pts) == count_points(X, b).count
        for pt in pts:
            assert pt.height() < b
            assert on_variety(X, pt)


def test_point_stream_projective_primitive_reps():
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 3)
    pts = point_stream(X, 2)
    assert len(pts) == count_points(X, 2).count
    for pt in pts:
        assert pt.projective
        g = pt.primitive()
        assert [str(c) for c in g.coords] == [str(c) for c in pt.coords]


# ordered streams of the whole-cone enumeration, which the orbit enumeration
# must reproduce point for point
PINNED_STREAMS = [
    (
        ["t*x^2 - y*z"], (), 3, 2,
        "(0 : 0 : 1)|(1 : t : 1)|(1 : 2*t : 2)|(0 : 1 : 0)|(1 : 1 : t)|(1 : 2 : 2*t)",
    ),
    (
        ["x^2 - y*z"], (), 3, 3,
        "(0 : 0 : 1)|(t : t^2 : 1)|(2*t^2 + t : t^2 : t^2 + t + 1)"
        "|(t^2 + t : t^2 : t^2 + 2*t + 1)|(t : 2*t^2 : 2)"
        "|(t^2 + t : 2*t^2 : 2*t^2 + t + 2)|(2*t^2 + t : 2*t^2 : 2*t^2 + 2*t + 2)"
        "|(0 : 1 : 0)|(t : 1 : t^2)|(2*t^2 + t : t^2 + t + 1 : t^2)"
        "|(t^2 + t : t^2 + 2*t + 1 : t^2)|(t : 2 : 2*t^2)"
        "|(t^2 + t : 2*t^2 + t + 2 : 2*t^2)|(2*t^2 + t : 2*t^2 + 2*t + 2 : 2*t^2)"
        "|(1 : 1 : 1)|(2*t^2 + 1 : t^2 + t + 1 : t^2 + 2*t + 1)"
        "|(2*t^2 + 1 : t^2 + 2*t + 1 : t^2 + t + 1)|(t + 1 : 1 : t^2 + 2*t + 1)"
        "|(t + 1 : t^2 + 2*t + 1 : 1)|(2*t + 1 : 1 : t^2 + t + 1)"
        "|(2*t + 1 : t^2 + t + 1 : 1)|(1 : 2 : 2)"
        "|(2*t^2 + 1 : 2*t^2 + t + 2 : 2*t^2 + 2*t + 2)"
        "|(2*t^2 + 1 : 2*t^2 + 2*t + 2 : 2*t^2 + t + 2)|(t + 1 : 2 : 2*t^2 + t + 2)"
        "|(t + 1 : 2*t^2 + t + 2 : 2)|(2*t + 1 : 2 : 2*t^2 + 2*t + 2)"
        "|(2*t + 1 : 2*t^2 + 2*t + 2 : 2)",
    ),
    (
        ["t*x^2 - y*z"], ("x",), 3, 3,
        "(1 : t : 1)|(2*t + 1 : t : t^2 + t + 1)|(t + 1 : t : t^2 + 2*t + 1)"
        "|(1 : 2*t : 2)|(t + 1 : 2*t : 2*t^2 + t + 2)"
        "|(2*t + 1 : 2*t : 2*t^2 + 2*t + 2)|(1 : 1 : t)"
        "|(2*t + 1 : t^2 + t + 1 : t)|(t + 1 : t^2 + 2*t + 1 : t)|(1 : 2 : 2*t)"
        "|(t + 1 : 2*t^2 + t + 2 : 2*t)|(2*t + 1 : 2*t^2 + 2*t + 2 : 2*t)",
    ),
]


@pytest.mark.parametrize(
    "eqs, ineqs, q, b, expected",
    PINNED_STREAMS,
    ids=["t*x^2-y*z", "x^2-y*z", "t*x^2-y*z,x!=0"],
)
def test_point_stream_projective_order_pinned(eqs, ineqs, q, b, expected):
    X = variety_from_strs("projective", ["x", "y", "z"], eqs, q, ineqs)
    assert "|".join(str(pt) for pt in point_stream(X, b)) == expected


def test_point_stream_projective_visits_one_point_per_orbit():
    X = variety_from_strs("projective", ["x", "y", "z"], ["x*y - z^2"], 5, ["x + y"])
    res = count_points(X, 3)
    assert res.count == 124
    assert res.stats.visits == 29135


def test_budget_exceeded_carries_estimate():
    X = variety_from_strs("affine", ["x", "y", "z"], ["x*y - z^2"], 5)
    with pytest.raises(BudgetExceeded) as e:
        count_points(X, 6, budget=10)
    assert e.value.estimate is not None
    assert e.value.estimate > 10


def test_instance_spec_round_trip():
    inst = InstanceSpec(
        name="parabola",
        ambient="affine",
        names=("x", "y"),
        equations=("y - x^2",),
        dim=1,
        degree=2,
    )
    again = InstanceSpec.from_json(inst.to_json())
    assert again == inst
    assert inst.dim_bound(3) == 3
    X = inst.variety(7)
    assert X.base_field.p == 7


def test_dim_estimate_exact_curve():
    inst = InstanceSpec(
        name="cubic graph",
        ambient="affine",
        names=("x", "y"),
        equations=("y - x^3",),
        dim=1,
        degree=3,
    )
    rep = dim_estimate(inst, 3, (3, 5, 7))
    assert rep.counts == tuple(q ** math.ceil(3 / 3) for q in (3, 5, 7))
    assert rep.fit["dim"] == 1
    assert rep.fit["stable"]
    assert rep.fit["exact_exponent"] == 1
    assert rep.conforms is True
    assert rep.bound == 3


def test_dim_estimate_needs_three_primes():
    inst = InstanceSpec("x", "affine", ("x", "y"), ("y - x^2",), dim=1)
    with pytest.raises(ValueError):
        dim_estimate(inst, 2, (3, 5))


def test_dim_estimate_rejects_repeated_primes():
    inst = InstanceSpec("x", "affine", ("x", "y"), ("y - x^2",), dim=1)
    with pytest.raises(ValueError, match="repeated"):
        dim_estimate(inst, 1, (3, 3, 3))
    with pytest.raises(ValueError, match="repeated"):
        dim_estimate(inst, 1, (3, 5, 7, 5))


def test_dim_estimate_json_schema():
    inst = InstanceSpec("parabola", "affine", ("x", "y"), ("y - x^2",), dim=1)
    rep = dim_estimate(inst, 2, (3, 5, 7))
    js = rep.to_json()
    for key in ("instance", "b", "qs", "counts", "dim", "stable", "conforms", "runs"):
        assert key in js
    assert js["runs"][0]["q"] == 3


def test_count_result_json():
    X = variety_from_strs("affine", ["x", "y"], ["y - x^2"], 3)
    res = count_points(X, 2)
    js = res.to_json()
    assert js["q"] == 3 and js["b"] == 2
    assert js["count"] == res.count
    assert "visits" in js and "seconds" in js


def test_empty_variety():
    X = variety_from_strs("affine", ["x"], ["x^2 + 1"], 3)  # no roots mod 3
    assert count_points(X, 1).count == 0


def test_full_space():
    # no equations: all of A^2(b)
    X = variety_from_strs("affine", ["x", "y"], [], 3)
    assert count_points(X, 2).count == 3**4


def test_random_systems_match_brute_force():
    """The staged solver agrees with raw enumeration on small systems."""
    rng = random.Random(22)
    mono = ["x", "y", "x*y", "x^2", "y^2", "1", "t*x", "t*y"]
    checked = 0
    while checked < 25:
        q = rng.choice((3, 5))
        k = rng.randrange(1, 3)
        eqs = []
        for _ in range(k):
            terms = rng.sample(mono, rng.randrange(1, 4))
            coeffs = [rng.randrange(1, q) for _ in terms]
            eqs.append(" + ".join(f"{c}*{m}" for c, m in zip(coeffs, terms)))
        X = variety_from_strs("affine", ["x", "y"], eqs, q)
        b = rng.randrange(1, 3)
        got = count_points(X, b).count
        want = brute_affine_count(X, b)
        assert got == want, (q, b, eqs, got, want)
        checked += 1


def test_block_path_over_q_above_256():
    """Residues above 255 in the fiber systems; the truth is q + 1."""
    for eq, q in (("y*z - x^2", 257), ("y*z^2 - x^3", 263)):
        X = variety_from_strs("projective", ["x", "y", "z"], [eq], q)
        res = count_points(X, 2)
        assert "blocks" in res.stats.path
        assert res.count == q + 1, (eq, q, res.count)


@pytest.mark.parametrize("eq, q", [("x^2 - 4", 32771), ("x^3 - 8", 40009)])
def test_census_rejects_q_above_limit(eq, q):
    # the int16 enumeration once counted these as 1 and 4 (truth 2 and 3)
    X = variety_from_strs("affine", ["x"], [eq], q)
    with pytest.raises(ValueError, match=str(MAX_Q)):
        count_points(X, 1)
    with pytest.raises(ValueError, match=str(MAX_Q)):
        point_stream(X, 1)


def _block_cases():
    """(ambient, names, equation, q, b, must take the blocks path)."""
    for d in (2, 3):
        for b in (1, 2, 3, 4):
            for q in (3, 5):
                yield "projective", ("x", "y", "z"), f"y*z^{d - 1} - x^{d}", q, b, True
    for b in (1, 2, 3):
        for q in (5, 7):
            yield "affine", ("x", "y", "z"), "x*y - z", q, b, True
    for inst, b in suite.random_hypersurfaces(random.Random(5), 12):
        for q in (3, 5):
            yield "affine", inst.names, inst.equations[0], q, b, False


def test_blocks_match_plain_enumeration(monkeypatch):
    # a cutoff of 0 sends every system with a linear block down the blocks
    # path, whatever its size; infinity sends every system down plain
    cases = list(_block_cases())
    monkeypatch.setattr(census, "PLAIN_CUTOFF", 0)
    fast, random_blocks = [], 0
    for ambient, names, eq, q, b, must in cases:
        res = count_points(variety_from_strs(ambient, names, [eq], q), b)
        fast.append((res.count, res.primitive))
        took = "blocks" in res.stats.path
        assert took or not must, (eq, q, b, res.stats.path)
        random_blocks += took and not must
    assert random_blocks >= 12
    monkeypatch.setattr(census, "PLAIN_CUTOFF", math.inf)
    for (ambient, names, eq, q, b, _), want in zip(cases, fast):
        res = count_points(variety_from_strs(ambient, names, [eq], q), b)
        assert "blocks" not in res.stats.path
        assert (res.count, res.primitive) == want, (eq, q, b)


def test_block_fiber_cache_counts_cubic():
    X = variety_from_strs("projective", ["x", "y", "z"], ["y*z^2 - x^3"], 5)
    res = count_points(X, 5)
    assert (res.count, res.primitive) == (126, 504)
    assert res.stats.visits == 4561
    assert (res.stats.cache_hits, res.stats.cache_misses) == (0, 971)


def _random_ternary_form(rng):
    """A homogeneous form of degree 2 or 3 in x, y, z over F_q[t]."""
    d = rng.choice((2, 3))
    monos = [
        (i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)
    ]
    terms = []
    for exps in rng.sample(monos, rng.randrange(2, 5)):
        factors = [rng.choice(("1", "2", "3", "4", "t", "2*t"))]
        factors += [
            nm if e == 1 else f"{nm}^{e}" for nm, e in zip("xyz", exps) if e
        ]
        terms.append("*".join(factors))
    return " + ".join(terms)


def _orbit_fence_cases():
    """(equation, q, b): seeded random forms plus two fixed ones, one with
    patterns of mixed degree (only A is taken by orbits) and one in t."""
    rng = random.Random(15)
    for _ in range(30):
        yield _random_ternary_form(rng), rng.choice((2, 3, 5, 7)), rng.randrange(1, 4)
    for q, b in ((3, 2), (5, 2), (3, 3)):
        yield "y*z^2 - x^3 + x^2*z", q, b
        yield "t*x^2 - y*z", q, b


def test_orbit_counts_match_brute_force(monkeypatch):
    # a cutoff of 0 sends every system with a linear block down the blocks path
    monkeypatch.setattr(census, "PLAIN_CUTOFF", 0)
    blocks = 0
    for eq, q, b in _orbit_fence_cases():
        X = variety_from_strs("projective", ("x", "y", "z"), [eq], q)
        res = count_points(X, b)
        blocks += "blocks" in res.stats.path
        if q ** (3 * b) <= 20_000:
            want = brute_projective_count(X, b)
        else:
            want = len(point_stream(X, b))
        assert res.count == want, (eq, q, b)
        assert res.primitive == want * (q - 1), (eq, q, b)
    assert blocks >= 20


def test_block_count_eliminates_one_fiber_per_orbit():
    # the A-side of y z^2 = x^3 at m = 5 is z, all 5^5 values of it: the
    # zero fiber and one per F_5^* orbit are left
    X = variety_from_strs("projective", ["x", "y", "z"], ["y*z^2 - x^3"], 5)
    fibers = []
    for b in (4, 5):
        stats = count_points(X, b).stats
        fibers.append(stats.cache_hits + stats.cache_misses)
    assert 0 < fibers[1] - fibers[0] <= (5**5 - 1) // 4 + 1


def test_block_count_runs_one_elimination_per_batch(monkeypatch):
    # y z^2 = x^3 down the blocks path: every batch of fibers is reduced by
    # one gauss_jordan call, first with all fibers in one batch, then with
    # one fiber per batch
    monkeypatch.setattr(census, "PLAIN_CUTOFF", 0)
    X = variety_from_strs("projective", ["x", "y", "z"], ["y*z^2 - x^3"], 5)
    block_count, gauss_jordan = census._block_count, census.gauss_jordan
    calls = []  # per _block_count call, the fibers of each elimination

    def counted_block_count(*args):
        calls.append([])
        return block_count(*args)

    def counted_gauss_jordan(aug, ncols, q):
        calls[-1].append(aug.shape[0])
        return gauss_jordan(aug, ncols, q)

    monkeypatch.setattr(census, "_block_count", counted_block_count)
    monkeypatch.setattr(census, "gauss_jordan", counted_gauss_jordan)
    runs = []
    for fiber_bytes in (1 << 40, 1):
        monkeypatch.setattr(census, "_FIBER_BYTES", fiber_bytes)
        calls.clear()
        runs.append((count_points(X, 4).count, list(calls)))
    (count, whole), (count_split, split) = runs
    assert count == count_split
    assert whole and all(len(c) == 1 for c in whole)
    assert split == [[1] * c[0] for c in whole]


def test_count_rejects_nonpositive_b():
    for ambient in ("affine", "projective"):
        X = variety_from_strs(ambient, ["x", "y", "z"], ["x^2 + y^2 + z^2"], 3)
        with pytest.raises(ValueError, match="b must be a positive integer"):
            count_points(X, 0)


def _rref_mod(rows, q, ncols):
    """Reference Gauss-Jordan mod q on the first ncols columns of a list of
    rows, carrying the other columns along: (reduced rows, rank)."""
    work = [[x % q for x in r] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, q)
        work[rank] = [x * inv % q for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % q for x, y in zip(work[i], work[rank])]
        rank += 1
    return work, rank


def test_batched_gauss_jordan_matches_reference():
    rng = np.random.default_rng(3)
    for q in (2, 3, 7, 263, 32749):
        for nrows, ncols in ((1, 1), (4, 3), (5, 7), (6, 6)):
            # low-rank and sparse stacks as well as random ones
            a = rng.integers(0, q, (40, nrows, ncols))
            a[:10, :, 1:] = a[:10, :, :1] * rng.integers(0, q, (10, 1, ncols - 1)) % q
            a[10:20] *= rng.random((10, nrows, ncols)) < 0.3
            # [M | I]: the carried identity columns must follow the row ops,
            # as the carried G columns of the block path's [M | G] do
            eye = np.broadcast_to(np.eye(nrows, dtype=a.dtype), (40, nrows, nrows))
            for stack in (a, np.concatenate([a, eye], axis=2)):
                got = stack.copy()
                rank = modq.gauss_jordan(got, ncols, q)
                for f in range(len(stack)):
                    want, r = _rref_mod(stack[f].tolist(), q, ncols)
                    assert rank[f] == r and got[f].tolist() == want, (q, f)


def test_eval_terms_exact_past_int32():
    # 70,000 terms (q - 1) x sum past 2^31 before the final reduction
    q = 32749
    terms = [(q - 1, ((0, 1),))] * 70_000
    cols = {0: np.array([1, 2, 3], dtype=np.int16)}
    got = census._eval_terms(terms, cols, q)
    assert got.tolist() == [(-70_000 * x) % q for x in (1, 2, 3)]
    assert got.tolist() == [28247, 23745, 19243]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_linear_census_matches_kernel_lattice(q):
    # the kernel of a full-rank A is saturated with a reduced basis of
    # minima s_i, so the points of height < b number q^(sum max(b - s_i, 0))
    rng = random.Random(q)
    fld = PrimeField(q)
    ring = PolyRing(fld)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 3)
        m = rng.randint(1, n - 1)
        A = [
            [UniPoly(fld, [rng.randrange(q) for _ in range(rng.randint(0, 3))])
             for _ in range(n)]
            for _ in range(m)
        ]
        if all(minor.is_zero() for minor in plucker_minors(A)):
            continue
        names = ("x", "y", "z")[:n]
        eqs = tuple(
            MultiPoly(ring, n, {tuple(int(i == j) for i in range(n)): c
                                for j, c in enumerate(row)})
            for row in A
        )
        X = VarietySpec("affine", names, eqs, field=fld)
        b = rng.randint(1, 3)
        dim = linear_space_count(kernel_lattice(A), b)
        assert count_points(X, b).count == q**dim, (q, A, b)
        checked += 1
