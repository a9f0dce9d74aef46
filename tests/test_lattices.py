import itertools
import random

import pytest

from ffheight.lattices import (
    PolyMatrix,
    kernel_lattice,
    lattice_height,
    linear_space_count,
    reduce_basis,
    row_height,
    short_kernel_vector,
)
from ffheight.rings import PrimeField, UniPoly, uni_content, uni_gcd
from minors_oracle import plucker_minors


F5 = PrimeField(5)


def rand_matrix(rng, field, m, n, maxdeg=3):
    return [
        [
            UniPoly(field, [rng.randrange(field.p) for _ in range(rng.randrange(maxdeg + 1) + 1)])
            for _ in range(n)
        ]
        for _ in range(m)
    ]


def full_rank(rows):
    return not all(d.is_zero() for d in plucker_minors(rows)) if len(rows) <= len(rows[0]) else False


def test_from_strs():
    M = PolyMatrix.from_strs([["t", "1"], ["0", "t^2"]], 5)
    assert M.nrows == 2 and M.ncols == 2
    assert M.rows[0][0] == UniPoly.gen(F5)


def test_row_height():
    t = UniPoly.gen(F5)
    assert row_height([t * t, t]) == 2
    assert row_height([UniPoly.zero(F5), UniPoly.one(F5)]) == 0


def test_reduce_basis_identity():
    M = PolyMatrix.from_strs([["1", "0"], ["0", "1"]], 5)
    rb = reduce_basis(M)
    assert rb.minima == (0, 0)
    assert rb.height() == 0


def test_reduce_basis_rejects_dependent_rows():
    M = PolyMatrix.from_strs([["t", "t"], ["t^2", "t^2"]], 5)
    with pytest.raises(ValueError):
        reduce_basis(M)


def test_scalar_lattice_height_is_zero():
    # t*O_K^2 spans the same projective Plucker point as O_K^2
    M = PolyMatrix.from_strs([["t", "0"], ["0", "t"]], 5)
    assert lattice_height(M) == 0
    # minima still see the index: sum s_i = height + deg gcd(minors)
    rb = reduce_basis(M)
    assert rb.height() == 2


def test_height_vs_minima_law_random():
    """sum s_i = lattice height + deg gcd(maximal minors), always."""
    rng = random.Random(14)
    checked = 0
    while checked < 200:
        m = rng.randrange(1, 4)
        n = m + rng.randrange(1, 3)
        rows = rand_matrix(rng, F5, m, n)
        minors = [d for d in plucker_minors(rows) if not d.is_zero()]
        if not minors:
            continue
        g = None
        for d in minors:
            g = d.monic() if g is None else uni_gcd(g, d)
        rb = reduce_basis([list(r) for r in rows])
        assert rb.height() == lattice_height(rows) + g.deg
        checked += 1


def _minors_height(rows):
    """Plücker height from every maximal minor: max degree less the degree
    of their gcd."""
    dets = plucker_minors(rows)
    g = uni_content(dets)
    if g is None:
        raise ValueError("rank deficient")
    return max(d.deg for d in dets) - g.deg


def _height_or_error(height, rows):
    try:
        return height(rows)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_lattice_height_matches_minors_oracle(q):
    """Square, wide and rank-deficient shapes up to 3 x 5: the same height
    as the minors give, or a ValueError on both sides."""
    fld = PrimeField(q)
    rng = random.Random(40 + q)
    deficient = 0
    for trial in range(120):
        m = rng.randrange(1, 4)
        n = m + rng.randrange(3)
        rows = rand_matrix(rng, fld, m, n)
        if trial % 5 == 0:
            # the last row a combination of the first and the one before it,
            # zero when m = 1
            a, b = rand_matrix(rng, fld, 1, 2, maxdeg=1)[0]
            if m == 1:
                a = b = UniPoly.zero(fld)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[m - 2])]
        want = _height_or_error(_minors_height, rows)
        assert _height_or_error(lattice_height, rows) == want, (q, rows)
        deficient += want is ValueError
    assert deficient >= 24


def test_lattice_height_5_by_10_matches_minors_oracle():
    fld = PrimeField(7)
    rows = rand_matrix(random.Random(41), fld, 5, 10)
    assert lattice_height(rows) == _minors_height(rows)


def test_reduced_basis_spans_same_lattice():
    """Each original row is an O_K-combination of the reduced rows."""
    rng = random.Random(15)
    checked = 0
    while checked < 50:
        rows = rand_matrix(rng, F5, 2, 3)
        if not full_rank(rows):
            continue
        rb = reduce_basis([list(r) for r in rows])
        # Plucker point is a lattice invariant up to scalars
        a = _normalized_minors(rows)
        b = _normalized_minors(rb.vectors)
        assert a == b
        checked += 1


def _normalized_minors(rows):
    ds = plucker_minors(rows)
    lead = next(d for d in ds if not d.is_zero())
    c = lead.field.inv(lead.lc)
    return tuple(d.scale(c) for d in ds)


def test_kernel_lattice_annihilates():
    rng = random.Random(16)
    checked = 0
    while checked < 100:
        m = rng.randrange(1, 3)
        n = m + rng.randrange(1, 3)
        rows = rand_matrix(rng, F5, m, n)
        if not full_rank(rows):
            continue
        kb = kernel_lattice(rows)
        assert kb.rank == n - m
        for v in kb.vectors:
            for r in rows:
                acc = UniPoly.zero(F5)
                for a, x in zip(r, v):
                    acc = acc + a * x
                assert acc.is_zero()
        checked += 1


def test_kernel_height_equals_matrix_height():
    """Row-space and saturated-kernel Plucker heights agree."""
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        m = rng.randrange(1, 3)
        n = m + rng.randrange(1, 3)
        rows = rand_matrix(rng, F5, m, n)
        if not full_rank(rows):
            continue
        kb = kernel_lattice(rows)
        assert lattice_height(list(kb.vectors)) == lattice_height(rows)
        # kernels are saturated, so the minima meet the height exactly
        assert kb.height() == lattice_height(rows)
        checked += 1


def _apply(rows, v):
    """A v, one UniPoly per row."""
    out = []
    for r in rows:
        acc = UniPoly.zero(v[0].field)
        for a, x in zip(r, v):
            acc = acc + a * x
        out.append(acc)
    return out


@pytest.mark.parametrize("q", [2, 3, 7, 11])
def test_kernel_lattice_over_several_fields(q):
    """Shapes up to 3 x 6: the basis lies in the kernel, is saturated and
    reduced (Plucker height of the kernel = that of A = sum of the minima),
    and a rank-deficient A is refused."""
    fld = PrimeField(q)
    rng = random.Random(30 + q)
    checked = 0
    while checked < 40:
        m = rng.randrange(1, 4)
        n = m + rng.randrange(1, 4)
        rows = rand_matrix(rng, fld, m, n)
        # the same shape with its last row a combination of the others
        if m == 1:
            deficient = [[UniPoly.zero(fld)] * n]
        else:
            a, b = rand_matrix(rng, fld, 1, 2, maxdeg=1)[0]
            deficient = rows[:-1] + [[a * x + b * y for x, y in zip(rows[0], rows[-2])]]
        with pytest.raises(ValueError, match="not full rank"):
            kernel_lattice(deficient)
        if not full_rank(rows):
            with pytest.raises(ValueError, match="not full rank"):
                kernel_lattice(rows)
            continue
        kb = kernel_lattice(rows)
        assert kb.rank == n - m
        for v in kb.vectors:
            assert all(e.is_zero() for e in _apply(rows, v))
        assert lattice_height(list(kb.vectors)) == lattice_height(rows) == kb.height()
        checked += 1


def test_short_vector_bound():
    rng = random.Random(18)
    checked = 0
    while checked < 100:
        m = rng.randrange(1, 3)
        n = m + rng.randrange(1, 3)
        rows = rand_matrix(rng, F5, m, n)
        if not full_rank(rows):
            continue
        v = short_kernel_vector(rows)
        assert row_height(v) * (n - m) <= lattice_height(rows)
        checked += 1


def brute_lattice_count(rows, b, field):
    """|{O_K-combinations of height < b}| by enumerating coefficients."""
    m = len(rows)
    n = len(rows[0])
    # coefficient degree < b suffices for reduced bases of minima < b
    polys = []
    for coeffs in itertools.product(range(field.p), repeat=m * b):
        lams = [UniPoly(field, list(coeffs[i * b : (i + 1) * b])) for i in range(m)]
        vec = [UniPoly.zero(field)] * n
        for lam, r in zip(lams, rows):
            for j in range(n):
                vec[j] = vec[j] + r[j] * lam
        h = max((e.deg for e in vec if not e.is_zero()), default=None)
        if h is None or h < b:
            polys.append(tuple(vec))
    return len(set(polys))


def test_linear_space_count_matches_brute_force():
    rng = random.Random(19)
    q = 3
    F3 = PrimeField(3)
    checked = 0
    while checked < 15:
        rows = rand_matrix(rng, F3, 2, 3, maxdeg=1)
        if not full_rank(rows):
            continue
        rb = reduce_basis([list(r) for r in rows])
        for b in (1, 2, 3):
            dim = linear_space_count(rb, b)
            assert q**dim == brute_lattice_count([list(r) for r in rb.vectors], b, F3)
        checked += 1


def test_linear_space_count_validates_b():
    M = PolyMatrix.from_strs([["1", "0"]], 5)
    with pytest.raises(ValueError):
        linear_space_count(M, -1)
    assert linear_space_count(M, 0) == 0
