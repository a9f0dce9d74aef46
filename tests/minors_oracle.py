"""Maximal minors by Bareiss determinants: the reference the lattice,
determinant-method and acceptance tests compare against."""

from itertools import combinations

from ffheight.lattices import PolyMatrix
from ffheight.rings import UniPoly


def _as_rows(M):
    if isinstance(M, PolyMatrix):
        return [list(r) for r in M.rows]
    return [list(r) for r in M]


def unipoly_det(m):
    """Fraction-free (Bareiss) determinant of a square UniPoly matrix."""
    n = len(m)
    field = m[0][0].field
    m = [list(r) for r in m]
    sign = 1
    prev = UniPoly.one(field)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return UniPoly.zero(field)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).divexact(prev)
            m[i][k] = UniPoly.zero(field)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def plucker_minors(M):
    """All maximal minors of a full-row-rank matrix, as a list of UniPolys."""
    rows = _as_rows(M)
    m, n = len(rows), len(rows[0])
    if m > n:
        raise ValueError("need nrows <= ncols")
    return [
        unipoly_det([[rows[i][j] for j in cols] for i in range(m)])
        for cols in combinations(range(n), m)
    ]
