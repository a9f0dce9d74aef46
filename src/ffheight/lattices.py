"""Lattices of polynomial vectors: reduced bases, minima, heights, kernels.

An O_K-lattice here is the row module of a full-rank matrix over F[t].  A
weak Popov basis (rows with pairwise distinct pivot positions) realizes the
successive minima exactly: the height of any combination sum lam_i v_i is
max over nonzero lam_i of (deg v_i + deg lam_i), with no defect.
Heights come from the minima of a reduced basis less the degree of the
gcd of the maximal minors, which one unimodular column reduction reads off;
the same column reduction gives kernels, a saturated basis with no
elimination over K and no denominators to clear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parsing import parse_unipoly
from .rings import NEG_INF, PrimeField, UniPoly


@dataclass(frozen=True)
class PolyMatrix:
    rows: tuple  # tuple of tuples of UniPoly

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("empty matrix")
        w = len(self.rows[0])
        if any(len(r) != w for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def from_strs(cls, rows, q: int):
        fld = PrimeField(q)
        return cls(tuple(tuple(parse_unipoly(s, fld) for s in r) for r in rows))

    @property
    def field(self) -> PrimeField:
        return self.rows[0][0].field

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def to_json(self):
        return [[str(e) for e in r] for r in self.rows]


def _as_rows(M):
    if isinstance(M, PolyMatrix):
        return [list(r) for r in M.rows]
    return [list(r) for r in M]


def row_height(row) -> int:
    d = max((e.deg for e in row if not e.is_zero()), default=NEG_INF)
    return d


def _pivot(row):
    """Rightmost index attaining the row's max degree; None for a zero row."""
    d = row_height(row)
    if d is NEG_INF:
        return None
    for j in range(len(row) - 1, -1, -1):
        if row[j].deg == d:
            return j
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class ReducedBasis:
    vectors: tuple  # rows, heights ascending
    minima: tuple  # s_1 <= ... <= s_m

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def height(self) -> int:
        return sum(self.minima)

    def to_json(self):
        return {
            "minima": list(self.minima),
            "vectors": [[str(e) for e in r] for r in self.vectors],
        }


def reduce_basis(M) -> ReducedBasis:
    """Weak Popov reduction.  Rows must be F[t]-linearly independent."""
    rows = _as_rows(M)
    fld = rows[0][0].field
    while True:
        by_pivot = {}
        clash = None
        for i, r in enumerate(rows):
            pv = _pivot(r)
            if pv is None:
                raise ValueError("not a basis")
            if pv in by_pivot:
                clash = (by_pivot[pv], i, pv)
                break
            by_pivot[pv] = i
        if clash is None:
            break
        i, j, pv = clash
        # cancel the higher-degree pivot with the lower one
        if row_height(rows[i]) < row_height(rows[j]):
            i, j = j, i
        shift = row_height(rows[i]) - row_height(rows[j])
        c = fld.div(rows[i][pv].lc, rows[j][pv].lc)
        for k in range(len(rows[i])):
            rows[i][k] = rows[i][k] - rows[j][k].shift(shift).scale(c)
        if all(e.is_zero() for e in rows[i]):
            raise ValueError("not a basis")
    rows.sort(key=lambda r: (row_height(r), _pivot(r)))
    return ReducedBasis(
        vectors=tuple(tuple(r) for r in rows),
        minima=tuple(row_height(r) for r in rows),
    )


def _column_reduce(cols, m):
    """Unimodular column operations, in place, that bring the first m rows
    of the columns cols to (T | 0), T lower triangular with nonzero
    diagonal; the rows below m follow the operations.  Raises ValueError
    when those m rows do not have full rank."""
    n = len(cols)
    for r in range(m):
        # Euclid across row r: reduce every live entry modulo the one of
        # least degree until a single one is left, then move it to column r
        while True:
            live = [c for c in range(r, n) if not cols[c][r].is_zero()]
            if not live:
                raise ValueError("not full rank")
            piv = min(live, key=lambda c: cols[c][r].deg)
            done = True
            for c in live:
                if c == piv:
                    continue
                quo = cols[c][r] // cols[piv][r]
                cols[c] = [x - y * quo for x, y in zip(cols[c], cols[piv])]
                if not cols[c][r].is_zero():
                    done = False
            if done:
                cols[r], cols[piv] = cols[piv], cols[r]
                break


def lattice_height(M) -> int:
    """Height of the row space under the Plücker embedding.

    The maximal minors are the Plücker coordinates; the height of the
    projective point they define is max degree minus the degree of their
    gcd.  A weak Popov basis attains the max degree as the sum of its row
    degrees, the successive minima.  Column reduction gives A U = (T | 0)
    with U unimodular, so det T is the gcd of the minors and its degree is
    the sum of the degrees of T's diagonal.  For a basis of a saturated
    lattice that gcd is a constant and the height is the minima sum.
    """
    rows = _as_rows(M)
    m, n = len(rows), len(rows[0])
    cols = [[r[j] for r in rows] for j in range(n)]
    _column_reduce(cols, m)
    return reduce_basis(rows).height() - sum(cols[r][r].deg for r in range(m))


def kernel_lattice(A) -> ReducedBasis:
    """Reduced basis of the saturated kernel {x in O_K^n : A x = 0}.

    Unimodular column operations bring A to (T | 0), T lower triangular,
    while U tracks them from the identity below A, so that A U = (T | 0).
    The last n - m columns of U span the kernel, and since U is invertible
    over O_K they span a direct summand: the kernel lattice is already
    saturated.
    """
    rows = _as_rows(A)
    m, n = len(rows), len(rows[0])
    if m >= n:
        raise ValueError("need nrows < ncols")
    fld = rows[0][0].field
    zero, one = UniPoly.zero(fld), UniPoly.one(fld)
    # column j of A stacked over column j of U = I
    cols = [
        [r[j] for r in rows] + [one if i == j else zero for i in range(n)]
        for j in range(n)
    ]
    _column_reduce(cols, m)
    return reduce_basis([col[m:] for col in cols[m:]])


def short_kernel_vector(A):
    """Nonzero kernel vector of height at most h(A)/(n - m)."""
    return kernel_lattice(A).vectors[0]


def linear_space_count(M, b: int) -> int:
    """F-dimension of the lattice points of height < b: sum max(b - s_i, 0)."""
    if b < 0:
        raise ValueError("b must be non-negative")
    rb = M if isinstance(M, ReducedBasis) else reduce_basis(M)
    return sum(max(b - s, 0) for s in rb.minima)
