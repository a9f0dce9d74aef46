"""Lattices of polynomial vectors: reduced bases, minima, heights, kernels.

An O_K-lattice here is the row module of a full-rank matrix over F[t].  A
weak Popov basis (rows with pairwise distinct pivot positions) realizes the
successive minima exactly: the height of any combination sum lam_i v_i is
max over nonzero lam_i of (deg v_i + deg lam_i), with no defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .multipoly import unipoly_det
from .parsing import parse_unipoly
from .rings import NEG_INF, PrimeField, UniPoly, uni_content, uni_gcd, uni_lcm


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


def lattice_height(M) -> int:
    """Height of the row space under the Plücker embedding.

    The maximal minors are the Plücker coordinates; the height of the
    projective point they define is max degree minus the degree of their
    gcd.  For a basis of a saturated lattice the gcd is a constant and this
    equals the sum of the successive minima; in general the minima sum
    exceeds it by the gcd degree.
    """
    dets = plucker_minors(M)
    g = uni_content(dets)
    if g is None:
        raise ValueError("rank deficient")
    return int(max(det.deg for det in dets) - g.deg)


class _IncrementalRREF:
    """Fraction-free Gauss-Jordan over O_K, one row at a time.

    Each stored row is primitive and fully reduced: zero at every other
    pivot column.  Up to a factor in K it is the row of the RREF over K, so
    the pivot columns and the kernel are those of the matrix over K.
    """

    def __init__(self, width: int, field):
        self.width = width
        self.field = field
        self.rows = {}  # pivot col -> primitive fully reduced row (list of UniPoly)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row) -> bool:
        row = list(row)
        for col in sorted(self.rows):
            if not row[col].is_zero():
                row = _eliminate(row, self.rows[col], col)
        lead = next((j for j in range(self.width) if not row[j].is_zero()), None)
        if lead is None:
            return False
        row = _primitive(row)
        for col, other in self.rows.items():
            if not other[lead].is_zero():
                self.rows[col] = _primitive(_eliminate(other, row, lead))
        self.rows[lead] = row
        return True

    def kernel_basis(self):
        """One kernel vector per free column, in column order: the primitive
        vector that is zero at the other free columns and monic at its own.
        The RREF is canonical, so the basis depends only on the row space."""
        free = [j for j in range(self.width) if j not in self.rows]
        zero, one = UniPoly.zero(self.field), UniPoly.one(self.field)
        basis = []
        for j in free:
            # over K the vector is 1 at j and -row[j] / row[col] at each
            # pivot col; scale by the lcm of those fractions' denominators
            parts = {}
            den = one
            for col, row in self.rows.items():
                if not row[j].is_zero():
                    g = uni_gcd(row[col], row[j])
                    parts[col] = (row[j].divexact(g), row[col].divexact(g))
                    den = uni_lcm(den, parts[col][1])
            vec = [zero] * self.width
            vec[j] = den
            for col, (num, d) in parts.items():
                vec[col] = -(num * den.divexact(d))
            basis.append(vec)
        return basis


def _eliminate(row, piv, col):
    """Clear row[col] against piv: (a/g) row - (c/g) piv with a = piv[col],
    c = row[col] and g = gcd(a, c), or row - (c/a) piv when a is a unit."""
    a, c = piv[col], row[col]
    if a.deg == 0:
        # no multiple of row to form: the zero entries of piv leave it as is
        c = c.scale(a.field.inv(a.lc))
        return [x if y.is_zero() else x - y * c for x, y in zip(row, piv)]
    g = uni_gcd(a, c)
    if g.deg > 0:
        a, c = a.divexact(g), c.divexact(g)
    return [x * a if y.is_zero() else x * a - y * c for x, y in zip(row, piv)]


def _primitive(row):
    """Nonzero row divided by its monic content."""
    g = uni_content(row)
    return row if g.deg == 0 else [e.divexact(g) for e in row]


def _saturate(rows):
    """Basis of the saturation (K-span intersected with O_K^n) of a row module.

    Column-reduce W to (T | 0) by unimodular column operations, tracking the
    inverse transform R; W = T * (first k rows of R), and those rows span a
    direct summand of O_K^n containing the row space, hence the saturation.
    """
    w = [list(r) for r in rows]
    k, n = len(w), len(w[0])
    fld = w[0][0].field
    r_mat = [
        [UniPoly.one(fld) if i == j else UniPoly.zero(fld) for j in range(n)]
        for i in range(n)
    ]

    def col_swap(i, j):
        for row in w:
            row[i], row[j] = row[j], row[i]
        r_mat[i], r_mat[j] = r_mat[j], r_mat[i]

    def col_addmul(j, i, f):
        # col_j += f * col_i; inverse transform: row_i of R -= f * row_j
        if f.is_zero():
            return
        for row in w:
            row[j] = row[j] + row[i] * f
        r_mat[i] = [a - b * f for a, b in zip(r_mat[i], r_mat[j])]

    for r in range(k):
        while True:
            live = [c for c in range(r, n) if not w[r][c].is_zero()]
            if not live:
                raise ValueError("not full rank")
            piv = min(live, key=lambda c: w[r][c].deg)
            done = True
            for c in live:
                if c == piv:
                    continue
                quo = w[r][c] // w[r][piv]
                col_addmul(c, piv, -quo)
                if not w[r][c].is_zero():
                    done = False
            if done:
                if piv != r:
                    col_swap(piv, r)
                break
    return r_mat[:k]


def kernel_lattice(A) -> ReducedBasis:
    """Reduced basis of the saturated kernel {x in O_K^n : A x = 0}."""
    rows = _as_rows(A)
    if len(rows) >= len(rows[0]):
        raise ValueError("need nrows < ncols")
    rref = _IncrementalRREF(len(rows[0]), rows[0][0].field)
    for r in rows:
        if not rref.add(r):
            raise ValueError("not full rank")
    return reduce_basis(_saturate(rref.kernel_basis()))


def short_kernel_vector(A):
    """Nonzero kernel vector of height at most h(A)/(n - m)."""
    return kernel_lattice(A).vectors[0]


def linear_space_count(M, b: int) -> int:
    """F-dimension of the lattice points of height < b: sum max(b - s_i, 0)."""
    if b < 0:
        raise ValueError("b must be non-negative")
    rb = M if isinstance(M, ReducedBasis) else reduce_basis(M)
    return sum(max(b - s, 0) for s in rb.minima)
