"""Auxiliary polynomials through monomial evaluation matrices.

The engine: points of bounded height lying in a fixed congruence class force
p-adic divisibility on the determinants of monomial evaluation matrices.
Once the matrix loses full column rank over K, its kernel holds a form g
that vanishes on every class point; as soon as the kernel is bigger than
the space of multiples of the defining equation f, some kernel element is
coprime to f.  We search the degree M incrementally until that happens;
a degree is skipped without elimination over O_K when the rank of the
matrix mod t - alpha, for one of a few residues alpha, already shows that
the kernel is too small.
Every entry stays a polynomial.  The elimination (`_IncrementalRREF`) is a
fraction-free RREF over O_K whose kernel vectors come out primitive; the
residue ranks come from the batched elimination in `modq`.  The
valuations of the minors at t - lambda come from a local Smith form over
truncated power series F_q[[t]]/(t^N), after the shift t -> t + lambda.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from math import comb, factorial, inf

import numpy as np

from .census import DEFAULT_BUDGET, point_stream
from .modq import gauss_jordan
from .multipoly import MultiPoly, prime_residue, reduce_mod
from .rings import PolyRing, UniPoly, uni_content, uni_gcd, uni_lcm
from .varieties import HeightPoint, VarietySpec, default_names


# residues alpha = 0, 1, ... whose ranks mod t - alpha may certify a skip
_CERT_RESIDUES = 8
# random draws for a constant point off an affine variety over a large field
_OFF_POINT_TRIES = 2000


class DegreeBudgetError(RuntimeError):
    """Raised when the incremental degree search exceeds its cap."""


# ---------------------------------------------------------------------------
# monomial bases
# ---------------------------------------------------------------------------


def _exponents(total: int, nvars: int):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _exponents(total - head, nvars - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class MonomialBasis:
    degree: int
    nvars: int
    monomials: tuple  # exponent vectors, deterministic order

    def __len__(self):
        return len(self.monomials)

    def evaluate_row(self, coords):
        """One evaluation row: each monomial applied to the coordinates."""
        out = []
        pows = {}
        for exps in self.monomials:
            acc = None
            for i, e in enumerate(exps):
                if not e:
                    continue
                key = (i, e)
                if key not in pows:
                    pows[key] = coords[i] ** e if e > 1 else coords[i]
                acc = pows[key] if acc is None else acc * pows[key]
            if acc is None:
                acc = UniPoly.one(coords[0].field)
            out.append(acc)
        return out


def monomial_basis(degree: int, nvars: int) -> MonomialBasis:
    """The monomials of total degree exactly `degree` in nvars variables."""
    if degree < 0 or nvars < 1:
        raise ValueError("need degree >= 0 and at least one variable")
    monos = tuple(_exponents(degree, nvars))
    return MonomialBasis(degree=degree, nvars=nvars, monomials=monos)


def basis_size(degree: int, nvars: int) -> int:
    """|B[M]| for homogeneous degree M in nvars variables, 0 for M < 0."""
    if degree < 0:
        return 0
    return comb(degree + nvars - 1, nvars - 1)


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------


def _shift(f: MultiPoly, consts) -> MultiPoly:
    """f(x_0 + c_0, ..., x_n + c_n)."""
    vals = [
        MultiPoly.var(f.ring, f.nvars, i)
        + MultiPoly.const(f.ring, f.nvars, consts[i])
        for i in range(f.nvars)
    ]
    return f.compose(vals)


def mult_at(f: MultiPoly, point, prime: UniPoly | None = None) -> int:
    """Least total degree of a term of f recentred at the point.

    f may carry O_K coefficients together with a degree-1 prime, in which
    case it is reduced first.  Projective inputs are passed through the
    affine chart of a nonvanishing coordinate.
    """
    if prime is not None:
        f = reduce_mod(f, prime)
    fld = f.ring
    if isinstance(fld, PolyRing):
        raise TypeError("multiplicity lives over the residue field; pass prime=")
    point = tuple(c % fld.p for c in point)
    if f.is_homogeneous() and f.total_degree() > 0 and any(point):
        chart = max(i for i, c in enumerate(point) if c)
        scale = fld.inv(point[chart])
        point = tuple(c * scale % fld.p for c in point)
        devals = [
            MultiPoly.var(fld, f.nvars - 1, i if i < chart else i - 1)
            if i != chart
            else MultiPoly.const(fld, f.nvars - 1, 1)
            for i in range(f.nvars)
        ]
        f = f.compose(devals)
        point = tuple(c for i, c in enumerate(point) if i != chart)
    if f.evaluate(list(point)) != 0:
        raise ValueError("point not on variety")
    g = _shift(f, point)
    return min(sum(e) for e in g.terms)


# ---------------------------------------------------------------------------
# congruence data and evaluation matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CongruenceDatum:
    prime: UniPoly
    point: tuple  # residue coordinates over F_q
    multiplicity: int | None = None  # computed from f when absent

    def __post_init__(self):
        prime_residue(self.prime)

    @property
    def residue(self) -> int:
        return prime_residue(self.prime)

    def resolved(self, f: MultiPoly) -> "CongruenceDatum":
        """Validate against f, filling in the multiplicity."""
        mu = mult_at(f, self.point, prime=self.prime)
        if self.multiplicity is not None and self.multiplicity != mu:
            raise ValueError(
                f"declared multiplicity {self.multiplicity} but computed {mu}"
            )
        return CongruenceDatum(self.prime, self.point, mu)


def _in_class(pt: HeightPoint, lam: int, target, p: int) -> bool:
    """Does pt reduce at t = lam to the residue point target, up to F_q^x
    for projective points."""
    red = pt.reduce_at(lam)
    if not pt.projective:
        return tuple(c % p for c in red) == tuple(c % p for c in target)
    i = next((k for k, c in enumerate(red) if c), None)
    j = next((k for k, c in enumerate(target) if c), None)
    if i is None or i != j:
        return False
    s = pow(red[i], p - 2, p) * target[i] % p
    return all(c * s % p == d % p for c, d in zip(red, target))


def congruence_class(X: VarietySpec, b: int, data, budget=DEFAULT_BUDGET):
    """Bounded-height points of X whose reductions hit every datum."""
    pts = point_stream(X, b, budget=budget)
    p = X.base_field.p
    return [
        pt
        for pt in pts
        if all(_in_class(pt, dm.residue, dm.point, p) for dm in data)
    ]


def build_eval_matrix(points, basis: MonomialBasis) -> list:
    """One row of basis monomials (UniPoly entries) per point."""
    rows = []
    for pt in points:
        coords = pt.coords if isinstance(pt, HeightPoint) else tuple(pt)
        if len(coords) != basis.nvars:
            raise ValueError("point arity does not match the basis")
        rows.append(tuple(basis.evaluate_row(coords)))
    return rows


# ---------------------------------------------------------------------------
# p-adic divisibility of determinants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisibilityReport:
    exponent: float  # v_p of the gcd of s x s minors; inf when rank < s
    s: int
    rank: int
    pivots: tuple
    certified: int | None  # s(s-1)/2 for plane curves at smooth points
    main_term: float

    def to_json(self):
        return {
            "e": "inf" if self.exponent == inf else int(self.exponent),
            "s": self.s,
            "rank": self.rank,
            "pivot_valuations": list(self.pivots),
            "certified_lower_bound": self.certified,
            "main_term": self.main_term,
        }


def _toeplitz(w):
    """T[k, m] = w[k - m], lower triangular: x @ T.T is w * x mod t^len(w)."""
    lag = np.arange(len(w))[:, None] - np.arange(len(w))[None, :]
    return np.where(lag >= 0, w[np.maximum(lag, 0)], 0)


def _taylor_shift(lam: int, n: int, q: int, dtype):
    """S with (coeffs of e) @ S = coeffs of e(t + lam), for deg e < n: row k
    of S holds the coefficients of (t + lam)^k."""
    shift = np.zeros((n, n), dtype=dtype)
    shift[0, 0] = 1
    for k in range(1, n):
        shift[k, 1:] = shift[k - 1, :-1]
        shift[k] = (shift[k] + lam * shift[k - 1]) % q
    return shift


def _local_smith_valuations(rows, lam: int):
    """Pivot valuations of the matrix over the local ring at t - lam.

    After t -> t + lam the entries live in F_q[[t]]; every nonzero k x k
    minor has degree, hence valuation, below N = 1 + the sum of the rows'
    degrees, so F_q[[t]]/(t^N) decides them.  Each step pivots on an entry
    u t^v of least valuation and replaces every other row by
    u row - (a / t^v) row_piv, where a is the row's entry in the pivot
    column: a unit multiple of the Schur complement, known to v fewer terms.
    The running sum after k steps is v_p(gcd of k x k minors).
    """
    q = rows[0][0].field.p
    n = 1 + sum(max((e.deg for e in row if not e.is_zero()), default=0) for row in rows)
    # products of n residues must not overflow; Python ints otherwise
    dtype = np.int64 if n * (q - 1) ** 2 < 2**63 else object
    work = np.zeros((len(rows), len(rows[0]), n), dtype=dtype)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            work[i, j, : len(e.coeffs)] = e.coeffs
    work = work @ _taylor_shift(lam, n, q, dtype) % q
    pivots = []
    while work.shape[0] and work.shape[1]:
        nonzero = work != 0
        vals = np.where(nonzero.any(axis=2), nonzero.argmax(axis=2), n)
        pi, pj = np.unravel_index(np.argmin(vals), vals.shape)
        v = int(vals[pi, pj])
        if v == n:
            break
        pivots.append(v)
        n -= v
        rest_r = np.arange(work.shape[0]) != pi
        rest_c = np.arange(work.shape[1]) != pj
        piv_row = work[pi, rest_c, :n]
        rest = work[rest_r][:, rest_c, :n] @ _toeplitz(work[pi, pj, v:]).T % q
        # each row's pivot-column entry divided by t^v
        for r, a in enumerate(work[rest_r, pj, v:]):
            rest[r] -= piv_row @ _toeplitz(a).T % q
        work = rest % q
    return pivots


def divisibility_exponent(
    points,
    basis: MonomialBasis,
    prime: UniPoly,
    residue_point=None,
    multiplicity: int = 1,
) -> DivisibilityReport:
    """v_p of the gcd of all s x s minors of the evaluation matrix.

    s = number of points; must not exceed the basis size.  Rank deficiency
    over K gives exponent inf.  For plane curves (basis in 3 variables) at
    smooth residue points the triangular bound s(s-1)/2 is certified.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be a positive integer")
    s = len(points)
    if s == 0:
        raise ValueError("need at least one point")
    if s > len(basis):
        raise ValueError("more points than monomials: enlarge the basis")
    lam = prime_residue(prime)
    if residue_point is not None:
        p = prime.field.p
        if not all(_in_class(pt, lam, residue_point, p) for pt in points):
            raise ValueError("point lies outside the congruence class")
    pivots = _local_smith_valuations(build_eval_matrix(points, basis), lam)
    rank = len(pivots)
    n = basis.nvars - 2  # hypersurface dimension for projective bases
    certified = s * (s - 1) // 2 if n == 1 and multiplicity == 1 else None
    main = (
        (factorial(n) / multiplicity) ** (1.0 / n) * n / (n + 1) * s ** (1 + 1.0 / n)
        if n >= 1
        else 0.0
    )
    e = float(sum(pivots)) if rank == s else inf
    return DivisibilityReport(
        exponent=e,
        s=s,
        rank=rank,
        pivots=tuple(pivots),
        certified=certified,
        main_term=main,
    )


# ---------------------------------------------------------------------------
# fraction-free elimination over O_K
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the auxiliary polynomial search
# ---------------------------------------------------------------------------


@dataclass
class AuxPolyResult:
    g: MultiPoly
    M: int
    certificate: tuple  # points g provably vanishes on
    coprime: bool
    vacuous: bool
    rank: int
    kernel_dim: int
    details: dict = dc_field(default_factory=dict)

    def to_json(self, names=None):
        return {
            "g": self.g.to_str(names),
            "M": self.M,
            "points_captured": len(self.certificate),
            "coprime_to_f": self.coprime,
            "vacuous": self.vacuous,
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            **self.details,
        }


def _residue_powers(points, q, m_max):
    """pows[a, i, k, e] = (coordinate k of point i at t = a)^e mod q, for
    a < min(q, _CERT_RESIDUES) and e <= m_max."""
    vals = np.array(
        [
            [[c.eval_at(a) for c in coords] for coords in points]
            for a in range(min(q, _CERT_RESIDUES))
        ],
        dtype=np.int64,
    )
    pows = np.ones(vals.shape + (m_max + 1,), dtype=np.int64)
    for e in range(1, m_max + 1):
        pows[..., e] = pows[..., e - 1] * vals % q
    return pows


def _residue_rank(pows, basis, q):
    """The largest rank of the evaluation matrix mod t - a over the
    tabulated residues a: a lower bound for its rank over K, since a minor
    that is nonzero mod t - a is nonzero."""
    exps = np.array(basis.monomials)
    mats = np.ones(pows.shape[:2] + (len(basis),), dtype=np.int64)
    for k in range(basis.nvars):
        mats = mats * pows[:, :, k][..., exps[:, k]] % q
    return int(gauss_jordan(mats, len(basis), q).max())


def _search_kernel(points, d, nvars, ring, b, accept):
    """Incremental M from d: the first degree with an accepted kernel element.

    A degree is skipped as soon as the rank reaches |B[M]| - |B[M-d]|: the
    kernel can then no longer outgrow f * B[M-d].  The ranks mod t - a for
    a few residues a certify most skips without elimination over F_q[t].
    Otherwise each kernel vector, cleared to a primitive g, goes to
    accept(g, M, rank, kernel_dim, s_target), which returns the result or
    None to try the next one.
    """
    # rank never exceeds the number of points, so the search is
    # guaranteed to close once the restricted monomial count passes it
    m_max = max(2 * d + 6, d * (b + 2))
    while basis_size(m_max, nvars) - basis_size(m_max - d, nvars) <= len(points):
        m_max += 1
    q = ring.base.p
    if points:
        # the points come from point_stream, so q <= census.MAX_Q and the
        # products of two residues fit in int64
        pows = _residue_powers(points, q, m_max)
    for M in range(d, m_max + 1):
        basis = monomial_basis(M, nvars)
        target = len(basis) - basis_size(M - d, nvars)
        if points and _residue_rank(pows, basis, q) >= target:
            continue
        rref = _IncrementalRREF(len(basis), ring.base)
        for coords in points:
            rref.add(basis.evaluate_row(coords))
            if rref.rank >= target:
                break
        else:
            kernel = rref.kernel_basis()
            for vec in kernel:
                g = MultiPoly(ring, nvars, zip(basis.monomials, vec))
                res = accept(g, M, rref.rank, len(kernel), target)
                if res is not None:
                    return res
    raise DegreeBudgetError(
        f"degree budget exhausted at M = {m_max}: "
        "bug or unsatisfied hypothesis"
    )


def auxiliary_poly_projective(
    f: MultiPoly,
    b: int,
    data,
    budget=DEFAULT_BUDGET,
) -> AuxPolyResult:
    """Homogeneous g with f never dividing g, vanishing on the whole
    congruence class of X(b).

    The class is enumerated exactly over the working field; M grows from
    deg f until the evaluation matrix leaves enough kernel.
    """
    if not f.is_homogeneous():
        raise ValueError("projective construction needs a homogeneous f")
    ring = f.ring
    d = f.total_degree()
    if d < 1:
        raise ValueError("constant f")
    f = f.primitive_part()
    nvars = f.nvars
    for datum in data:
        if not any(c % ring.base.p for c in datum.point):
            raise ValueError("projective residue point cannot be all zero mod q")
    data = tuple(datum.resolved(f) for datum in data)
    X = VarietySpec("projective", default_names("projective", nvars - 1), (f,))
    pts = congruence_class(X, b, data, budget=budget)

    def accept(g, M, rank, kernel_dim, s_target):
        if f.divides(g):
            return None
        for pt in pts:
            if not g.evaluate(list(pt.coords)).is_zero():
                raise AssertionError("kernel element fails to vanish on the class")
        return AuxPolyResult(
            g=g,
            M=M,
            certificate=tuple(pts),
            coprime=True,
            vacuous=not pts,
            rank=rank,
            kernel_dim=kernel_dim,
            details={"s_target": s_target},
        )

    return _search_kernel([pt.coords for pt in pts], d, nvars, ring, b, accept)


def _constant_point_off(f: MultiPoly, rng):
    fld = f.ring.base
    n = f.nvars
    if fld.p ** n <= 4096:
        import itertools

        for consts in itertools.product(range(fld.p), repeat=n):
            vals = [UniPoly.const(fld, c) for c in consts]
            if not f.evaluate(vals).is_zero():
                return consts
    else:
        for _ in range(_OFF_POINT_TRIES):
            consts = tuple(rng.randrange(fld.p) for _ in range(n))
            vals = [UniPoly.const(fld, c) for c in consts]
            if not f.evaluate(vals).is_zero():
                return consts
    raise ValueError("no constant point off the variety over this field")


def _homogenize_with(f: MultiPoly, H: UniPoly) -> MultiPoly:
    """sum_i H^i f_i x_0^(d-i) in one more variable (index 0)."""
    ring = f.ring
    d = f.total_degree()
    n = f.nvars
    out = {}
    hp = {0: UniPoly.one(ring.base)}
    for e, c in f.terms.items():
        i = sum(e)
        if i not in hp:
            hp[i] = H**i
        ne = (d - i,) + e
        out[ne] = out.get(ne, UniPoly.zero(ring.base)) + c * hp[i]
    return MultiPoly(ring, n + 1, {e: c for e, c in out.items() if not c.is_zero()})


def auxiliary_poly_affine(
    f: MultiPoly,
    b: int,
    data,
    budget=DEFAULT_BUDGET,
    rng=None,
) -> AuxPolyResult:
    """Affine variant: shift until the constant term survives, homogenize
    against H = (t - lambda)^(b-1) with lambda off the roots of f_0 and off
    the congruence primes, run the projective search on the lifted points
    (H : a), then substitute x_0 = H back."""
    ring = f.ring
    fld = ring.base
    d = f.total_degree()
    if d < 1:
        raise ValueError("constant f")
    f = f.primitive_part()
    n = f.nvars
    rng = rng or random.Random(0)
    data = tuple(datum.resolved(f) for datum in data)

    shift = (0,) * n
    fw = f
    f0 = fw.constant_coeff()
    if f0.is_zero():
        shift = _constant_point_off(f, rng)
        fw = _shift(f, shift)
        f0 = fw.constant_coeff()
    data_w = tuple(
        CongruenceDatum(
            dm.prime,
            tuple((c - s) % fld.p for c, s in zip(dm.point, shift)),
            dm.multiplicity,
        )
        for dm in data
    )
    banned = {dm.residue for dm in data_w}
    lam = next(
        (
            x
            for x in range(fld.p)
            if x not in banned and f0.eval_at(x) != 0
        ),
        None,
    )
    if lam is None:
        raise ValueError("no residue avoids f_0 and the congruence primes")
    H = UniPoly(fld, [fld.neg(lam), 1]) ** (b - 1) if b > 1 else UniPoly.one(fld)

    F = _homogenize_with(fw, H)
    Xw = VarietySpec("affine", default_names("affine", n), (fw,))
    pts = congruence_class(Xw, b, data_w, budget=budget)
    lifted = [(H,) + pt.coords for pt in pts]

    certificate = tuple(
        HeightPoint(
            tuple(c + UniPoly.const(fld, s) for c, s in zip(pt.coords, shift)),
            projective=False,
        )
        for pt in pts
    )

    # the kernel element must stay coprime to f after x_0 -> H
    def accept(G, M, rank, kernel_dim, s_target):
        if F.divides(G):
            return None
        dropped = G.substitute_coeff(0, H)
        gw = MultiPoly(ring, n, {e[1:]: c for e, c in dropped.terms.items()})
        if fw.divides(gw):
            return None
        gw = gw.primitive_part()
        g = _shift(gw, tuple(fld.neg(c) for c in shift)) if any(shift) else gw
        if f.divides(g):
            return None
        for cp in certificate:
            if not g.evaluate(list(cp.coords)).is_zero():
                raise AssertionError("dehomogenized g fails to vanish on the class")
        return AuxPolyResult(
            g=g,
            M=M,
            certificate=certificate,
            coprime=True,
            vacuous=not pts,
            rank=rank,
            kernel_dim=kernel_dim,
            details={
                "H": str(H),
                "lambda": lam,
                "shift": list(shift),
                "s_target": s_target,
            },
        )

    return _search_kernel(lifted, d, n + 1, ring, b, accept)
