"""Exact counts of bounded-height points over F_q and dimension fitting.

The coefficient expansion of a variety at bound b is a plain system over
F_q; this module counts its solutions exactly.  Every path starts from
`_compile_system`, which compiles the equations for vectorized evaluation,
drops the zero constants and reports a nonzero constant, which leaves no
solutions.  Three paths:

* plain: breadth-first enumeration over the coefficient variables in a
  greedy order, pruning with every equation as soon as its support is
  complete.  Also the streaming path (actual points, open conditions,
  primitivity).  A system is homogeneous when every equation's monomials
  share one total degree, as every projective expansion's do; then its
  solutions are 0 and whole F_q^* lines, and the enumeration keeps one
  representative per orbit, the rows whose first nonzero value is 1, so
  the count is 1 + (q - 1) * representatives.
* blocks: when a set L of variables appears in every monomial with joint
  degree at most 1, the system is linear in L over the rest.  Split the
  rest into A (coupled to L) and B; each A-assignment (an A-fiber) gives
  a matrix M in L and pattern coefficients G.  The fibers are handled a
  batch at a time, each batch sized to about 1 MiB of working arrays, by
  one batched Gauss-Jordan mod q (`modq.gauss_jordan`) on the stacked
  [M | G].  The rows with a nonzero M-part give each fiber's rank; the
  rows below them are the canonical RREF of the constraint rows N G,
  where N spans the left null space of M.  A fiber of full rank puts no
  condition on B.  The condition on B is that its pattern vector satisfy
  those rows, so fibers are grouped by the bytes of the RREF and one matrix
  product against the precomputed pattern table settles each distinct
  RREF.  A fiber of rank r adds q^(|L| - r) solutions per satisfying
  B-point.  For a homogeneous system x -> lambda x maps the fiber over A
  onto the fiber over lambda A, so only the zero A and one A per orbit
  are eliminated, weighted 1 and q - 1.  When moreover every pattern has
  one total degree e, (L, B) -> (lambda^e L, lambda B) keeps each
  fiber's solutions, and the pattern table holds only the zero B and one
  B per orbit, with the same weights.
* projective counts run the affine core at every bound m <= b and peel
  content: a nonzero solution is uniquely a monic polynomial times a
  primitive one, and the system is homogeneous, so the primitive counts
  satisfy a clean recursion.  Orbit count = primitive count / (q-1).

Counts are exact integers; dimensions come from fitting log N against
log q across several primes and are flagged stable only when every prime
pair rounds to the same slope.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .modq import gauss_jordan
from .rings import uni_content
from .varieties import PROJECTIVE, VarietySpec, expand, variety_from_strs

DEFAULT_BUDGET = 10**9
PLAIN_CUTOFF = 200_000
# the enumeration stores residues as int16 and multiplies them in int32
MAX_Q = 32767
# bytes of working arrays per batch of A-fibers: [M | G] and the
# elimination's temporaries of the same size
_FIBER_BYTES = 1 << 20


def _check_q(q):
    if q > MAX_Q:
        raise ValueError(f"census needs q <= {MAX_Q}, got q = {q}")


class BudgetExceeded(RuntimeError):
    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@dataclass
class SearchStats:
    visits: int = 0
    path: str = ""
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0

    def tag(self, name: str):
        if name not in self.path.split("+"):
            self.path = f"{self.path}+{name}" if self.path else name


# ---------------------------------------------------------------------------
# compiled equations and vectorized evaluation
# ---------------------------------------------------------------------------


def _compile(eq) -> tuple:
    """MultiPoly over F_p -> (terms, support): terms are (c, ((var, exp), ...))."""
    terms = []
    for e, c in eq.terms.items():
        terms.append((int(c), tuple((i, k) for i, k in enumerate(e) if k)))
    support = frozenset(i for _, ve in terms for i, _ in ve)
    return terms, support


def _compile_system(equations, q):
    """The compiled nonconstant equations, or None when a nonzero constant
    equation leaves no solutions."""
    compiled = []
    for eq in equations:
        terms, support = _compile(eq)
        if support:
            compiled.append((terms, support))
        elif sum(c for c, _ in terms) % q:
            return None
    return compiled


def _eval_terms(terms, cols, q):
    """Evaluate a compiled term list on column vectors, mod q."""
    n = None
    for col in cols.values():
        n = len(col)
        break
    if n is None:
        n = 1
    # each term is below q, so int32 holds the sum while terms * (q - 1) < 2^31
    wide = len(terms) * (q - 1) >= 2**31
    acc = np.zeros(n, dtype=np.int64 if wide else np.int32)
    powers = {}
    for c, ve in terms:
        term = np.full(n, c, dtype=np.int32)
        for var, e in ve:
            key = (var, e)
            if key not in powers:
                p = cols[var].astype(np.int32)
                for _ in range(e - 1):
                    p = p * cols[var] % q
                powers[key] = p
            term = term * powers[key] % q
        acc += term
    return acc % q


def _greedy_order(compiled, pool):
    """Variable order that completes equation supports as early as possible."""
    remaining = set(pool)
    order = []
    supports = [set(s) & remaining for _, s in compiled]
    while remaining:
        missing = [(len(s - set(order)), i) for i, s in enumerate(supports)]
        live = [(m, i) for m, i in missing if m > 0]
        if not live:
            order.extend(sorted(remaining))
            break
        _, i = min(live)
        for v in sorted(supports[i] - set(order)):
            order.append(v)
            remaining.discard(v)
    return order


def _bfs_enumerate(compiled, pool, q, budget, stats, orbits=False):
    """All assignments of the pool satisfying the compiled (nonconstant)
    equations, whose supports lie in the pool.

    Returns (array rows x len(order), var -> column), rows in lexicographic
    order of the enumeration.  The pool's variables outside every support
    are enumerated last.  With orbits set (homogeneous equations only), a
    row is kept only while its first nonzero value in enumeration order is
    1: one representative per F_q^* orbit, and no zero row.
    """
    active = set().union(*(support for _, support in compiled))
    order = _greedy_order(compiled, active) + sorted(set(pool) - active)
    done_at = {
        i: max(order.index(v) for v in support)
        for i, (_, support) in enumerate(compiled)
    }
    arr = np.empty((1, 0), dtype=np.int16)
    seen = np.zeros(1, dtype=bool)  # orbits: the row has a nonzero value
    pos = {}
    base = np.arange(q, dtype=np.int16).reshape(-1, 1)
    for step, v in enumerate(order):
        rows = arr.shape[0]
        stats.visits += rows * q
        if stats.visits > budget:
            raise BudgetExceeded(
                f"enumeration budget exhausted at variable {step + 1}/{len(order)}",
                estimate=rows * q ** (len(order) - step),
            )
        arr = np.hstack([np.repeat(arr, q, axis=0), np.tile(base, (rows, 1))])
        if orbits:
            seen = np.repeat(seen, q)
            keep = seen | (arr[:, -1] <= 1)
            arr, seen = arr[keep], (seen | (arr[:, -1] != 0))[keep]
        pos[v] = step
        for i, (terms, _) in enumerate(compiled):
            if done_at.get(i) != step:
                continue
            zero = _eval_terms(terms, {u: arr[:, pos[u]] for u in pos}, q) == 0
            arr = arr[zero]
            if orbits:
                seen = seen[zero]
        if arr.shape[0] == 0:
            break
    if orbits:
        arr = arr[seen]
    return arr, pos


def _homogeneous(compiled):
    """True when every equation's monomials share one total degree, so the
    solutions are 0 and a union of F_q^* lines through it."""
    return all(
        len({sum(e for _, e in ve) for _, ve in terms}) == 1 for terms, _ in compiled
    )


def _rows(compiled, pool, q, budget, stats, orbits):
    """The solutions over the pool as (rows, var -> column, weights).  With
    orbits set (homogeneous systems only) the zero row and then one
    representative per F_q^* orbit, weighted 1 and q - 1; else every
    solution, weighted 1."""
    arr, pos = _bfs_enumerate(compiled, pool, q, budget, stats, orbits=orbits)
    if not orbits:
        return arr, pos, np.ones(arr.shape[0], dtype=np.int64)
    arr = np.vstack([np.zeros((1, arr.shape[1]), dtype=arr.dtype), arr])
    weight = np.full(arr.shape[0], q - 1, dtype=np.int64)
    weight[0] = 1
    return arr, pos, weight


# ---------------------------------------------------------------------------
# linear-block fast path
# ---------------------------------------------------------------------------


def _linear_block(compiled, active):
    """Largest variable set with joint degree <= 1 in every monomial."""
    block = set(active)
    while block:
        conflict = {}
        violated = False
        for terms, _ in compiled:
            for _, ve in terms:
                inside = [i for i, e in ve if i in block]
                weight = sum(e for i, e in ve if i in block)
                if weight >= 2:
                    violated = True
                    for i in inside:
                        conflict[i] = conflict.get(i, 0) + 1
        if not violated:
            return block
        worst = max(conflict.items(), key=lambda kv: (kv[1], kv[0]))[0]
        block.discard(worst)
    return block


def _block_count(compiled, block, q, budget, stats, homogeneous) -> int:
    """Count solutions by eliminating the linear block fiberwise; for a
    homogeneous system one A per F_q^* orbit, and one B per orbit when
    every pattern has one total degree (see the module docstring)."""
    active = set().union(*(s for _, s in compiled))
    a_vars = set()
    for terms, _ in compiled:
        for _, ve in terms:
            if any(i in block for i, _ in ve):
                a_vars |= {i for i, _ in ve if i not in block}
    b_vars = active - block - a_vars
    a_list, b_list, l_list = sorted(a_vars), sorted(b_vars), sorted(block)
    l_pos = {v: i for i, v in enumerate(l_list)}

    a_only, b_only, system = [], [], []
    for terms, support in compiled:
        if support <= a_vars:
            a_only.append((terms, support))
        elif support <= b_vars:
            b_only.append((terms, support))
        else:
            system.append((terms, support))

    # split every system row into  sum_l coeff_l(A) x_l + sum_pat gamma_pat(A) pat(B)
    patterns = {}
    m_polys = [dict() for _ in system]  # l index -> list of (c, A-part)
    g_polys = [dict() for _ in system]  # pattern index -> list of (c, A-part)
    for ei, (terms, _) in enumerate(system):
        for c, ve in terms:
            lpart = [(i, e) for i, e in ve if i in block]
            apart = tuple((i, e) for i, e in ve if i in a_vars)
            bpart = tuple((i, e) for i, e in ve if i in b_vars)
            if lpart:
                li = l_pos[lpart[0][0]]
                m_polys[ei].setdefault(li, []).append((c, apart))
            else:
                if bpart not in patterns:
                    patterns[bpart] = len(patterns)
                g_polys[ei].setdefault(patterns[bpart], []).append((c, apart))
    npat = len(patterns)
    ne = len(system)
    nl = len(l_list)
    b_orbits = homogeneous and len({sum(e for _, e in p) for p in patterns}) <= 1

    xb, bpos, wb = _rows(b_only, b_list, q, budget, stats, b_orbits)
    xa, apos, wa = _rows(a_only, a_list, q, budget, stats, homogeneous)
    na, nb = xa.shape[0], int(wb.sum())
    if na == 0 or (b_list and nb == 0):
        return 0
    stats.visits += na
    if stats.visits > budget:
        raise BudgetExceeded("fiber loop exceeds budget", estimate=na)

    # pattern table over the enumerated B-side, in float64 so that the
    # products below run through BLAS
    pmat = np.zeros((npat, xb.shape[0]), dtype=np.float64)
    bcols = {v: xb[:, bpos[v]] for v in bpos}
    for bpart, j in patterns.items():
        pmat[j] = _eval_terms([(1, bpart)], bcols, q)

    # per chunk of fibers, one RREF of [M | G]: the rows with a nonzero
    # M-part give the rank r, and the rows below them are the canonical
    # RREF of the constraint rows N G, which name the fiber's B-subspace
    chunk = max(1, _FIBER_BYTES // (16 * ne * (nl + npat)))
    ncons = {}  # RREF bytes -> weight of the B-points satisfying its rows
    null_fibers = 0
    total = 0
    for lo in range(0, na, chunk):
        acols = {v: xa[lo : lo + chunk, apos[v]] for v in apos}
        w = wa[lo : lo + chunk]
        aug = np.zeros((w.size, ne, nl + npat), dtype=np.int64)
        for ei in range(ne):
            for li, terms in m_polys[ei].items():
                aug[:, ei, li] = _eval_terms(terms, acols, q)
            for pj, terms in g_polys[ei].items():
                aug[:, ei, nl + pj] = _eval_terms(terms, acols, q)
        mg_rank = gauss_jordan(aug, nl + npat, q)
        rank = (aug[:, :, :nl] != 0).any(axis=2).sum(axis=1)
        # a fiber of full rank ne puts no condition on B
        sel = np.flatnonzero(rank < ne)
        if sel.size < w.size:
            total += q ** (nl - ne) * int(w[rank == ne].sum()) * nb
        if sel.size == 0:
            continue
        null_fibers += sel.size
        # keys: the nonzero constraint rows, two bytes per entry as q <= MAX_Q
        g = aug[sel, :, nl:].astype(np.uint16)
        groups = Counter()
        for r, k, rows, wt in zip(
            rank[sel].tolist(), mg_rank[sel].tolist(), g, w[sel].tolist()
        ):
            groups[r, k - r, bytes(rows[r:k])] += wt
        for (r, k, key), weight in groups.items():
            if key not in ncons:
                live = np.frombuffer(key, dtype=np.uint16).reshape(k, npat)
                z = live.astype(np.float64) @ pmat
                # z holds integers below npat * q**2 < 2**50, exact in
                # float64, so an entry is 0 mod q exactly when rounding z / q
                # and multiplying back gives it again
                back = np.rint(z * (1.0 / q)) * q
                ncons[key] = int(wb[(back == z).all(axis=0)].sum())
            total += q ** (nl - r) * weight * ncons[key]
    stats.cache_misses += len(ncons)
    stats.cache_hits += null_fibers - len(ncons)
    return total


# ---------------------------------------------------------------------------
# core affine count and projective content recursion
# ---------------------------------------------------------------------------


def _core_count(equations, nvars, q, budget, stats) -> int:
    compiled = _compile_system(equations, q)
    if compiled is None:
        return 0
    active = set().union(*(s for _, s in compiled))
    mult = q ** (nvars - len(active))
    if not compiled:
        return mult
    homogeneous = _homogeneous(compiled)
    if q ** len(active) > PLAIN_CUTOFF:
        block = _linear_block(compiled, active)
        if block:
            stats.tag("blocks")
            n = _block_count(compiled, block, q, budget, stats, homogeneous)
            return n * mult
    stats.tag("plain")
    _, _, weight = _rows(compiled, sorted(active), q, budget, stats, homogeneous)
    return int(weight.sum()) * mult


def _projective_counts(X: VarietySpec, b, q, budget, stats):
    """(orbit count, primitive count) via the content recursion."""
    pr = {}
    for m in range(1, b + 1):
        S = expand(X, m)
        full = _core_count(S.equations, S.nvars, q, budget, stats)
        if not full:
            # not even the zero vector: a nonzero constant equation
            return 0, 0
        prim = full - 1
        for k in range(1, m):
            prim -= q**k * pr[m - k]
        pr[m] = prim
    orbits, rem = divmod(pr[b], q - 1)
    if rem:
        raise AssertionError("primitive count not divisible by q-1")
    return orbits, pr[b]


@dataclass
class CountResult:
    count: int  # census count: orbit count for projective, raw for affine
    primitive: int | None
    q: int
    b: int
    stats: SearchStats

    def to_json(self):
        return {
            "q": self.q,
            "b": self.b,
            "count": self.count,
            "primitive": self.primitive,
            "visits": self.stats.visits,
            "path": self.stats.path,
            "cache": [self.stats.cache_hits, self.stats.cache_misses],
            "seconds": round(self.stats.seconds, 3),
        }


def count_points(X: VarietySpec, b: int, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Exact census count of the height-below-b locus of X over its field."""
    if b < 1:
        raise ValueError("b must be a positive integer")
    q = X.base_field.p
    _check_q(q)
    stats = SearchStats()
    t0 = time.monotonic()
    if X.inequations:
        pts = point_stream(X, b, budget=budget, stats=stats)
        if X.ambient == PROJECTIVE:
            res = CountResult(len(pts), len(pts) * (q - 1), q, b, stats)
        else:
            res = CountResult(len(pts), None, q, b, stats)
    elif X.ambient == PROJECTIVE:
        orbits, prim = _projective_counts(X, b, q, budget, stats)
        res = CountResult(orbits, prim, q, b, stats)
    else:
        S = expand(X, b)
        n = _core_count(S.equations, S.nvars, q, budget, stats)
        res = CountResult(n, None, q, b, stats)
    stats.seconds = time.monotonic() - t0
    return res


def point_stream(X: VarietySpec, b: int, budget: int = DEFAULT_BUDGET, stats=None):
    """Materialize the points themselves.  Meant for fixture-sized instances.

    For projective X the enumeration visits one representative per F_q^*
    orbit only; each is rescaled so that its first nonzero coefficient in
    flat variable order is 1, and only primitive points are kept.
    """
    q = X.base_field.p
    _check_q(q)
    if stats is None:
        stats = SearchStats()
    stats.tag("stream")
    S = expand(X, b)
    compiled = _compile_system(S.equations, q)
    if compiled is None:
        return []
    projective = X.ambient == PROJECTIVE
    arr, pos = _bfs_enumerate(
        compiled, range(S.nvars), q, budget, stats, orbits=projective
    )
    if arr.shape[0] == 0:
        return []
    cols = {v: arr[:, pos[v]] for v in range(S.nvars)}
    keep = np.ones(arr.shape[0], dtype=bool)
    for group in S.open_groups:
        any_nonzero = np.zeros(arr.shape[0], dtype=bool)
        for g in group:
            any_nonzero |= _eval_terms(_compile(g)[0], cols, q) != 0
        keep &= any_nonzero
    arr = arr[keep]
    # back to natural variable order
    perm = [pos[v] for v in range(S.nvars)]
    if projective and arr.shape[0]:
        flat = arr[:, perm]
        lead = flat[np.arange(arr.shape[0]), np.argmax(flat != 0, axis=1)]
        units, which = np.unique(lead, return_inverse=True)
        scale = np.array([pow(int(u), -1, q) for u in units], dtype=np.int32)
        arr = arr.astype(np.int32) * scale[which][:, None] % q
        # the enumeration's lexicographic order, over the rescaled rows
        arr = arr[np.lexsort(arr.T[::-1])]
    arr = arr[:, perm]
    points = []
    for row in arr.tolist():
        pt = S.to_point(row)
        if projective:
            g = uni_content(pt.coords)
            if g is None or g.deg != 0:
                continue
        points.append(pt)
    return points


# ---------------------------------------------------------------------------
# instances, reports, dimension fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """A q-generic variety: equation strings plus declared invariants."""

    name: str
    ambient: str
    names: tuple
    equations: tuple
    inequations: tuple = ()
    dim: int | None = None  # declared dimension m of the variety itself
    degree: int | None = None  # declared degree d
    note: str = ""

    def variety(self, q: int) -> VarietySpec:
        return variety_from_strs(
            self.ambient, self.names, self.equations, q, self.inequations
        )

    def dim_bound(self, b: int):
        return None if self.dim is None else self.dim * b

    def to_json(self):
        return {
            "name": self.name,
            "ambient": self.ambient,
            "names": list(self.names),
            "equations": list(self.equations),
            "inequations": list(self.inequations),
            "m": self.dim,
            "d": self.degree,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, obj) -> "InstanceSpec":
        return cls(
            name=obj.get("name", "instance"),
            ambient=obj["ambient"],
            names=tuple(obj["names"]),
            equations=tuple(obj["equations"]),
            inequations=tuple(obj.get("inequations", ())),
            dim=obj.get("m"),
            degree=obj.get("d"),
            note=obj.get("note", ""),
        )


def _fit_dimension(qs, counts):
    """Least-squares slope of log N against log q, with stability across pairs."""
    if any(n <= 0 for n in counts):
        return {"slope": None, "dim": None, "residual": None, "stable": False}
    xs = [math.log(q) for q in qs]
    ys = [math.log(n) for n in counts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    den = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den
    fitted = round(slope)
    pair_slopes = [
        (ys[j] - ys[i]) / (xs[j] - xs[i])
        for i in range(len(qs))
        for j in range(i + 1, len(qs))
    ]
    stable = all(round(s) == fitted for s in pair_slopes)
    residual = max(abs(s - slope) for s in pair_slopes)
    exact = None
    guesses = {round(math.log(n) / math.log(q)) for q, n in zip(qs, counts)}
    if len(guesses) == 1:
        k = guesses.pop()
        if all(n == q**k for q, n in zip(qs, counts)):
            exact = k
    return {
        "slope": slope,
        "dim": fitted,
        "residual": residual,
        "stable": stable,
        "exact_exponent": exact,
        "constants": [n / q**fitted for q, n in zip(qs, counts)],
    }


@dataclass
class CensusReport:
    instance: str
    b: int
    qs: tuple
    counts: tuple
    fit: dict
    bound: int | None
    conforms: bool | None
    results: tuple = ()

    def to_json(self):
        out = {
            "instance": self.instance,
            "b": self.b,
            "qs": list(self.qs),
            "counts": list(self.counts),
            "dim": self.fit.get("dim"),
            "slope": self.fit.get("slope"),
            "residual": self.fit.get("residual"),
            "stable": self.fit.get("stable"),
            "exact_exponent": self.fit.get("exact_exponent"),
            "constants": self.fit.get("constants"),
            "bound": self.bound,
            "conforms": self.conforms,
        }
        out["runs"] = [r.to_json() for r in self.results]
        return out


def dim_estimate(
    inst: InstanceSpec, b: int, qs, budget: int = DEFAULT_BUDGET
) -> CensusReport:
    """Counts across primes, slope fit, and the declared-bound verdict."""
    qs = tuple(sorted(qs))
    if len(set(qs)) != len(qs):
        raise ValueError(f"repeated primes in {qs}: each prime counts once")
    if len(qs) < 3:
        raise ValueError("need at least 3 distinct primes for a dimension fit")
    results = [count_points(inst.variety(q), b, budget) for q in qs]
    counts = tuple(r.count for r in results)
    fit = _fit_dimension(qs, counts)
    bound = inst.dim_bound(b)
    conforms = None
    if bound is not None and fit["dim"] is not None:
        conforms = fit["dim"] <= bound
    return CensusReport(
        instance=inst.name,
        b=b,
        qs=qs,
        counts=counts,
        fit=fit,
        bound=bound,
        conforms=conforms,
        results=tuple(results),
    )
