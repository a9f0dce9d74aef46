"""The four workloads: seeded job lists with a check for every output.

A job is one exact computation and its check.  `run` is timed; `digest`
reduces its output to a comparable value (later rounds must repeat the
first round's digest); `check` compares the first round's output with an
answer from `oracles` and returns None or a message.  Every call into
ffheight goes through a module attribute at call time, so the tracer's
wrappers see it.  The job list of a workload has the same length and the
same known-fault jobs for every seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracles as O

census = importlib.import_module("ffheight.census")
cli = importlib.import_module("ffheight.cli")
detmethod = importlib.import_module("ffheight.detmethod")
gb = importlib.import_module("ffheight.groebner")
lattices = importlib.import_module("ffheight.lattices")
multipoly = importlib.import_module("ffheight.multipoly")
parsing = importlib.import_module("ffheight.parsing")
rings = importlib.import_module("ffheight.rings")
suite = importlib.import_module("ffheight.suite")
varieties = importlib.import_module("ffheight.varieties")


@dataclass
class Job:
    name: str
    run: Callable[[dict], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], Any]
    known_fault: bool = False  # a fault the program is known to have


def _expect(got, want, what="count"):
    return None if got == want else f"{what} {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# census jobs
# ---------------------------------------------------------------------------


def count_job(name, ambient, names, eq, q, b, oracle, known_fault=False):
    X = varieties.variety_from_strs(ambient, names, (eq,), q)
    return Job(
        name,
        lambda ctx: census.count_points(X, b),
        lambda r: (r.count, r.primitive),
        lambda r: _expect(r.count, oracle()),
        known_fault,
    )


def dim_job(name, inst, b, qs, oracle, want_dim):
    def check(rep):
        for q, n in zip(rep.qs, rep.counts):
            msg = _expect(n, oracle(q), f"count at q={q}")
            if msg:
                return msg
        if not rep.fit["stable"]:
            return "unstable fit"
        return _expect(rep.fit["dim"], want_dim, "fitted dim")

    return Job(
        name,
        lambda ctx: census.dim_estimate(inst, b, qs),
        lambda rep: rep.counts,
        check,
    )


def _instance(name, ambient, names, eq, dim):
    return census.InstanceSpec(
        name=name, ambient=ambient, names=tuple(names), equations=(eq,), dim=dim
    )


def _monomial_curve(d, c):
    """y z^(d-1) = c x^d; y -> c y maps it onto c = 1 without changing heights."""
    lhs = "y*z" if d == 2 else f"y*z^{d - 1}"
    return f"{lhs} - {c}*x^{d}"


def census_fibers(seed):
    """Fiber-loop heavy counts: the linear-block path at b = 3, 4, 5.

    The seed scales one coefficient of every equation (x y = c z, y z^(d-1)
    = c x^d), which keeps every count and the shape of every computation,
    and orders the jobs; so every seed does the same amount of work."""
    rng = random.Random(f"census-fibers:{seed}")

    def c(q):
        return 1 + rng.randrange(q - 1)

    jobs = []
    for d in (2, 3):
        grid = [(b, q) for b in (4, 5) for q in (3, 5)]
        grid += [(b, q) for b in (2, 3) for q in (3, 5, 7)]
        for b, q in grid:
            jobs.append(count_job(
                f"proj d={d} b={b} q={q}", "projective", "xyz", _monomial_curve(d, c(q)),
                q, b, lambda d=d, b=b, q=q: O.monomial_curve_projective(d, b, q)))
        inst = _instance(f"proj d={d}", "projective", "xyz", _monomial_curve(d, 1), 1)
        jobs.append(dim_job(
            f"proj dim d={d} b=3", inst, 3, (3, 5, 7),
            lambda q, d=d: O.monomial_curve_projective(d, 3, q),
            2 * math.ceil(3 / d) - 1))
    graph = [(3, q) for q in (5, 7, 11)] + [(4, 5), (4, 7)]
    graph += [(2, q) for q in (3, 5, 7, 11, 17, 23, 31, 41, 47, 59, 67, 73, 83, 97, 103)]
    for b, q in graph:
        jobs.append(count_job(
            f"graph b={b} q={q}", "affine", "xyz", f"x*y - {c(q)}*z", q, b,
            lambda b=b, q=q: O.graph_surface(b, q)))
    graph_inst = _instance("graph", "affine", "xyz", "x*y - z", 2)
    for b, qs in ((2, (3, 5, 7)), (3, (5, 7, 11))):
        jobs.append(dim_job(
            f"graph dim b={b}", graph_inst, b, qs,
            lambda q, b=b: O.graph_surface(b, q), b + 1))
    rng.shuffle(jobs)
    return jobs


def _stream_check(X, eq_text, names, b, q):
    def check(points):
        expected = census.count_points(X, b).count
        if len(points) != expected:
            return f"streamed {len(points)} points, count_points says {expected}"
        terms = O.parse_terms(eq_text, names, q)
        seen = set()
        for pt in points:
            coords = tuple(tuple(c.coeffs) for c in pt.coords)
            if any(len(c) > b for c in coords):
                return f"point {coords} has height >= {b}"
            if O.evaluate(terms, coords, q):
                return f"point {coords} is not on {eq_text}"
            if X.ambient == "projective":
                g = ()
                for c in coords:
                    g = O.pgcd(g, c, q)
                if g != (1,):
                    return f"point {coords} is not primitive"
                lead = next(x for c in coords for x in (c + (0,) * (b - len(c))) if x)
                if lead != 1:
                    return f"point {coords} is not normalised"
            seen.add(coords)
        return _expect(len(seen), len(points), "distinct points")

    return check


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_digest(res):
    """Exit code and JSON output without the timings it reports."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "seconds"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    code, text = res
    return code, json.dumps([strip(json.loads(line)) for line in text.splitlines()])


def cli_count_job(d, c, b, qs):
    argv = ["census", "count", "--eq", f"y - {c}*x^{d}", "--b", str(b),
            "--q", ",".join(map(str, qs))]

    def check(res):
        code, text = res
        rows = [json.loads(line) for line in text.splitlines()]
        got = [(r["q"], r["count"]) for r in rows]
        want = [(q, O.monomial_curve_affine(d, b, q)) for q in qs]
        return _expect(code, 0, "exit code") or _expect(got, want, "counts")

    return Job(f"cli count d={d} b={b}", lambda ctx: _cli_run(argv), _cli_digest, check)


def cli_dim_job(d, c, b, qs):
    argv = ["census", "dim", "--eq", f"y - {c}*x^{d}", "--m", "1", "--b", str(b),
            "--q", ",".join(map(str, qs))]

    def check(res):
        code, text = res
        rep = json.loads(text.splitlines()[-1])
        want = [O.monomial_curve_affine(d, b, q) for q in qs]
        return (
            _expect(code, 0, "exit code")
            or _expect(rep["counts"], want, "counts")
            or _expect(rep["dim"], math.ceil(b / d), "fitted dim")
        )

    return Job(f"cli dim d={d} b={b}", lambda ctx: _cli_run(argv), _cli_digest, check)


# b = 1 censuses over primes above 32767, where the enumeration's int16
# values wrap: the counts are wrong on every run, whatever the seed
LARGE_PRIME_CENSUSES = ((2, 4, 32771), (3, 8, 40009))


def _stratified_hypersurfaces(seed, per_stratum):
    """suite.random_hypersurfaces, the same number of each (variables,
    degree, b) kind for every seed, so the seed moves the work little."""
    rng = random.Random(seed)
    strata = {}
    while len(strata) < 9 or min(map(len, strata.values())) < per_stratum:
        for inst, b in suite.random_hypersurfaces(rng, 50):
            kind = strata.setdefault((len(inst.names), inst.degree, b), [])
            if len(kind) < per_stratum:
                kind.append((inst, b))
    return [pair for key in sorted(strata) for pair in strata[key]]


def census_small(seed):
    """Hundreds of sub-10 ms jobs: expansion, BFS and per-call overhead.

    The seed draws the random hypersurfaces, scales y = c x^d (y -> c y
    keeps every count) and orders the jobs."""
    rng = random.Random(f"census-small:{seed}")
    jobs = []
    grid = [(d, b, q) for d in (2, 3) for b in range(1, 7) for q in (3, 5, 7)]
    grid += [(4, b, q) for b in (1, 2, 3) for q in (3, 5, 7)] + [(4, 4, 3), (4, 5, 3)]
    for d, b, q in grid:
        jobs.append(count_job(
            f"y=x^{d} b={b} q={q}", "affine", "xy", f"y - {1 + rng.randrange(q - 1)}*x^{d}",
            q, b, lambda d=d, b=b, q=q: O.monomial_curve_affine(d, b, q)))
    for inst, b in _stratified_hypersurfaces(seed, 8):
        n = len(inst.names)
        for q in (3, 5):
            jobs.append(count_job(
                f"{inst.name} {inst.equations[0]} q={q}", "affine", inst.names,
                inst.equations[0], q, b,
                lambda inst=inst, n=n, b=b, q=q: O.brute_count_affine(
                    O.parse_terms(inst.equations[0], inst.names, q), n, b, q)))
    for inst in suite.curve_instances():
        for b in (1, 2):
            for q in (3, 5):
                X = inst.variety(q)
                jobs.append(Job(
                    f"stream {inst.name} b={b} q={q}",
                    lambda ctx, X=X, b=b: census.point_stream(X, b),
                    lambda pts: tuple(sorted(
                        tuple(tuple(c.coeffs) for c in pt.coords) for pt in pts)),
                    _stream_check(X, inst.equations[0], inst.names, b, q)))
    # c is a unit mod 3, 5 and 7
    for d, b in ((2, 3), (2, 4), (3, 2), (3, 4)):
        jobs.append(cli_count_job(d, rng.choice((1, 2, 4, 8)), b, (3, 5, 7)))
    for d, b in ((2, 4), (3, 3)):
        jobs.append(cli_dim_job(d, rng.choice((1, 2, 4, 8)), b, (3, 5, 7)))
    for d, c, q in LARGE_PRIME_CENSUSES:
        jobs.append(count_job(
            f"x^{d}-{c} b=1 q={q}", "affine", ("x",), f"x^{d} - {c}", q, 1,
            lambda d=d, c=c, q=q: O.root_count(d, c, q), known_fault=True))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Groebner jobs
# ---------------------------------------------------------------------------

AFFINE_IDEALS = (
    ("parabola", "y - x^2", 3, (5, 7, 11)),
    ("parabola", "y - x^2", 4, (5, 7)),
    ("circle", "x^2 + y^2 - 1", 3, (5, 7, 11)),
    ("cubic", "y - x^3", 3, (5, 7)),
    ("hyperbola", "x*y - 1", 3, (5, 11)),
    ("elliptic", "y^2 - x^3 - x", 3, (5,)),
)
CONE = "t*x^2 - y*z"
# primes for the census fit that the Krull dimension must equal; all are
# 3 mod 4, where the circle has q + 1 points and y^2 = x^3 + x has q, so
# every pair of primes rounds to the same slope
FIT_PRIMES = (7, 11, 19, 23)


def _poly_key(g):
    return tuple(sorted((e, int(c)) for e, c in g.terms.items()))


class _SympyIdeal:
    """sympy's reduced basis of the independently expanded ideal, made once
    per ideal and shared by the checks of its jobs."""

    def __init__(self, eq, names, b, q):
        self.args = (eq, names, b, q)
        self._basis = None

    def basis(self):
        if self._basis is None:
            eq, names, b, q = self.args
            gens, self.syms = O.expanded_generators(eq, names, b, q)
            self._basis = O.sympy_basis(gens, self.syms, q)
        return self._basis

    def contains(self, terms):
        G = self.basis()
        return bool(G.contains(O.to_sympy(terms, self.syms)))


def _census_fit(names, eq, b):
    inst = _instance(eq, "affine", names, eq, None)
    rep = census.dim_estimate(inst, b, FIT_PRIMES)
    return rep.fit["dim"] if rep.fit["stable"] else "unstable"


def _member_polys(rng, S, q, count=3):
    """[(poly, known truth or None)]: x0 g0 + c g1, which lies in the ideal,
    and c1 x0^2 + c2 x0 x1 + c3 x_last, decided later by sympy, `count` of
    each.  The seed picks only the coefficients, so the work does not
    depend on it."""
    n, fld = S.nvars, S.field
    g0, g1 = S.equations[0], S.equations[-1]

    def term(c, *idx):
        e = [0] * n
        for i in idx:
            e[i] += 1
        return multipoly.MultiPoly(fld, n, {tuple(e): c})

    def unit():
        return 1 + rng.randrange(q - 1)

    out = []
    for _ in range(count):
        out.append((term(unit(), 0) * g0 + term(unit()) * g1, True))
        out.append((term(unit(), 0, 0) + term(unit(), 0, 1) + term(unit(), n - 1), None))
    return out


def _basis_job(name, S, ideal):
    eqs = list(S.equations)

    def check(G):
        got = O.canonical([g.terms for g in G.gens], S.field.p)
        G_s = ideal.basis()
        want = O.canonical(
            [O.sympy_terms(e, ideal.syms, S.field.p) for e in G_s.exprs], S.field.p)
        return None if got == want else (
            f"basis of {len(G.gens)} gens differs from sympy's {len(G_s.exprs)}")

    return Job(
        name,
        lambda ctx: gb.groebner(eqs, nvars=S.nvars, field=S.field),
        lambda G: tuple(_poly_key(g) for g in G.gens),
        check,
    )


def _member_job(name, basis_name, polys, ideal):
    """ideal_member for a batch of (poly, known truth or None)."""

    def check(res):
        for (poly, truth), (member, _) in zip(polys, res):
            want = ideal.contains({e: int(c) for e, c in poly.terms.items()})
            if truth is not None and truth != want:
                return f"sympy says {want}, construction says {truth}"
            if member != want:
                return f"membership {member}, expected {want} for {poly}"
        return None

    return Job(
        name,
        lambda ctx: [gb.ideal_member(p, ctx[basis_name]) for p, _ in polys],
        lambda res: tuple((m, _poly_key(nf)) for m, nf in res),
        check,
    )


def groebner_workload(seed):
    """Reduced grevlex bases, Krull dimension and membership on expanded
    coefficient ideals of 3-8 variables.  No census runs in the timed jobs."""
    rng = random.Random(f"groebner:{seed}")
    fits = {}

    def fit(eq, b):
        if (eq, b) not in fits:
            fits[(eq, b)] = _census_fit("xy", eq, b)
        return fits[(eq, b)]

    bases, followers = [], []
    for label, eq, b, qs in AFFINE_IDEALS:
        for q in qs:
            S = varieties.expand(varieties.variety_from_strs("affine", "xy", (eq,), q), b)
            ideal = _SympyIdeal(eq, "xy", b, q)
            name = f"basis {label} b={b} q={q}"
            bases.append(_basis_job(name, S, ideal))
            followers.append(Job(
                f"krull {label} b={b} q={q}",
                lambda ctx, name=name: gb.krull_dimension(ctx[name]),
                lambda k: k,
                lambda k, key=(eq, b): _expect(
                    k, fit(*key), "Krull dimension vs census fit")))
            followers.append(_member_job(
                f"member {label} b={b} q={q}", name, _member_polys(rng, S, q), ideal))
    for b in (1, 2):
        for q in (5, 7, 11):
            S = varieties.expand(
                varieties.variety_from_strs("projective", "xyz", (CONE,), q), b)
            ideal = _SympyIdeal(CONE, "xyz", b, q)
            name = f"basis cone b={b} q={q}"
            bases.append(_basis_job(name, S, ideal))
            top = [0] * S.nvars
            top[b - 1] = 1  # x_(b-1), the top coefficient of x
            lin = multipoly.MultiPoly(S.field, S.nvars, {tuple(top): 1})
            polys = [(lin * lin, True), (lin, False)] + _member_polys(rng, S, q, 2)
            followers.append(_member_job(f"member cone b={b} q={q}", name, polys, ideal))
    rng.shuffle(bases)
    rng.shuffle(followers)
    return bases + followers


# ---------------------------------------------------------------------------
# F_q(t) linear algebra jobs
# ---------------------------------------------------------------------------

PROJECTIVE_CURVES = ("x^2 - y*z", "x^3 - y^2*z", "x^3 + y^3 + z^3", "t*x^2 - y*z",
                     "x^2 + x*y - z^2", "x^3 - x*y*z + z^3")
AFFINE_CURVES = ("y - x^2", "y - x^3", "x*y - 1", "x^2 + y^2 - 1",
                 "y^2 - x^3 - x", "t*y - x^2", "x^2 - y^2 - 1")
# (q, projective curves, affine curves) with full classes at b = 2; the
# cone at q = 11 and 13 (22 and 26 points, 2.3 s and 5.5 s) is left out
AUX_PLAN = (
    (7, PROJECTIVE_CURVES, AFFINE_CURVES),
    (11, ("x^2 - y*z", "x^3 - y^2*z", "x^3 + y^3 + z^3", "x^2 + x*y - z^2",
          "x^3 - x*y*z + z^3"), ("y - x^3", "x*y - 1", "y^2 - x^3 - x", "x^2 - y^2 - 1")),
    (13, ("x^3 - y^2*z", "x^3 + y^3 + z^3", "x^3 - x*y*z + z^3"),
     ("y - x^3", "x^2 - y^2 - 1")),
)


def _partials_nonzero(terms, point, q):
    """Is some partial derivative of a constant-coefficient form nonzero at point."""
    for i in range(len(point)):
        acc = 0
        for exps, c in terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                v = c * exps[i]
                for j, k in enumerate(e):
                    v = v * pow(point[j], k, q) % q
                acc += v
        if acc % q:
            return True
    return False


def _smooth_residue_point(terms, lam, q, rng):
    """A random smooth F_q-point (x : y : 1) of f reduced at t = lam."""
    reduced = {}
    for exps, c in terms.items():
        v = O.peval(c, lam, q)
        if v:
            reduced[exps] = (reduced.get(exps, 0) + v) % q
    cands = []
    for x in range(q):
        for y in range(q):
            pt = (x, y, 1)
            val = sum(c * math.prod(pow(a, e, q) for a, e in zip(pt, exps))
                      for exps, c in reduced.items()) % q
            if val == 0 and _partials_nonzero(reduced, pt, q):
                cands.append(pt)
    return rng.choice(cands) if cands else None


def _in_class(coords, datum_lam, datum_pt, q, projective):
    red = tuple(O.peval(c, datum_lam, q) for c in coords)
    if projective:
        return O.proportional([(r,) if r else () for r in red],
                              [(p % q,) if p % q else () for p in datum_pt], q)
    return red == tuple(p % q for p in datum_pt)


def aux_job(name, eq, names, q, data_spec, affine, rng_seed):
    fld = rings.PrimeField(q)
    ring = rings.PolyRing(fld)
    f = parsing.parse_poly(eq, names, ring)
    data = [detmethod.CongruenceDatum(rings.UniPoly(fld, [-lam % q, 1]), pt)
            for lam, pt in data_spec]

    if affine:
        def run(ctx):
            return detmethod.auxiliary_poly_affine(
                f, 2, data, rng=random.Random(rng_seed))
    else:
        def run(ctx):
            return detmethod.auxiliary_poly_projective(f, 2, data)

    def check(res):
        f_terms = O.parse_terms(eq, names, q)
        g_terms = O.multipoly_terms(res.g)
        if not g_terms:
            return "g is zero"
        seen = set()
        for pt in res.certificate:
            coords = tuple(tuple(c.coeffs) for c in pt.coords)
            if O.evaluate(f_terms, coords, q):
                return f"class point {coords} is not on f"
            for lam, dpt in data_spec:
                if not _in_class(coords, lam, dpt, q, not affine):
                    return f"class point {coords} is outside the class at t={lam}"
            if O.evaluate(g_terms, coords, q):
                return f"g does not vanish at {coords}"
            seen.add(coords)
        if len(seen) != len(res.certificate):
            return "repeated class points"
        if O.divides_over_fqt(f_terms, g_terms, q):
            return "f divides g"
        return None

    return Job(name, run, lambda res: (res.g.to_str(), res.M, len(res.certificate)),
               check)


DIVISIBILITY_POINTS = 5


def _divisibility_inputs(rng, d, q):
    """Points of one congruence class on a plane curve, made by hand.

    The curve is y z^(d-1) = x^d moved by a random constant linear map A;
    its points are A (u s^(d-1), u^d, s^d) with u = u0 + a (t - lam) and
    s = s0 + c (t - lam), coprime, so every point reduces to the smooth
    residue point A (u0 s0^(d-1), u0^d, s0^d) at t = lam.
    """
    while True:
        A = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
        if O.det([[(a,) if a else () for a in row] for row in A], q):
            break
    lam = rng.randrange(q)
    u0, s0 = 1 + rng.randrange(q - 1), 1 + rng.randrange(q - 1)
    lin = (-lam % q, 1)
    pairs = [(a, c) for a in range(q) for c in range(q)]
    rng.shuffle(pairs)
    points = []
    for a, c in pairs:
        u = O.padd((u0,), O.pmul((a,), lin, q), q)
        s = O.padd((s0,), O.pmul((c,), lin, q), q)
        if O.pgcd(u, s, q) != (1,):
            continue
        base = (O.pmul(u, O.ppow(s, d - 1, q), q), O.ppow(u, d, q), O.ppow(s, d, q))
        points.append(tuple(
            O.trim([sum(A[i][j] * (base[j] + (0,) * 8)[k] for j in range(3))
                    for k in range(8)], q)
            for i in range(3)))
        if len(points) == DIVISIBILITY_POINTS:
            break
    res0 = (u0 * pow(s0, d - 1, q) % q, pow(u0, d, q), pow(s0, d, q))
    residue = tuple(sum(A[i][j] * res0[j] for j in range(3)) % q for i in range(3))
    return lam, points, residue


def divisibility_job(name, rng, d, q):
    lam, pts, residue = _divisibility_inputs(rng, d, q)
    fld = rings.PrimeField(q)
    points = [varieties.HeightPoint(tuple(rings.UniPoly(fld, c) for c in p), True)
              for p in pts]
    basis = detmethod.monomial_basis(d + 2, 3)
    prime = rings.UniPoly(fld, [-lam % q, 1])
    s = len(points)

    def check(rep):
        if rep.exponent < s * (s - 1) // 2:
            return f"v_p = {rep.exponent} < s(s-1)/2 = {s * (s - 1) // 2}"
        return None

    return Job(
        name,
        lambda ctx: detmethod.divisibility_exponent(points, basis, prime,
                                                    residue_point=residue),
        lambda rep: (rep.exponent, rep.rank, rep.pivots),
        check,
    )


def _random_matrix(rng, q, m, n):
    """Full-rank m x n matrix whose entry (i, j) has degree (i + j) % 4: the
    seed picks the coefficients, the shape of the work stays the same."""
    while True:
        rows = [[tuple(rng.randrange(q) for _ in range((i + j) % 4))
                 + (1 + rng.randrange(q - 1),) for j in range(n)] for i in range(m)]
        if any(O.maximal_minors(rows, q)):
            return rows


def lattice_jobs(rng, q, m, n):
    fld = rings.PrimeField(q)
    rows = _random_matrix(rng, q, m, n)
    mat = [[rings.UniPoly(fld, c) for c in r] for r in rows]
    h, gdeg = O.plucker_height_and_gcd(rows, q)
    tag = f"{m}x{n} q={q}"

    def as_rows(rb):
        return [[tuple(e.coeffs) for e in v] for v in rb.vectors]

    def check_reduce(rb):
        vecs = as_rows(rb)
        if sum(rb.minima) != h + gdeg:
            return f"minima sum {sum(rb.minima)} != height {h} + gcd degree {gdeg}"
        heights = [max(O.pdeg(e) for e in v if e) for v in vecs]
        if list(rb.minima) != heights:
            return "minima are not the row heights"
        if not O.proportional(O.maximal_minors(vecs, q), O.maximal_minors(rows, q), q):
            return "reduced basis spans another lattice"
        return None

    def check_kernel(kb):
        vecs = as_rows(kb)
        if len(vecs) != n - m:
            return f"kernel rank {len(vecs)}, expected {n - m}"
        for v in vecs:
            for r in rows:
                acc = ()
                for a, x in zip(r, v):
                    acc = O.padd(acc, O.pmul(a, x, q), q)
                if acc:
                    return "kernel vector not in the kernel"
        _, kg = O.plucker_height_and_gcd(vecs, q)
        if kg:
            return "kernel basis is not saturated"
        return _expect(sum(kb.minima), h, "kernel minima sum vs Plucker height")

    def key(rb):
        return (rb.minima, tuple(tuple(tuple(e.coeffs) for e in v) for v in rb.vectors))

    return [
        Job(f"reduce {tag}", lambda ctx: lattices.reduce_basis(mat), key, check_reduce),
        Job(f"kernel {tag}", lambda ctx: lattices.kernel_lattice(mat), key, check_kernel),
    ]


def okt_linalg(seed):
    """Auxiliary polynomials, divisibility exponents and lattices over F_q[t]."""
    rng = random.Random(f"okt-linalg:{seed}")
    jobs = []
    for q, proj, aff in AUX_PLAN:
        for eq in proj:
            jobs.append(aux_job(f"aux proj {eq} q={q}", eq, "xyz", q, (), False, 0))
        for eq in aff:
            jobs.append(aux_job(f"aux aff {eq} q={q}", eq, "xy", q, (), True,
                                rng.randrange(10**6)))
    for eq in PROJECTIVE_CURVES:
        q = 7
        terms = O.multipoly_terms(
            parsing.parse_poly(eq, "xyz", rings.PolyRing(rings.PrimeField(q))))
        while True:
            lam = rng.randrange(q)
            pt = _smooth_residue_point(terms, lam, q, rng)
            if pt is not None:
                break
        jobs.append(aux_job(f"aux proj {eq} q={q} class t={lam} {pt}", eq, "xyz", q,
                            ((lam, pt),), False, 0))
    # four classes for each degree and prime, so every seed costs the same
    for d in (2, 3):
        for q in (5, 7):
            for i in range(4):
                jobs.append(divisibility_job(f"divisibility d={d} q={q} #{i}", rng, d, q))
    for q in (5, 7, 11):
        for m, n in ((2, 3), (2, 4), (3, 4), (3, 5)):
            jobs += lattice_jobs(rng, q, m, n)
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "census-fibers": census_fibers,
    "census-small": census_small,
    "groebner": groebner_workload,
    "okt-linalg": okt_linalg,
}
