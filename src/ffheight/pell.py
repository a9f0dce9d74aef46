"""Pell equations x^2 - beta*y^2 = gamma over F_q[t].

beta must have even degree with square leading coefficient, so sqrt(beta)
lives in the Laurent field F_q((1/t)); its continued fraction is periodic
and yields the fundamental unit.  Bounded-height solution sets are produced
by coefficient enumeration (the completeness authority) and cross-checked
against the unit orbit of the found solutions.

Odd characteristic only: completing squares and the sqrt recurrence both
divide by 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import point_stream
from .multipoly import MultiPoly
from .rings import PolyRing, PrimeField, UniPoly, is_prime
from .varieties import VarietySpec


class LaurentSeries:
    """Truncated series in descending powers of t.

    coeffs[i] is the coefficient of t^(lead - i); everything below the
    truncation exponent is unknown, not zero.
    """

    __slots__ = ("field", "lead", "coeffs")

    def __init__(self, field, lead: int, coeffs):
        coeffs = [c % field.p for c in coeffs]
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
            lead -= 1
        self.field = field
        self.lead = lead
        self.coeffs = coeffs

    @property
    def precision(self) -> int:
        """Lowest exponent whose coefficient is known."""
        return self.lead - len(self.coeffs) + 1

    @classmethod
    def from_poly(cls, f: UniPoly, floor: int):
        co = list(reversed(f.coeffs)) if not f.is_zero() else []
        lead = f.deg if not f.is_zero() else floor
        co = co + [0] * (lead - floor + 1 - len(co))
        return cls(f.field, int(lead) if co else floor, co)

    def coeff(self, exp: int) -> int:
        if exp > self.lead:
            return 0
        if exp < self.precision:
            raise ValueError("coefficient below truncation")
        return self.coeffs[self.lead - exp]

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return LaurentSeries(self.field, 0, [])
        q = self.field.p
        prec = max(
            self.precision + other.lead, other.precision + self.lead
        )
        lead = self.lead + other.lead
        out = [0] * (lead - prec + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                e = lead - i - j
                if e < prec:
                    break
                out[lead - e] = (out[lead - e] + a * b) % q
        return LaurentSeries(self.field, lead, out)

    def __sub__(self, other):
        q = self.field.p
        lead = max(self.lead, other.lead)
        prec = max(self.precision, other.precision)
        out = []
        for e in range(lead, prec - 1, -1):
            a = self.coeff(e) if self.precision <= e <= self.lead else 0
            b = other.coeff(e) if other.precision <= e <= other.lead else 0
            out.append((a - b) % q)
        return LaurentSeries(self.field, lead, out)

    def vanishes(self) -> bool:
        """All known coefficients zero."""
        return all(c == 0 for c in self.coeffs)

    def poly_part(self) -> UniPoly:
        co = [self.coeff(e) for e in range(0, self.lead + 1)] if self.lead >= 0 else []
        return UniPoly(self.field, co)

    def __str__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if c:
                bits.append(f"{c}*t^{self.lead - i}")
        return " + ".join(bits) if bits else "0"


def sqrt_series(beta: UniPoly, nterms: int) -> LaurentSeries:
    """Series s with s^2 = beta, to nterms coefficients.

    Needs even degree, a square leading coefficient, and odd characteristic;
    the classic coefficient recurrence 2*c0*cn = beta_(2k-n) - sum ci*cj.
    """
    fld = beta.field
    if fld.p == 2:
        raise ValueError("characteristic 2 not supported")
    if beta.is_zero() or beta.deg % 2:
        raise ValueError("no square root at infinity: degree must be even")
    c0 = fld.sqrt(beta.lc)
    if c0 is None:
        raise ValueError("no square root at infinity: leading coefficient")
    k = beta.deg // 2
    inv2c0 = fld.inv(2 * c0 % fld.p)
    cs = [c0]
    for n in range(1, nterms):
        acc = beta.coeff(2 * k - n)
        for i in range(1, n):
            acc -= cs[i] * cs[n - i]
        cs.append(acc * inv2c0 % fld.p)
    return LaurentSeries(fld, k, cs)


def _poly_part_of_quotient(p: UniPoly, s: LaurentSeries, q: UniPoly) -> UniPoly:
    """Polynomial part of (p + s)/q, all arithmetic exact down to t^0."""
    fld = p.field
    top = max(p.deg if not p.is_zero() else s.lead, s.lead)
    num = {}
    for e in range(s.precision, top + 1):
        c = s.coeff(e) if e <= s.lead else 0
        if not p.is_zero() and 0 <= e <= p.deg:
            c = (c + p.coeff(e)) % fld.p
        if c:
            num[e] = c
    dq = q.deg
    lcq_inv = fld.inv(q.lc)
    out = {}
    for e in range(int(top - dq), -1, -1):
        c = num.get(e + dq, 0)
        if c == 0:
            continue
        c = c * lcq_inv % fld.p
        out[e] = c
        for j, qc in enumerate(q.coeffs):
            if qc:
                ix = e + j
                num[ix] = (num.get(ix, 0) - c * qc) % fld.p
    width = max(out) + 1 if out else 0
    co = [out.get(i, 0) for i in range(width)]
    return UniPoly(fld, co)


@dataclass(frozen=True)
class PellInstance:
    beta: UniPoly
    gamma: UniPoly

    def __post_init__(self):
        fld = self.beta.field
        if fld.p == 2:
            raise ValueError("odd characteristic required")
        if self.gamma.is_zero():
            raise ValueError("gamma must be nonzero")
        if self.beta.is_zero() or self.beta.deg % 2:
            raise ValueError("beta needs even degree")
        if fld.sqrt(self.beta.lc) is None:
            raise ValueError("beta needs a square leading coefficient")
        if _poly_sqrt(self.beta) is not None:
            raise ValueError("beta is a perfect square")

    @property
    def field(self) -> PrimeField:
        return self.beta.field

    def norm(self, x: UniPoly, y: UniPoly) -> UniPoly:
        return x * x - self.beta * y * y

    def is_solution(self, x: UniPoly, y: UniPoly) -> bool:
        return self.norm(x, y) == self.gamma


def _poly_sqrt(f: UniPoly):
    """Exact square root in F_q[t], or None."""
    if f.is_zero():
        return UniPoly.zero(f.field)
    if f.deg % 2:
        return None
    fld = f.field
    c0 = fld.sqrt(f.lc)
    if c0 is None:
        return None
    s = sqrt_series(f, f.deg + 1)
    if s.precision > 0:
        return None
    cand = s.poly_part()
    return cand if cand * cand == f else None


CF_GUARD = 20_000


def continued_fraction_unit(beta: UniPoly):
    """(u, v) with u^2 - beta*v^2 a nonzero constant, v != 0, minimal deg u.

    Standard quadratic-surd recurrence for sqrt(beta): the convergents of
    the continued fraction hit the fundamental unit at the end of the first
    quasi-period.
    """
    fld = beta.field
    inst_check = PellInstance(beta, UniPoly.one(fld))  # validates beta
    s = sqrt_series(beta, 3 * beta.deg + 12)
    zero, one = UniPoly.zero(fld), UniPoly.one(fld)
    P, Q = zero, one
    p_prev, p_prev2 = one, zero
    q_prev, q_prev2 = zero, one
    for _ in range(CF_GUARD):
        a = _poly_part_of_quotient(P, s, Q)
        p_cur = a * p_prev + p_prev2
        q_cur = a * q_prev + q_prev2
        if not q_cur.is_zero():
            n = p_cur * p_cur - beta * q_cur * q_cur
            if n.deg == 0:
                return p_cur, q_cur
        P = a * Q - P
        Q = (beta - P * P).divexact(Q)
        p_prev2, p_prev = p_prev, p_cur
        q_prev2, q_prev = q_prev, q_cur
    raise RuntimeError("continued fraction did not close within the guard")


def _norm_one_unit(beta: UniPoly, unit):
    """w = (u + v*sqrt(beta))^2 / (u^2 - beta v^2) for the fundamental unit
    (u, v): multiplying by w preserves every norm value exactly."""
    u, v = unit
    eps = (u * u - beta * v * v).coeff(0)
    inv = u.field.inv(eps)
    big_u = (u * u + beta * v * v).scale(inv)
    big_v = (u * v + u * v).scale(inv)
    return big_u, big_v


def _mul_pair(beta, a, b):
    """(a0 + a1 s)(b0 + b1 s) in F_q[t][s]/(s^2 - beta)."""
    return (a[0] * b[0] + beta * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def unit_orbit(inst: PellInstance, seed, b: int, guard: int = 400, w=None):
    """All sign variants of seed * w^k with height <= b."""
    beta = inst.beta
    if w is None:
        w = _norm_one_unit(beta, continued_fraction_unit(beta))
    wbar = (w[0], -w[1])
    found = set()

    def push(x, y):
        for sx in (x, -x):
            for sy in (y, -y):
                found.add((sx, sy))

    for step_unit in (w, wbar):
        cur = seed
        for _ in range(guard):
            h = max(
                cur[0].deg if not cur[0].is_zero() else 0,
                cur[1].deg if not cur[1].is_zero() else 0,
            )
            if h > b:
                break
            push(*cur)
            cur = _mul_pair(beta, cur, step_unit)
    return found


@dataclass
class PellSolutionSet:
    instance: PellInstance
    b: int
    solutions: tuple  # (x, y) pairs, h <= b, sorted
    unit: tuple  # fundamental (u, v) from the continued fraction

    def __len__(self):
        return len(self.solutions)

    def to_json(self):
        return {
            "beta": str(self.instance.beta),
            "gamma": str(self.instance.gamma),
            "b": self.b,
            "unit": [str(self.unit[0]), str(self.unit[1])],
            "count": len(self.solutions),
            "solutions": [[str(x), str(y)] for x, y in self.solutions],
        }


def _sort_key(pair):
    x, y = pair
    hx = x.deg if not x.is_zero() else -1
    hy = y.deg if not y.is_zero() else -1
    return (max(hx, hy), str(x), str(y))


def pell_solutions(
    inst: PellInstance, b: int, cross_check: bool = True
) -> PellSolutionSet:
    """Complete set of solutions of height <= b, by coefficient enumeration.

    cross_check regenerates the unit orbit of every solution and verifies it
    stays inside the enumerated set (up to the height cut).
    """
    fld = inst.field
    ring = PolyRing(fld)
    x = MultiPoly.var(ring, 2, 0)
    y = MultiPoly.var(ring, 2, 1)
    f = (
        x * x
        - (y * y).scale(inst.beta)
        - MultiPoly.const(ring, 2, inst.gamma)
    )
    X = VarietySpec("affine", ("x", "y"), (f,), field=fld)
    # census bounds are strict: height <= b means degrees < b + 1
    pts = point_stream(X, b + 1)
    sols = set()
    for pt in pts:
        sx, sy = pt.coords
        if inst.norm(sx, sy) != inst.gamma:
            raise AssertionError("enumerated point fails the norm identity")
        sols.add((sx, sy))
    unit = continued_fraction_unit(inst.beta)
    if cross_check and sols:
        w = _norm_one_unit(inst.beta, unit)
        for seed in list(sols):
            orbit = unit_orbit(inst, seed, b, w=w)
            for cand in orbit:
                if not inst.is_solution(*cand):
                    raise AssertionError("orbit left the solution set")
                if cand not in sols:
                    raise AssertionError("orbit found a solution enumeration missed")
    ordered = tuple(sorted(sols, key=_sort_key))
    return PellSolutionSet(instance=inst, b=b, solutions=ordered, unit=unit)


# ---------------------------------------------------------------------------
# the 2^n family  y^2 - (t^2+t+1) x^2 = (t-1)(t-2)...(t-n)
# ---------------------------------------------------------------------------


def family_beta(field: PrimeField) -> UniPoly:
    return UniPoly(field, [1, 1, 1])


def family_gamma(field: PrimeField, n: int) -> UniPoly:
    g = UniPoly.one(field)
    for i in range(1, n + 1):
        g = g * UniPoly(field, [-i % field.p, 1])
    return g


def _factor_solution(field, i):
    """(y, x) with y^2 - (t^2+t+1) x^2 = t - i, deg y = 1, x constant."""
    p = field.p
    for a in range(1, p):
        for c in (a, (-a) % p):  # a^2 = c^2
            # 2ab - c^2 = 1  fixes b; then check b^2 - c^2 = -i
            bnum = (1 + c * c) % p
            b_ = bnum * field.inv(2 * a % p) % p
            if (b_ * b_ - c * c) % p == (-i) % p:
                return UniPoly(field, [b_, a]), UniPoly(field, [c])
    return None


def pell_family(n: int, q: int):
    """2^n distinct solutions of height <= n + 1 (actually <= n) by taking
    all sign choices in the product of the factor solutions."""
    fld = PrimeField(q)
    if q == 2:
        raise ValueError("odd q required")
    if q <= n:
        raise ValueError("need q > n")
    beta = family_beta(fld)
    if n == 0:
        inst = PellInstance(beta, UniPoly.one(fld))
        return pell_solutions(inst, 1).solutions
    base = []
    for i in range(1, n + 1):
        fs = _factor_solution(fld, i)
        if fs is None:
            raise ValueError(f"no base solution for factor t - {i} over F_{q}")
        base.append(fs)
    sols = set()
    for mask in range(1 << n):
        acc = (UniPoly.one(fld), UniPoly.zero(fld))
        for i in range(n):
            yb, xb = base[i]
            if mask >> i & 1:
                xb = -xb
            acc = _mul_pair(beta, acc, (yb, xb))
        sols.add(acc)
    gamma = family_gamma(fld, n)
    inst = PellInstance(beta, gamma)
    for yv, xv in sols:
        if inst.norm(yv, xv) != gamma:
            raise AssertionError("family product fails the norm identity")
        h = max(yv.deg, xv.deg if not xv.is_zero() else 0)
        if h > n + 1:
            raise AssertionError("family solution exceeds the height bound")
    if len(sols) != 1 << n:
        raise ValueError(f"sign products collided: {len(sols)} < {1 << n}")
    return tuple(sorted(sols, key=_sort_key))


def find_family_prime(n: int, qmax: int = 200) -> int:
    """Smallest odd prime q > n for which all n base solutions exist."""
    for q in range(max(3, n + 1), qmax + 1):
        if not is_prime(q):
            continue
        fld = PrimeField(q)
        if all(_factor_solution(fld, i) is not None for i in range(1, n + 1)):
            return q
    raise ValueError(f"no workable prime below {qmax} for n = {n}")
