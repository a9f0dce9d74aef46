"""Pell equations x^2 - beta*y^2 = gamma over F_q[t].

beta must have even degree with square leading coefficient, so sqrt(beta)
lives in the Laurent field F_q((1/t)); its continued fraction is periodic
and yields the fundamental unit.  Only the polynomial part A of sqrt(beta)
is ever needed: every partial quotient is a floor division in F_q[t]
(Artin, 1924), and the unit search walks only the bounded-degree (P, Q)
recurrence.  Bounded-height solution sets are produced by coefficient
enumeration (the completeness authority) and checked by one unit step:
every sign change of a solution, and its product with the norm-one unit
or its conjugate when that stays inside the height bound, must be found
too.

Odd characteristic only: completing squares and the sqrt recurrence both
divide by 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import DEFAULT_BUDGET, BudgetExceeded, point_stream
from .multipoly import MultiPoly
from .rings import PolyRing, PrimeField, UniPoly, is_prime
from .varieties import VarietySpec


def _floor_sqrt(beta: UniPoly) -> UniPoly:
    """Polynomial part A of sqrt(beta) in F_q((1/t)), taking lc A = sqrt(lc beta).

    Needs even degree 2k, a square leading coefficient, and odd
    characteristic.  The coefficients of t^k, ..., t^0 come from the classic
    recurrence 2*c0*cn = beta_(2k-n) - sum ci*c(n-i); then sqrt(beta) - A has
    negative degree, i.e. deg(beta - A^2) < k.
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
    for n in range(1, k + 1):
        acc = beta.coeff(2 * k - n)
        for i in range(1, n):
            acc -= cs[i] * cs[n - i]
        cs.append(acc * inv2c0 % fld.p)
    return UniPoly(fld, cs[::-1])


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
        root = _floor_sqrt(self.beta)
        if root * root == self.beta:
            raise ValueError("beta is a perfect square")

    @property
    def field(self) -> PrimeField:
        return self.beta.field

    def norm(self, x: UniPoly, y: UniPoly) -> UniPoly:
        return x * x - self.beta * y * y

    def is_solution(self, x: UniPoly, y: UniPoly) -> bool:
        return self.norm(x, y) == self.gamma


# partial quotients continued_fraction_unit takes before BudgetExceeded
CF_GUARD = 20_000
# find_family_prime searches the primes up to this bound
FAMILY_QMAX = 200


def continued_fraction_unit(beta: UniPoly):
    """(u, v) with u^2 - beta*v^2 a nonzero constant, v != 0, minimal deg u.

    Standard quadratic-surd recurrence for sqrt(beta): the convergents of
    the continued fraction hit the fundamental unit at the end of the first
    quasi-period.  Each partial quotient floor((P + sqrt(beta))/Q) is the
    polynomial floor division (P + A) // Q, A = _floor_sqrt(beta), because
    sqrt(beta) - A has negative degree.  The loop walks only (P, Q), of
    degree at most deg A: the convergent p_k/q_k has norm
    p_k^2 - beta*q_k^2 = (-1)^(k+1) Q_(k+1), so the unit closes at the first
    constant Q_(k+1), and the convergents are folded once at the end.  More
    than CF_GUARD partial quotients raise BudgetExceeded.
    """
    fld = beta.field
    PellInstance(beta, UniPoly.one(fld))  # validates beta
    root = _floor_sqrt(beta)
    zero, one = UniPoly.zero(fld), UniPoly.one(fld)
    P, Q = zero, one
    quotients = []
    for _ in range(CF_GUARD):
        a = (P + root) // Q
        quotients.append(a)
        P = a * Q - P
        Q = (beta - P * P).divexact(Q)
        if Q.deg == 0:
            break
    else:
        raise BudgetExceeded(
            f"continued fraction did not close within {CF_GUARD} partial quotients"
        )
    p_prev, p_cur = zero, one
    q_prev, q_cur = one, zero
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return p_cur, q_cur


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


def _height(pair):
    return max(c.deg if not c.is_zero() else 0 for c in pair)


def pell_solutions(
    inst: PellInstance, b: int, budget: int = DEFAULT_BUDGET
) -> PellSolutionSet:
    """Complete set of solutions of height <= b, by coefficient enumeration.

    The set is checked by one unit step: the sign changes of every solution,
    and its products with w and w-bar of height <= b, must lie in it.  For
    alpha = x + y sqrt(beta), deg alpha + deg alpha-bar = deg gamma and both
    are at most h + deg(beta)/2, so a step of degree +-2 deg u lands at
    height >= 2 deg u + deg gamma - b - deg beta; w is built only when that
    can be <= b.
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
    pts = point_stream(X, b + 1, budget=budget)
    sols = set()
    for pt in pts:
        sx, sy = pt.coords
        if inst.norm(sx, sy) != inst.gamma:
            raise AssertionError("enumerated point fails the norm identity")
        sols.add((sx, sy))
    unit = continued_fraction_unit(inst.beta)
    steps = []
    if sols and 2 * unit[0].deg <= 2 * b + inst.beta.deg - inst.gamma.deg:
        w = _norm_one_unit(inst.beta, unit)
        steps = [w, (w[0], -w[1])]
    for sx, sy in sols:
        near = [(sx, -sy), (-sx, sy), (-sx, -sy)]
        near += [_mul_pair(inst.beta, (sx, sy), step) for step in steps]
        for cand in near:
            if _height(cand) <= b and cand not in sols:
                raise AssertionError("a unit step found a solution enumeration missed")
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
        if _height((yv, xv)) > n + 1:
            raise AssertionError("family solution exceeds the height bound")
    if len(sols) != 1 << n:
        raise ValueError(f"sign products collided: {len(sols)} < {1 << n}")
    return tuple(sorted(sols, key=_sort_key))


def find_family_prime(n: int) -> int:
    """Smallest prime q > n for which all n base solutions exist.

    The search starts at 5: over F_3, t^2 + t + 1 = (t + 2)^2 is a square.
    """
    for q in range(max(5, n + 1), FAMILY_QMAX + 1):
        if not is_prime(q):
            continue
        fld = PrimeField(q)
        if all(_factor_solution(fld, i) is not None for i in range(1, n + 1)):
            return q
    raise ValueError(f"no workable prime below {FAMILY_QMAX} for n = {n}")
