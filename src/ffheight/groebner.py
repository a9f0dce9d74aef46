"""Buchberger bases over prime fields, Krull dimension, ideal membership.

Tiny systems only: the coefficient expansions this validates stay below a
dozen variables, and the budgets below fail loudly rather than churn.
grevlex throughout; dimension and membership do not depend on the order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import BudgetExceeded
from .multipoly import (
    MultiPoly,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .rings import PrimeField

MAX_VARS = 12
MAX_BASIS = 5000


def normal_form(f: MultiPoly, gens) -> MultiPoly:
    """Remainder of f under multivariate division by gens (grevlex)."""
    ring = f.ring
    rem = MultiPoly.zero(ring, f.nvars)
    lts = [g.leading_term() for g in gens]
    while not f.is_zero():
        e, c = f.leading_term()
        for g, (ge, gc) in zip(gens, lts):
            if monomial_divides(ge, e):
                f = f - g.term_mul(monomial_div(e, ge), ring.div(c, gc))
                break
        else:
            rem = rem + MultiPoly(ring, f.nvars, {e: c})
            f = f - MultiPoly(ring, f.nvars, {e: c})
    return rem


def _s_poly(f, g):
    fe, fc = f.leading_term()
    ge, gc = g.leading_term()
    l = monomial_lcm(fe, ge)
    ring = f.ring
    a = f.term_mul(monomial_div(l, fe), ring.inv(fc))
    b = g.term_mul(monomial_div(l, ge), ring.inv(gc))
    return a - b


@dataclass(frozen=True)
class GroebnerBasis:
    gens: tuple  # reduced, monic, grevlex-sorted
    nvars: int
    field: PrimeField

    @property
    def is_unit_ideal(self) -> bool:
        return any(g.total_degree() == 0 for g in self.gens)

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    def leading_exponents(self):
        return [g.leading_term()[0] for g in self.gens]


def groebner(gens, nvars=None, field=None) -> GroebnerBasis:
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        if nvars is None or field is None:
            raise ValueError("empty input needs explicit nvars and field")
        return GroebnerBasis((), nvars, field)
    nvars = gens[0].nvars
    field = gens[0].ring
    if not isinstance(field, PrimeField):
        raise TypeError("constant-field coefficients required")
    if nvars > MAX_VARS:
        raise BudgetExceeded(f"{nvars} variables exceeds the {MAX_VARS}-variable budget")

    basis = [g.monic() for g in gens]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        fe = basis[i].leading_term()[0]
        ge = basis[j].leading_term()[0]
        # coprime leading terms: S-polynomial reduces to zero
        if monomial_lcm(fe, ge) == monomial_mul(fe, ge):
            continue
        r = normal_form(_s_poly(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        k = len(basis) - 1
        if k + 1 > MAX_BASIS:
            raise BudgetExceeded(f"basis exceeded {MAX_BASIS} elements")
        pairs.extend((idx, k) for idx in range(k))

    # inter-reduce
    reduced = []
    for idx, g in enumerate(basis):
        others = basis[:idx] + basis[idx + 1 :]
        e = g.leading_term()[0]
        if any(
            monomial_divides(h.leading_term()[0], e) for h in others if not h.is_zero()
        ):
            basis[idx] = MultiPoly.zero(field, nvars)
    live = [g for g in basis if not g.is_zero()]
    for idx, g in enumerate(live):
        others = live[:idx] + live[idx + 1 :]
        r = normal_form(g, others) if others else g
        reduced.append(r.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_term()[0]))
    return GroebnerBasis(tuple(reduced), nvars, field)


def krull_dimension(G: GroebnerBasis):
    """Combinatorial dimension of the leading-term ideal.

    Largest cardinality of a variable subset S such that no leading monomial
    is supported inside S.  Returns None for the unit ideal (empty variety).
    """
    if G.is_unit_ideal:
        return None
    if G.is_zero_ideal:
        return G.nvars
    n = G.nvars
    masks = []
    for e in G.leading_exponents():
        m = 0
        for i, x in enumerate(e):
            if x:
                m |= 1 << i
        masks.append(m)
    best = 0
    for s in range(1 << n):
        size = s.bit_count()
        if size <= best:
            continue
        if all(m & ~s for m in masks):
            best = size
    return best


def ideal_member(f: MultiPoly, G: GroebnerBasis):
    """(is_member, normal_form): membership iff the normal form vanishes."""
    if G.is_zero_ideal:
        return f.is_zero(), f
    nf = normal_form(f, G.gens)
    return nf.is_zero(), nf
