"""Sparse multivariate polynomials over F_p or F_p[t].

Terms map exponent vectors to nonzero coefficients; the coefficient domain is
carried as a ring tag (PrimeField, PolyRing), and evaluation runs one loop
for both.  The fixed monomial order everywhere is graded reverse
lexicographic.  Division is asked only whether it is exact: `divides` runs
one remainder loop and stops at the first leading term it cannot cancel.
"""

from __future__ import annotations

from .rings import NEG_INF, PolyRing, PrimeField, UniPoly, uni_content


def grevlex_key(exps):
    # higher total degree wins; ties broken so the monomial whose exponent
    # vector has the smaller last nonzero difference is larger
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomial_divides(a, b) -> bool:
    """Does x^a divide x^b."""
    return all(ea <= eb for ea, eb in zip(a, b))


def monomial_div(b, a):
    return tuple(eb - ea for ea, eb in zip(a, b))


def monomial_mul(a, b):
    return tuple(ea + eb for ea, eb in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(ea, eb) for ea, eb in zip(a, b))


class MultiPoly:
    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars: int, terms=None):
        clean = {}
        if terms:
            for exps, c in terms.items() if isinstance(terms, dict) else terms:
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError("exponent vector has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                if exps in clean:
                    c = ring.add(clean[exps], c)
                if ring.is_zero(c):
                    clean.pop(exps, None)
                else:
                    clean[exps] = c
        self.ring = ring
        self.nvars = nvars
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars)

    @classmethod
    def const(cls, ring, nvars, c):
        return cls(ring, nvars, {(0,) * nvars: ring.coerce(c)})

    @classmethod
    def var(cls, ring, nvars, i):
        if not 0 <= i < nvars:
            raise IndexError("variable index out of range")
        e = [0] * nvars
        e[i] = 1
        return cls(ring, nvars, {tuple(e): ring.one})

    def _compat(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {other!r}")
        if other.ring != self.ring or other.nvars != self.nvars:
            raise ValueError("mixed rings or variable counts")

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.ring, self.nvars, other)
        self._compat(other)
        out = dict(self.terms)
        ring = self.ring
        for e, c in other.terms.items():
            if e in out:
                s = ring.add(out[e], c)
                if ring.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        r = MultiPoly.zero(self.ring, self.nvars)
        r.terms = out
        return r

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.ring, self.nvars, other)
        return self + (-other)

    def __neg__(self):
        r = MultiPoly.zero(self.ring, self.nvars)
        r.terms = {e: self.ring.neg(c) for e, c in self.terms.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.ring, self.nvars, other)
        self._compat(other)
        ring = self.ring
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                c = ring.mul(c1, c2)
                if e in out:
                    c = ring.add(out[e], c)
                if ring.is_zero(c):
                    out.pop(e, None)
                else:
                    out[e] = c
        r = MultiPoly.zero(self.ring, self.nvars)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.const(self.ring, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c):
        """Multiply by a coefficient of the ring."""
        ring = self.ring
        r = MultiPoly.zero(ring, self.nvars)
        if ring.is_zero(c):
            return r
        r.terms = {e: ring.mul(cc, c) for e, cc in self.terms.items()}
        return r

    def term_mul(self, exps, c):
        """Multiply by the single term c * x^exps."""
        ring = self.ring
        r = MultiPoly.zero(ring, self.nvars)
        if ring.is_zero(c):
            return r
        r.terms = {monomial_mul(e, exps): ring.mul(cc, c) for e, cc in self.terms.items()}
        return r

    # -- structure -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def constant_coeff(self):
        return self.terms.get((0,) * self.nvars, self.ring.zero)

    def leading_term(self):
        """(exponents, coefficient) of the grevlex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def monic(self):
        """Scale so the grevlex leading coefficient is 1.  F_p coefficients only."""
        e, c = self.leading_term()
        ring = self.ring
        if isinstance(ring, PrimeField):
            return self.scale(ring.inv(c))
        raise TypeError("monic() needs field coefficients")

    # -- evaluation and substitution ------------------------------------------
    def evaluate(self, vals):
        """Full evaluation; vals are coefficient-ring elements (ints over F_p)."""
        if len(vals) != self.nvars:
            raise ValueError("wrong number of values")
        ring = self.ring
        acc = ring.zero
        pows = {}  # (variable, exponent) -> vals[variable]^exponent
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if not k:
                    continue
                if (i, k) not in pows:
                    x = vals[i]
                    for _ in range(k - 1):
                        x = ring.mul(x, vals[i])
                    pows[i, k] = x
                v = ring.mul(v, pows[i, k])
            acc = ring.add(acc, v)
        return acc

    def compose(self, values):
        """Substitute values[i] (MultiPolys over the same ring) for variable i."""
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        if not values:
            raise ValueError("compose needs at least one variable")
        tgt_ring = values[0].ring
        tgt_n = values[0].nvars
        pows = {}

        def power(i, k):
            if k == 0:
                return MultiPoly.const(tgt_ring, tgt_n, 1)
            key = (i, k)
            if key not in pows:
                pows[key] = values[i] ** k
            return pows[key]

        acc = MultiPoly.zero(tgt_ring, tgt_n)
        for e, c in self.terms.items():
            term = MultiPoly.const(tgt_ring, tgt_n, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            acc = acc + term
        return acc

    def substitute_coeff(self, i: int, value: UniPoly):
        """Replace variable i by a coefficient-ring value (PolyRing only)."""
        ring = self.ring
        if not isinstance(ring, PolyRing):
            raise TypeError("substitute_coeff needs O_K coefficients")
        out = MultiPoly.zero(ring, self.nvars)
        vp = {0: ring.one}
        for e, c in self.terms.items():
            k = e[i]
            if k not in vp:
                vp[k] = value ** k
            ne = list(e)
            ne[i] = 0
            out = out + MultiPoly(ring, self.nvars, {tuple(ne): c * vp[k]})
        return out

    def map_coeffs(self, fn, new_ring):
        out = {}
        for e, c in self.terms.items():
            nc = fn(c)
            if not new_ring.is_zero(nc):
                out[e] = nc
        r = MultiPoly.zero(new_ring, self.nvars)
        r.terms = out
        return r

    # -- O_K content ---------------------------------------------------------
    def content(self) -> UniPoly:
        """gcd of the coefficients (PolyRing coefficients)."""
        if not isinstance(self.ring, PolyRing):
            raise TypeError("content needs O_K coefficients")
        if not self.terms:
            raise ValueError("content of the zero polynomial")
        return uni_content(self.terms.values())

    def primitive_part(self):
        g = self.content()
        if g.deg == 0:
            return self
        return self.map_coeffs(lambda c: c.divexact(g), self.ring)

    # -- division --------------------------------------------------------------
    def divides(self, f) -> bool:
        """Does self divide f (over the fraction field for O_K coefficients).

        Gauss's lemma: a primitive divisor divides f over F_p(t) iff over
        F_p[t].  f is divided by it in grevlex order; a leading term whose
        monomial, or over F_p[t] whose coefficient, the divisor's leading
        term does not divide would stay in the remainder for good.
        """
        if f.is_zero():
            return True
        if self.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        self._compat(f)
        ring = self.ring
        over_field = isinstance(ring, PrimeField)
        d = self if over_field else self.primitive_part()
        ge, gc = d.leading_term()
        rem = f
        while not rem.is_zero():
            e, c = rem.leading_term()
            if not monomial_divides(ge, e):
                return False
            if over_field:
                factor = ring.div(c, gc)
            else:
                factor, r = divmod(c, gc)
                if not r.is_zero():
                    return False
            rem = rem - d.term_mul(monomial_div(e, ge), factor)
        return True

    # -- misc -------------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.ring, self.nvars, other)
        return (
            isinstance(other, MultiPoly)
            and other.ring == self.ring
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    __hash__ = None

    def to_str(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        ring = self.ring
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            cs = ring.fmt(c)
            is_one = cs == "1"
            # a one-term coefficient like 4*t reparses without parentheses
            needs_paren = isinstance(c, UniPoly) and len(c.coeffs) - c.coeffs.count(0) > 1
            if not is_one or not any(e):
                factors.append(f"({cs})" if needs_paren and any(e) else cs)
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"MultiPoly({self.ring!r}, {self})"


def prime_residue(p: UniPoly) -> int:
    """The residue lambda = -c0/c1 of a degree-1 prime p = c1*t + c0.

    Degree >= 2 primes would need an extension field and are rejected.
    """
    if p.deg != 1:
        raise ValueError("only degree-1 primes t - lambda are supported")
    fld = p.field
    return fld.div(fld.neg(p.coeff(0)), p.coeff(1))


def reduce_mod(f: MultiPoly, p: UniPoly) -> MultiPoly:
    """Reduce O_K coefficients modulo a degree-1 prime p = c1*t + c0.

    Substitutes the residue t = -c0/c1 into every coefficient, landing in
    F_p-coefficient polynomials.
    """
    if not isinstance(f.ring, PolyRing):
        raise TypeError("reduce_mod needs O_K coefficients")
    lam = prime_residue(p)
    return f.map_coeffs(lambda c: c.eval_at(lam), f.ring.base)
