"""Answers computed apart from ffheight, used to check the benchmark's outputs.

Nothing here calls into ffheight's algorithms.  Polynomials over F_q[t] are
plain tuples of ints, lowest degree first and trimmed; equations are parsed
by sympy; counts come from closed forms or from brute force over every
coordinate tuple of degree below b.  Program objects are only read
(`.coeffs`, `.terms`) to bring their outputs into these forms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# ---------------------------------------------------------------------------
# F_q[t] on tuples
# ---------------------------------------------------------------------------


def trim(cs, q):
    cs = [c % q for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a, b, q):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out, q)


def psub(a, b, q):
    return padd(a, tuple(-c for c in b), q)


def pmul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim(out, q)


def pdivmod(a, b, q):
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    inv = pow(b[-1], q - 2, q)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] % q
        if c:
            f = c * inv % q
            quo[i] = f
            for j, cb in enumerate(b):
                rem[i + j] = (rem[i + j] - f * cb) % q
    return trim(quo, q), trim(rem, q)


def pmonic(a, q):
    inv = pow(a[-1], q - 2, q)
    return tuple(c * inv % q for c in a)


def pgcd(a, b, q):
    """Monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, pdivmod(a, b, q)[1]
    return pmonic(a, q) if a else ()


def pdeg(a):
    return len(a) - 1


def peval(a, x, q):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % q
    return acc


def ppow(a, e, q):
    out = (1,)
    for _ in range(e):
        out = pmul(out, a, q)
    return out


def det(rows, q):
    """Leibniz determinant of a square matrix of F_q[t] tuples (n <= 4)."""
    n = len(rows)
    total = ()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (1,)
        for i, j in enumerate(perm):
            term = pmul(term, rows[i][j], q)
            if not term:
                break
        if term:
            total = psub(total, term, q) if inversions % 2 else padd(total, term, q)
    return total


def maximal_minors(rows, q):
    m, n = len(rows), len(rows[0])
    return [
        det([[rows[i][j] for j in cols] for i in range(m)], q)
        for cols in itertools.combinations(range(n), m)
    ]


def plucker_height_and_gcd(rows, q):
    """(max deg - deg gcd, deg gcd) of the maximal minors; None if all vanish."""
    minors = [d for d in maximal_minors(rows, q) if d]
    if not minors:
        return None
    g = ()
    for d in minors:
        g = pgcd(g, d, q)
    top = max(pdeg(d) for d in minors)
    return top - pdeg(g), pdeg(g)


def proportional(xs, ys, q):
    """Are two lists of F_q[t] tuples equal up to one nonzero constant."""
    pairs = [(a, b) for a, b in zip(xs, ys) if a or b]
    if not pairs:
        return True
    a0, b0 = pairs[0]
    if not a0 or not b0:
        return False
    c = b0[-1] * pow(a0[-1], q - 2, q) % q
    return all(trim([x * c for x in a], q) == b for a, b in pairs)


# ---------------------------------------------------------------------------
# polynomials with F_q[t] coefficients: {exponents: coefficient tuple}
# ---------------------------------------------------------------------------


def parse_terms(text, names, q):
    """Parse an equation string with sympy into {exps: coeff tuple in t}."""
    import sympy

    syms = {n: sympy.Symbol(n) for n in list(names) + ["t"]}
    expr = sympy.sympify(text.replace("^", "**"), locals=syms)
    poly = sympy.Poly(expr, syms["t"], *[syms[n] for n in names])
    out = {}
    for monom, c in poly.terms():
        k, exps = monom[0], tuple(monom[1:])
        cs = list(out.get(exps, ()))
        cs += [0] * (k + 1 - len(cs))
        cs[k] += int(c)
        out[exps] = cs
    terms = {e: trim(cs, q) for e, cs in out.items()}
    return {e: c for e, c in terms.items() if c}


def multipoly_terms(f):
    """ffheight MultiPoly over F_q[t] -> {exps: coeff tuple}."""
    return {tuple(e): tuple(c.coeffs) for e, c in f.terms.items()}


def evaluate(terms, point, q):
    """Value in F_q[t] of a polynomial at a point with F_q[t] coordinates."""
    acc = ()
    cache = {}
    for exps, c in terms.items():
        val = c
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in cache:
                    cache[(i, e)] = ppow(point[i], e, q)
                val = pmul(val, cache[(i, e)], q)
        acc = padd(acc, val, q)
    return acc


# ---------------------------------------------------------------------------
# census oracles
# ---------------------------------------------------------------------------


def monomial_curve_affine(d, b, q):
    """#{(x, y): y = x^d, deg < b} = q^ceil(b/d)."""
    return q ** math.ceil(b / d)


def monomial_curve_projective(d, b, q):
    """y z^(d-1) = x^d: the points (u s^(d-1) : u^d : s^d) of height < b,
    counted as q^(2 ceil(b/d) - 1) + 1."""
    return q ** (2 * math.ceil(b / d) - 1) + 1


def graph_surface(b, q):
    """#{(x, y, z): z = x y, all degrees < b}.

    Either factor zero gives 2 q^b - 1 pairs; otherwise deg x + deg y <= b-1,
    and there are (q-1) q^k polynomials of degree exactly k.
    """
    both = sum((k + 1) * q**k for k in range(b))
    return 2 * q**b - 1 + (q - 1) ** 2 * both


def brute_count_affine(terms, n, b, q, chunk=1 << 16):
    """Points of an affine hypersurface over F_q[t] with all degrees < b,
    by evaluating the equation at every one of q^(n b) coordinate tuples."""
    total = q ** (n * b)
    width = max(
        (len(c) + sum(exps) * (b - 1) for exps, c in terms.items()), default=1
    )
    count = 0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((len(idx), n * b), dtype=np.int64)
        rest = idx.copy()
        for k in range(n * b):
            digits[:, k] = rest % q
            rest //= q
        coords = [digits[:, i * b : (i + 1) * b] for i in range(n)]
        acc = np.zeros((len(idx), width), dtype=np.int64)
        powers = {}
        for exps, c in terms.items():
            val = np.zeros((len(idx), len(c)), dtype=np.int64)
            val[:] = np.array(c, dtype=np.int64)
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in powers:
                        p = coords[i]
                        for _ in range(e - 1):
                            p = _conv(p, coords[i], q)
                        powers[(i, e)] = p
                    val = _conv(val, powers[(i, e)], q)
            acc[:, : val.shape[1]] += val
        count += int(np.count_nonzero(~np.any(acc % q, axis=1)))
    return count


def _conv(a, b, q):
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1), dtype=np.int64)
    for i in range(a.shape[1]):
        out[:, i : i + b.shape[1]] += a[:, i : i + 1] * b
    return out % q


def root_count(d, c, q):
    """#{x in F_q : x^d = c}, by trying every x."""
    return sum(1 for x in range(q) if pow(x, d, q) == c % q)


# ---------------------------------------------------------------------------
# Groebner oracles (sympy)
# ---------------------------------------------------------------------------


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def canonical(polys, q):
    """Set of monic polynomials, each a frozenset of (exps, coeff mod q)."""
    out = set()
    for terms in polys:
        terms = {tuple(e): int(c) % q for e, c in terms.items() if int(c) % q}
        lead = max(terms, key=grevlex_key)
        inv = pow(terms[lead], q - 2, q)
        out.add(frozenset((e, c * inv % q) for e, c in terms.items()))
    return frozenset(out)


def expanded_generators(text, names, b, q):
    """The coefficient system of an equation at bound b, expanded by sympy:
    substitute x = sum_j x_j t^j and collect powers of t.  Variables are
    ordered coordinate-major, as ffheight names them (x0, x1, ..., y0, ...)."""
    import sympy

    t = sympy.Symbol("t")
    coeff_syms = [sympy.Symbol(f"{n}{j}") for n in names for j in range(b)]
    subs = {
        sympy.Symbol(n): sum(coeff_syms[i * b + j] * t**j for j in range(b))
        for i, n in enumerate(names)
    }
    local = {n: sympy.Symbol(n) for n in names}
    expr = sympy.sympify(text.replace("^", "**"), locals={"t": t, **local})
    full = sympy.Poly(sympy.expand(expr.subs(subs, simultaneous=True)), t)
    gens = []
    for c in full.all_coeffs():
        p = sympy.Poly(c, *coeff_syms, modulus=q)
        if not p.is_zero:
            gens.append(p.as_expr())
    return gens, coeff_syms


def sympy_basis(gens, syms, q):
    import sympy

    return sympy.groebner(gens, *syms, modulus=q, order="grevlex")


def sympy_terms(expr, syms, q):
    import sympy

    return dict(sympy.Poly(expr, *syms, modulus=q).terms())


def to_sympy(terms, syms):
    """{exps: int} -> sympy expression in syms."""
    import sympy

    return sympy.Add(
        *[
            int(c) * sympy.Mul(*[s**e for s, e in zip(syms, exps)])
            for exps, c in terms.items()
        ]
    )


def divides_over_fqt(f_terms, g_terms, q):
    """Does f divide g in GF(q)[t, x, ...]?  Exact sympy division: a single
    polynomial is a Groebner basis of the ideal it generates."""
    import sympy

    n = len(next(iter(f_terms)))
    t = sympy.Symbol("t")
    xs = sympy.symbols(f"v0:{n}")

    def expr(terms):
        return sympy.Add(
            *[
                int(ck) * t**k * sympy.Mul(*[s**e for s, e in zip(xs, exps)])
                for exps, c in terms.items()
                for k, ck in enumerate(c)
                if ck
            ]
        )

    F = sympy.Poly(expr(f_terms), t, *xs, modulus=q)
    G = sympy.Poly(expr(g_terms), t, *xs, modulus=q)
    _, r = sympy.div(G, F)
    return r.is_zero
