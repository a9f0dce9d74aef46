"""Exact arithmetic kernels: prime fields and F_p[t].

Field elements are plain Python ints in [0, p); univariate polynomials are
dense coefficient tuples, lowest degree first.  Every value in this module is
immutable after construction, so sharing across threads is safe.
"""

from __future__ import annotations

NEG_INF = float("-inf")  # degree of the zero polynomial


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field F_p.  Element operations work on ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def sqrt(self, a: int):
        """The smaller of the two square roots of a, or None for a non-residue.

        Euler's criterion decides, Tonelli-Shanks finds a root r, and
        min(r, p - r) makes the answer independent of how it was found.
        """
        p = self.p
        a %= p
        if a == 0 or p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        s, e = p - 1, 0  # p - 1 = s * 2^e with s odd
        while s % 2 == 0:
            s //= 2
            e += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, r, u = pow(z, s, p), pow(a, (s + 1) // 2, p), pow(a, s, p)
        while u != 1:
            i, u2 = 0, u
            while u2 != 1:  # least i with u^(2^i) = 1; i < e
                u2 = u2 * u2 % p
                i += 1
            b = pow(c, 1 << (e - i - 1), p)
            r, c = r * b % p, b * b % p
            u, e = u * c % p, i
        return min(r, p - r)

    def fmt(self, a: int) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


class UniPoly:
    """Dense univariate polynomial over F_p in the variable t.

    Coefficients are stored lowest degree first and trimmed, so equal
    polynomials have equal representations.  deg(0) is NEG_INF.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        p = field.p
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c: int):
        return cls(field, (c,))

    @classmethod
    def gen(cls, field):
        """The polynomial t."""
        return cls(field, (0, 1))

    @property
    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(self.field, out)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return UniPoly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(self.field)
        p = self.field.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(self.field, [c % p for c in out])

    def scale(self, c: int):
        p = self.field.p
        c %= p
        return UniPoly(self.field, tuple(x * c % p for x in self.coeffs))

    def shift(self, k: int):
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero() or k == 0:
            return self
        return UniPoly(self.field, (0,) * k + self.coeffs)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = UniPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dn = other.deg
        inv_lc = field.inv(other.lc)
        q = [0] * max(len(rem) - dn, 0)
        p = field.p
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i] % p
            if c:
                factor = c * inv_lc % p
                q[i - dn] = factor
                for j, oc in enumerate(other.coeffs):
                    rem[i - dn + j] = (rem[i - dn + j] - factor * oc) % p
        return UniPoly(field, q), UniPoly(field, rem[:dn] if dn > 0 else [])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(self.field.inv(self.lc))

    def eval_at(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                pieces.append(str(c))
            elif k == 1:
                pieces.append("t" if c == 1 else f"{c}*t")
            else:
                pieces.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"UniPoly({self.field!r}, {self})"


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd.  gcd(0, 0) is undefined."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def uni_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    if a.is_zero() or b.is_zero():
        raise ValueError("lcm with zero polynomial")
    return (a * b).divexact(uni_gcd(a, b)).monic()


def uni_content(polys):
    """Monic gcd of the nonzero polynomials; None when all of them are zero."""
    g = None
    for c in polys:
        if c.is_zero():
            continue
        g = c.monic() if g is None else uni_gcd(g, c)
        if g.deg == 0:
            break
    return g


class PolyRing:
    """O_K = F_p[t] as a coefficient ring tag for multivariate polynomials."""

    __slots__ = ("base",)

    def __init__(self, base: PrimeField):
        self.base = base

    @property
    def zero(self):
        return UniPoly.zero(self.base)

    @property
    def one(self):
        return UniPoly.one(self.base)

    def from_int(self, n: int):
        return UniPoly.const(self.base, n)

    def coerce(self, x):
        if isinstance(x, UniPoly):
            if x.field != self.base:
                raise ValueError("field mismatch")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.base == self.base

    def __hash__(self):
        return hash(("OK", self.base.p))

    def __repr__(self):
        return f"F{self.base.p}[t]"
