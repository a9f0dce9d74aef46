"""Varieties over F_p(t) and their bounded-height coefficient systems.

A variety is cut out by polynomials with F_p[t] coefficients.  Writing each
coordinate as x_i = sum_j a_ij t^j with j < b and collecting t-coefficients
turns the locus of points of height below b into a system of equations over
F_p in the a_ij; that expansion is the bridge between the function-field
picture and plain affine varieties over the constant field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .multipoly import MultiPoly
from .parsing import parse_poly, poly_to_str
from .rings import PolyRing, PrimeField, UniPoly, uni_content

AFFINE = "affine"
PROJECTIVE = "projective"


def default_names(ambient: str, n: int):
    """Coordinate names: x,y,z,w for small ambients, x0.. or x1.. otherwise."""
    count = n + 1 if ambient == PROJECTIVE else n
    if count <= 4:
        return tuple("xyzw"[:count])
    if ambient == PROJECTIVE:
        return tuple(f"x{i}" for i in range(count))
    return tuple(f"x{i}" for i in range(1, count + 1))


@dataclass(frozen=True)
class VarietySpec:
    """A (quasi-)affine or projective variety over K = F_p(t).

    Equations are MultiPolys with O_K coefficients.  Inequations are open
    conditions: a point must make each of them nonzero.
    """

    ambient: str
    names: tuple
    equations: tuple
    inequations: tuple = ()
    field: PrimeField | None = None  # needed only when there are no equations

    def __post_init__(self):
        if self.ambient not in (AFFINE, PROJECTIVE):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        if not self.equations and not self.inequations and self.field is None:
            raise ValueError("equation-free variety needs an explicit field")
        nv = len(self.names)
        for f in self.equations + self.inequations:
            if not isinstance(f.ring, PolyRing):
                raise TypeError("equations must have O_K coefficients")
            if f.nvars != nv:
                raise ValueError("equation variable count does not match names")
        if self.ambient == PROJECTIVE:
            for f in self.equations + self.inequations:
                if not f.is_homogeneous():
                    raise ValueError("projective equations must be homogeneous")

    @property
    def ring(self) -> PolyRing:
        if self.equations:
            return self.equations[0].ring
        if self.inequations:
            return self.inequations[0].ring
        return PolyRing(self.field)

    @property
    def base_field(self) -> PrimeField:
        return self.ring.base

    @property
    def ncoords(self) -> int:
        return len(self.names)


def variety_from_strs(ambient, names, equation_strs, q, inequation_strs=()):
    fld = PrimeField(q)
    ring = PolyRing(fld)
    names = tuple(names)
    eqs = tuple(parse_poly(s, names, ring) for s in equation_strs)
    ineqs = tuple(parse_poly(s, names, ring) for s in inequation_strs)
    return VarietySpec(ambient, names, eqs, ineqs, field=fld)


@dataclass(frozen=True)
class HeightPoint:
    """A point with O_K coordinates."""

    coords: tuple
    projective: bool = False

    def __post_init__(self):
        if not self.coords:
            raise ValueError("point needs at least one coordinate")
        if self.projective and all(c.is_zero() for c in self.coords):
            raise ValueError("projective point cannot be all zero")

    def primitive(self):
        """Divide out the monic gcd of the coordinates (projective points)."""
        if not self.projective:
            return self
        g = uni_content(self.coords)
        if g.deg == 0:
            return self
        return HeightPoint(tuple(c.divexact(g) for c in self.coords), True)

    def height(self) -> int:
        """max deg of the coordinates, after clearing common content.

        The zero affine point has height 0 by convention.
        """
        pt = self.primitive()
        h = max((c.deg for c in pt.coords if not c.is_zero()), default=0)
        return int(h)

    def reduce_at(self, lam: int):
        """Coordinates evaluated at t = lam, as a tuple of ints."""
        return tuple(c.eval_at(lam) for c in self.coords)

    def __str__(self):
        sep = " : " if self.projective else ", "
        inner = sep.join(str(c) for c in self.coords)
        return f"({inner})"


@dataclass(frozen=True)
class ExpandedSystem:
    """Equations over F_p in the coefficient variables a_ij.

    var j of coordinate i sits at flat index i*b + j and is named
    "<coord><j>".  open_groups lists, per inequation, the coefficient
    polynomials of which at least one must be nonzero; projective systems
    additionally carry the primitivity side condition, which is applied at
    evaluation time rather than encoded as equations.
    """

    base: VarietySpec
    b: int
    var_names: tuple
    equations: tuple
    origins: tuple  # (equation index, t power) per expanded equation
    open_groups: tuple = ()

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    @property
    def projective(self) -> bool:
        return self.base.ambient == PROJECTIVE

    @property
    def field(self) -> PrimeField:
        return self.base.base_field

    def coord_polys(self, values):
        """Reassemble O_K coordinates from a flat assignment of the a_ij."""
        b = self.b
        fld = self.field
        return tuple(
            UniPoly(fld, values[i * b : (i + 1) * b]) for i in range(self.base.ncoords)
        )

    def to_point(self, values) -> HeightPoint:
        return HeightPoint(self.coord_polys(values), self.projective)

    def contains(self, values) -> bool:
        """Is the flat assignment a point of the expanded system.

        For projective bases this includes primitivity, so the assignments
        accepted here are exactly the representatives counted by the census
        up to the global F_q^* scaling.
        """
        if len(values) != self.nvars:
            raise ValueError("assignment length mismatch")
        if any(f.evaluate(values) != 0 for f in self.equations):
            return False
        for group in self.open_groups:
            if all(g.evaluate(values) == 0 for g in group):
                return False
        if self.projective:
            g = uni_content(self.coord_polys(values))
            if g is None or g.deg != 0:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "ambient": self.base.ambient,
            "q": self.field.p,
            "b": self.b,
            "coords": list(self.base.names),
            "vars": list(self.var_names),
            "equations": [poly_to_str(f, self.var_names) for f in self.equations],
            "origins": [list(o) for o in self.origins],
            "open_groups": [
                [poly_to_str(g, self.var_names) for g in group]
                for group in self.open_groups
            ],
        }


def expand(X: VarietySpec, b: int) -> ExpandedSystem:
    """Expand X into the coefficient system of its height-below-b points."""
    if b < 1:
        raise ValueError("b must be a positive integer")
    ring = X.ring
    fld = X.base_field
    n = X.ncoords
    N = n * b

    names = [f"{name}{j}" for name in X.names for j in range(b)]
    if len(set(names)) != len(names):
        names = [f"{name}_{j}" for name in X.names for j in range(b)]
    names = tuple(names)

    # coordinate i becomes sum_j a_ij t^j
    tpow = [UniPoly(fld, [0] * j + [1]) for j in range(b)]
    coords = []
    for i in range(n):
        terms = {}
        for j in range(b):
            e = [0] * N
            e[i * b + j] = 1
            terms[tuple(e)] = tpow[j]
        coords.append(MultiPoly(PolyRing(fld), N, terms))

    def collect(f):
        composed = f.compose(coords)
        by_power = {}
        for e, c in composed.terms.items():
            for k, ck in enumerate(c.coeffs):
                if ck:
                    by_power.setdefault(k, {})[e] = ck
        return {
            k: MultiPoly(fld, N, terms) for k, terms in sorted(by_power.items())
        }

    equations = []
    origins = []
    for idx, f in enumerate(X.equations):
        for k, eq in collect(f).items():
            equations.append(eq)
            origins.append((idx, k))

    open_groups = []
    for g in X.inequations:
        group = tuple(collect(g).values())
        open_groups.append(group)

    return ExpandedSystem(
        base=X,
        b=b,
        var_names=names,
        equations=tuple(equations),
        origins=tuple(origins),
        open_groups=tuple(open_groups),
    )


def on_variety(X: VarietySpec, pt: HeightPoint) -> bool:
    """Exact membership for O_K-coordinate points (open conditions included)."""
    if len(pt.coords) != X.ncoords:
        raise ValueError("coordinate count mismatch")
    vals = list(pt.coords)
    for f in X.equations:
        if not f.evaluate(vals).is_zero():
            return False
    for g in X.inequations:
        if g.evaluate(vals).is_zero():
            return False
    return True
