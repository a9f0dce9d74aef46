"""Worked examples as regression fixtures.

Each fixture pins expected behavior measured from the exact laws these
families satisfy: counts for the curve families, fitted dimensions for the
cones and graphs, solution tables for the Pell instances, and the
line-stripping behavior of the sextic surface.  run_example_suite executes
them and returns one pass/fail row per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .census import DEFAULT_BUDGET, InstanceSpec, count_points, dim_estimate
from .groebner import groebner, ideal_member
from .pell import PellInstance, pell_family, pell_solutions, find_family_prime
from .rings import PrimeField, UniPoly
from .varieties import expand, variety_from_strs
from .parsing import parse_poly


@dataclass
class CheckRow:
    example: str
    detail: str
    expected: str
    observed: str
    ok: bool

    def to_json(self):
        return {
            "example": self.example,
            "detail": self.detail,
            "expected": self.expected,
            "observed": self.observed,
            "ok": self.ok,
        }


def _row(example, detail, expected, observed):
    return CheckRow(
        example=example,
        detail=detail,
        expected=str(expected),
        observed=str(observed),
        ok=str(expected) == str(observed),
    )


# the ten Pell instances with q-independent solution tables at height <= 2
# (coefficient lists are low-degree-first, taken mod q per field)
PELL_INSTANCES = (
    ("x^2 - (t^2 - 1)*y^2 - 1", (-1, 0, 1), (1,), 10),
    ("x^2 - (t^2 - 1)*y^2 - 4", (-1, 0, 1), (4,), 10),
    ("x^2 - (t^2 - 1)*y^2 - (t - 1)^2", (-1, 0, 1), (1, -2, 1), 6),
    ("x^2 - (t^2 - 1)*y^2 - (t + 1)^2", (-1, 0, 1), (1, 2, 1), 6),
    ("x^2 - (t^2 + t)*y^2 - 1", (0, 1, 1), (1,), 10),
    ("x^2 - (t^2 + t)*y^2 - 4", (0, 1, 1), (4,), 10),
    ("x^2 - (t^2 + t)*y^2 - t^2", (0, 1, 1), (0, 0, 1), 6),
    ("x^2 - (t^2 + t)*y^2 - (t + 1)^2", (0, 1, 1), (1, 2, 1), 6),
    ("x^2 - (t^4 - 1)*y^2 - 1", (-1, 0, 0, 0, 1), (1,), 6),
    ("x^2 - (t^4 + t + 1)*y^2 - 1", (1, 1, 0, 0, 1), (1,), 2),
)

PELL_QS = (5, 7, 11, 13)
PELL_HEIGHT = 2


def pell_instance(beta_coeffs, gamma_coeffs, q: int) -> PellInstance:
    fld = PrimeField(q)
    return PellInstance(
        UniPoly(fld, [c % q for c in beta_coeffs]),
        UniPoly(fld, [c % q for c in gamma_coeffs]),
    )


def curve_instances():
    """The worked curve and graph families."""
    out = []
    for d in (2, 3):
        out.append(
            InstanceSpec(
                name=f"affine curve y=x^{d}",
                ambient="affine",
                names=("x", "y"),
                equations=(f"y - x^{d}",),
                inequations=(),
                dim=1,
                degree=d,
            )
        )
    for d in (2, 3):
        lhs = "y*z" if d == 2 else f"y*z^{d - 1}"
        out.append(
            InstanceSpec(
                name=f"projective curve {lhs}=x^{d}",
                ambient="projective",
                names=("x", "y", "z"),
                equations=(f"{lhs} - x^{d}",),
                inequations=(),
                dim=1,
                degree=d,
            )
        )
    out.append(
        InstanceSpec(
            name="graph surface xy=z",
            ambient="affine",
            names=("x", "y", "z"),
            equations=("x*y - z",),
            inequations=(),
            dim=2,
            degree=2,
        )
    )
    out.append(
        InstanceSpec(
            name="non-reduced cone t*x^2=y*z",
            ambient="projective",
            names=("x", "y", "z"),
            equations=("t*x^2 - y*z",),
            inequations=(),
            dim=1,
            degree=2,
        )
    )
    return out


def _label(inst):
    """The row label of a curve_instances() fixture: its equation."""
    return inst.name.rsplit(" ", 1)[-1]


def _check_affine_curve(rows, inst, qs, bs, budget):
    for b in bs:
        for q in qs:
            want = q ** math.ceil(b / inst.degree)
            res = count_points(inst.variety(q), b, budget=budget)
            rows.append(_row(_label(inst), f"count b={b} q={q}", want, res.count))


def _check_projective_curve(rows, inst, qs, bs, budget):
    for b in bs:
        rep = dim_estimate(inst, b, qs, budget=budget)
        want = 2 * math.ceil(b / inst.degree) - 1
        rows.append(
            _row(
                _label(inst),
                f"fitted dim b={b}",
                f"{want} (stable)",
                f"{rep.fit['dim']} ({'stable' if rep.fit['stable'] else 'unstable'})",
            )
        )


def _check_graph_surface(rows, inst, qs, bs, budget):
    for b in bs:
        rep = dim_estimate(inst, b, qs, budget=budget)
        rows.append(_row(_label(inst), f"fitted dim b={b}", b + 1, rep.fit["dim"]))
        qmax = max(qs)
        n_at = rep.counts[rep.qs.index(qmax)]
        margin = abs(n_at / qmax ** (b + 1) - b) / b
        rows.append(
            _row(
                _label(inst),
                f"leading constant b={b} q={qmax}",
                "within 25% of b",
                "within 25% of b" if margin <= 0.25 else f"off by {margin:.0%}",
            )
        )


def _check_nonreduced_cone(rows, inst, q, bs):
    X = inst.variety(q)
    for b in bs:
        S = expand(X, b)
        G = groebner(S.equations)
        top = f"x{b - 1}"
        xvar = parse_poly(top, S.var_names, G.gens[0].ring)
        inside, _ = ideal_member(xvar * xvar, G)
        outside, _ = ideal_member(xvar, G)
        rows.append(
            _row(
                _label(inst),
                f"b={b}: {top}^2 in I, {top} not in I",
                "True/False",
                f"{inside}/{outside}",
            )
        )


def _check_pell(rows, budget):
    for eq, bc, gc, want in PELL_INSTANCES:
        counts = []
        for q in PELL_QS:
            inst = pell_instance(bc, gc, q)
            sols = pell_solutions(inst, PELL_HEIGHT, budget=budget)
            counts.append(len(sols))
        rows.append(
            _row(
                "pell",
                f"{eq}: |solutions| h<={PELL_HEIGHT} across q={PELL_QS}",
                [want] * len(PELL_QS),
                counts,
            )
        )
    for n in (1, 2, 3):
        q = find_family_prime(n)
        fam = pell_family(n, q)
        hmax = max(
            max(y.deg, x.deg if not x.is_zero() else 0) for y, x in fam
        )
        good = len(fam) == 2**n and hmax <= n + 1
        rows.append(
            _row(
                "pell family",
                f"n={n} q={q}: 2^n distinct solutions of height <= n+1",
                f"{2 ** n} within bound",
                f"{len(fam)} within bound" if good else f"{len(fam)}, max h {hmax}",
            )
        )


# frozen counts for the sextic surface z = x^6 + y^6: removing the plane
# z = 0 (which carries every bounded line) freezes the census
THM_E_COUNTS = {3: 8, 5: 16, 7: 48}


def _check_spots(rows, budget):
    for q in (3, 5):
        X = variety_from_strs("affine", ("x", "y"), ("y - x^3",), q)
        res = count_points(X, 7, budget=budget)
        rows.append(_row("spot: y=x^3 deep", f"count b=7 q={q}", q**3, res.count))
    for q in (3, 5, 7, 11):
        X = variety_from_strs(
            "projective", ("x", "y", "z", "w"), ("x^6 + y^6 + z^6 - w^6",), q
        )
        res = count_points(X, 1, budget=budget)
        const = res.count / q**2
        rows.append(
            _row(
                "spot: sextic threefold section",
                f"b=1 q={q}: N/q^2 <= 7",
                True,
                const <= 7,
            )
        )
    for q, want in THM_E_COUNTS.items():
        got = []
        for b in (1, 2):
            X = variety_from_strs(
                "affine",
                ("x", "y", "z"),
                ("z - x^6 - y^6",),
                q,
                inequation_strs=("z",),
            )
            got.append(count_points(X, b, budget=budget).count)
        rows.append(
            _row(
                "spot: sextic surface minus line plane",
                f"q={q}: count stalls at b=1,2",
                [want, want],
                got,
            )
        )


def run_example_suite(qs=(3, 5, 7), bs=(1, 2, 3), budget=DEFAULT_BUDGET):
    """Every fixture, one CheckRow per assertion."""
    rows = []
    affine2, affine3, proj2, proj3, graph, cone = curve_instances()
    for inst in (affine2, affine3):
        _check_affine_curve(rows, inst, qs, bs, budget)
    for inst in (proj2, proj3):
        _check_projective_curve(rows, inst, qs, [b for b in bs if b <= 3], budget)
    _check_graph_surface(rows, graph, (5, 7, 11), [b for b in bs if b >= 2], budget)
    _check_nonreduced_cone(rows, cone, 5, [b for b in bs if b <= 3])
    _check_pell(rows, budget)
    _check_spots(rows, budget)
    return rows


# ---------------------------------------------------------------------------
# random hypersurface fixtures (conformance checks)
# ---------------------------------------------------------------------------


def random_hypersurfaces(rng, count: int = 10):
    """Integer-coefficient hypersurface instances, valid over every odd q.

    Guaranteed degree-d lead term plus a few lower random terms; coefficient
    literals stay in {1, 2, -1, -2} so no prime kills a term.
    """
    out = []
    for k in range(count):
        n = rng.choice((2, 3))
        d = rng.choice((2, 3, 4))
        names = ("x", "y") if n == 2 else ("x", "y", "z")
        lead = "*".join(
            f"{nm}^{e}" if e > 1 else nm
            for nm, e in zip(names, _random_partition(rng, d, n))
            if e
        )
        terms = [lead]
        for _ in range(rng.randrange(2, 5)):
            deg = rng.randrange(0, d)
            exps = _random_partition(rng, deg, n)
            coeff = rng.choice((1, 2, -1, -2))
            tpow = rng.choice((0, 0, 1))
            frag = []
            if tpow:
                frag.append("t")
            for nm, e in zip(names, exps):
                if e == 1:
                    frag.append(nm)
                elif e > 1:
                    frag.append(f"{nm}^{e}")
            body = "*".join(frag) if frag else "1"
            terms.append(f"{'+' if coeff > 0 else '-'} {abs(coeff)}*{body}")
        eq = terms[0] + " " + " ".join(terms[1:]) if len(terms) > 1 else terms[0]
        b = 2 if n == 3 else rng.choice((2, 3))
        out.append(
            (
                InstanceSpec(
                    name=f"random hypersurface #{k}",
                    ambient="affine",
                    names=names,
                    equations=(eq,),
                    inequations=(),
                    dim=n - 1,
                    degree=d,
                ),
                b,
            )
        )
    return out


def _random_partition(rng, total, parts):
    cuts = sorted(rng.randrange(0, total + 1) for _ in range(parts - 1))
    vals = []
    prev = 0
    for c in cuts:
        vals.append(c - prev)
        prev = c
    vals.append(total - prev)
    return tuple(vals)
