"""Command-line front end.

Machine-readable results go to stdout as JSON lines (one object per result);
human-readable progress and summaries go to stderr.  Exit codes: 0 success,
1 conformance failure or exhausted budget, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import census
from .census import BudgetExceeded, InstanceSpec, count_points, dim_estimate
from .detmethod import (
    CongruenceDatum,
    auxiliary_poly_affine,
    auxiliary_poly_projective,
    divisibility_exponent,
    monomial_basis,
)
from .groebner import groebner, ideal_member, krull_dimension
from .lattices import (
    PolyMatrix,
    kernel_lattice,
    lattice_height,
    linear_space_count,
    reduce_basis,
    short_kernel_vector,
)
from .parsing import ParseError, parse_poly, parse_unipoly
from .pell import (
    PellInstance,
    find_family_prime,
    pell_family,
    pell_solutions,
)
from .rings import PolyRing, PrimeField, UniPoly
from .suite import run_example_suite
from .varieties import HeightPoint, expand

USAGE_ERROR = 2
CONFORMANCE_ERROR = 1


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def _human(msg):
    sys.stderr.write(msg + "\n")


def _fail(reason, code, **extra):
    _emit({"error": True, "reason": reason, **extra})
    return code


_NAME_RE = re.compile(r"[A-Za-z_]\w*")


def _infer_names(texts):
    """Variable names in order of first appearance; t is the coefficient."""
    seen = []
    for text in texts:
        for m in _NAME_RE.finditer(text):
            w = m.group(0)
            if w != "t" and w not in seen:
                seen.append(w)
    if not seen:
        raise ParseError("no variables found", "; ".join(texts), 0)
    return tuple(seen)


def _parse_qs(text):
    try:
        qs = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime list: {text!r}")
    if not qs:
        raise argparse.ArgumentTypeError("empty prime list")
    return qs


def _parse_ints(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _load_instance(path) -> InstanceSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return InstanceSpec.from_json(json.load(fh))


def _instance_from_args(args) -> InstanceSpec:
    if getattr(args, "spec", None):
        return _load_instance(args.spec)
    if not getattr(args, "eq", None):
        raise SystemExit(_fail("need --spec or at least one --eq", USAGE_ERROR))
    ineqs = getattr(args, "ineq", None) or []
    names = (
        tuple(args.names.split(","))
        if getattr(args, "names", None)
        else _infer_names(args.eq + ineqs)
    )
    return InstanceSpec(
        name="cli instance",
        ambient=args.ambient,
        names=names,
        equations=tuple(args.eq),
        inequations=tuple(ineqs),
        dim=args.m if getattr(args, "m", None) is not None else len(names) - 1,
    )


def _matrix_from_arg(text, q) -> PolyMatrix:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            rows = json.load(fh)
    else:
        rows = json.loads(text)
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(r, list) and r for r in rows)
        and all(isinstance(s, str) for r in rows for s in r)
    ):
        raise ParseError("matrix must be a non-empty list of lists of strings", text, 0)
    return PolyMatrix.from_strs(rows, q)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_expand(args):
    X = _instance_from_args(args).variety(args.q)
    S = expand(X, args.b)
    _emit(S.to_json())
    _human(
        f"expanded {len(X.equations)} equation(s) at b={args.b}: "
        f"{S.nvars} variables, {len(S.equations)} equations"
    )
    return 0


def _cmd_census(args):
    budget = args.budget
    if args.mode == "count":
        inst = _instance_from_args(args)
        out = []
        for q in args.q:
            res = count_points(inst.variety(q), args.b, budget=budget)
            row = res.to_json()
            row["instance"] = inst.name
            _emit(row)
            out.append(res.count)
        _human(f"counts at b={args.b}: {dict(zip(args.q, out))}")
        return 0
    if args.mode == "dim":
        inst = _instance_from_args(args)
        rep = dim_estimate(inst, args.b, args.q, budget=budget)
        _emit(rep.to_json())
        fit = rep.fit
        if fit["slope"] is None:
            _human("no fit: a count is 0")
            return CONFORMANCE_ERROR
        _human(
            f"fitted dim {fit['dim']} (slope {fit['slope']:.3f}, "
            f"{'stable' if fit['stable'] else 'UNSTABLE'}), bound {rep.bound}"
        )
        return 0 if rep.conforms else CONFORMANCE_ERROR
    # suite
    rows = run_example_suite(qs=args.q, bs=args.b_list, budget=budget)
    failures = 0
    for row in rows:
        _emit(row.to_json())
        if not row.ok:
            failures += 1
    _human(f"suite: {len(rows) - failures}/{len(rows)} checks passed")
    return 0 if failures == 0 else CONFORMANCE_ERROR


def _cmd_lattice(args):
    q = args.q
    M = _matrix_from_arg(args.matrix, q)
    if args.mode == "reduce":
        rb = reduce_basis(M)
        _emit(rb.to_json())
        _human(f"minima {rb.minima}, height {rb.height()}")
        return 0
    if args.mode == "height":
        h = lattice_height(M)
        _emit({"height": h})
        _human(f"lattice height {h}")
        return 0
    if args.mode == "kernel":
        rb = kernel_lattice(M)
        _emit(rb.to_json())
        _human(f"kernel rank {rb.rank}, minima {rb.minima}")
        return 0
    if args.mode == "shortvec":
        v = short_kernel_vector(M)
        _emit({"vector": [str(e) for e in v]})
        _human("short kernel vector found")
        return 0
    k = linear_space_count(M, args.b)
    _emit({"b": args.b, "log_q_count": k})
    _human(f"|L(b)| = q^{k}")
    return 0


_CLASS_RE = re.compile(r"p=(?P<lam>-?\d+),P=(?P<pt>-?\d+(?::-?\d+)*)(?:,mu=(?P<mu>\d+))?$")


def _parse_class(text, field):
    m = _CLASS_RE.match(text)
    if not m:
        raise ParseError(f"bad congruence class {text!r}", text, 0)
    lam = int(m.group("lam")) % field.p
    pt = tuple(int(c) % field.p for c in m.group("pt").split(":"))
    mu = int(m.group("mu")) if m.group("mu") else None
    prime = UniPoly(field, [field.neg(lam), 1])
    return CongruenceDatum(prime, pt, mu)


def _cmd_detmethod(args):
    fld = PrimeField(args.q)
    ring = PolyRing(fld)
    if args.mode == "aux":
        if not args.f:
            return _fail("aux needs --f", USAGE_ERROR)
        names = (
            tuple(args.names.split(",")) if args.names else _infer_names([args.f])
        )
        f = parse_poly(args.f, names, ring)
        data = [_parse_class(c, fld) for c in args.cls or []]
        if args.affine:
            import random

            res = auxiliary_poly_affine(
                f, args.b, data, budget=args.budget, rng=random.Random(args.seed)
            )
        else:
            res = auxiliary_poly_projective(f, args.b, data, budget=args.budget)
        _emit(res.to_json(names))
        _human(
            f"g of degree {res.M} vanishing on {len(res.certificate)} point(s)"
            + (" (vacuous class)" if res.vacuous else "")
        )
        return 0
    # val
    if not args.points:
        return _fail("val needs --points", USAGE_ERROR)
    pts = []
    for chunk in args.points.split(";"):
        coords = tuple(
            parse_unipoly(c, fld) for c in chunk.split(":")
        )
        pts.append(HeightPoint(coords, projective=not args.affine))
    basis = monomial_basis(args.deg, len(pts[0].coords))
    prime = UniPoly(fld, [fld.neg(args.p % fld.p), 1])
    rep = divisibility_exponent(pts, basis, prime, multiplicity=args.mu)
    _emit(rep.to_json())
    _human(f"e = {rep.exponent}, rank {rep.rank}/{rep.s}")
    return 0


def _cmd_pell(args):
    fld = PrimeField(args.q) if args.q else None
    if args.mode == "solve":
        if not (args.beta and args.q):
            return _fail("solve needs --beta and --q", USAGE_ERROR)
        beta = parse_unipoly(args.beta, fld)
        gamma = parse_unipoly(args.gamma, fld)
        inst = PellInstance(beta, gamma)
        res = pell_solutions(inst, args.b, budget=args.budget)
        _emit(res.to_json())
        _human(f"{len(res)} solutions of height <= {args.b}")
        return 0
    q = args.q or find_family_prime(args.n)
    sols = pell_family(args.n, q)
    _emit(
        {
            "n": args.n,
            "q": q,
            "count": len(sols),
            "solutions": [[str(y), str(x)] for y, x in sols],
        }
    )
    _human(f"2^{args.n} = {len(sols)} solutions over F_{q}")
    return 0


def _cmd_groebner(args):
    if args.mode == "member" and not args.g:
        return _fail("member needs --g", USAGE_ERROR)
    inst = _instance_from_args(args)
    X = inst.variety(args.q)
    fld = PrimeField(args.q)
    if args.b:
        S = expand(X, args.b)
        eqs, names = S.equations, S.var_names
    else:
        # raw systems must be t-free; expanded systems already are
        eqs = tuple(
            _to_field_poly(e, fld, text) for e, text in zip(X.equations, inst.equations)
        )
        names = X.names
    nv = len(names)
    G = groebner(eqs, nvars=nv, field=fld)
    if args.mode == "dim":
        dim = krull_dimension(G)
        _emit(
            {
                "instance": inst.name,
                "b": args.b,
                "nvars": nv,
                "dim": dim,
                "basis_size": len(G.gens),
            }
        )
        _human(f"Krull dimension {dim} ({len(G.gens)} basis elements)")
        return 0
    ring = PolyRing(fld)
    g = parse_poly(args.g, names, ring)
    # expansion produces constant-coefficient equations; membership polynomials
    # must live over the same field
    member, nf = ideal_member(_to_field_poly(g, fld, args.g), G)
    _emit({"g": args.g, "member": member, "normal_form": str(nf)})
    _human(f"{args.g} {'in' if member else 'not in'} the ideal")
    return 0


def _to_field_poly(g, fld, text):
    if isinstance(g.ring, PrimeField):
        return g
    bad = [c for c in g.terms.values() if c.deg > 0]
    if bad:
        raise ParseError("polynomial must be t-free", text, 0)
    return g.map_coeffs(lambda c: c.coeff(0), fld)


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _default_budget():
    env = os.environ.get("FFHEIGHT_BUDGET")
    if not env:
        return census.DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"FFHEIGHT_BUDGET must be an integer, got {env!r}") from None


def build_parser():
    top = argparse.ArgumentParser(
        prog="ffheight",
        description="bounded-height point census over F_q(t) and friends",
    )
    top.add_argument("--seed", type=int, default=0, help="rng seed")
    sub = top.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expand", help="coefficient expansion of a variety")
    pe.add_argument("--ambient", choices=("affine", "projective"), default="affine")
    pe.add_argument("--eq", action="append", required=True)
    pe.add_argument("--ineq", action="append")
    pe.add_argument("--names")
    pe.add_argument("--b", type=int, required=True)
    pe.add_argument("--q", type=int, required=True)
    pe.set_defaults(fn=_cmd_expand)

    pc = sub.add_parser("census", help="exact counts and dimension fits")
    pc.add_argument("mode", choices=("count", "dim", "suite"))
    pc.add_argument("--spec", help="instance JSON file")
    pc.add_argument("--ambient", choices=("affine", "projective"), default="affine")
    pc.add_argument("--eq", action="append")
    pc.add_argument("--ineq", action="append")
    pc.add_argument("--names")
    pc.add_argument("--m", type=int, help="declared variety dimension")
    pc.add_argument("--b", type=int, default=2)
    pc.add_argument("--b-list", type=_parse_ints, default=(1, 2, 3))
    pc.add_argument("--q", type=_parse_qs, default=(3, 5, 7))
    pc.add_argument("--budget", type=int, default=None)
    pc.set_defaults(fn=_cmd_census)

    pl = sub.add_parser("lattice", help="O_K-lattice computations")
    pl.add_argument("mode", choices=("reduce", "height", "kernel", "shortvec", "count"))
    pl.add_argument("--matrix", required=True, help="JSON rows of poly strings, or @file")
    pl.add_argument("--q", type=int, required=True)
    pl.add_argument("--b", type=int, default=1)
    pl.set_defaults(fn=_cmd_lattice)

    pd = sub.add_parser("detmethod", help="auxiliary polynomials and divisibility")
    pd.add_argument("mode", choices=("aux", "val"))
    pd.add_argument("--f", help="defining polynomial")
    pd.add_argument("--names")
    pd.add_argument("--b", type=int, default=2)
    pd.add_argument("--q", type=int, required=True)
    pd.add_argument(
        "--class",
        dest="cls",
        action="append",
        help="congruence class p=<lam>,P=<a:b:c>[,mu=<m>]",
    )
    pd.add_argument("--affine", action="store_true")
    pd.add_argument("--points", help="val: semicolon-separated colon-tuples")
    pd.add_argument("--deg", type=int, default=1, help="val: basis degree")
    pd.add_argument("--p", type=int, default=0, help="val: residue lambda")
    pd.add_argument("--mu", type=int, default=1)
    pd.add_argument("--budget", type=int, default=None)
    pd.set_defaults(fn=_cmd_detmethod)

    pp = sub.add_parser("pell", help="Pell equations over F_q[t]")
    pp.add_argument("mode", choices=("solve", "family"))
    pp.add_argument("--beta")
    pp.add_argument("--gamma", default="1")
    pp.add_argument("--b", type=int, default=2)
    pp.add_argument("--n", type=int, default=1)
    pp.add_argument("--q", type=int)
    # no --budget flag: main() fills budget from FFHEIGHT_BUDGET
    pp.set_defaults(fn=_cmd_pell, budget=None)

    pg = sub.add_parser("groebner", help="ideal dimension and membership")
    pg.add_argument("mode", choices=("dim", "member"))
    pg.add_argument("--spec")
    pg.add_argument("--ambient", choices=("affine", "projective"), default="affine")
    pg.add_argument("--eq", action="append")
    pg.add_argument("--names")
    pg.add_argument("--b", type=int, default=0, help="expand at this bound first")
    pg.add_argument("--q", type=int, default=5)
    pg.add_argument("--g", help="member: polynomial to test")
    pg.set_defaults(fn=_cmd_groebner)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        if getattr(args, "budget", None) is None and hasattr(args, "budget"):
            args.budget = _default_budget()
        return args.fn(args)
    except ParseError as e:
        return _fail(str(e), USAGE_ERROR, kind="parse")
    except BudgetExceeded as e:
        return _fail("budget", CONFORMANCE_ERROR, estimate=e.estimate, detail=str(e))
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as e:
        return _fail(str(e), USAGE_ERROR, kind=type(e).__name__)


if __name__ == "__main__":
    sys.exit(main())
