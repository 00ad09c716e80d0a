"""Command line front end.

Curves are always given by their five a-invariants (labels may appear in
shell comments only); field elements are written 'a+b*sqrt(m)' with exact
rationals. Exit codes: 0 success, 1 input error, 2 hypothesis failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .descent import (DescentContext, HypothesisError, descent_report, psi,
                      psi_vector, quadratic_point_search, sel_p_dim_if_applicable,
                      selmer_phi, selmer_phihat_dim)
from .ellcurve import Curve, Point
from .logpic import LogDivisor
from .pairing import log_pairing, pairing_group
from .qfield import QuadField, format_element, make_field, parse_element

SCHEMA = 1


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # hypothesis failures
    def error(self, message):
        raise InputError(message)


def _add_common(sp, need_p=True):
    sp.add_argument("--D", type=int, default=None,
                    help="field discriminant or squarefree radicand; omit for Q")
    for i in (1, 2, 3, 4, 6):
        sp.add_argument(f"--a{i}", default="0")
    if need_p:
        sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)


def build_parser() -> _Parser:
    ap = _Parser(prog="logdescent")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="reduction data and place classification")
    _add_common(c)
    c.add_argument("--P", required=True, help="kernel point 'x,y' on the curve")

    s = sub.add_parser("selmer", help="the phi-Selmer group")
    _add_common(s)
    s.add_argument("--P", required=True)

    pr = sub.add_parser("pairing", help="the pairing of two points")
    _add_common(pr, need_p=False)
    pr.add_argument("--point", action="append", required=True,
                    help="exactly two points 'x,y'")

    ps = sub.add_parser("psi", help="the class-invariant homomorphism")
    _add_common(ps)
    ps.add_argument("--P", required=True)
    ps.add_argument("--point", action="append", required=True)

    se = sub.add_parser("search", help="quadratic points with bounded x")
    _add_common(se)
    se.add_argument("--P", required=True)
    se.add_argument("--xbound", type=int, required=True)

    r = sub.add_parser("report", help="full descent report")
    _add_common(r)
    r.add_argument("--P", required=True)
    r.add_argument("--point", action="append", default=[])
    return ap


# -- input parsing ----------------------------------------------------------


def _field(args) -> QuadField:
    try:
        return make_field(args.D)
    except ValueError as e:
        raise InputError(str(e))


def _curve(args, K: QuadField) -> Curve:
    try:
        ainvs = [parse_element(K, getattr(args, f"a{i}")) for i in (1, 2, 3, 4, 6)]
        return Curve(K, *ainvs)
    except ValueError as e:
        raise InputError(str(e))


def _point(E: Curve, s: str) -> Point:
    parts = s.split(",")
    if len(parts) != 2:
        raise InputError(f"point {s!r} must be 'x,y'")
    try:
        return E.point(parse_element(E.field, parts[0]),
                       parse_element(E.field, parts[1]))
    except ValueError as e:
        raise InputError(str(e))


# -- serialization ----------------------------------------------------------


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _divisor_json(D: LogDivisor):
    return {"S": [p.label() for p, _ in D.sorted_items()],
            "coeffs": [{"place": p.label(), "num": a.numerator, "den": a.denominator}
                       for p, a in D.sorted_items()]}


def _pretty_divisor(D: LogDivisor) -> str:
    if not D.coeffs:
        return "0"
    return " + ".join(f"{_frac(a)} {p.label()}" for p, a in D.sorted_items())


def _normalize(group, D: LogDivisor) -> LogDivisor:
    """Prefer the fractional-part representative when it gives the same
    class."""
    N = LogDivisor(D.field, dict(group.nu(D)))
    return N if group.equal(D, N) else D


def _emit(args, objs: list, text: str) -> None:
    """Write text, or the objects one JSON line each, to stdout or --out."""
    if args.format == "json":
        out = "".join(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
                      for obj in objs)
    else:
        out = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# -- subcommands ------------------------------------------------------------


def _context(args) -> DescentContext:
    K = _field(args)
    E = _curve(args, K)
    P = _point(E, args.P)
    try:
        return DescentContext(E, P, args.p)
    except ValueError as e:
        raise InputError(str(e))


def cmd_classify(args) -> int:
    ctx = _context(args)
    places = [{
        "v": c.prime.label(),
        "kodaira": c.ld_E.kodaira,
        "kodaira'": c.ld_E2.kodaira,
        "class": c.direction,
        "a_phi": _frac(c.a_phi),
        "a_phihat": _frac(c.a_dual),
        "c": c.ld_E.c,
        "c'": c.ld_E2.c,
    } for c in ctx.classifications]
    obj = {
        "schema": SCHEMA,
        "p": ctx.p,
        "curves": {"E": [format_element(a) for a in ctx.E.ainvs],
                   "E'": [format_element(a) for a in ctx.Eprime.ainvs]},
        "P": [format_element(ctx.P.x), format_element(ctx.P.y)],
        "places": places,
        "S1": [p.label() for p in ctx.S1],
        "S2": [p.label() for p in ctx.S2],
        "hypotheses": {"satisfied": not ctx.failures, "failures": ctx.failures},
    }
    lines = [f"phi: E -> E' of degree {ctx.p} over {ctx.field}",
             f"E  = {ctx.E.ainvs}", f"E' = {ctx.Eprime.ainvs}",
             f"{'place':<16}{'E':<6}{'E_prime':<9}{'class':<10}"
             f"{'a_phi':<7}{'a_phihat':<9}{'c':<4}c'"]
    for c in ctx.classifications:
        lines.append(f"{c.prime.label():<16}{c.ld_E.kodaira:<6}{c.ld_E2.kodaira:<9}"
                     f"{c.direction:<10}{_frac(c.a_phi):<7}{_frac(c.a_dual):<9}"
                     f"{c.ld_E.c:<4}{c.ld_E2.c}")
    lines.append(f"S1 = {[p.label() for p in ctx.S1]}")
    lines.append(f"S2 = {[p.label() for p in ctx.S2]}")
    lines.append("hypotheses: " + ("satisfied" if not ctx.failures
                                   else "; ".join(ctx.failures)))
    _emit(args, [obj], "\n".join(lines))
    return 0


def cmd_selmer(args) -> int:
    ctx = _context(args)
    sel = selmer_phi(ctx)
    dims = {"sel_phi": sel.dim, "sel_phihat": selmer_phihat_dim(ctx, sel)}
    selp = sel_p_dim_if_applicable(ctx, sel)
    if selp is not None:
        dims["sel_p"] = selp
    obj = {
        "schema": SCHEMA,
        "S1": [p.label() for p in ctx.S1],
        "S2": [p.label() for p in ctx.S2],
        "h1_basis": [format_element(g) for g in sel.h1.gens],
        "matrix": sel.matrix,
        "selmer_basis": [format_element(x) for x in sel.basis_elements()],
        "dims": dims,
    }
    lines = [f"S1 = {obj['S1']}", f"S2 = {obj['S2']}",
             f"H^1(U_1, mu_p) basis: {obj['h1_basis']}",
             f"localization matrix: {sel.matrix}",
             f"Selmer basis: {obj['selmer_basis']}",
             f"dim Sel^phi = {dims['sel_phi']}, dim Sel^phihat = {dims['sel_phihat']}"
             + (f", dim Sel^p = {selp}" if selp is not None else "")]
    _emit(args, [obj], "\n".join(lines))
    return 0


def cmd_pairing(args) -> int:
    K = _field(args)
    E = _curve(args, K)
    if len(args.point) != 2:
        raise InputError("pairing needs exactly two --point arguments")
    Q, R = (_point(E, s) for s in args.point)
    G = pairing_group(E)
    D = _normalize(G, log_pairing(E, Q, R))
    coords = list(G.class_coords(D))
    obj = {"schema": SCHEMA,
           "divisor": _divisor_json(D),
           "class_coords": coords,
           "group_divisors": G.coker.divisors}
    lines = [f"<Q,R>^log = {_pretty_divisor(D)}",
             f"class in logPic: {coords} on cyclic factors {G.coker.divisors}"]
    _emit(args, [obj], "\n".join(lines))
    return 0


def cmd_psi(args) -> int:
    ctx = _context(args)
    ctx.require_hypotheses()
    T = ctx.torsion()
    values = []
    lines = []
    for s in args.point:
        Q = _point(ctx.Eprime, s)
        D = _normalize(T.group, psi(ctx, Q))
        vec = psi_vector(ctx, Q)
        values.append({"point": [format_element(Q.x), format_element(Q.y)],
                       "divisor": _divisor_json(D), "vector": vec,
                       "zero": not any(vec)})
        lines.append(f"psi(({format_element(Q.x)}, {format_element(Q.y)})) = "
                     f"{_pretty_divisor(D)}  [vector {vec}]")
    obj = {"schema": SCHEMA, "S1": [p.label() for p in ctx.S1],
           "logpic_torsion_dim": T.dim, "values": values}
    _emit(args, [obj], "\n".join(lines))
    return 0


def cmd_search(args) -> int:
    K = _field(args)
    if not K.is_rational:
        raise InputError("search starts from a curve over Q; omit --D")
    E = _curve(args, K)
    P = _point(E, args.P)
    results = quadratic_point_search(E, P, args.p, args.xbound)
    rows = []
    lines = []
    for F, Q, D in results:
        rows.append({"D": F.disc, "x": format_element(Q.x),
                     "y": format_element(Q.y), "psi": _divisor_json(D)})
        lines.append(f"D={F.disc}  Q=({format_element(Q.x)}, {format_element(Q.y)})"
                     f"  psi = {_pretty_divisor(D)}")
    # JSON: one object per line, in deterministic search order
    _emit(args, [{"schema": SCHEMA, **r} for r in rows],
          "\n".join(lines) if lines else "no points found")
    return 0


def cmd_report(args) -> int:
    ctx = _context(args)
    pts = [_point(ctx.Eprime, s) for s in args.point]
    rep = descent_report(ctx, pts)
    rep.psi_values = [_normalize(ctx.torsion().group, D) for D in rep.psi_values]
    obj = {
        "schema": SCHEMA,
        "S1": [p.label() for p in ctx.S1],
        "S2": [p.label() for p in ctx.S2],
        "dims": {"sel_phi": rep.sel.dim, "sel_phihat": rep.sel_phihat_dim,
                 **({"sel_p": rep.sel_p_dim} if rep.sel_p_dim is not None else {}),
                 "logpic_torsion": rep.logpic_dim},
        "psi": [_divisor_json(D) for D in rep.psi_values],
        "ranks": {"psi": rep.psi_rank, "kappa": rep.kappa_rank},
        "kernels": {"ker_psi": rep.ker_psi_dim, "ker_psi_sel": rep.ker_psi_sel_dim,
                    "coker_psi_sel": rep.coker_psi_sel_dim},
        "sha_phi": {"lower": rep.sha_phi.lower, "upper": rep.sha_phi.upper},
    }
    d = obj["dims"]
    lines = [f"S1 = {obj['S1']}, S2 = {obj['S2']}",
             f"dim Sel^phi = {d['sel_phi']}, dim Sel^phihat = {d['sel_phihat']}"
             + (f", dim Sel^p = {rep.sel_p_dim}" if rep.sel_p_dim is not None else ""),
             f"dim logPic(X,S1)[p] = {rep.logpic_dim}",
             "psi values: " + "; ".join(_pretty_divisor(D) for D in rep.psi_values),
             f"rank psi = {rep.psi_rank}, rank kappa = {rep.kappa_rank}",
             f"dim ker(psi on E'(K)/phi) = {rep.ker_psi_dim}, "
             f"dim ker(psi_sel) = {rep.ker_psi_sel_dim}, "
             f"dim coker(psi_sel) = {rep.coker_psi_sel_dim}",
             f"dim Sha[phi] (assuming the points generate): "
             f"{rep.sha_phi.lower} <= dim <= {rep.sha_phi.upper}"]
    _emit(args, [obj], "\n".join(lines))
    return 0


_COMMANDS = {"classify": cmd_classify, "selmer": cmd_selmer, "pairing": cmd_pairing,
             "psi": cmd_psi, "search": cmd_search, "report": cmd_report}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except HypothesisError as e:
        print(f"hypothesis failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
