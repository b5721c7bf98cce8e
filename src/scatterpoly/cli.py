"""Batch command-line surface.

Subcommands: field-info, scatter-test, linear-set, scan, mrd-check,
curve-build, curve-points, curve-infinity, curve-multiplicity,
curve-transform, curve-branch, verify.

Field arguments accept "p^e^d" (canonical modulus) or "p^e^d:c0,c1,...,cN"
(explicit modulus, constant term first).  q-polynomials are written
"c_0;c_1;...;c_k" with each coefficient a comma-separated coordinate vector
over F_p.  Reports are JSON (default) or CSV, byte-identical across runs for
the same configuration and seed; exit codes are 0 for success (scatter-test:
scattered), 2 for a negative scatter verdict and 1 for errors, each reported as
one "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import curve as cv
from . import gf
from . import rankcode as rk
from . import scattered as sc
from . import suites
from .gf import FFElt, FieldCtx, FieldError
from .linpoly import QPoly


class CLIError(Exception):
    pass


def parse_field(spec: str) -> FieldCtx:
    body, _, modpart = spec.partition(":")
    parts = body.split("^")
    if len(parts) != 3:
        raise CLIError(f"field spec {spec!r} is not of the form p^e^d")
    try:
        p, e, d = (int(x) for x in parts)
    except ValueError:
        raise CLIError(f"field spec {spec!r} has non-integer components") from None
    modulus = None
    if modpart:
        try:
            modulus = tuple(int(x) for x in modpart.split(","))
        except ValueError:
            raise CLIError(f"bad modulus coefficient list {modpart!r}") from None
    try:
        return gf.make_field(p, e, d, modulus)
    except FieldError as exc:
        raise CLIError(str(exc)) from None


def parse_elt(ctx: FieldCtx, lit: str) -> FFElt:
    try:
        coords = [int(x) for x in lit.split(",")]
    except ValueError:
        raise CLIError(f"bad element literal {lit!r}") from None
    if len(coords) > ctx.N:
        raise CLIError(f"element literal {lit!r} has more than {ctx.N} coordinates")
    return ctx.from_coeffs(coords)


def parse_qpoly(ctx: FieldCtx, text: str) -> QPoly:
    poly = QPoly(ctx, [parse_elt(ctx, part) for part in text.split(";")])
    if poly.is_zero():
        raise CLIError("f must be nonzero")
    return poly


def parse_curve(ctx: FieldCtx, text: str) -> cv.BivarPoly:
    terms = {}
    for part in text.split(";"):
        head, _, lit = part.partition(":")
        try:
            i, j = (int(x) for x in head.split(","))
        except ValueError:
            raise CLIError(f"bad curve term {part!r}") from None
        terms[(i, j)] = parse_elt(ctx, lit)
    return cv.BivarPoly(ctx, terms)


def render_elt(x: FFElt) -> str:
    coords = list(x.coeffs)
    while len(coords) > 1 and coords[-1] == 0:
        coords.pop()
    return ",".join(str(c) for c in coords)


def render_qpoly(f: QPoly) -> str:
    return ";".join(render_elt(c) for c in f.coeffs)


def render_curve(f_poly: cv.BivarPoly) -> str:
    return ";".join(
        f"{i},{j}:{render_elt(f_poly.ctx.elem(c))}" for (i, j), c in f_poly.sorted_terms()
    )


def render_witness(witness):
    if witness is None:
        return None
    return [render_elt(witness[0]), render_elt(witness[1])]


def _emit(report: dict, csv_rows, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        header, rows = csv_rows
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join("" if v is None else str(v) for v in row) + "\n")
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------

def _cmd_field_info(args):
    ctx = parse_field(args.field)
    sub = render_elt(ctx.subfield_gen) if ctx.d > 1 else None
    report = {
        "p": ctx.p,
        "e": ctx.e,
        "d": ctx.d,
        "q": ctx.q,
        "order": ctx.order,
        "modulus": ",".join(str(c) for c in ctx.modulus),
        "subfield_gen": sub,
    }
    header = ["p", "e", "d", "q", "order", "modulus", "subfield_gen"]
    rows = [[ctx.p, ctx.e, ctx.d, ctx.q, ctx.order,
             '"' + report["modulus"] + '"', sub]]
    return 0, report, (header, rows)


def _scatter_common(args):
    """Field, q-polynomial and index of a --f command; the index lies in [0, d)."""
    ctx = parse_field(args.field)
    f = parse_qpoly(ctx, args.f)
    if args.t < 0 or args.t >= ctx.d:
        raise CLIError(f"--t must lie in [0, {ctx.d})")
    return ctx, f, args.t


def _cmd_scatter_test(args):
    ctx, f, t = _scatter_common(args)
    verdict = sc.scatter_test(f, t, args.ceiling)
    report = {
        "field": args.field,
        "f": render_qpoly(f),
        "t": t,
        "scattered": verdict.scattered,
        "witness": render_witness(verdict.witness),
    }
    rep = sc.linear_set_report_raw(f, t, args.ceiling)
    report["size"] = rep.size
    report["max_weight"] = rep.max_weight
    report["weight_spectrum"] = {str(w): c for w, c in sorted(rep.weight_spectrum.items())}
    header = ["field", "t", "f", "scattered", "witness_x", "witness_y", "size", "max_weight"]
    wx, wy = (report["witness"] or [None, None])
    rows = [[args.field, t, f'"{report["f"]}"', verdict.scattered, wx, wy, rep.size, rep.max_weight]]
    return (0 if verdict.scattered else 2), report, (header, rows)


def _cmd_linear_set(args):
    ctx, f, t = _scatter_common(args)
    rep = sc.linear_set_report_raw(f, t, args.ceiling)
    report = {
        "field": args.field,
        "f": render_qpoly(f),
        "t": t,
        "size": rep.size,
        "max_weight": rep.max_weight,
        "weight_spectrum": {str(w): c for w, c in sorted(rep.weight_spectrum.items())},
    }
    header = ["weight", "points"]
    rows = [[w, c] for w, c in sorted(rep.weight_spectrum.items())]
    return 0, report, (header, rows)


def _cmd_scan(args):
    ctx, f, t = _scatter_common(args)
    if args.m_max < 1:
        raise CLIError("--m-max must be at least 1")
    entries = sc.scan_extensions(f, t, range(1, args.m_max + 1), args.ceiling)
    ents = []
    failed_at = None
    for entry in entries:
        rec = {"m": entry.m}
        if entry.verdict is None:
            rec["skipped"] = entry.skipped
            rec["scattered"] = None
            rec["witness"] = None
        else:
            rec["skipped"] = None
            rec["scattered"] = entry.verdict.scattered
            rec["witness"] = render_witness(entry.verdict.witness)
            if not entry.verdict.scattered and failed_at is None:
                failed_at = entry.m
        ents.append(rec)
    if failed_at is not None:
        summary = f"non-exceptional (failed at m={failed_at})"
    else:
        summary = f"scattered up to horizon {args.m_max}"
    report = {
        "field": args.field,
        "f": render_qpoly(f),
        "t": t,
        "m_max": args.m_max,
        "entries": ents,
        "summary": summary,
    }
    header = ["m", "scattered", "witness_x", "witness_y", "skipped"]
    rows = []
    for rec in ents:
        wx, wy = (rec["witness"] or [None, None])
        rows.append([rec["m"], rec["scattered"], wx, wy, rec["skipped"]])
    return 0, report, (header, rows)


def _cmd_mrd_check(args):
    ctx, f, t = _scatter_common(args)
    spec = rk.CodeSpec(ctx, t, f)
    rep = rk.min_distance(spec, args.ceiling)
    report = {
        "field": args.field,
        "f": render_qpoly(f),
        "t": t,
        "n": ctx.d,
        "q": ctx.q,
        "d": rep.min_distance,
        "mrd": rep.is_mrd,
        "code_size": rep.code_size,
        "kernel_histogram": {str(k): v for k, v in sorted(rep.kernel_histogram.items())},
    }
    header = ["kernel_dim", "codewords"]
    rows = [[k, v] for k, v in sorted(rep.kernel_histogram.items())]
    return 0, report, (header, rows)


def _get_curve(args):
    """The curve of --curve, or else the scatter curve of --f/--t, with its field."""
    if args.f and not args.curve:
        ctx, f, t = _scatter_common(args)
        return ctx, cv.build_scatter_curve(f, t)
    ctx = parse_field(args.field)
    if not args.curve:
        raise CLIError("provide --f/--t for a scatter curve or --curve for raw terms")
    return ctx, parse_curve(ctx, args.curve)


def _cmd_curve_build(args):
    ctx, f, t = _scatter_common(args)
    c = cv.build_scatter_curve(f, t)
    report = {
        "field": args.field,
        "f": render_qpoly(f),
        "t": t,
        "degree": c.degree(),
        "terms": render_curve(c),
    }
    header = ["i", "j", "coeff"]
    rows = [[i, j, f'"{render_elt(ctx.elem(cc))}"'] for (i, j), cc in c.sorted_terms()]
    return 0, report, (header, rows)


def _ext_field(ctx: FieldCtx, args) -> FieldCtx:
    if args.ext < 1:
        raise CLIError("--ext must be at least 1")
    # before make_field, whose modulus search is slow for a large extension
    gf.check_ceiling(ctx.order ** args.ext, args.ceiling)
    return gf.make_field(ctx.p, ctx.e, ctx.d * args.ext)


def _cmd_curve_points(args):
    ctx, c = _get_curve(args)
    ext = _ext_field(ctx, args)
    pred = "ratio_not_in_Fq" if args.predicate == "ratio" else "all"
    res = cv.count_affine(c, ext, pred, args.ceiling)
    report = {
        "field": args.field,
        "ext": args.ext,
        "predicate": pred,
        "count": res.count,
        "witness": render_witness(res.witness),
    }
    wx, wy = (report["witness"] or [None, None])
    header = ["ext", "predicate", "count", "witness_x", "witness_y"]
    return 0, report, (header, [[args.ext, pred, res.count, wx, wy]])


def _cmd_curve_infinity(args):
    ctx, c = _get_curve(args)
    ext = _ext_field(ctx, args)
    pts = cv.points_at_infinity(c, ext, args.ceiling)
    rendered = [":".join(render_elt(coord) for coord in p) for p in pts]
    report = {
        "field": args.field,
        "ext": args.ext,
        "count": len(pts),
        "points": rendered,
    }
    header = ["x", "y", "z"]
    rows = [[render_elt(p[0]), render_elt(p[1]), render_elt(p[2])] for p in pts]
    return 0, report, (header, rows)


def _cmd_curve_multiplicity(args):
    ctx, c = _get_curve(args)
    parts = args.point.split(";")
    if len(parts) != 2:
        raise CLIError("--point must be two element literals separated by ';'")
    u, v = (parse_elt(ctx, p) for p in parts)
    m, cone = cv.multiplicity(c, (u, v))
    report = {
        "field": args.field,
        "point": [render_elt(u), render_elt(v)],
        "multiplicity": m,
        "tangent_cone": render_curve(cone) if not cone.is_zero() else "",
        "ordinary": cv.is_ordinary(cone) if m >= 1 else None,
    }
    header = ["multiplicity", "ordinary", "tangent_cone"]
    rows = [[m, report["ordinary"], f'"{report["tangent_cone"]}"']]
    return 0, report, (header, rows)


def _cmd_curve_transform(args):
    ctx, out = _get_curve(args)
    if args.repeat < 1:
        raise CLIError("--repeat must be at least 1")
    # each transform touches every term once
    gf.check_ceiling(args.repeat * len(out.terms), args.ceiling)
    for _ in range(args.repeat):
        out = cv.geometric_transform(out)
    report = {
        "field": args.field,
        "repeat": args.repeat,
        "degree": out.degree(),
        "terms": render_curve(out),
    }
    header = ["i", "j", "coeff"]
    rows = [[i, j, f'"{render_elt(ctx.elem(cc))}"'] for (i, j), cc in out.sorted_terms()]
    return 0, report, (header, rows)


def _cmd_curve_branch(args):
    _, c = _get_curve(args)
    if args.terms < 1:
        raise CLIError("--terms must be at least 1")
    # the expansion costs about terms^2 * deg_Y field operations
    gf.check_ceiling(args.terms ** 2 * c.deg_y(), args.ceiling)
    coeffs = cv.branch_series(c, args.terms)
    report = {
        "field": args.field,
        "terms": args.terms,
        "coefficients": [render_elt(x) for x in coeffs],
    }
    header = ["k", "coeff"]
    rows = [[k + 1, f'"{render_elt(x)}"'] for k, x in enumerate(coeffs)]
    return 0, report, (header, rows)


def _cmd_verify(args):
    try:
        result = suites.run_suite(args.suite, seed=args.seed, ceiling=args.ceiling)
    except KeyError:
        raise CLIError(
            f"unknown suite {args.suite!r}; choose from: " + ", ".join(sorted(suites.SUITES))
        ) from None
    report = {
        "suite": result.name,
        "passed": result.passed,
        "checks": result.checks,
        "failures": result.failures,
        "details": {k: v for k, v in sorted(result.details.items())},
    }
    header = ["suite", "passed", "checks", "failures"]
    rows = [[result.name, result.passed, result.checks, len(result.failures)]]
    return (0 if result.passed else 1), report, (header, rows)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scatterpoly", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, f=None):
        """Subcommand `name` running `fn(args)`; f=True adds a required --f
        with --t, f=False an optional one and --curve (the curve commands)."""
        sp = sub.add_parser(name, help=help)
        if name != "verify":
            sp.add_argument("--field", required=True, help="p^e^d or p^e^d:modulus")
        if f is not None:
            sp.add_argument("--f", required=f, help="q-polynomial c_0;c_1;...")
            sp.add_argument("--t", type=int, default=0, help="index t")
        if f is False:
            sp.add_argument("--curve", help="raw curve terms i,j:coeff;...")
        sp.add_argument("--ceiling", type=int, default=None, help="enumeration ceiling")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="write the report to this path")
        sp.set_defaults(fn=fn)
        return sp

    command("field-info", _cmd_field_info, "field parameters and canonical modulus")
    command("scatter-test", _cmd_scatter_test, "scatteredness verdict with witness", f=True)
    command("linear-set", _cmd_linear_set, "weight spectrum of the linear set", f=True)
    sp = command("scan", _cmd_scan, "scatteredness over extension fields", f=True)
    sp.add_argument("--m-max", type=int, required=True, help="scan horizon")
    command("mrd-check", _cmd_mrd_check, "rank-distance report for the pair code", f=True)
    command("curve-build", _cmd_curve_build, "build the scatter curve", f=True)

    sp = command("curve-points", _cmd_curve_points, "affine points over an extension", f=False)
    sp.add_argument("--ext", type=int, default=1, help="extension multiplier")
    sp.add_argument("--predicate", choices=("all", "ratio"), default="all")
    sp = command("curve-infinity", _cmd_curve_infinity, "points at infinity", f=False)
    sp.add_argument("--ext", type=int, default=1, help="extension multiplier")
    sp = command("curve-multiplicity", _cmd_curve_multiplicity, "multiplicity at a point", f=False)
    sp.add_argument("--point", required=True, help="x_lit;y_lit")
    sp = command("curve-transform", _cmd_curve_transform, "geometric transform", f=False)
    sp.add_argument("--repeat", type=int, default=1)
    sp = command("curve-branch", _cmd_curve_branch, "branch series", f=False)
    sp.add_argument("--terms", type=int, required=True)

    sp = command("verify", _cmd_verify, "run a named verification campaign")
    sp.add_argument("suite", help="suite name")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        if args.ceiling is not None and args.ceiling <= 0:
            raise CLIError("--ceiling must be positive")
        code, report, csv_rows = args.fn(args)
        report["seed"] = args.seed
        _emit(report, csv_rows, args)
    except (CLIError, FieldError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
