"""Batch command-line surface.

Subcommands: field-info, scatter-test, linear-set, scan, mrd-check,
curve-build, curve-points, curve-infinity, curve-multiplicity,
curve-transform, curve-branch, verify.

Field arguments accept "p^e^d" (canonical modulus) or "p^e^d:c0,c1,...,cN"
(explicit modulus, constant term first).  q-polynomials are written
"c_0;c_1;...;c_k" with each coefficient a comma-separated coordinate vector
over F_p.  Reports are JSON (default) or CSV, byte-identical across runs for
the same configuration and seed.  A CSV table is cut from the JSON report and
written by csv.writer, which quotes a cell holding a comma.  Exit codes are 0
for success (scatter-test: scattered), 2 for a negative scatter verdict and 1
for errors, usage errors included, each reported as one "error: ..." line on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
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


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CLIError, so they reach main's one error line.  An
    argument that begins with '-' and a digit, such as "-1;0", is a value and
    not an option, as it is in "--point=-1;0"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        raise CLIError(message)


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
        if (i, j) in terms:
            raise CLIError(f"curve term {i},{j} is given twice")
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
    return None if witness is None else [render_elt(w) for w in witness]


def _table(header, *records):
    """`header` over one row per report record; a record's witness [x, y]
    fills the witness_x and witness_y columns."""
    rows = [header]
    for rec in records:
        cells = dict(rec)
        cells["witness_x"], cells["witness_y"] = rec.get("witness") or (None, None)
        rows.append([cells[k] for k in header])
    return rows


def _terms_table(terms: str):
    """The (i, j, coeff) rows of a nonzero curve rendered as "i,j:coeff;..."."""
    parts = (t.partition(":") for t in terms.split(";"))
    return [["i", "j", "coeff"]] + [[*head.split(","), coeff] for head, _, coeff in parts]


def _emit(report: dict, table, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------

def _cmd_field_info(args):
    ctx = parse_field(args.field)
    report = {
        "p": ctx.p,
        "e": ctx.e,
        "d": ctx.d,
        "q": ctx.q,
        "order": ctx.order,
        "modulus": ",".join(str(c) for c in ctx.modulus),
        "subfield_gen": render_elt(ctx.subfield_gen) if ctx.d > 1 else None,
    }
    return 0, report, _table(["p", "e", "d", "q", "order", "modulus", "subfield_gen"], report)


def _scatter_common(args):
    """Field and q-polynomial of a --f command, with the report head
    {"field", "f", "t"}; the index lies in [0, d)."""
    ctx = parse_field(args.field)
    f = parse_qpoly(ctx, args.f)
    if args.t < 0 or args.t >= ctx.d:
        raise CLIError(f"--t must lie in [0, {ctx.d})")
    return ctx, f, {"field": args.field, "f": render_qpoly(f), "t": args.t}


def _spectrum_fields(rep) -> dict:
    return {
        "size": rep.size,
        "max_weight": rep.max_weight,
        "weight_spectrum": {str(w): c for w, c in sorted(rep.weight_spectrum.items())},
    }


def _cmd_scatter_test(args):
    _, f, report = _scatter_common(args)
    verdict, rep = sc.scatter_report(f, args.t, args.ceiling)
    report.update(_spectrum_fields(rep), scattered=verdict.scattered,
                  witness=render_witness(verdict.witness))
    header = ["field", "t", "f", "scattered", "witness_x", "witness_y", "size", "max_weight"]
    return (0 if verdict.scattered else 2), report, _table(header, report)


def _cmd_linear_set(args):
    _, f, report = _scatter_common(args)
    report.update(_spectrum_fields(sc.linear_set_report_raw(f, args.t, args.ceiling)))
    return 0, report, [["weight", "points"], *report["weight_spectrum"].items()]


def _cmd_scan(args):
    _, f, report = _scatter_common(args)
    if args.m_max < 1:
        raise CLIError("--m-max must be at least 1")
    entries = sc.scan_extensions(f, args.t, range(1, args.m_max + 1), args.ceiling)
    # a skipped entry has no verdict, so its scattered and witness are None
    ents = [{"m": e.m, "skipped": e.skipped,
             "scattered": e.verdict and e.verdict.scattered,
             "witness": render_witness(e.verdict and e.verdict.witness)} for e in entries]
    failed_at = next((e["m"] for e in ents if e["scattered"] is False), None)
    summary = (f"scattered up to horizon {args.m_max}" if failed_at is None
               else f"non-exceptional (failed at m={failed_at})")
    report.update(m_max=args.m_max, entries=ents, summary=summary)
    return 0, report, _table(["m", "scattered", "witness_x", "witness_y", "skipped"], *ents)


def _cmd_mrd_check(args):
    ctx, f, report = _scatter_common(args)
    rep = rk.min_distance(rk.CodeSpec(ctx, args.t, f), args.ceiling)
    hist = {str(k): v for k, v in sorted(rep.kernel_histogram.items())}
    report.update(n=ctx.d, q=ctx.q, d=rep.min_distance, mrd=rep.is_mrd,
                  code_size=rep.code_size, kernel_histogram=hist)
    return 0, report, [["kernel_dim", "codewords"], *report["kernel_histogram"].items()]


def _get_curve(args):
    """The curve of --curve, or else the scatter curve of --f/--t, with its field."""
    if args.f and not args.curve:
        ctx, f, _ = _scatter_common(args)
        return ctx, cv.build_scatter_curve(f, args.t)
    ctx = parse_field(args.field)
    if not args.curve:
        raise CLIError("provide --f/--t for a scatter curve or --curve for raw terms")
    return ctx, parse_curve(ctx, args.curve)


def _cmd_curve_build(args):
    _, f, report = _scatter_common(args)
    c = cv.build_scatter_curve(f, args.t)
    report.update(degree=c.degree(), terms=render_curve(c))
    return 0, report, _terms_table(report["terms"])


def _ext_field(ctx: FieldCtx, args) -> FieldCtx:
    if args.ext < 1:
        raise CLIError("--ext must be at least 1")
    # before the extension field is made or read
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
    return 0, report, _table(["ext", "predicate", "count", "witness_x", "witness_y"], report)


def _cmd_curve_infinity(args):
    ctx, c = _get_curve(args)
    ext = _ext_field(ctx, args)
    pts = cv.points_at_infinity(c, ext, args.ceiling)
    report = {
        "field": args.field,
        "ext": args.ext,
        "count": len(pts),
        "points": [":".join(render_elt(coord) for coord in p) for p in pts],
    }
    return 0, report, [["x", "y", "z"], *(p.split(":") for p in report["points"])]


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
        "tangent_cone": render_curve(cone),
        "ordinary": cv.is_ordinary(cone) if m >= 1 else None,
    }
    return 0, report, _table(["multiplicity", "ordinary", "tangent_cone"], report)


def _cmd_curve_transform(args):
    _, out = _get_curve(args)
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
    return 0, report, _terms_table(report["terms"])


def _cmd_curve_branch(args):
    _, c = _get_curve(args)
    if args.terms < 1:
        raise CLIError("--terms must be at least 1")
    # the expansion costs about terms^2 * deg_Y field operations
    gf.check_ceiling(args.terms ** 2 * c.deg_y(), args.ceiling)
    report = {
        "field": args.field,
        "terms": args.terms,
        "coefficients": [render_elt(x) for x in cv.branch_series(c, args.terms)],
    }
    return 0, report, [["k", "coeff"], *enumerate(report["coefficients"], 1)]


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
    table = [["suite", "passed", "checks", "failures"],
             [result.name, result.passed, result.checks, len(result.failures)]]
    return (0 if result.passed else 1), report, table


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="scatterpoly", description=__doc__)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process: parse_args reads the parser and
    leaves it as it was, and a build costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.ceiling is not None and args.ceiling <= 0:
            raise CLIError("--ceiling must be positive")
        code, report, table = args.fn(args)
        report["seed"] = args.seed
        _emit(report, table, args)
    except SystemExit:
        # usage errors raise CLIError, so only --help exits the parser
        return 0
    except (CLIError, FieldError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
