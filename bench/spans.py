"""Span tracing of scatterpoly's public functions from outside the package.

`Tracer.install` replaces each function named in `GROUPS` with a wrapper at
every place the function object is bound: the module that defines it, every
scatterpoly module that imported it by name, module-level dicts such as
`suites.SUITES`, and the `FieldCtx` class for field methods.  Each call
records one span (name, start, end, parent, work) in flat arrays; spans nest
strictly because a repetition is a single thread, so a span's self time is
its duration minus the durations of its direct children.

Functions outside `GROUPS` (encoding helpers such as `FieldCtx.digits`, and
the methods of `QPoly`, `BivarPoly` and `UnivarPoly`) are not wrapped; their
time is self time of the wrapped caller.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


def _out_elems(args, kwargs, out):
    return np.size(out)


def _digit_elems(args, kwargs, out):
    return np.size(out) // args[0].N


def _one(args, kwargs, out):
    return 1


def _fiber_elems(args, kwargs, out):
    f = args[0].f if hasattr(args[0], "f") else args[0]
    return f.ctx.order - 1


def _full_sweep_scalars(args, kwargs, out):
    # scatter_test_kernel stops early on a non-scattered pair; only full
    # sweeps (verdict True, or the per-scalar table) count as swept scalars
    if isinstance(out, np.ndarray) or out is True:
        return args[0].ctx.order
    return 0


def _classes(args, kwargs, out):
    return args[0].ctx.order + 1


def _cell_terms(args, kwargs, out):
    f_poly = args[0]
    ext = (args[1] if len(args) > 1 else kwargs.get("ext")) or f_poly.ctx
    if f_poly.is_zero() or f_poly.degree() == 0 or f_poly.is_homogeneous():
        return 0  # answered without the grid
    return ext.order * ext.order * len(f_poly.terms)


SUITE_NAMES = (
    "monomial-law", "family-13", "corollary38", "remark32", "infinity-counts",
    "factorization", "alpha-image", "hasse-weil", "bridge", "theorem34-soundness",
)

# (group, module, function names, work per entry span, work unit, scale)
# A "Class.method" name wraps the method on the class.  Rates are reported
# as inclusive time of the group's entry spans divided by their work.
GROUPS = [
    ("gf.add_vec", "gf", ["FieldCtx.add_vec", "FieldCtx.sub_vec"], _out_elems, "ns_per_elem", 1e9),
    ("gf.mul_vec", "gf", ["FieldCtx.mul_vec", "FieldCtx.inv_vec"], _out_elems, "ns_per_elem", 1e9),
    ("gf.frob_vec", "gf", ["FieldCtx.frob_vec", "FieldCtx.pow_vec"], _out_elems, "ns_per_elem", 1e9),
    ("gf.digits_vec", "gf", ["FieldCtx.digits_vec"], _digit_elems, "ns_per_elem", 1e9),
    ("gf.scalar", "gf", ["FieldCtx." + m for m in ("add_i", "sub_i", "neg_i", "mul_i", "inv_i", "pow_i", "frob_i")],
     None, None, None),
    ("gf.embed", "gf", ["embed"], None, None, None),
    ("gf.other", "gf", ["make_field", "frobenius", "norm_rel", "trace_rel", "enumerate_elements",
                        "canonical_modulus", "is_irreducible", "FieldCtx.in_subfield_i",
                        "FieldCtx.subfield_coords", "FieldCtx.subfield_of_size_elems",
                        "FieldCtx.subfield_elems", "FieldCtx.mult_generator_enc"], None, None, None),
    ("linpoly.evaluate_vec", "linpoly", ["evaluate_vec"], _out_elems, "ns_per_elem", 1e9),
    ("linpoly.kernel_dim", "linpoly", ["kernel_dim", "as_matrix", "matrix_rank"], _one, "us_per_call", 1e6),
    ("linpoly.other", "linpoly", ["evaluate", "normalize", "compose_mod"], None, None, None),
    ("scattered.fiber", "scattered", ["scatter_test", "linear_set_report", "linear_set_report_raw"],
     _fiber_elems, "ns_per_elem", 1e9),
    ("scattered.kernel", "scattered", ["scatter_test_kernel", "kernel_dims_per_scalar"],
     _full_sweep_scalars, "us_per_scalar", 1e6),
    ("scattered.scan", "scattered", ["scan_extensions"], None, None, None),
    ("scattered.completion", "scattered", ["find_many_roots_completion"], None, None, None),
    ("scattered.other", "scattered", ["is_scattered", "not_scattered_verdict", "pair_product_image",
                                      "irreducible_component_inequality", "inequality_case_table"],
     None, None, None),
    ("rankcode.min_distance", "rankcode", ["min_distance"], _classes, "us_per_class", 1e6),
    ("rankcode.other", "rankcode", ["scattered_mrd_bridge"], None, None, None),
    ("curve.count_affine", "curve", ["count_affine"], _cell_terms, "ns_per_cell_term", 1e9),
    ("curve.build", "curve", ["build_scatter_curve", "scatter_curve_numerator"], None, None, None),
    ("curve.exact_divide", "curve", ["exact_divide"], None, None, None),
    ("curve.infinity", "curve", ["points_at_infinity", "infinity_chart"], None, None, None),
    ("curve.other", "curve", ["multiplicity", "is_ordinary", "geometric_transform", "branch_series",
                              "resultant_in_y", "hasse_weil_gap", "line_restriction"], None, None, None),
    ("suites.run_suite", "suites", ["run_suite"], None, None, None),
] + [
    ("suites." + name, "suites", ["run_" + name.replace("-", "_")], None, None, None)
    for name in SUITE_NAMES
] + [
    ("cli.main", "cli", ["main"], None, None, None),
]


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = [("gf.setup.table_build_s", "s")]
    for group, _, _, work, rate, _ in GROUPS:
        if group.startswith("suites."):
            continue
        specs += [(group + ".calls", "count"), (group + ".self_s", "s")]
        if work is not None:
            specs.append((group + "." + rate, rate.split("_per_")[0]))
    specs += [("suites.%s.wall_s" % name, "s") for name in SUITE_NAMES]
    specs += [("suites.self_s", "s"), ("trace.overhead_s", "s"), ("trace.untraced_s", "s"),
              ("trace.spans", "count")]
    return specs


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.groups: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.work = array("d")
        self._stack = [-1]
        self._undo = []
        self.marks: dict[str, int] = {}

    def mark(self, phase: str) -> None:
        """Spans recorded from here on belong to `phase`."""
        self.marks[phase] = len(self.name)

    def _wrap(self, fn, span_name: str, group_id: int, work):
        nid = len(self.names)
        self.names.append(span_name)
        self.groups.append(group_id)
        start, end, name, parent, work_arr = self.start, self.end, self.name, self.parent, self.work
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            work_arr.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if work is not None:
                work_arr[i] = work(args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "scatterpoly" or k.startswith("scatterpoly."))]
        gf = sys.modules["scatterpoly.gf"]
        for gid, (group, modname, fnames, work, _, _) in enumerate(GROUPS):
            module = sys.modules["scatterpoly." + modname]
            for fname in fnames:
                span_name = modname + "." + fname
                if "." in fname:
                    cls_name, attr = fname.split(".")
                    cls = getattr(gf, cls_name)
                    orig = cls.__dict__[attr]
                    if isinstance(orig, property):
                        new = property(self._wrap(orig.fget, span_name, gid, work))
                    else:
                        new = self._wrap(orig, span_name, gid, work)
                    setattr(cls, attr, new)
                    self._undo.append((setattr, cls, attr, orig))
                    continue
                orig = getattr(module, fname)
                new = self._wrap(orig, span_name, gid, work)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, new)
                            self._undo.append((setattr, mod, key, orig))
                        elif isinstance(val, dict):
                            for dk, dv in list(val.items()):
                                if dv is orig:
                                    val[dk] = new
                                    self._undo.append((dict.__setitem__, val, dk, orig))

    def uninstall(self) -> None:
        while self._undo:
            op, obj, key, orig = self._undo.pop()
            op(obj, key, orig)

    # -- analysis --------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        work = np.frombuffer(self.work, dtype=np.float64)
        return start, end, name, parent, work

    def self_times(self):
        start, end, _, parent, _ = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur, dur - covered

    def layer_metrics(self, timed_wall_s: float) -> tuple[dict, dict]:
        """Per-layer metrics over the timed phase (setup phase for the table
        build, both phases for `gf.embed`), plus the self-time accounting."""
        start, end, name, parent, work = self.arrays()
        dur, self_t = self.self_times()
        grp = np.array(self.groups, dtype=np.int64)[name]
        entry = np.where(parent >= 0, grp[np.maximum(parent, 0)], -1) != grp
        phase = np.zeros(len(name), dtype=np.int8)  # 0 setup, 1 generate, 2 timed
        phase[self.marks["generate"]:] = 1
        phase[self.marks["timed"]:] = 2
        out: dict = {}
        setup_top = (phase == 0) & (parent < 0)
        embed_gid = next(i for i, g in enumerate(GROUPS) if g[0] == "gf.embed")
        out["gf.setup.table_build_s"] = float(dur[setup_top & (grp != embed_gid)].sum())
        suites_self = 0.0
        for gid, (group, _, _, work_fn, rate, scale) in enumerate(GROUPS):
            sel = grp == gid
            sel &= (phase != 1) if group == "gf.embed" else (phase == 2)
            ent = sel & entry
            if group.startswith("suites."):
                suites_self += float(self_t[sel].sum())
                if group != "suites.run_suite":
                    out[group + ".wall_s"] = float(dur[ent].sum())
                continue
            out[group + ".calls"] = int(ent.sum())
            out[group + ".self_s"] = float(self_t[sel].sum())
            if work_fn is not None:
                w = ent & (work > 0)
                units = float(work[w].sum())
                out[group + "." + rate] = float(dur[w].sum()) / units * scale if units else 0.0
        out["suites.self_s"] = suites_self
        timed = phase == 2
        span_self = float(self_t[timed].sum())
        out["trace.untraced_s"] = timed_wall_s - float(dur[timed & (parent < 0)].sum())
        out["trace.spans"] = int(timed.sum())
        accounting = {
            "traced_wall_s": timed_wall_s,
            "span_self_sum_s": span_self,
            "untraced_remainder_s": out["trace.untraced_s"],
            "residual_s": timed_wall_s - span_self - out["trace.untraced_s"],
        }
        return out, accounting

    def save(self, path: str) -> None:
        start, end, name, parent, work = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start=start, end=end, work=work,
            marks=np.array([self.marks.get(k, -1) for k in ("setup", "generate", "timed")]),
        )
