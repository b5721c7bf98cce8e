"""Rank-metric codes spanned by x -> a*x^(q^t) + b*f(x) over F_{q^n}.

The code consists of q^(2n) F_q-linear maps; the rank distance of a nonzero
codeword is n minus its kernel dimension.  Scaling the pair (a, b) by a
nonzero field element fixes the kernel, so the q^n + 1 scaling classes (1, b)
and (0, 1) are read off one kernel sweep over c*X^(q^t) - f and the
histogram is scaled back.  `min_distances` reads the codes of a stack over
one field with one t off one sweep, which on fields of at most
scattered._SWEEP_ALL_MAX elements ranks every scalar for every code at once;
`min_distance` is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx, FieldError
from .linpoly import QPoly
from .scattered import ScatterVerdict, _kernel_dim_chunks, _sweep_stacks, scatter_test


@dataclass(frozen=True)
class CodeSpec:
    ctx: FieldCtx
    t: int
    f: QPoly

    def __post_init__(self):
        if self.f.is_zero():
            raise FieldError("f must be nonzero")
        if self.f.ctx != self.ctx:
            raise FieldError("f lives in a different field")
        if not self.f.coeff(self.t).is_zero():
            raise FieldError(f"coefficient of f at index {self.t} must be zero")


@dataclass(frozen=True)
class MRDReport:
    code_size: int
    min_distance: int
    is_mrd: bool
    kernel_histogram: dict


def min_distance(spec: CodeSpec, ceiling=None) -> MRDReport:
    """Distance sweep over the q^n + 1 scaling classes, never the codewords:
    min_distances of a stack of one."""
    return min_distances([spec], ceiling)[0]


def min_distances(specs, ceiling=None) -> list[MRDReport]:
    """min_distance of each code of a stack over one field with one t.

    X^(q^t) + b*f has the kernel of c*X^(q^t) - f with c = -1/b, so the sweep
    over c covers (1, b) for b != 0 and (0, 1) at c = 0; (1, 0) has kernel 0.
    Each leader of the sweep counts the scalars of its class.  The sweep
    checks the ceiling before any table or stack is built; on fields of at
    most _SWEEP_ALL_MAX elements one sweep ranks every scalar for
    _CHUNK // order codes at a time, and above it each code is swept alone
    (_sweep_stacks)."""
    specs = list(specs)
    if not specs:
        return []
    ctx, t = specs[0].ctx, specs[0].t
    if any(s.t != t or s.ctx is not ctx and s.ctx != ctx for s in specs):
        raise FieldError("a stack of codes lies over one field with one t")
    n, q = ctx.d, ctx.q
    reports = []
    for stack in _sweep_stacks([s.f for s in specs]):
        orbits, batches = _kernel_dim_chunks(stack, t, ceiling)
        # one histogram row per code: dimension dim of code k counts at k*(n + 1) + dim
        offsets = (n + 1) * np.arange(len(stack))[:, None]
        counts = np.zeros(len(stack) * (n + 1))
        for ls, ds in batches:
            weights = np.broadcast_to(orbits.sizes(ls), ds.shape)
            counts += np.bincount((ds + offsets).ravel(), weights=weights.ravel(), minlength=len(counts))
        counts = counts.reshape(-1, n + 1)
        counts[:, 0] += 1
        for row in counts:
            hist = {dim: int(cnt) * (ctx.order - 1) for dim, cnt in enumerate(row) if cnt}
            dist = n - max(hist)
            reports.append(MRDReport(
                code_size=q ** (2 * n),
                min_distance=dist,
                is_mrd=(dist == n - 1),
                kernel_histogram=hist,
            ))
    return reports


def scattered_mrd_bridge(spec: CodeSpec, ceiling=None) -> bool:
    """Executable equivalence: the pair (f, t) is scattered exactly when the
    code has minimum distance n - 1.  True on every valid input."""
    report = min_distance(spec, ceiling)
    verdict: ScatterVerdict = scatter_test(spec.f, spec.t, ceiling)
    return verdict.scattered == (report.min_distance == spec.ctx.d - 1)
