"""Rank-metric codes spanned by x -> a*x^(q^t) + b*f(x) over F_{q^n}.

The code consists of q^(2n) F_q-linear maps; the rank distance of a nonzero
codeword is n minus its kernel dimension.  Scaling the pair (a, b) by a
nonzero field element fixes the kernel, so the q^n + 1 scaling classes (1, b)
and (0, 1) are read off one kernel sweep over c*X^(q^t) - f and the
histogram is scaled back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx, FieldError
from .linpoly import QPoly
from .scattered import ScatterVerdict, _kernel_dim_chunks, scatter_test


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
    """Distance sweep over the q^n + 1 scaling classes, never the codewords.
    X^(q^t) + b*f has the kernel of c*X^(q^t) - f with c = -1/b, so the sweep
    over c covers (1, b) for b != 0 and (0, 1) at c = 0; (1, 0) has kernel 0.
    Each leader of the sweep counts the scalars of its class."""
    ctx = spec.ctx
    n, q = ctx.d, ctx.q
    orbits, batches = _kernel_dim_chunks(spec.f, spec.t, ceiling)
    counts = sum(np.bincount(ds, weights=orbits.sizes(ls), minlength=n + 1) for ls, ds in batches)
    counts[0] += 1
    hist = {dim: int(cnt) * (ctx.order - 1) for dim, cnt in enumerate(counts) if cnt}
    dist = n - max(hist)
    return MRDReport(
        code_size=q ** (2 * n),
        min_distance=dist,
        is_mrd=(dist == n - 1),
        kernel_histogram=hist,
    )


def scattered_mrd_bridge(spec: CodeSpec, ceiling=None) -> bool:
    """Executable equivalence: the pair (f, t) is scattered exactly when the
    code has minimum distance n - 1.  True on every valid input."""
    report = min_distance(spec, ceiling)
    verdict: ScatterVerdict = scatter_test(spec.f, spec.t, ceiling)
    return verdict.scattered == (report.min_distance == spec.ctx.d - 1)
