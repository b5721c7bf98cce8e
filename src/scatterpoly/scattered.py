"""Scatteredness testing for pairs (f, t) over F_{q^n}.

The pair is scattered when the map x -> f(x)/x^(q^t) on nonzero field
elements has every fiber of size exactly q - 1, equivalently when every map
c*X^(q^t) - f(X) has kernel of F_q-dimension at most 1.  Both routes are
implemented: a fiber-bucketing scan (primary, produces witnesses) and a
kernel-dimension sweep over the scalars c (batched Gaussian elimination over
F_p, the package's one bulk kernel engine).  They must agree; small instances
are cross-checked inline.

The sweep ranks one scalar per orbit.  With mu a nonzero coefficient of f and
r the least divisor of N = e*d for which tau(x) = x^(p^r) fixes every f_i/mu,
the kernel dimension is constant on each orbit {mu*tau^k(c/mu)}; only the
least encoding of each orbit is ranked, in ascending order, and the other
scalars of the orbit copy its dimension.  r = N leaves every scalar alone
(the full sweep); a monomial has r = 1 and about order/N orbits.

Also here: linear-set weight spectra, extension-field scans, the decision
predicates for guaranteed non-scatteredness, the pair-product image, and the
completion search (a re-indexed sweep) behind the degree-q^2 facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf
from .gf import CeilingExceeded, FFElt, FieldCtx, FieldError, check_ceiling
from .linpoly import NormalizedInstance, QPoly, evaluate_vec, kernel_dim

REASON_KERNEL = "kernel dimension exceeds 1"
REASON_GCD = "gcd(k, n) > 1 with k <= n/4"
REASON_INEQUALITY = "component bound inequality with k <= n/4"

_INLINE_CROSSCHECK_MAX = 1 << 12
_CHUNK = 1 << 13  # scalars per batched elimination


@dataclass(frozen=True)
class ScatterVerdict:
    scattered: bool
    witness: tuple[FFElt, FFElt] | None


@dataclass(frozen=True)
class LinearSetReport:
    size: int
    weight_spectrum: dict
    max_weight: int


@dataclass(frozen=True)
class ScanEntry:
    m: int
    verdict: ScatterVerdict | None
    skipped: str | None = None


def _ratio_counts(f: QPoly, t: int, ceiling=None):
    """Ratios f(x)/x^(q^t) for every nonzero x, plus their fiber sizes.  On
    nonzero x the ratio is the power sum of f_j x^(q^j - q^t), exponents
    reduced mod (order - 1), so no division pass is needed."""
    ctx = f.ctx
    check_ceiling(ctx.order, ceiling)
    q, q1 = ctx.q, ctx.order - 1
    xs = np.arange(1, ctx.order, dtype=np.int64)
    ratios = ctx.power_sum([((pow(q, j, q1) - pow(q, t, q1)) % q1, c)
                            for j, c in enumerate(f.encs) if c], xs)
    counts = np.bincount(ratios, minlength=ctx.order)
    return xs, ratios, counts


def scatter_test(f: QPoly, t: int, ceiling=None) -> ScatterVerdict:
    """Fiber-count scatteredness test for an arbitrary nonzero pair (f, t).

    The witness, present iff not scattered, is the first pair (x, y) in
    canonical order with equal ratios and y/x outside F_q.
    """
    if f.is_zero():
        raise FieldError("scatteredness is undefined for the zero map")
    return _fiber_verdict(f.ctx, *_ratio_counts(f, t, ceiling))


def scatter_report(f: QPoly, t: int, ceiling=None) -> tuple[ScatterVerdict, LinearSetReport]:
    """scatter_test and linear_set_report_raw of a nonzero pair from one
    ratio scan."""
    if f.is_zero():
        raise FieldError("scatteredness is undefined for the zero map")
    xs, ratios, counts = _ratio_counts(f, t, ceiling)
    return _fiber_verdict(f.ctx, xs, ratios, counts), _weight_spectrum(f.ctx, counts)


def _fiber_verdict(ctx: FieldCtx, xs, ratios, counts) -> ScatterVerdict:
    fat = counts > ctx.q - 1
    if not fat.any():
        return ScatterVerdict(True, None)
    sel = fat[ratios]
    idx = int(np.argmax(sel))
    x_enc = int(xs[idx])
    mates = xs[ratios == ratios[idx]]
    ix = ctx.inv_i(x_enc)
    for m in mates.tolist():
        if m != x_enc and not ctx.in_subfield_i(ctx.mul_i(m, ix)):
            return ScatterVerdict(False, (FFElt(ctx, x_enc), FFElt(ctx, m)))
    raise FieldError("internal error: fat fiber without an off-line mate")


def _batch_rank_modp(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of square matrices over F_p.

    The layout is (rows, cols, batch) so every kernel runs on contiguous
    batch slices; `a` holds reduced entries in [0, p), in a dtype that holds
    (p-1)^2, and is consumed.  Row order is tracked with a used-mask.
    """
    n, _, nb = a.shape
    inv_arr = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=a.dtype)
    used = np.zeros((n, nb), dtype=bool)
    rank = np.zeros(nb, dtype=np.int64)
    # after a subtraction entries sit in [-(p-1)^2, p-1]; each round of
    # `x -= p * (x >> sign_shift)` adds p to the negative ones
    fix_rounds = 1 if p == 2 else ((p - 1) ** 2 + p - 1) // p
    sign_shift = 8 * a.itemsize - 1
    w = np.zeros((n, nb), dtype=a.dtype)
    for col in range(n):
        found = np.zeros(nb, dtype=bool)
        pivot_mask = np.empty((n, nb), dtype=bool)
        for r in range(n):
            cand = (a[r, col] != 0) & ~used[r] & ~found
            pivot_mask[r] = cand
            found |= cand
            used[r] |= cand
        rank += found
        if not found.any():
            continue
        tail = slice(col, n)
        for r in range(n):
            np.multiply(inv_arr[a[r, col]], pivot_mask[r], out=w[r])
        # w is nonzero on the pivot row only, so each sum is one product <= (p-1)^2
        pivn = np.einsum("rcb,rb->cb", a[:, tail, :], w, dtype=a.dtype) % p
        for r in range(n):
            fac = a[r, col] * ~used[r]
            if not fac.any():
                continue
            at = a[r, tail, :]
            at -= fac[None, :] * pivn
            for _ in range(fix_rounds):
                at -= p * (at >> sign_shift)
    return rank


def _frobenius_symmetry(f: QPoly) -> tuple[int, int]:
    """(mu, r): mu is the first nonzero coefficient of f and r the least
    divisor of N for which tau(x) = x^(p^r) fixes every f_i/mu (mu = 1, r = 1
    for the zero map).

    ker(c*X^(q^t) - f) = ker((c/mu)*X^(q^t) - f/mu), and tau maps it onto the
    kernel for tau(c/mu), so the kernel dimension is constant on each orbit
    {mu*tau^k(c/mu)}.  Any other nonzero coefficient gives the same r and the
    same orbits."""
    ctx = f.ctx
    mu = next((v for v in f.encs if v), 1)
    imu = ctx.inv_i(mu)
    gs = [ctx.mul_i(v, imu) for v in f.encs if v]
    r = next(r for r in range(1, ctx.N + 1)
             if ctx.N % r == 0 and all(ctx.pow_i(g, ctx.p ** r) == g for g in gs))
    return mu, r


def _conjugate(ctx: FieldCtx, mu: int, cs: np.ndarray, r: int, k: int) -> np.ndarray:
    """mu*tau^k(c/mu) = mu^(1-P) * c^P for each scalar c of cs, where
    tau(x) = x^(p^r) and P = p^(r*k): a one-term power sum."""
    P = ctx.p ** (r * k)
    return ctx.power_sum([(P, ctx.pow_i(mu, (1 - P) % (ctx.order - 1)))], cs)


def _orbit_leaders(ctx: FieldCtx, mu: int, r: int):
    """The scalars that are the least encoding of their orbit {mu*tau^k(c/mu)},
    ascending, in batches of _CHUNK (the last one shorter).  Pass k drops the
    candidates above their k-th conjugate; 0, the least encoding, stays."""
    pending = np.empty(0, dtype=np.int64)
    for start in range(0, ctx.order, _CHUNK):
        cs = np.arange(start, min(start + _CHUNK, ctx.order), dtype=np.int64)
        for k in range(1, ctx.N // r):
            cs = cs[cs <= _conjugate(ctx, mu, cs, r, k)]
        pending = np.concatenate([pending, cs])
        last = start + _CHUNK >= ctx.order
        while len(pending) >= _CHUNK or (last and len(pending)):
            yield pending[:_CHUNK]
            pending = pending[_CHUNK:]


def _kernel_dim_chunks(f: QPoly, t: int, ceiling):
    """Kernel dimensions of c*X^(q^t) - f for the orbit leaders c (see
    _frobenius_symmetry), ascending, as (leaders, dims, conjugates) per batch
    of _CHUNK leaders; conjugates lazily yields, for each k > 0, the k-th
    conjugate of every leader.  The ceiling is checked at the call, and each
    batch is ranked as it is drawn."""
    ctx = f.ctx
    check_ceiling(ctx.order, ceiling)
    mu, r = _frobenius_symmetry(f)
    p, n_p = ctx.p, ctx.N
    b = (p ** np.arange(n_p, dtype=np.int64))[:, None]  # power basis g^i, encoded p^i
    h, fb = ctx.frob_vec(b, t), evaluate_vec(f, b)
    entry = np.min_scalar_type(-(p - 1) ** 2)

    def ranked(cs):
        # column i of the map for scalar c is c*h_i - f(b_i); its digits are the rows
        enc = ctx.sub_vec(ctx.mul_vec(h, cs), fb)
        mats = np.empty((n_p, n_p, len(cs)), dtype=entry)
        for row in range(n_p):
            np.divmod(enc, p, out=(enc, mats[row]))
        dims = (n_p - _batch_rank_modp(mats, p)) // ctx.e
        return cs, dims, (_conjugate(ctx, mu, cs, r, k) for k in range(1, n_p // r))

    return map(ranked, _orbit_leaders(ctx, mu, r))


def kernel_dims_per_scalar(f: QPoly, t: int, ceiling=None) -> np.ndarray:
    """F_q-dimension of ker(c*X^(q^t) - f) for every scalar c, indexed by
    encoding.  Works on the F_p matrices of the maps; dim_Fp = e * dim_Fq.
    Only orbit leaders are ranked; every other scalar of an orbit copies the
    dimension of its leader."""
    chunks = _kernel_dim_chunks(f, t, ceiling)  # checks the ceiling before dims exists
    dims = np.empty(f.ctx.order, dtype=np.int64)
    for cs, ds, conjugates in chunks:
        dims[cs] = ds
        for conj in conjugates:
            dims[conj] = ds
    return dims


def scatter_test_kernel(f: QPoly, t: int, ceiling=None) -> bool:
    """Kernel-dimension scatteredness test: no scalar c may give a kernel of
    dimension 2 or more.  Ranks orbit leaders only, and stops at the first
    batch holding an offending one."""
    if f.is_zero():
        raise FieldError("scatteredness is undefined for the zero map")
    return not any((dims > 1).any() for _, dims, _ in _kernel_dim_chunks(f, t, ceiling))


def is_scattered(inst: NormalizedInstance, ceiling=None) -> ScatterVerdict:
    """Scatteredness of a normalized instance, witness included.

    On small fields the kernel-dimension route is run as well and the two
    verdicts are required to agree.
    """
    verdict = scatter_test(inst.f, inst.t, ceiling)
    if inst.f.ctx.order <= _INLINE_CROSSCHECK_MAX:
        if scatter_test_kernel(inst.f, inst.t, ceiling) != verdict.scattered:
            raise RuntimeError("internal error: scatteredness testers disagree")
    return verdict


def linear_set_report(inst: NormalizedInstance, ceiling=None) -> LinearSetReport:
    """Weight spectrum of the linear set defined by a normalized instance."""
    return linear_set_report_raw(inst.f, inst.t, ceiling)


def linear_set_report_raw(f: QPoly, t: int, ceiling=None) -> LinearSetReport:
    """Weight spectrum of the projective-line linear set defined by (f, t).

    The point spanned by (1, c) has weight w exactly when the fiber of the
    ratio map over c has size q^w - 1; the point spanned by (0, 1) never lies
    on the set for these instances.
    """
    if f.is_zero():
        raise FieldError("the zero map defines no linear set of full rank")
    return _weight_spectrum(f.ctx, _ratio_counts(f, t, ceiling)[2])


def _weight_spectrum(ctx: FieldCtx, counts) -> LinearSetReport:
    q = ctx.q
    by_size = {q ** w - 1: w for w in range(1, ctx.d + 1)}
    spectrum: dict[int, int] = {}
    for csize in np.unique(counts[counts > 0]):
        w = by_size.get(int(csize))
        if w is None:
            raise FieldError("internal error: fiber size is not q^w - 1")
        spectrum[w] = int((counts == csize).sum())
    return LinearSetReport(
        size=sum(spectrum.values()),
        weight_spectrum=spectrum,
        max_weight=max(spectrum) if spectrum else 0,
    )


def scan_extensions(f: QPoly, t: int, m_list, ceiling=None) -> list[ScanEntry]:
    """Rerun the scatteredness test over F_{q^(mn)} for each m.

    A failure at some m certifies the pair is not scattered there; the scan
    never claims more than consistency up to its horizon.  Extensions beyond
    the enumeration ceiling are reported as skipped and the scan continues.
    """
    ctx = f.ctx
    entries = []
    # |F_{q^(nm)}| = step^m, carried from one m to the next so that an
    # ascending horizon costs one big-by-small product per m
    step = ctx.p ** (ctx.e * ctx.d)
    last_m, size = 0, 1
    for m in m_list:
        if m < 1:
            raise FieldError("extension multipliers must be >= 1")
        if m < last_m:
            last_m, size = 0, 1
        size *= step ** (m - last_m)
        last_m = m
        try:
            check_ceiling(size, ceiling)
            ext = gf.make_field(ctx.p, ctx.e, ctx.d * m)
            phi = gf.embed(ctx, ext, ceiling=ceiling)
            fm = QPoly.from_encs(ext, [phi.map_enc(v) for v in f.encs])
            entries.append(ScanEntry(m, scatter_test(fm, t, ceiling)))
        except CeilingExceeded as exc:
            entries.append(ScanEntry(m, None, str(exc)))
    return entries


# ---------------------------------------------------------------------------
# Decision predicates for guaranteed non-scatteredness of the index-0 shape
# f = X^(q^i) + middle terms + b*X^(q^k).

def irreducible_component_inequality(q: int, i: int, k: int, ell: int) -> bool:
    """Exact rational test of
    q^(ell+i) + q^ell - q^(2i) - q^i + (q^i - q)^2/4 < (2/9)(q^k - q)^2."""
    if not (1 <= i < k):
        raise FieldError("need 1 <= i < k")
    if not (i <= ell <= k):
        raise FieldError("need i <= ell <= k")
    lhs = (
        Fraction(q ** (ell + i))
        + q ** ell
        - q ** (2 * i)
        - q ** i
        + Fraction((q ** i - q) ** 2, 4)
    )
    rhs = Fraction(2, 9) * (q ** k - q) ** 2
    return lhs < rhs


def inequality_case_table(q: int, k: int, i: int) -> bool:
    """Where the component inequality holds with ell = i + 1, catalogued by
    small q: everywhere except a short list of low-degree cases."""
    if not (1 <= i < k):
        raise FieldError("need 1 <= i < k")
    if q in (2, 3):
        return k - i >= 2
    if q == 4:
        return (k, i) not in ((2, 1), (3, 2))
    if q == 5:
        return (k, i) != (2, 1)
    return q > 5


@dataclass(frozen=True)
class NotScatteredVerdict:
    guaranteed: bool
    reason: str | None
    ell: int

    @property
    def inconclusive(self) -> bool:
        return not self.guaranteed


def not_scattered_verdict(f: QPoly, i: int, k: int, n: int) -> NotScatteredVerdict:
    """Decide whether the index-0 instance is certainly not scattered.

    f must have shape X^(q^i) + middle + b*X^(q^k) with b != 0 and 1 <= i < k.
    Checks, in order: a kernel of dimension above 1; gcd(k, n) > 1 with
    k <= n/4; the component bound inequality with k <= n/4.  Anything else is
    inconclusive (the instance may or may not be scattered).
    """
    ctx = f.ctx
    if ctx.d != n:
        raise FieldError("n does not match the coefficient field")
    if not (1 <= i < k):
        raise FieldError("need 1 <= i < k")
    sup = f.support()
    if not sup or min(sup) != i or f.qdegree() != k:
        raise FieldError("shape mismatch: support must run from i to k")
    if f.coeff(i) != ctx.one:
        raise FieldError("shape mismatch: lowest coefficient must be 1")
    ell = kernel_dim(f) + i
    if ell - i > 1:
        return NotScatteredVerdict(True, REASON_KERNEL, ell)
    if math.gcd(k, n) > 1 and 4 * k <= n:
        return NotScatteredVerdict(True, REASON_GCD, ell)
    if 4 * k <= n and irreducible_component_inequality(ctx.q, i, k, ell):
        return NotScatteredVerdict(True, REASON_INEQUALITY, ell)
    return NotScatteredVerdict(False, None, ell)


# ---------------------------------------------------------------------------
# Degree-q^2 completion facts.

def pair_product_image(ctx: FieldCtx, ceiling=None) -> set[FFElt]:
    """{u*v^q - v*u^q : u, v nonzero}, computed exhaustively."""
    check_ceiling(ctx.order, ceiling)
    vs = np.arange(1, ctx.order, dtype=np.int64)
    out: set[int] = set()
    for u in range(1, ctx.order):
        vals = ctx.power_sum([(ctx.q, u), (1, ctx.neg_i(ctx.frob_i(u, 1)))], vs)
        out.update(np.unique(vals).tolist())
    return {FFElt(ctx, v) for v in out}


def find_many_roots_completion(b: FFElt, ceiling=None) -> FFElt | None:
    """First a (canonical order) making X^(q^2) + a*X^q + b*X have a kernel of
    dimension exactly 2.  Requires Norm(b) = 1; returns None if no a works,
    which would contradict the classification and is treated as a test
    failure by callers.  The map is a*X^q - f with f = -b*X - X^(q^2), so one
    kernel sweep over all scalars a answers every candidate."""
    ctx = b.ctx
    if gf.norm_rel(b) != ctx.one:
        raise FieldError("precondition: the relative norm of b must be 1")
    f = QPoly(ctx, [-b, ctx.zero, -ctx.one])
    hits = np.flatnonzero(kernel_dims_per_scalar(f, 1, ceiling) == 2)
    return FFElt(ctx, int(hits[0])) if len(hits) else None
