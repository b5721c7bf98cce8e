"""Scatteredness testing for pairs (f, t) over F_{q^n}.

The pair is scattered when the map x -> f(x)/x^(q^t) on nonzero field
elements has every fiber of size exactly q - 1, equivalently when every map
c*X^(q^t) - f(X) has kernel of F_q-dimension at most 1.  Both routes are
implemented: a fiber-bucketing scan (primary, produces witnesses) and a
kernel-dimension sweep over the scalars c (batched Gaussian elimination over
F_p, the package's one bulk kernel engine: bit-packed rows for p = 2 and
p = 3, digit arrays for larger p).  They must agree; small instances are
cross-checked inline.

The ratio is constant on each F_q^*-line {lambda*x}, the points of the
linear set, so the fiber scan reads one x = gen^k per line, k below
M = (order - 1)/(q - 1), and evaluates there from k itself: a fiber of
q^w - 1 elements is (q^w - 1)/(q - 1) lines.  The witness is the first pair
of the full canonical order, found by walking encodings up to the first
element of a shared ratio and taking its least mate off its own line.

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
_SCAN_BLOCK = 1 << 14  # line points per evaluation of the line scan


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


def _ratio_terms(f: QPoly, t: int):
    """The ratio f(x)/x^(q^t) on nonzero x as power-sum terms: f_j x^(q^j - q^t),
    exponents reduced mod (order - 1), so no division pass is needed."""
    q, q1 = f.ctx.q, f.ctx.order - 1
    return [((pow(q, j, q1) - pow(q, t, q1)) % q1, c) for j, c in enumerate(f.encs) if c]


def _line_ratios(f: QPoly, t: int, ceiling=None):
    """The ratio on each F_q^*-line and the number of lines over each ratio.

    F_q^* is generated by gen^M, M = (order - 1)/(q - 1), so the lines are
    {gen^(k + jM)} and x = gen^k, 0 <= k < M, is one point of each; every
    exponent q^j - q^t is a multiple of q - 1, so the ratio is constant on a
    line.  lines[k] is the ratio at gen^k, evaluated from k itself in
    blocks of _SCAN_BLOCK exponents: block-sized temporaries are reused from
    the heap whatever state earlier allocations left it in, where line-length
    ones could be faulted in afresh on every scan."""
    ctx = f.ctx
    check_ceiling(ctx.order, ceiling)
    terms = _ratio_terms(f, t)
    lines = np.empty((ctx.order - 1) // (ctx.q - 1), dtype=np.int64)
    for lo in range(0, len(lines), _SCAN_BLOCK):
        ks = np.arange(lo, min(lo + _SCAN_BLOCK, len(lines)), dtype=np.int64)
        lines[lo : lo + len(ks)] = ctx.power_sum_at_logs(terms, ks)
    return lines, np.bincount(lines, minlength=ctx.order)


def _ratio_counts(f: QPoly, t: int, ceiling=None):
    """The per-x view of the line scan: (xs, ratios, counts) with xs every
    nonzero x ascending, ratios[i] the ratio at xs[i] and counts[c] the
    number of x with ratio c (q - 1 per line).  x = gen^k lies on line
    k mod M, so the line ratios tiled q - 1 times are the ratios at gen^0,
    gen^1, ..., placed at their encodings."""
    ctx = f.ctx
    lines, line_counts = _line_ratios(f, t, ceiling)
    powers = ctx.power_sum_at_logs([(1, 1)], np.arange(ctx.order - 1, dtype=np.int64))
    ratios = np.empty(ctx.order - 1, dtype=np.int64)
    ratios[powers - 1] = np.tile(lines, ctx.q - 1)
    return np.arange(1, ctx.order, dtype=np.int64), ratios, line_counts * (ctx.q - 1)


def scatter_test(f: QPoly, t: int, ceiling=None) -> ScatterVerdict:
    """Fiber-count scatteredness test for an arbitrary nonzero pair (f, t).

    The ratio is scanned on one x per F_q^*-line (see _line_ratios); the pair
    is scattered iff no two lines share a ratio.  The witness, present iff
    not scattered, is the first pair (x, y) in canonical order with equal
    ratios and y/x outside F_q.
    """
    if f.is_zero():
        raise FieldError("scatteredness is undefined for the zero map")
    return _fiber_verdict(f, t, *_line_ratios(f, t, ceiling))


def scatter_report(f: QPoly, t: int, ceiling=None) -> tuple[ScatterVerdict, LinearSetReport]:
    """scatter_test and linear_set_report_raw of a nonzero pair from one
    line scan."""
    if f.is_zero():
        raise FieldError("scatteredness is undefined for the zero map")
    lines, line_counts = _line_ratios(f, t, ceiling)
    return _fiber_verdict(f, t, lines, line_counts), _weight_spectrum(f.ctx, line_counts)


def _fiber_verdict(f: QPoly, t: int, lines, line_counts) -> ScatterVerdict:
    """The verdict from the line scan, with the first witness in canonical
    order.  x is the least encoding whose ratio is shared by two lines or
    more: encodings are walked in blocks that double from _CHUNK, and the
    walk stops at the first block holding one.  Its mates are the points of
    the lines over its ratio, and y is the least of them off the line of x."""
    ctx = f.ctx
    if line_counts.max() <= 1:
        return ScatterVerdict(True, None)
    terms = _ratio_terms(f, t)
    start, size = 1, _CHUNK
    while True:
        xs = np.arange(start, min(start + size, ctx.order), dtype=np.int64)
        ratios = ctx.power_sum(terms, xs)
        fat = line_counts[ratios] > 1
        if fat.any():
            break
        start, size = start + size, 2 * size
    idx = int(np.argmax(fat))
    x_enc = int(xs[idx])
    # the points gen^(k + jM) of the lines over the ratio of x
    ks = np.flatnonzero(lines == ratios[idx])[:, None] + len(lines) * np.arange(ctx.q - 1)
    mates = np.sort(ctx.power_sum_at_logs([(1, 1)], ks.ravel()))
    ix = ctx.inv_i(x_enc)
    for m in mates.tolist():
        if m != x_enc and not ctx.in_subfield_i(ctx.mul_i(m, ix)):
            return ScatterVerdict(False, (FFElt(ctx, x_enc), FFElt(ctx, m)))
    raise FieldError("internal error: fat fiber without an off-line mate")


def _batch_rank_modp(a: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Ranks of a batch of square matrices over F_p, p = len(inv).

    The layout is (rows, cols, batch) so every kernel runs on contiguous
    batch slices; `a` holds reduced entries in [0, p) and is consumed.  Its
    signed dtype must hold -p(p-1): a row update reaches -(p-1)^2, and
    reducing x as x - p*floor(x/p) passes through -p(p-1).  `inv` holds the
    inverses mod p in the same dtype (inv[0] = 0).  Row order is tracked
    with a used-mask.
    """
    n, _, nb = a.shape
    p = len(inv)
    used = np.zeros((n, nb), dtype=bool)
    rank = np.zeros(nb, dtype=np.int64)
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
            np.multiply(inv[a[r, col]], pivot_mask[r], out=w[r])
        # w is nonzero on the pivot row only, so each sum is one product <= (p-1)^2
        pivn = np.einsum("rcb,rb->cb", a[:, tail, :], w, dtype=a.dtype)
        pivn -= pivn // p * p
        for r in range(n):
            fac = a[r, col] * ~used[r]
            if not fac.any():
                continue
            at = a[r, tail, :]
            at -= fac[None, :] * pivn
            # floor division by a scalar is several times faster than
            # np.remainder on these dtypes
            at -= at // p * p
    return rank


def _rank_f2(rows: np.ndarray, n: int) -> np.ndarray:
    """Ranks over F_2 of a batch of n x n matrices given as an (n, batch)
    array of unsigned row bitmasks, bit j of row i being entry (i, j).  The
    rows are consumed.

    Columns are cleared from the highest down.  Once every column above
    `col` is clear, a row has bit `col` exactly when it is at least 2^col, so
    the largest row is a pivot whenever there is one; XORing it into every
    row that has the bit, itself included, clears the column.  The rows move
    to a narrower word as soon as the columns left fit in one."""
    rank = np.zeros(rows.shape[1], dtype=np.int64)
    for col in reversed(range(n)):
        word = np.min_scalar_type((1 << (col + 1)) - 1)
        if col == n - 1 or word != rows.dtype:
            rows = rows.astype(word, copy=False)
            mask = np.empty_like(rows)
        piv = rows.max(axis=0)
        np.right_shift(rows, col, out=mask)  # 1 on the rows with the bit, else 0
        np.negative(mask, out=mask)  # all ones on those rows
        mask &= piv
        rows ^= mask
        rank += piv >> col
    return rank


def _f3_add_to(xl, xh, yl, yh, t) -> None:
    """x += y over F_3, entrywise on bit planes, in 7 word ops:
    t = (xl | yh) ^ (xh | yl), zl = (xh | yh) ^ t, zh = (xl | yl) ^ t.
    yh and t are overwritten."""
    np.bitwise_or(xl, yh, out=t)
    yh |= xh
    np.bitwise_or(xh, yl, out=xh)
    t ^= xh
    np.bitwise_or(xl, yl, out=xh)
    np.bitwise_xor(yh, t, out=xl)
    xh ^= t


def _rank_f3(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Ranks over F_3 of a batch of n x n matrices in two bit planes of
    shape (n, batch): bit j of lo[i] (of hi[i]) is set when entry (i, j) is
    1 (is 2).  Both planes are consumed.

    Negation swaps the planes.  Columns are cleared from the highest down.
    The rows with a 2 in column `col` are negated first, so a row is nonzero
    there exactly when its lo is at least 2^col, and the row largest in
    (lo, hi) is a pivot whenever there is one; subtracting it from every row
    with a 1 there, itself included, clears the column.  As in _rank_f2 the
    planes move to a narrower word as soon as the columns left fit in one."""
    rank = np.zeros(lo.shape[1], dtype=np.int64)
    for col in reversed(range(n)):
        word = np.min_scalar_type((1 << (col + 1)) - 1)
        if col == n - 1 or word != lo.dtype:
            lo, hi = lo.astype(word, copy=False), hi.astype(word, copy=False)
            m, yl, yh, t = (np.empty_like(lo) for _ in range(4))
            width = 8 * word.itemsize
            key = np.empty(lo.shape, dtype=f"u{2 * word.itemsize}")  # (lo, hi) side by side
        np.right_shift(hi, col, out=m)
        np.negative(m, out=m)  # all ones on the rows with a 2 in the column
        np.bitwise_xor(lo, hi, out=t)
        t &= m
        lo ^= t  # swap the planes of those rows
        hi ^= t
        np.left_shift(lo, width, out=key, dtype=key.dtype)
        key |= hi
        piv = key.max(axis=0)
        pl, ph = (piv >> width).astype(word), piv.astype(word)
        rank += pl >> col
        np.right_shift(lo, col, out=m)
        np.negative(m, out=m)  # all ones on the rows with a 1 in the column
        np.bitwise_and(ph, m, out=yl)  # minus the pivot on those rows, 0 elsewhere
        np.bitwise_and(pl, m, out=yh)
        _f3_add_to(lo, hi, yl, yh, t)
    return rank


def _sweep_ranker(f: QPoly, t: int):
    """The rank function of the kernel sweep of (f, t): it maps a batch of
    scalars c to the F_p-ranks of the maps c*X^(q^t) - f.  On the power
    basis b_i = g^i (encoded p^i), column i of the matrix of c is the
    encoding of c*h_i - f(b_i), h_i = b_i^(q^t).

    p = 2 and p = 3 rank the transposed matrices, whose rows are those
    encodings, bit-packed (_rank_f2, _rank_f3).  The rows are linear in the
    base-p digits of c: with c = v + p^k w, k = ceil(N/2), row i is
    (v*h_i - f(b_i)) + (p^k w)*h_i.  Both terms are looked up in tables of
    p^k and p^(N-k) rows, built here once per sweep, and added digitwise
    (XOR for p = 2).  Other p write the digits of c*h_i - f(b_i), a power
    sum in c, into an (N, N, batch) array for _batch_rank_modp."""
    ctx = f.ctx
    p, n = ctx.p, ctx.N
    b = (p ** np.arange(n, dtype=np.int64))[:, None]
    h = ctx.frob_vec(b, t)
    neg_fb = ctx.power_sum([(1, p - 1)], evaluate_vec(f, b))  # -f(b)
    if p > 3:
        entry = np.min_scalar_type(-p * (p - 1))
        inv = np.zeros(p, dtype=entry)
        inv[1:] = ctx.inv_vec(np.arange(1, p, dtype=np.int64))

        def rank_modp(cs):
            enc = ctx.power_sum([(1, h), (0, neg_fb)], cs)
            mats = np.empty((n, n, len(cs)), dtype=entry)
            for row in range(n):
                np.divmod(enc, p, out=(enc, mats[row]))
            return _batch_rank_modp(mats, inv)
        return rank_modp
    k = (n + 1) // 2
    low = ctx.power_sum([(1, h), (0, neg_fb)], np.arange(p ** k, dtype=np.int64))
    high = ctx.power_sum([(1, h)], np.arange(p ** (n - k), dtype=np.int64) * p ** k)
    word = np.min_scalar_type((1 << n) - 1)
    if p == 2:
        tables = [tab.astype(word)[None] for tab in (low, high)]  # one plane: the rows
    else:
        bits = (1 << np.arange(n)).astype(word)
        tables = []
        for tab in (low, high):
            digits = ctx.digits_vec(tab)  # (N, table rows, N)
            # two planes: bit j of lo (of hi) is set where digit j is 1 (is 2)
            tables.append(np.stack([(digits == 1) @ bits, (digits == 2) @ bits]))

    def rank_packed(cs):
        w, v = np.divmod(cs, p ** k)
        # np.take keeps the rows in C order, the layout the eliminations
        # reduce along (fancy indexing on the last axis does not)
        x, y = np.take(tables[0], v, axis=-1), np.take(tables[1], w, axis=-1)
        if p == 2:
            return _rank_f2(x[0] ^ y[0], n)
        _f3_add_to(*x, *y, np.empty_like(x[0]))
        return _rank_f3(*x, n)
    return rank_packed


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
    ascending, in batches of _CHUNK (the last one shorter).  Candidates are
    filtered in blocks of _CHUNK * N/r scalars, which hold about _CHUNK
    leaders; pass k drops the candidates above their k-th conjugate, and 0,
    the least encoding, stays."""
    block = _CHUNK * (ctx.N // r)
    pending = np.empty(0, dtype=np.int64)
    for start in range(0, ctx.order, block):
        cs = np.arange(start, min(start + block, ctx.order), dtype=np.int64)
        for k in range(1, ctx.N // r):
            cs = cs[cs <= _conjugate(ctx, mu, cs, r, k)]
        pending = np.concatenate([pending, cs])
        last = start + block >= ctx.order
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
    rank = _sweep_ranker(f, t)

    def ranked(cs):
        dims = (ctx.N - rank(cs)) // ctx.e
        return cs, dims, (_conjugate(ctx, mu, cs, r, k) for k in range(1, ctx.N // r))

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
    ratio map over c has size q^w - 1, that is (q^w - 1)/(q - 1) lines of the
    line scan; the point spanned by (0, 1) never lies on the set for these
    instances.
    """
    if f.is_zero():
        raise FieldError("the zero map defines no linear set of full rank")
    return _weight_spectrum(f.ctx, _line_ratios(f, t, ceiling)[1])


def _weight_spectrum(ctx: FieldCtx, line_counts) -> LinearSetReport:
    q = ctx.q
    by_size = {(q ** w - 1) // (q - 1): w for w in range(1, ctx.d + 1)}
    spectrum: dict[int, int] = {}
    ratios_by_size = np.bincount(line_counts)
    for lsize in np.flatnonzero(ratios_by_size[1:]) + 1:
        w = by_size.get(int(lsize))
        if w is None:
            raise FieldError("internal error: fiber size is not q^w - 1")
        spectrum[w] = int(ratios_by_size[lsize])
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
