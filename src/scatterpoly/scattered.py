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
of the full canonical order: x is found by walking encodings up to the
first element of a shared ratio c, and y is the least element off the line
x*F_q of ker(c*X^(q^t) - f), read off one Gauss-Jordan elimination, which
so checks each witness.

Both routes use the Frobenius symmetry of f.  With mu a nonzero coefficient
of f and r the least divisor of N = e*d for which tau(x) = x^(p^r) fixes
every f_i/mu, the kernel dimension is constant on each orbit
{mu*tau^k(c/mu)} of scalars, and the ratio over mu commutes with tau.  With
c = mu*gen^l, tau^k maps l to P^k*l mod (order - 1), P = p^r: the sweep ranks
0 and then the least l of each orbit, in ascending log(c/mu), and the rest of
the orbit copies its dimension (the sweep takes a larger group, below).
tau maps line k to line P*k mod M, and the log of the ratio over mu on line
P*k is P times its log on line k.  r = N leaves every scalar and line alone;
a monomial has r = 1.  f lifted from F_(q^n) into F_(q^(mn)) has r dividing
n*e.

Both routes also use the scale symmetry of f.  With j0 the least index of f
and g = gcd(d, j - j0 over the support), f(lambda*x) = lambda^(q^j0) f(x)
for lambda in F_(q^g)^*, so x -> lambda*x maps the kernel at c onto the
kernel at c*lambda^(q^j0 - q^t): the substitution x -> lambda*x by which
U_f and U_f(lambda X) are equivalent, for the lambda that f itself scales.
The dimension at c = mu*gen^l then depends on l mod m only, with
m = gcd(q1, (q1/(q^g - 1))*(q^j0 - q^t)), q1 = order - 1, and tau acts
there as l -> P*l mod m: the sweep ranks one leader per orbit mod m, and
each stands for its orbit times q1/m scalars.  A monomial X^(q^s) has
m = q^gcd(|s - t|, d) - 1, the gcd law of its scatteredness (y = x^(q^t)
turns U into {(y, y^(q^(s-t)))}); bX + X^(q^2) at t = 1 has g = 2; a random
f has g = 1 and m = q1.  On the lines, lambda = gen^(i*n_s),
n_s = q1/(q^g - 1), maps line k to line k + i*n_s and moves the log of the
ratio by i*n_s*(q^j0 - q^t), a multiple of m: the fiber scan evaluates one
line per orbit of k -> P*k mod n_s, and its classes of ratios are the
orbits of their logs mod m.  A monomial has n_s = 1 and reads one line; the
lifted bX + X^(q^2) over F_(3^12) reads 22,150 lines of 265,720.

Both lemmas are parts of one, the semilinear stabilizer of f.  Suppose
f_i^(p^j) = kappa*f_i*lambda^(q^i) for every i of the support.  Then
w = lambda*x^(p^j) maps ker(c X^(q^t) - f) onto ker(c' X^(q^t) - f),
c' = c^(p^j) lambda^(-q^t) kappa^(-1): applying x -> x^(p^j) to
c x^(q^t) = f(x) gives c^(p^j) x^(p^j q^t) = kappa f(w), and
w^(q^t) = lambda^(q^t) x^(p^j q^t).  The map is F_q-semilinear, so it keeps
the F_q-dimension.  With f_i = gen^(a_i), lambda = gen^U and i0 the least
index, the condition is the congruence system
(p^j - 1)(a_i - a_i0) = (q^i - q^i0)*U mod q1, one unknown U.  j = 0 gives
the scale group (U with (q^i - q^i0)*U = 0, the lambda in F_(q^g)^*), whose
m the sweep and the fiber scan read from one gcd over the support,
_scale_group; U = 0 gives the Frobenius symmetry (tau^j fixes every
f_i/mu).  The j that solve it are the multiples of the
least, j*, a divisor of N, so on c = mu*gen^l the group acts modulo the
scale modulus m as one affine map l -> P*l + s, P = p^(j*), whose
(N/j*)-th power is the identity; the sweep ranks one leader per orbit of
that map mod m, from l = 0 (c = mu, the offender of every monomial that is
not scattered).  A binomial f_i X^(q^i) + f_k X^(q^k) has
j* <= e*gcd(k - i, d), where a random one has r = N: bX + X^(q^2) with b
from F_(3^4) and N(b) != 1, inside F_(3^12), has j* = 2 where r = 4, the
map c -> c^9 b^(-6), and 22,151 classes instead of 44,301.  The fiber scan
takes the scale group and tau but no map with j* < r, and it shares the
scale modulus with the sweep, so neither route checks the lemmas for the
other: their independent check is test_kernel_dims_are_fiber_logs, which
evaluates f(x)/x^(q^t) by evaluate-then-divide at every nonzero x and
compares log_q of each fiber plus 1 with the sweep's dimension at every c.

Both routes also take a stack of pairs over one field with one t, for the
campaigns' thousands of pairs over fields of 8 to 243 elements, where the
set-up of a call outweighs its arithmetic.  The fiber scan of a stack
(scattered_many, verdicts without witnesses) takes the trivial group, on
fields of fewer than _ORBIT_SCAN_MIN lines, with (P, 1) coefficient columns:
one power sum gives a (P, M) array of ratios.  The kernel sweep ranks every
scalar on fields of at most _SWEEP_ALL_MAX elements, with -f(b_i) per pair
and no stabilizer, for a single pair and a stack alike; above that order a
stack is swept one pair at a time, modulo its symmetries.  A stack of one
keeps scalar coefficients, so scatter_test runs the scan of a stack of one.

Also here: linear-set weight spectra, extension-field scans, the decision
predicates for guaranteed non-scatteredness, the pair-product image, and the
completion search (a re-indexed sweep) behind the degree-q^2 facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import gf, linpoly
from .gf import CeilingExceeded, ContextMismatch, FFElt, FieldCtx, FieldError, check_ceiling
from .linpoly import NormalizedInstance, QPoly, evaluate_vec

REASON_KERNEL = "kernel dimension exceeds 1"
REASON_GCD = "gcd(k, n) > 1 with k <= n/4"
REASON_INEQUALITY = "component bound inequality with k <= n/4"

_INLINE_CROSSCHECK_MAX = 1 << 12
_CHUNK = 1 << 13  # scalars per batched elimination
_FIRST_CHUNK = 1 << 6  # scalars in the first batch of a sweep; batches double up to _CHUNK
_SCAN_BLOCK = 1 << 16  # conjugate logs per block of the line scan, N/r per leader
_STACK_KEYS = 1 << 14  # keys per stacked line scan, pairs times lines: its int64 temporaries stay in L2
_WALK_BLOCK = 1 << 6  # encodings in the first block of the witness walk
_KEY_BITS = 5  # a line orbit size less 1, at most N - 1 <= 25, below the class in a scan key
# the line scan takes the group <tau> only when it saves this many lines:
# below that the orbit bookkeeping costs more than the lines it saves
_ORBIT_SCAN_MIN = 1 << 14
# the kernel sweep ranks every scalar, with no stabilizer, orbit leaders or
# doubling tables, on fields of at most this order: there even a monomial,
# whose orbits are fewest, costs less swept in full than its symmetry
# set-up (at 625 and 729 elements it took 1.2-1.4x as long), and a stack
# shares one pass
_SWEEP_ALL_MAX = 1 << 9
_NO_POWERS = np.ones(1, dtype=np.int64)  # the trivial group: P^0 alone


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


def _stack_terms(fs, exponent):
    """The power-sum terms (exponent(j), c_j) of a stack of polynomials
    sum_j c_j X^(q^j) over one field.  A stack of one keeps its nonzero
    scalar coefficients; a larger one takes, per index j that some member
    uses, the column of its c_j, shape (len(fs), 1) and 0 where a member has
    no term j, so a sum over points of shape S comes out (len(fs), *S)."""
    if len(fs) == 1:
        return [(exponent(j), c) for j, c in enumerate(fs[0].encs) if c]
    width = max(len(f.encs) for f in fs)
    cols = np.array([f.encs + (0,) * (width - len(f.encs)) for f in fs], dtype=np.int64)
    return [(exponent(j), cols[:, j : j + 1]) for j in range(width) if cols[:, j].any()]


def _ratio_terms(fs, t: int):
    """The ratios f(x)/x^(q^t) of a stack of pairs on nonzero x as
    power-sum terms f_j x^(q^j - q^t), exponents reduced mod (order - 1), so
    no division pass is needed (see _stack_terms)."""
    ctx = fs[0].ctx
    q, q1 = ctx.q, ctx.order - 1
    return _stack_terms(fs, lambda j: (pow(q, j, q1) - pow(q, t, q1)) % q1)


class _LineScan(NamedTuple):
    """The class scan of a pair; see _line_scan."""
    ctx: FieldCtx
    mu: int  # a nonzero coefficient of f, or 1 for the trivial group
    terms: list  # the ratio over mu as power-sum terms
    evaluate: Callable  # (terms, ks) -> the value each class is read from at gen^k
    P: int  # tau(x) = x^P
    powers: np.ndarray  # P^j mod (order - 1), j < N/r
    n_s: int  # the scale translations join line k to the lines k + i*n_s
    m: int  # gcd(order - 1, n_s*(q^i0 - q^t)): a class is an orbit of log R' mod m
    bits: int  # _KEY_BITS, or 0 when tau is trivial and every orbit has size 1
    ranked: np.ndarray  # per leader: its class << bits | its orbit size less 1, ascending; one row per pair of a stack

    @property
    def trivial(self) -> bool:
        """Every line is a leader and its own class."""
        return len(self.powers) == 1 and self.n_s == _lines(self.ctx)

    def lines(self, keys):
        """The lines in the orbit of the leader of each key: its orbit size
        mod n_s, from the low bits, times the M/n_s lines over each k."""
        return np.multiply((keys & ((1 << self.bits) - 1)) + 1, _lines(self.ctx) // self.n_s, dtype=np.int64)

    def ratios(self, classes):
        """The number of ratios in each class: its orbit mod m times the
        (order - 1)/m logs over each residue, and 1 for the ratio 0 (class
        -1); 1 throughout under the trivial group."""
        if self.trivial:
            return np.ones(np.shape(classes), dtype=np.int64)
        orbit = gf.orbit_sizes(np.maximum(classes, 0), self.P, len(self.powers), self.m)
        return np.where(classes < 0, 1, orbit * ((self.ctx.order - 1) // self.m))


def _lines(ctx: FieldCtx) -> int:
    """M = (order - 1)/(q - 1), the number of F_q^*-lines."""
    return (ctx.order - 1) // (ctx.q - 1)


def _ratio_classes(lr, powers, m: int):
    """The class of each log l of lr: the least element of the orbit of
    l mod m under l -> P*l, powers holding P^j mod (order - 1), j < N/r.
    The ratio 0 (log -1) is its own class -1.  Under the trivial group a
    ratio is its own class, and no caller makes this pass."""
    base = np.maximum(lr, 0)
    base -= base // m * m
    least = np.minimum(base, lr, dtype=np.int64)  # the ratio 0 keeps -1
    for pj in (powers[1:] % m).tolist():  # the j-th conjugates, j >= 1
        np.minimum(least, gf.mulmod(base, pj, m), out=least)
    return least


def _line_scan(fs, t: int, ceiling=None) -> _LineScan:
    """The fiber scan of a stack of pairs (f, t) over one field, over one
    line per class of the group generated by tau(x) = x^P and the scale
    translations x -> lambda*x.  A stack of more than one pair takes the
    trivial group, on fields of fewer than _ORBIT_SCAN_MIN lines only.

    With (mu, r) = _frobenius_symmetry(f) and P = p^r, the ratio R' = R/mu
    has R'(tau x) = tau(R'(x)), and tau maps line k to line P*k mod M.  With
    (n_s, shift) = _scale_group(f, t), lambda = gen^(i*n_s) in F_(q^g)^*
    maps line k to line k + i*n_s and multiplies R' by lambda^shift.  So the
    log of R' on line P^j*k + i*n_s is P^j times its log on line k plus
    i*step, step = n_s*shift, mod order - 1, and the group's orbits on the
    lines are the orbits of k -> P*k mod n_s, each k mod n_s standing for
    M/n_s lines (FieldCtx.line_orbits, keyed by (r, n_s)).  R' is evaluated
    at the leaders only, in blocks whose N/r conjugate logs fill
    _SCAN_BLOCK.  Each leader is keyed by its class, the least element of
    the orbit of log R' mod m under l -> P*l, m = gcd(order - 1, step), and
    by its orbit size mod n_s, and the int32 keys are sorted in place: the
    scan keeps that one array.  A class holds (its orbit size mod m) *
    (order - 1)/m ratios, one for the ratio 0, and the lines of its leaders,
    (orbit size mod n_s) * M/n_s each, spread evenly over them; each
    leader's orbit alone covers them, so the pair is scattered iff every
    class has one line per ratio.  A monomial has n_s = 1 and reads one
    line; for r = N and n_s = M the group is trivial: every line is a
    leader and its own class.  The scan takes the trivial group as well when
    the classes would save fewer than _ORBIT_SCAN_MIN lines, and then
    computes no symmetry at all.  Under the trivial group the terms of a
    stack of P > 1 pairs have (P, 1) coefficient columns (_ratio_terms), so
    one power sum over the M lines gives a (P, M) array of keys, and a pair
    is scattered iff its sorted row has no repeated key."""
    ctx = fs[0].ctx
    check_ceiling(ctx.order, ceiling)
    q1, M = ctx.order - 1, _lines(ctx)
    mu, r, n_s, shift = 1, ctx.N, M, 0  # the trivial group
    if M >= _ORBIT_SCAN_MIN:
        (f,) = fs  # a stack is scanned on fields of fewer lines only
        mu, r = _frobenius_symmetry(f)
        n_s, shift = _scale_group(f, t)
        if M - n_s * r // ctx.N < _ORBIT_SCAN_MIN:  # the classes leave about n_s/(N/r) leaders
            mu, r, n_s = 1, ctx.N, M
    n_orb, P = ctx.N // r, ctx.p ** r
    m = math.gcd(q1, n_s * shift)
    powers = np.array([pow(P, j, q1) for j in range(n_orb)], dtype=np.int64) if n_orb > 1 else _NO_POWERS
    terms = _ratio_terms(fs, t)
    if mu != 1:
        imu = ctx.inv_i(mu)
        terms = [(e, ctx.mul_i(c, imu)) for e, c in terms]
    trivial = n_orb == 1 and n_s == M
    # under the trivial group a ratio is its own class, and for p = 2 the
    # XOR sum is the ratio itself, where its log would take one more gather
    evaluate = ctx.power_sum_at_logs if trivial and ctx.p == 2 else ctx.log_power_sum_at_logs
    # a monomial's one k, and every k when tau is trivial, is its own orbit
    leaders, sizes = ctx.line_orbits(r, n_s) if n_orb > 1 and n_s > 1 else (None, 1)
    count = n_s if leaders is None else len(leaders)
    bits = _KEY_BITS if n_orb > 1 else 0
    keys = np.empty((len(fs), count) if len(fs) > 1 else count, dtype=np.int32)
    block = max(1, _SCAN_BLOCK // n_orb)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        ks = np.arange(lo, hi, dtype=np.int64) if leaders is None else leaders[lo:hi]
        size = sizes if leaders is None else sizes[lo:hi]
        least = evaluate(terms, ks)
        if not trivial:
            least = _ratio_classes(least, powers, m)
        if n_orb > 1:
            least <<= bits
            least |= size - 1
        keys[..., lo:hi] = least  # below 2^31
    keys.sort(axis=-1)
    return _LineScan(ctx, mu, terms, evaluate, P, powers, n_s, m, bits, keys)


def _classes(scan: _LineScan):
    """(classes, lines, values): the distinct classes ascending, and per
    class its number of lines and its number of ratios (see _line_scan).
    The lines spread evenly over the ratios, so a class with more lines
    than ratios has two lines or more over each of its ratios."""
    cls = scan.ranked >> scan.bits
    starts = np.flatnonzero(np.concatenate(([True], cls[1:] != cls[:-1])))
    lines = scan.lines(scan.ranked)
    if len(starts) < len(cls):  # some class holds several leaders: add up their lines
        cls = cls[starts]
        lines = np.diff(np.cumsum(lines)[np.append(starts[1:], len(lines)) - 1], prepend=0)
    return cls, lines, scan.ratios(cls)


def scatter_test(f: QPoly, t: int, ceiling=None) -> ScatterVerdict:
    """Fiber-count scatteredness test for an arbitrary nonzero pair (f, t).

    The ratio is scanned on one line per class of the symmetries of f (see
    _line_scan); the pair is scattered iff no two lines share a ratio.  The
    witness, present iff not scattered, is the first pair (x, y) in
    canonical order with equal ratios and y/x outside F_q.
    """
    if f.is_zero():
        raise FieldError("scatteredness is undefined for the zero map")
    return _fiber_verdict(f, t, _line_scan([f], t, ceiling))


def scattered_many(fs, t: int, ceiling=None) -> list[bool]:
    """scatter_test(f, t).scattered for each f of a stack over one field,
    with no witnesses.

    _line_scan checks the ceiling before any table or stack is built.  On
    fields of fewer than _ORBIT_SCAN_MIN lines every pair takes the trivial
    group, and the stack is scanned by _line_scan in pieces of
    _STACK_KEYS // M pairs, one power sum each; on larger fields each pair
    is scanned alone, modulo its own symmetries."""
    fs = list(fs)
    if not fs:
        return []
    ctx = fs[0].ctx
    if any(f.ctx is not ctx and f.ctx != ctx for f in fs):
        raise ContextMismatch("a stack of pairs lies over one field")
    if any(f.is_zero() for f in fs):
        raise FieldError("scatteredness is undefined for the zero map")
    M = _lines(ctx)
    size = max(1, _STACK_KEYS // M) if M < _ORBIT_SCAN_MIN else 1
    out: list[bool] = []
    for lo in range(0, len(fs), size):
        out += np.atleast_1d(_scattered(_line_scan(fs[lo : lo + size], t, ceiling))).tolist()
    return out


def scatter_report(f: QPoly, t: int, ceiling=None) -> tuple[ScatterVerdict, LinearSetReport]:
    """scatter_test and linear_set_report_raw of a nonzero pair from one
    line scan."""
    if f.is_zero():
        raise FieldError("scatteredness is undefined for the zero map")
    scan = _line_scan([f], t, ceiling)
    classes = _classes(scan)
    return _fiber_verdict(f, t, scan, classes), _weight_spectrum(f.ctx, classes)


def _scattered(scan: _LineScan, classes=None):
    """Whether the pairs of the class scan are scattered: iff every class
    has one line per ratio, which under the trivial group is read off the
    ranked keys with no class table (no key repeats in a row), one verdict
    per row; classes is _classes(scan) when the caller has it already."""
    if classes is None and scan.trivial:
        return (scan.ranked[..., 1:] != scan.ranked[..., :-1]).all(axis=-1)
    _, lines, values = _classes(scan) if classes is None else classes
    return (lines == values).all()


def _fiber_verdict(f: QPoly, t: int, scan: _LineScan, classes=None) -> ScatterVerdict:
    """The verdict from the class scan of the one pair (f, t) (_scattered),
    with the first witness in canonical order; classes is _classes(scan)
    when the caller has it already.
    x is the least encoding whose ratio lies on two lines or more:
    encodings are walked in blocks that double from _WALK_BLOCK, and the
    walk stops at the first block holding one.  With c = f(x)/x^(q^t), the
    fiber over c is the nonzero kernel of c*X^(q^t) - f (_kernel), and y is
    its least element off the line x*F_q.  A kernel of dimension below 2,
    or one without x, contradicts the scan and raises."""
    if _scattered(scan, classes):
        return ScatterVerdict(True, None)
    ctx = f.ctx
    start, size = 1, _WALK_BLOCK
    while True:
        xs = np.arange(start, min(start + size, ctx.order), dtype=np.int64)
        logs = scan.evaluate(scan.terms, ctx.log_vec(xs))
        least = logs if scan.trivial else _ratio_classes(logs, scan.powers, scan.m)
        # the ratio of x lies on two lines or more iff its class holds two
        # leaders or more, or one with more lines than the class has ratios
        first = (least << scan.bits).astype(np.int32)  # the keys' dtype: no cast of ranked
        lo = np.searchsorted(scan.ranked, first)
        fat = np.searchsorted(scan.ranked, first + (1 << scan.bits)) - lo > 1
        if not scan.trivial:
            fat |= scan.lines(scan.ranked[lo]) != scan.ratios(least)
        if fat.any():
            break
        start, size = start + size, 2 * size
    x = int(xs[np.argmax(fat)])
    c = ctx.mul_i(linpoly.evaluate(f, x).val, ctx.inv_i(ctx.frob_i(x, t)))
    kernel = _kernel(QPoly.monomial(ctx, t, c).sub(f))
    if len(kernel) > ctx.q and (kernel == x).any():
        ix = ctx.inv_i(x)
        # the line x*F_q holds q elements of the kernel, 0 among them, so
        # one of the q + 1 least lies off it
        for y in np.sort(np.partition(kernel, ctx.q)[: ctx.q + 1]).tolist():
            if not ctx.in_subfield_i(ctx.mul_i(y, ix)):
                return ScatterVerdict(False, (FFElt(ctx, x), FFElt(ctx, y)))
    raise FieldError("internal error: fat fiber without an off-line mate")


def _kernel(g: QPoly) -> np.ndarray:
    """The encodings of ker g, all q^dim of them, 0 included: the F_q-span
    of one vector per column j without a pivot in the reduced rows that
    matrix_rank leaves of as_matrix(g), on its basis gen^i: 1 at j, and
    minus each pivot row's entry in column j at that row's pivot."""
    ctx = g.ctx
    rows = linpoly.as_matrix(g)
    rank = linpoly.matrix_rank(ctx, rows)
    pivots = [next(j for j, v in enumerate(row) if v.val) for row in rows[:rank]]
    basis = [ctx.pow_i(ctx.gen_enc, i) for i in range(ctx.d)]
    scalars = np.array(ctx.subfield_elems(), dtype=np.int64)
    span = np.zeros(1, dtype=np.int64)
    for j in set(range(ctx.d)).difference(pivots):
        u = basis[j]
        for piv, row in zip(pivots, rows):
            u = ctx.sub_i(u, ctx.mul_i(row[j].val, basis[piv]))
        span = ctx.power_sum([(1, u), (0, span[:, None])], scalars).ravel()  # span + a*u over a in F_q
    return span


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


def _pack(ctx: FieldCtx, enc: np.ndarray) -> np.ndarray:
    """The bit planes of encodings, p = 2 or 3, on a new first axis: one
    plane, the encodings themselves, for p = 2; for p = 3 bit j of the first
    (second) plane is set where digit j is 1 (is 2)."""
    word = np.min_scalar_type((1 << ctx.N) - 1)
    if ctx.p == 2:
        return enc.astype(word)[None]
    digits = ctx.digits_vec(enc)
    bits = (1 << np.arange(ctx.N)).astype(word)
    return np.stack([(digits == 1) @ bits, (digits == 2) @ bits])


def _rank_planes(planes: np.ndarray, n: int) -> np.ndarray:
    """_rank_f2 or _rank_f3 of packed rows, by their number of planes."""
    return _rank_f2(planes[0], n) if len(planes) == 1 else _rank_f3(*planes, n)


def _rank_columns(ctx: FieldCtx, enc: np.ndarray) -> np.ndarray:
    """F_p-ranks of a batch of N x N matrices given as an (N, batch) array
    of encodings: enc[i, c] holds column i of matrix c, its digits the
    entries.  p = 2 and p = 3 rank the transposes, whose rows are those
    encodings bit-packed; other p write the digits into an (N, N, batch)
    array for _batch_rank_modp.  enc is consumed."""
    p, n = ctx.p, ctx.N
    if p <= 3:
        return _rank_planes(_pack(ctx, enc), n)
    entry = np.min_scalar_type(-p * (p - 1))
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=entry)
    mats = np.empty((n, n, enc.shape[1]), dtype=entry)
    for row in range(n):
        np.divmod(enc, p, out=(enc, mats[row]))
    return _batch_rank_modp(mats, inv)


def _sweep_ranker(fs, t: int, every: bool):
    """The rank function of the kernel sweep of a stack of pairs (f, t) over
    one field: it maps a batch of scalars c to the F_p-ranks of the maps
    c*X^(q^t) - f, one row per pair.  On the power basis b_i = g^i (encoded
    p^i), column i of the matrix of c is the encoding of c*h_i - f(b_i),
    h_i = b_i^(q^t), and -f(b_i) is one power sum per stack (_stack_terms).

    For p > 3, and for every p when `every` (the small-field rule of
    _kernel_dim_chunks), the columns are the power sum c*h_i - f(b_i) over
    the batch, with -f(b_i) given per pair, ranked by _rank_columns.
    Otherwise, for p = 2 and p = 3 and a single pair, the packed rows are
    linear in the base-p digits of c: with c = v + p^k w, k = ceil(N/2), row
    i is (v*h_i - f(b_i)) + (p^k w)*h_i.  Both terms are looked up in tables of p^k and p^(N-k)
    entries, built here once per sweep by F_p-linear doubling: with E_j the
    packed rows g^j*h_i, a table over the digits below j becomes
    [tab, tab + E_j, tab + 2E_j] over those up to j (the low one starts from
    -f(b_i)), and the terms are added digitwise (XOR for p = 2)."""
    ctx = fs[0].ctx
    p, n = ctx.p, ctx.N
    b = p ** np.arange(n, dtype=np.int64)
    h = ctx.frob_vec(b[:, None], t)
    fb = ctx.power_sum(_stack_terms(fs, lambda j: ctx.q ** j), b)  # f(b_i), one row per pair of a stack
    neg_fb = np.reshape(ctx.power_sum([(1, p - 1)], fb).T, (n, -1))  # [i, pair]: -f(b_i)
    if p > 3 or every:
        terms = [(1, h[:, :, None]), (0, neg_fb[:, :, None])]
        return lambda cs: _rank_columns(ctx, ctx.power_sum(terms, cs).reshape(n, -1)).reshape(len(fs), -1)
    k = (n + 1) // 2
    # column j < N: the rows that digit j of c adds once, g^j * h_i over i;
    # column N: the rows -f(b_i) that the low table starts from
    rows = _pack(ctx, np.concatenate((ctx.power_sum([(1, h)], b), neg_fb), axis=1))

    def doubled(tab, js):
        """tab extended by each digit j of js in turn: [tab, tab + E_j, tab + 2E_j]."""
        for j in js:
            if p == 2:
                tab = np.concatenate((tab, tab ^ rows[..., j : j + 1]), axis=-1)
                continue
            out = np.stack((tab, tab, tab), axis=2)
            e = rows[:, :, None, j : j + 1]
            # [tab, tab] += [E_j, 2E_j], 2E_j = -E_j being E_j with its planes swapped
            y = np.broadcast_to(np.concatenate((e, e[::-1]), axis=2), out[:, :, 1:].shape).copy()
            _f3_add_to(*out[:, :, 1:], *y, np.empty_like(y[0]))
            tab = out.reshape(tab.shape[:2] + (-1,))
        return tab
    tables = [doubled(rows[..., n:], range(k)), doubled(np.zeros_like(rows[..., n:]), range(k, n))]

    def rank_packed(cs):
        w, v = np.divmod(cs, p ** k)
        # np.take keeps the rows in C order, the layout the eliminations
        # reduce along (fancy indexing on the last axis does not)
        x, y = np.take(tables[0], v, axis=-1), np.take(tables[1], w, axis=-1)
        if p == 2:
            x[0] ^= y[0]
        else:
            _f3_add_to(*x, *y, np.empty_like(x[0]))
        return _rank_planes(x, n)[None]
    return rank_packed


def _frobenius_symmetry(f: QPoly) -> tuple[int, int]:
    """(mu, r): mu is the first nonzero coefficient of f and r the least
    divisor of N for which tau(x) = x^(p^r) fixes every f_i/mu (mu = 1, r = 1
    for the zero map).

    ker(c*X^(q^t) - f) = ker((c/mu)*X^(q^t) - f/mu), and tau maps it onto the
    kernel for tau(c/mu), so the kernel dimension is constant on each orbit
    {mu*tau^k(c/mu)}.  Any other nonzero coefficient gives the same r and the
    same orbits.  r is read from the logs of the coefficients: tau fixes x
    iff (p^r - 1)*log x = 0 mod (order - 1)."""
    ctx = f.ctx
    nonzero = [v for v in f.encs if v]
    if not nonzero:
        return 1, 1
    q1 = ctx.order - 1
    logs = ctx.log_vec(nonzero).tolist()
    # f_i/mu = gen^(log f_i - log mu) lies in F_(p^r) iff its order divides
    # p^r - 1, and the least common multiple of those orders is q1/g
    g = math.gcd(q1, *(lg - logs[0] for lg in logs))
    r = next(r for r in range(1, ctx.N + 1) if ctx.N % r == 0 and (ctx.p ** r - 1) % (q1 // g) == 0)
    return nonzero[0], r


def _crt(a: int, n: int, b: int, k: int):
    """(x, lcm(n, k)) with x = a mod n and x = b mod k, or None if there is
    no such x."""
    g = math.gcd(n, k)
    if (b - a) % g:
        return None
    lcm = n // g * k
    return (a + (b - a) // g * pow(n // g, -1, k // g) * n) % lcm, lcm


def _scale_group(f: QPoly, t: int) -> tuple[int, int]:
    """(n_s, shift) for a nonzero f: with i0 the least index of f and
    g = gcd(d, i - i0 over the support), f(lambda*x) = lambda^(q^i0) f(x)
    for every lambda in F_(q^g)^*, the powers of gen^(n_s),
    n_s = (order - 1)/(q^g - 1), so the ratio f(x)/x^(q^t) at lambda*x is
    lambda^shift times the ratio at x, shift = q^i0 - q^t mod (order - 1).
    q^g - 1 is one gcd over the support: that of order - 1 and the
    q^i - q^i0.  A monomial has g = d and n_s = 1."""
    ctx, sup = f.ctx, f.support()
    q1 = ctx.order - 1
    q0 = pow(ctx.q, sup[0], q1)
    n_s = q1 // math.gcd(q1, *(pow(ctx.q, i, q1) - q0 for i in sup[1:]))
    return n_s, (q0 - pow(ctx.q, t, q1)) % q1


def _semilinear_stabilizer(f: QPoly, t: int) -> tuple[int, int, int, int]:
    """(P, s, count, m): with mu the first nonzero coefficient of f, the
    kernel dimension of c*X^(q^t) - f at c = mu*gen^l depends on l mod m
    only, and is the same at mu*gen^(P*l + s); the map's count-th power,
    count = N/j*, is the identity mod m.

    x -> lambda*x^(p^j) maps the kernel at c onto the kernel at
    c^(p^j) lambda^(-q^t) kappa^(-1) whenever f_i^(p^j) =
    kappa*f_i*lambda^(q^i) on the support (see the module docstring).  With
    a_i = log f_i, i0 the least index and U = log lambda, that is
    (p^j - 1)(a_i - a_i0) = (q^i - q^i0)*U mod q1 for every i, a congruence
    in U per i, solved and joined by _crt.  Its j = 0 part is the scale
    group of _scale_group: the U with (q^i - q^i0)*U = 0 for every i are
    the multiples of n_s, each moving l by a multiple of n_s*shift, so
    m = gcd(q1, n_s*shift) (order - 1 for the zero map).  The j >= 1 that
    solve it are the multiples of the least, j*, a divisor of N (j = N
    solves with U = 0); P = p^(j*) and s = shift*U mod q1."""
    ctx, sup = f.ctx, f.support()
    q1 = ctx.order - 1
    if not sup:
        return ctx.p, 0, ctx.N, q1
    logs = ctx.log_vec([f.encs[i] for i in sup]).tolist()
    n_s, shift = _scale_group(f, t)  # l moves by shift*U
    m = math.gcd(q1, n_s * shift)
    q0 = pow(ctx.q, sup[0], q1)
    # per i: (q^i - q^i0)*U = (p^j - 1)*B mod q1, B = a_i - a_i0, solvable iff
    # g = gcd(q^i - q^i0, q1) divides the right side, and then
    # U = (p^j - 1)*B/g * ((q^i - q^i0)/g)^(-1) mod q1/g
    eqs = []
    for i, a in zip(sup[1:], logs[1:]):
        A = pow(ctx.q, i, q1) - q0
        g = math.gcd(A, q1)
        eqs.append((g, pow(A // g, -1, q1 // g), a - logs[0]))
    for j in (j for j in range(1, ctx.N + 1) if ctx.N % j == 0):
        P, sol = ctx.p ** j, (0, 1)
        for g, inv, B in eqs:
            if (P - 1) * B % g:
                break
            sol = _crt(*sol, (P - 1) * B // g * inv, q1 // g)
            if sol is None:
                break
        else:
            return P, shift * sol[0] % q1, ctx.N // j, m
    raise FieldError("internal error: no Frobenius power stabilizes f")


class _ScalarOrbits(NamedTuple):
    """The classes of scalars of one kernel dimension in the log domain:
    the dimension at c = mu*gen^l depends on l mod m, and l -> P*l + s
    maps it onto itself (both from _semilinear_stabilizer), so a class is
    an orbit of that map mod m with every shift l + i*m.  l = -1 stands for
    c = 0, its own class."""
    ctx: FieldCtx
    mu: int
    P: int
    s: int  # the shift on Z/(order - 1)
    count: int  # N/j*: the map to the count-th power is the identity mod m
    m: int  # a divisor of order - 1

    def leaders(self):
        """The least l of each class, -1 first, then ascending, in batches
        that double from _FIRST_CHUNK to _CHUNK, so an early exit ranks few."""
        pending = np.full(1, -1, dtype=np.int32)
        size = min(_FIRST_CHUNK, _CHUNK)
        for ls in gf.orbit_leaders(self.m, self.P, self.count, self.s % self.m):
            pending = np.concatenate((pending, ls))
            while len(pending) >= size:
                yield pending[:size]
                pending = pending[size:]
                size = min(2 * size, _CHUNK)
        if len(pending):
            yield pending

    def sizes(self, ls) -> np.ndarray:
        """The number of scalars in the class of each leader: its orbit size
        mod m times (order - 1)/m, and 1 for l = -1."""
        q1 = self.ctx.order - 1
        sizes = gf.orbit_sizes(np.maximum(ls, 0), self.P, self.count, self.m, self.s % self.m)
        return np.where(ls < 0, 1, sizes * (q1 // self.m))

    def encodings(self, ls):
        """The scalars mu*gen^l of the ls."""
        return self.ctx.power_sum_at_logs([(1, self.mu)], ls)

    def members(self, ls):
        """The encodings of the classes of the ls, as a (count, len(ls),
        (order - 1)/m) array: [k, j] holds the k-th images of the shifts
        ls[j] + i*m, and together [:, j] cover the class of ls[j] (0
        throughout for l = -1)."""
        q1 = self.ctx.order - 1
        shifts = ls[:, None] + self.m * np.arange(q1 // self.m)
        # the k-th image of l is P^k*l + s*(P^k - 1)/(P - 1)
        ks = range(self.count)
        powers = np.array([pow(self.P, k, q1) for k in ks])
        offsets = np.array([self.s * ((self.P ** k - 1) // (self.P - 1)) % q1 for k in ks])
        images = gf.mulmod(shifts, powers[:, None, None], q1)
        images += offsets[:, None, None]
        images -= (images >= q1) * q1
        return self.encodings(np.where(ls[:, None] < 0, -1, images))


def _kernel_dim_chunks(fs, t: int, ceiling):
    """(orbits, batches) for a stack of pairs (f, t) over one field: the
    _ScalarOrbits of the stack and, lazily, the kernel dimensions of
    c*X^(q^t) - f at the leaders, (ls, dims) per batch, dims holding one row
    per pair.  The ceiling is checked at the call, before any table is
    built, and each batch is ranked as it is drawn.

    The rule is chosen from the field order alone.  On fields of at most
    _SWEEP_ALL_MAX elements every scalar is its own class (the identity map,
    mod order - 1) and one batch ranks them all, l = -1 (c = 0) first, by the
    power sum of _sweep_ranker with -f(b_i) per pair: no stabilizer, no
    orbit leaders, no doubling tables, which there cost more than the
    scalars they save.  Above it the stack is a single pair, swept modulo
    its semilinear stabilizer, one leader per orbit.  _sweep_stacks cuts a
    stack into the pieces this takes."""
    ctx = fs[0].ctx
    check_ceiling(ctx.order, ceiling)
    every = ctx.order <= _SWEEP_ALL_MAX
    rank = _sweep_ranker(fs, t, every)
    if every:
        q1 = ctx.order - 1
        orbits = _ScalarOrbits(ctx, 1, ctx.p, 0, 1, q1)
        leaders = [np.arange(-1, q1)]
    else:
        (f,) = fs
        orbits = _ScalarOrbits(ctx, next((v for v in f.encs if v), 1), *_semilinear_stabilizer(f, t))
        leaders = orbits.leaders()
    return orbits, ((ls, (ctx.N - rank(orbits.encodings(ls))) // ctx.e) for ls in leaders)


def _sweep_stacks(fs):
    """The stack fs in the pieces that _kernel_dim_chunks sweeps at once:
    _CHUNK // order pairs on fields of at most _SWEEP_ALL_MAX elements, so a
    batch ranks at most _CHUNK matrices, and one pair on larger fields."""
    order = fs[0].ctx.order if fs else 1
    size = max(1, _CHUNK // order) if order <= _SWEEP_ALL_MAX else 1
    return [fs[lo : lo + size] for lo in range(0, len(fs), size)]


def kernel_dims_per_scalar(f: QPoly, t: int, ceiling=None) -> np.ndarray:
    """F_q-dimension of ker(c*X^(q^t) - f) for every scalar c, indexed by
    encoding (dim_Fp = e * dim_Fq): the tests' oracle for the streamed sweep,
    which ranks the class leaders, and each member copies its leader's."""
    orbits, batches = _kernel_dim_chunks([f], t, ceiling)  # checks the ceiling before dims exists
    dims = np.empty(f.ctx.order, dtype=np.int64)
    for ls, (ds,) in batches:
        dims[orbits.members(ls)] = ds[:, None]
    return dims


def scatter_test_kernel(f: QPoly, t: int, ceiling=None) -> bool:
    """Kernel-dimension scatteredness test: no scalar c may give a kernel of
    dimension 2 or more.  Ranks orbit leaders only, and stops at the first
    batch holding an offending one."""
    if f.is_zero():
        raise FieldError("scatteredness is undefined for the zero map")
    return not any((dims > 1).any() for _, dims in _kernel_dim_chunks([f], t, ceiling)[1])


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
    return _weight_spectrum(f.ctx, _classes(_line_scan([f], t, ceiling)))


def _weight_spectrum(ctx: FieldCtx, classes) -> LinearSetReport:
    """The weight spectrum from the (classes, lines, values) of a line scan."""
    q = ctx.q
    _, lines, values = classes
    per_value = lines // values
    if (per_value * values != lines).any():
        raise FieldError("internal error: a class's lines do not spread evenly over its ratios")
    by_size = {(q ** w - 1) // (q - 1): w for w in range(1, ctx.d + 1)}
    spectrum: dict[int, int] = {}
    ratios_by_size = np.bincount(per_value, weights=values)
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
    # ell = i + dim, the kernel holding q^dim roots, counted in blocks
    roots = 0
    for lo in range(0, ctx.order, _SCAN_BLOCK):
        xs = np.arange(lo, min(lo + _SCAN_BLOCK, ctx.order), dtype=np.int64)
        roots += int(np.count_nonzero(evaluate_vec(f, xs) == 0))
    ell = i + round(math.log(roots, ctx.q))
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
        out.update(ctx.power_sum([(ctx.q, u), (1, ctx.neg_i(ctx.frob_i(u, 1)))], vs).tolist())
    return {FFElt(ctx, v) for v in out}


def find_many_roots_completion(b: FFElt, ceiling=None) -> FFElt | None:
    """First a (canonical order) making X^(q^2) + a*X^q + b*X have a kernel of
    dimension exactly 2.  Requires Norm(b) = 1; returns None if no a works,
    which would contradict the classification and is treated as a test
    failure by callers.  find_many_roots_completions of a stack of one."""
    return find_many_roots_completions([b], ceiling)[0]


def find_many_roots_completions(bs, ceiling=None) -> list[FFElt | None]:
    """find_many_roots_completion of each b of a stack over one field.  The
    map is a*X^q - f with f = -b*X - X^(q^2), so one kernel sweep answers
    every a: the least member of a class of dimension 2.  The stack of those
    f is swept in the pieces of _sweep_stacks, after the norms of every b
    are checked."""
    bs = list(bs)
    if not bs:
        return []
    ctx = bs[0].ctx
    if any(b.ctx is not ctx and b.ctx != ctx for b in bs):
        raise ContextMismatch("a stack of coefficients lies over one field")
    if any(gf.norm_rel(b) != ctx.one for b in bs):
        raise FieldError("precondition: the relative norm of b must be 1")
    out: list[FFElt | None] = []
    for stack in _sweep_stacks([QPoly(ctx, [-b, ctx.zero, -ctx.one]) for b in bs]):
        orbits, batches = _kernel_dim_chunks(stack, 1, ceiling)
        least = np.full(len(stack), ctx.order)
        for ls, ds in batches:
            hit = (ds == 2).any(axis=0)  # the leaders of dimension 2 for some f
            members = orbits.members(ls[hit])  # (count, hits, shifts)
            fat = np.where((ds[:, hit] == 2)[:, None, :, None], members, ctx.order)
            np.minimum(least, fat.reshape(len(stack), -1).min(axis=1, initial=ctx.order), out=least)
        out += [FFElt(ctx, int(v)) if v < ctx.order else None for v in least]
    return out
