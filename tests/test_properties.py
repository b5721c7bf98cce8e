"""Cross-route properties over a stated domain, drawn by hypothesis: the
kernel sweep against the fiber counts of the ratio map, the rank-code
histogram against both, the quotient curve's ratio-predicate count against
the fiber verdict, the power-sum kernel against scalar arithmetic, and the
sweep's three eliminations (bit-packed F_2 and F_3, digit arrays mod p)
against each other and against textbook row reduction."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scatterpoly import curve as cv, gf, linpoly as lp, rankcode as rk, scattered as sc

# p up to 17 over F_p, every order at most 13^3; and q in {9, 25}
PRIME_FIELDS = [(p, 1, d) for p in (2, 3, 5, 7, 11, 13, 17) for d in range(2, 12) if p ** d <= 13 ** 3]
Q_FIELDS = [(3, 2, 2), (3, 2, 3), (5, 2, 2)]


def explicit_modulus(rnd, p, n):
    """The first monic irreducible of degree n over F_p at or after a random
    tail encoding, cyclically."""
    start = rnd.randrange(p ** n)
    for v in range(p ** n):
        tail = [((start + v) % p ** n) // p ** i % p for i in range(n)]
        if gf.is_irreducible(tail + [1], p):
            return tuple(tail + [1])


@st.composite
def sweep_cases(draw, max_order=None):
    """(field, f, t) with t > 0 and f_t = 0.  Fields over F_p and over F_q,
    q in {9, 25}, are drawn with probability 1/2 each, of order at most
    max_order when it is given.  With probability 1/2 f = mu*g with g over a
    proper subfield, so the sweep's orbit symmetry r is below N; otherwise
    every coefficient is uniform and nonzero."""
    rnd = draw(st.randoms(use_true_random=False))
    fields = PRIME_FIELDS if rnd.random() < 0.5 else Q_FIELDS
    p, e, d = rnd.choice([f for f in fields if max_order is None or f[0] ** (f[1] * f[2]) <= max_order])
    ctx = gf.make_field(p, e, d, modulus=explicit_modulus(rnd, p, e * d))
    t = rnd.randrange(1, d)
    proper = [s for s in range(1, ctx.N) if ctx.N % s == 0]
    if proper and rnd.random() < 0.5:
        sub = ctx.subfield_of_size_elems(p ** rnd.choice(proper))
        mu = rnd.randrange(1, ctx.order)
        encs = [ctx.mul_i(mu, rnd.choice(sub)) for _ in range(d)]
    else:
        encs = [rnd.randrange(1, ctx.order) for _ in range(d)]
    encs[t] = 0
    assume(any(encs))
    return ctx, lp.QPoly.from_encs(ctx, encs), t


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=sweep_cases())
def test_kernel_dims_are_fiber_logs(case):
    # ker(c*X^(q^t) - f) holds 0 and the x != 0 with f(x)/x^(q^t) = c, so its
    # F_q-dimension is log_q(fiber(c) + 1) for every c, c = 0 included; the
    # fibers come from evaluate-then-divide on every nonzero x
    ctx, f, t = case
    xs = np.arange(1, ctx.order, dtype=np.int64)
    counts = np.bincount(ctx.mul_vec(lp.evaluate_vec(f, xs), ctx.inv_vec(ctx.frob_vec(xs, t))), minlength=ctx.order)
    log_q = {ctx.q ** w - 1: w for w in range(ctx.d + 1)}
    want = [log_q[n] for n in counts.tolist()]
    assert sc.kernel_dims_per_scalar(f, t).tolist() == want
    # the classes (1, b) and (0, 1) take the dimensions at c = -1/b and c = 0,
    # (1, 0) has kernel 0, and each class holds order - 1 codewords
    hist = Counter(want)
    hist[0] += 1
    report = rk.min_distance(rk.CodeSpec(ctx, t, f))
    assert report.kernel_histogram == {w: n * (ctx.order - 1) for w, n in hist.items()}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=sweep_cases(max_order=729))
def test_ratio_curve_count_matches_fiber_verdict(case):
    # off the lines y = u*x, u in F_q, the quotient curve's affine zeros are
    # the pairs (x, y) of equal ratio f(x)/x^(q^t): a fiber of n elements
    # holds n(n - (q - 1)) of them, and the first in grid order is the
    # fiber scan's witness
    ctx, f, t = case
    res = cv.count_affine(cv.build_scatter_curve(f, t), ctx, "ratio_not_in_Fq")
    verdict = sc.scatter_test(f, t)
    xs = np.arange(1, ctx.order, dtype=np.int64)
    counts = np.bincount(ctx.mul_vec(lp.evaluate_vec(f, xs), ctx.inv_vec(ctx.frob_vec(xs, t))), minlength=ctx.order)
    assert res.count == int((counts * (counts - (ctx.q - 1)))[counts > 0].sum())
    assert (res.count == 0) == verdict.scattered
    if not verdict.scattered:
        assert [w.val for w in res.witness] == [w.val for w in verdict.witness]


def _power_sum_ref(ctx, terms, x):
    """sum c * x^m on one encoding, from the scalar operations."""
    acc = 0
    for m, c in terms:
        acc = ctx.add_i(acc, ctx.mul_i(c, ctx.pow_i(x, m)))
    return acc


@st.composite
def power_sum_cases(draw):
    """(field, terms, xs): up to five terms over a field from the sweep's
    domain, each exponent 0, a multiple of order - 1 or any below
    3 * order, each coefficient an encoding or a row of encodings; with
    probability 1/2 a term and its negative both appear, so the running sum
    meets 0.  xs is a flat sample or, with row coefficients, a column;
    x = 0 is always in it."""
    rnd = draw(st.randoms(use_true_random=False))
    p, e, d = rnd.choice(PRIME_FIELDS if rnd.random() < 0.5 else Q_FIELDS)
    ctx = gf.make_field(p, e, d, modulus=explicit_modulus(rnd, p, e * d))
    q1 = ctx.order - 1
    rows = rnd.random() < 0.5
    width = rnd.randrange(1, 5)

    def coeff():
        if rows:
            return np.array([rnd.choice((0, rnd.randrange(ctx.order))) for _ in range(width)])
        return rnd.choice((0, 1, rnd.randrange(ctx.order)))

    terms = []
    for _ in range(rnd.randrange(6)):
        m = rnd.choice((0, q1, 2 * q1, ctx.q ** rnd.randrange(2 * d), rnd.randrange(3 * ctx.order)))
        terms.append((m, coeff()))
    if terms and rnd.random() < 0.5:
        m, c = rnd.choice(terms)
        neg = ([ctx.neg_i(int(v)) for v in c] if rows else ctx.neg_i(c))
        terms.insert(rnd.randrange(len(terms) + 1), (m, np.array(neg) if rows else neg))
    xs = np.array([0] + rnd.sample(range(1, ctx.order), min(q1, 60)), dtype=np.int64)
    return ctx, terms, (xs[:, None] if rows else xs)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=power_sum_cases())
def test_power_sum_matches_scalar_arithmetic(case):
    ctx, terms, xs = case
    out = ctx.power_sum(terms, xs)
    shape = np.broadcast_shapes(xs.shape, *(np.shape(c) for _, c in terms))
    assert out.dtype == np.int64 and out.shape == shape
    # the log-valued kernel: reduced logs, -1 where the sum is 0
    logs = ctx.log_power_sum_at_logs(terms, ctx.log_vec(xs))
    assert logs.dtype == np.int32 and logs.tolist() == ctx.log_vec(out).tolist()
    for idx in np.ndindex(shape):
        x = int(xs[idx[0]] if xs.ndim == 1 else xs[idx[0], 0])
        cs = [(m, int(c if np.ndim(c) == 0 else c[idx[-1]])) for m, c in terms]
        assert int(out[idx]) == _power_sum_ref(ctx, cs, x)


@st.composite
def matrix_batches(draw, p, n):
    """A (batch, n, n) array of matrices over F_p, batch 1 to 9, each one
    uniform, zero, the identity, uniform with one row copied onto another,
    or of rank at most 1 (an outer product)."""
    rnd = draw(st.randoms(use_true_random=False))
    mats = []
    for _ in range(rnd.randrange(1, 10)):
        kind = rnd.randrange(5)
        m = [[rnd.randrange(p) for _ in range(n)] for _ in range(n)]
        if kind == 1:
            m = [[0] * n for _ in range(n)]
        elif kind == 2:
            m = [[int(i == j) for j in range(n)] for i in range(n)]
        elif kind == 3 and n > 1:
            i, j = rnd.sample(range(n), 2)
            m[i] = list(m[j])
        elif kind == 4:
            u, v = m[0], m[-1]
            m = [[ui * vj % p for vj in v] for ui in u]
        mats.append(m)
    return np.array(mats, dtype=np.int64)


def _modp_ranks(mats, p):
    """_batch_rank_modp on a (batch, n, n) array of matrices over F_p."""
    entry = np.min_scalar_type(-p * (p - 1))
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=entry)
    return sc._batch_rank_modp(np.ascontiguousarray(mats.transpose(1, 2, 0), dtype=entry), inv)


def _bits(mask):
    """Rows of a (batch, n, n) boolean array as an (n, batch) array of
    bitmasks, bit j of row i being entry (i, j)."""
    return (mask.astype(np.uint64) << np.arange(mask.shape[-1], dtype=np.uint64)).sum(-1).T


def _rank_ref(m, p):
    """Rank of one matrix over F_p by textbook row reduction on Python ints."""
    m, n, rank = [row[:] for row in m], len(m), 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(n):
            if r != rank and m[r][col]:
                c = m[r][col] * inv % p
                m[r] = [(x - c * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


# every n a sweep can meet under the 2^26 table cap; both sides of each
# word width (8 and 16 bits) the packed rows start in or narrow to
@pytest.mark.parametrize("p, n", [(2, n) for n in range(1, 27)] + [(3, n) for n in range(1, 17)])
@settings(derandomize=True, deadline=None, max_examples=4)
@given(data=st.data())
def test_packed_rank_matches_modp_elimination(p, n, data):
    mats = data.draw(matrix_batches(p, n))
    want = _modp_ranks(mats, p)
    if p == 2:
        got = sc._rank_f2(_bits(mats == 1), n)
    else:
        got = sc._rank_f3(_bits(mats == 1), _bits(mats == 2), n)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p", [5, 13, 251, 2039])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_modp_elimination_matches_textbook_reduction(p, data):
    mats = data.draw(matrix_batches(p, data.draw(st.integers(1, 5))))
    assert _modp_ranks(mats, p).tolist() == [_rank_ref(m, p) for m in mats.tolist()]


# the fields of the sweep's domain that the packed route ranks
PACKED_FIELDS = [f for f in PRIME_FIELDS + [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 2, 3)]
                 if f[0] <= 3]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(rnd=st.randoms(use_true_random=False))
def test_sweep_ranks_match_digit_matrices(rnd):
    # for p = 2, 3 the sweep adds two table rows per scalar c; the digits of
    # the map c*X^(q^t) - f evaluated on the power basis, as matrix
    # columns, must give its ranks
    p, e, d = rnd.choice(PACKED_FIELDS)
    ctx = gf.make_field(p, e, d, modulus=explicit_modulus(rnd, p, e * d))
    f = lp.QPoly.from_encs(ctx, [rnd.randrange(ctx.order) for _ in range(d)])
    t = rnd.randrange(d)
    cs = sorted(rnd.sample(range(ctx.order), min(ctx.order, rnd.randrange(1, 40))))
    basis = p ** np.arange(ctx.N, dtype=np.int64)
    xqt = lp.QPoly.monomial(ctx, t)
    cols = [ctx.digits_vec(lp.evaluate_vec(xqt.scale(gf.FFElt(ctx, c)).sub(f), basis)) for c in cs]
    want = _modp_ranks(np.array(cols).transpose(0, 2, 1), p)  # (c, row, column)
    # the doubling tables, and the power sum that ranks every scalar on small fields
    for every in (False, True):
        assert sc._sweep_ranker([f], t, every)(np.array(cs, dtype=np.int64))[0].tolist() == want.tolist()
