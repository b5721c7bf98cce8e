"""Cross-route properties over a stated domain, drawn by hypothesis: the
kernel sweep against the fiber counts of the ratio map, the rank-code
histogram against both, and the power-sum kernel against scalar arithmetic."""

from collections import Counter

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from scatterpoly import gf, linpoly as lp, rankcode as rk, scattered as sc

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
def sweep_cases(draw):
    """(field, f, t) with t > 0 and f_t = 0.  Fields over F_p and over F_q,
    q in {9, 25}, are drawn with probability 1/2 each.  With probability 1/2
    f = mu*g with g over a proper subfield, so the sweep's orbit symmetry r
    is below N; otherwise every coefficient is uniform and nonzero."""
    rnd = draw(st.randoms(use_true_random=False))
    p, e, d = rnd.choice(PRIME_FIELDS if rnd.random() < 0.5 else Q_FIELDS)
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
    # F_q-dimension is log_q(fiber(c) + 1) for every c, c = 0 included
    ctx, f, t = case
    _, _, counts = sc._ratio_counts(f, t)
    log_q = {ctx.q ** w - 1: w for w in range(ctx.d + 1)}
    want = [log_q[n] for n in counts.tolist()]
    assert sc.kernel_dims_per_scalar(f, t).tolist() == want
    # the classes (1, b) and (0, 1) take the dimensions at c = -1/b and c = 0,
    # (1, 0) has kernel 0, and each class holds order - 1 codewords
    hist = Counter(want)
    hist[0] += 1
    report = rk.min_distance(rk.CodeSpec(ctx, t, f))
    assert report.kernel_histogram == {w: n * (ctx.order - 1) for w, n in hist.items()}


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
    for idx in np.ndindex(shape):
        x = int(xs[idx[0]] if xs.ndim == 1 else xs[idx[0], 0])
        cs = [(m, int(c if np.ndim(c) == 0 else c[idx[-1]])) for m, c in terms]
        assert int(out[idx]) == _power_sum_ref(ctx, cs, x)
