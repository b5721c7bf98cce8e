"""Cross-route properties over a stated domain, drawn by hypothesis: the
kernel sweep against the fiber counts of the ratio map, and the rank-code
histogram against both."""

from collections import Counter

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
