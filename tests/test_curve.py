"""Curve machinery: exact division, scatter curves, infinity points, counts,
multiplicities, transforms, branch series, resultants and gap audits."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from scatterpoly import curve as cv, gf, linpoly as lp, scattered as sc, suites


def B(ctx, terms):
    return cv.BivarPoly(ctx, terms)


def test_exact_divide_examples():
    f16 = gf.make_field(2, 1, 4)
    a = B(f16, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert cv.exact_divide(a, a) == cv.BivarPoly.constant(f16, 1)
    d = B(f16, {(2, 1): 1, (1, 2): 1})
    prod = a.mul(d)
    assert cv.exact_divide(prod, d) == a
    with pytest.raises(cv.InexactDivision):
        cv.exact_divide(B(f16, {(4, 1): 1, (1, 4): 1}), B(f16, {(3, 0): 1}))


def test_exact_divide_random_products():
    rng = random.Random(12)
    ctx = gf.make_field(3, 1, 2)
    for _ in range(25):
        a = B(ctx, {(rng.randrange(4), rng.randrange(4)): rng.randrange(1, 9) for _ in range(3)})
        b = B(ctx, {(rng.randrange(3), rng.randrange(1, 3)): rng.randrange(1, 9) for _ in range(2)})
        if a.is_zero() or b.is_zero():
            continue
        assert cv.exact_divide(a.mul(b), b) == a


def test_build_scatter_curve_monomial():
    f16 = gf.make_field(2, 1, 4)
    c = cv.build_scatter_curve(lp.QPoly.monomial(f16, 2), 0)
    assert c == B(f16, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    # oracle: the product of Y - rho X over rho in F_4 outside F_2
    f4_in_16 = [v for v in range(16) if f16.pow_i(v, 4) == v and v not in (0, 1)]
    prod = cv.BivarPoly.constant(f16, 1)
    for rho in f4_in_16:
        prod = prod.mul(B(f16, {(0, 1): 1, (1, 0): f16.neg_i(rho)}))
    assert prod == c


def test_build_scatter_curve_trivial_quotient():
    f16 = gf.make_field(2, 1, 4)
    c = cv.build_scatter_curve(lp.QPoly.monomial(f16, 1), 0)
    assert c == cv.BivarPoly.constant(f16, 1)


def test_build_scatter_curve_index1_expansion():
    # oracle: hand expansion of the numerator for f = bX + X^(q^2), t = 1,
    # q = 2 gives b + X^2 Y + X Y^2 after division
    f16 = gf.make_field(2, 1, 4)
    b = f16.gen
    c = cv.build_scatter_curve(lp.QPoly(f16, [b, f16.zero, f16.one]), 1)
    assert c.degree() == 2 ** 2 - 1
    assert c == B(f16, {(0, 0): b.val, (2, 1): 1, (1, 2): 1})


def test_build_scatter_curve_degree_general():
    rng = random.Random(3)
    for ctx in (gf.make_field(2, 1, 4), gf.make_field(3, 1, 3)):
        q = ctx.q
        for _ in range(10):
            t = rng.randrange(ctx.d)
            encs = [rng.randrange(ctx.order) for _ in range(ctx.d)]
            encs[t] = 0
            if not any(encs):
                continue
            f = lp.QPoly.from_encs(ctx, encs)
            k = f.qdegree()
            c = cv.build_scatter_curve(f, t)
            assert c.degree() == q ** k + q ** t - q - 1


def test_build_rejects_nonzero_ct():
    f8 = gf.make_field(2, 1, 3)
    with pytest.raises(gf.FieldError):
        cv.build_scatter_curve(lp.QPoly(f8, [1, 1]), 0)


def test_closed_form_curve_matches_division():
    # the quotient is written down; the numerator divided by X^q Y - X Y^q
    # gives the same terms: p = 2, 3, 5, 7, e > 1, explicit moduli (X^4 + X^3
    # + 1, X^3 + 2X + 2), t > 0 and indices j < t, and f of up to 2n
    # coefficients, whose indices past n fold
    rng = random.Random(29)
    fields = (
        gf.make_field(2, 1, 4), gf.make_field(2, 2, 3), gf.make_field(3, 1, 3), gf.make_field(3, 2, 2),
        gf.make_field(5, 1, 3), gf.make_field(7, 1, 2), gf.make_field(2, 1, 4, modulus=(1, 0, 0, 1, 1)),
        gf.make_field(3, 1, 3, modulus=(2, 2, 0, 1)),
    )
    pairs = 0
    for ctx in fields:
        n = ctx.d
        den = B(ctx, {(ctx.q, 1): 1, (1, ctx.q): ctx.neg_i(1)})
        for _ in range(40):
            t = rng.randrange(2 * n)
            encs = [0 if j % n == t % n or rng.random() < 0.3 else rng.randrange(ctx.order)
                    for j in range(rng.randrange(1, 2 * n + 1))]
            f = lp.QPoly.from_encs(ctx, encs)
            if f.reduce_indices().is_zero():
                continue
            want = cv.exact_divide(cv.scatter_curve_numerator(f, t), den)
            assert cv.build_scatter_curve(f, t) == want, (ctx, encs, t)
            pairs += 1
    assert pairs > 200
    # both refusals keep their messages: a coefficient at index t, after
    # folding, and an f that folds to 0
    f9 = gf.make_field(3, 1, 2)
    with pytest.raises(gf.FieldError, match="^coefficient at index 3 must be zero$"):
        cv.build_scatter_curve(lp.QPoly.from_encs(f9, [1, 0, 0, 1]), 3)
    with pytest.raises(gf.FieldError, match="^numerator vanished: f is supported only at index t$"):
        cv.build_scatter_curve(lp.QPoly.from_encs(f9, [1, 0, f9.neg_i(1)]), 1)


def test_points_at_infinity_examples():
    f2 = gf.make_field(2, 1, 1)
    conic = B(f2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert len(cv.points_at_infinity(conic)) == 0
    f4 = gf.make_field(2, 1, 2)
    pts = cv.points_at_infinity(conic, f4)
    assert len(pts) == 2
    for x, y, z in pts:
        assert x == f4.one and z.is_zero()
        assert (y * y + y + f4.one).val == 0


def test_points_at_infinity_monomial_curve():
    # index-0 monomial curve: ideal points are (1, rho, 0), rho outside F_q
    f16 = gf.make_field(2, 1, 4)
    c = cv.build_scatter_curve(lp.QPoly.monomial(f16, 2), 0)
    pts = cv.points_at_infinity(c, f16)
    assert len(pts) == 2 ** 2 - 2
    for x, y, z in pts:
        assert f16.pow_i(y.val, 4) == y.val and not f16.in_subfield_i(y.val)


def test_points_at_infinity_index1_count():
    # q^(k-1) + 1 ideal points, here with k = 3 over a field containing F_(q^2)
    f16 = gf.make_field(2, 1, 4)
    b = gf.FFElt(f16, 7)
    f = lp.QPoly(f16, [b, f16.zero, f16.zero, f16.one])
    pts = cv.points_at_infinity(cv.build_scatter_curve(f, 1))
    assert len(pts) == 2 ** 2 + 1
    assert (f16.zero, f16.one, f16.zero) in pts


def test_count_affine_basics():
    f16 = gf.make_field(2, 1, 4)
    empty = cv.BivarPoly.constant(f16, 1)
    assert cv.count_affine(empty).count == 0
    c = cv.build_scatter_curve(lp.QPoly.monomial(f16, 2), 0)
    res = cv.count_affine(c, f16, "ratio_not_in_Fq")
    v = sc.scatter_test(lp.QPoly.monomial(f16, 2), 0)
    assert res.count > 0
    assert (res.witness[0].val, res.witness[1].val) == (v.witness[0].val, v.witness[1].val)


def test_count_affine_matches_grid_oracle(monkeypatch):
    fields = (gf.make_field(2, 1, 3), gf.make_field(3, 1, 2), gf.make_field(5, 1, 2), gf.make_field(2, 2, 2))
    # 64-cell blocks split every grid into several x-blocks
    for block_cells, ctx in itertools.product((cv._GRID_BLOCK_CELLS, 64), fields):
        monkeypatch.setattr(cv, "_GRID_BLOCK_CELLS", block_cells)
        rng = random.Random(8)
        for _ in range(8):
            terms = {
                (rng.randrange(4), rng.randrange(4)): rng.randrange(ctx.order) for _ in range(4)
            }
            fp = B(ctx, terms)
            if fp.is_zero() or fp.degree() == 0:
                continue
            for pred in ("all", "ratio_not_in_Fq"):
                res = cv.count_affine(fp, ctx, pred)
                cnt, first = 0, None
                for x in range(ctx.order):
                    for y in range(ctx.order):
                        if fp.evaluate(x, y).val:
                            continue
                        if pred == "ratio_not_in_Fq":
                            if x == 0 or ctx.in_subfield_i(ctx.mul_i(y, ctx.inv_i(x))):
                                continue
                        cnt += 1
                        if first is None:
                            first = (x, y)
                assert res.count == cnt
                if cnt:
                    assert (res.witness[0].val, res.witness[1].val) == first
                else:
                    assert res.witness is None


def test_homogeneous_fast_path_matches_grid():
    f64 = gf.make_field(2, 1, 6)
    c = cv.build_scatter_curve(lp.QPoly.monomial(f64, 3), 0)  # homogeneous, not scattered
    res = cv.count_affine(c, f64, "ratio_not_in_Fq")
    cnt = 0
    first = None
    for x in range(1, 64):
        for y in range(64):
            if c.evaluate(x, y).val == 0 and not f64.in_subfield_i(f64.mul_i(y, f64.inv_i(x))):
                cnt += 1
                if first is None:
                    first = (x, y)
    assert res.count == cnt and cnt > 0
    assert (res.witness[0].val, res.witness[1].val) == first


# p up to 17, e > 1 and an explicit modulus, each of order at most 49
CHART_FIELDS = (
    (2, 1, 2), (2, 1, 5), (3, 1, 2), (3, 1, 3), (5, 1, 2), (7, 1, 2), (11, 1, 1), (13, 1, 1),
    (17, 1, 1), (2, 2, 2), (3, 2, 1), (3, 1, 3, (2, 2, 0, 1)),
)


@st.composite
def chart_cases(draw):
    """A field, a polynomial with up to three total degrees (none: the zero
    polynomial, one: a form or a constant) and a block size in cells."""
    p, e, d, *modulus = draw(st.sampled_from(CHART_FIELDS))
    ctx = gf.make_field(p, e, d, modulus=modulus[0] if modulus else None)
    terms = {}
    for k in draw(st.sets(st.integers(0, 6), max_size=3)):
        for i in draw(st.sets(st.integers(0, k), min_size=1)):
            terms[(i, k - i)] = draw(st.integers(1, ctx.order - 1))
    return ctx, B(ctx, terms), draw(st.sampled_from((1, 7, 64, 1 << 20)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=chart_cases(), pred=st.sampled_from(("all", "ratio_not_in_Fq")))
def test_count_affine_matches_brute_force(case, pred):
    ctx, fp, block_cells = case
    cnt, first = 0, None
    for x in range(ctx.order):
        for y in range(ctx.order):
            if fp.evaluate(x, y).val:
                continue
            if pred == "ratio_not_in_Fq":
                if x == 0 or ctx.in_subfield_i(ctx.mul_i(y, ctx.inv_i(x))):
                    continue
            cnt += 1
            if first is None:
                first = (x, y)
    # hypothesis rejects function-scoped fixtures, so the patch is local
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cv, "_GRID_BLOCK_CELLS", block_cells)
        res = cv.count_affine(fp, ctx, pred)
    assert res.count == cnt
    assert (None if res.witness is None else (res.witness[0].val, res.witness[1].val)) == first


# tracemalloc peaks, in bytes, of the ratio count below as the chart sweep
# built it from pow_vec, mul_vec and add_vec passes; numpy 2.4.6, Python 3.11.
# The two-degree curve over F_(2^10) takes the rank route now, far below its
# pin; the one with top degree 4 (degrees 2, 3, 4: no shift) stays on the
# grid, pinned at its measured peak of 16775516 bytes rounded up
CHART_PEAK_BYTES = {(2, 1, 10): 16837128, (3, 1, 6): 17015432, (2, 1, 10, 4): 16800000}


@pytest.mark.parametrize(
    "field", sorted(CHART_PEAK_BYTES), ids=lambda f: "%d^%d^%d" % f[:3] + "".join("-degree-%d" % k for k in f[3:])
)
def test_chart_block_memory_stays_at_peak(field):
    # one curve of degrees 2 to `top`, swept in one block of about order^2 cells
    ctx = gf.make_field(*field[:3])
    top = field[3] if len(field) > 3 else 3
    rng = random.Random(3)
    ijs = ((3, 0), (2, 1), (1, 2), (0, 3), (2, 0), (1, 1), (0, 2))
    ijs += tuple((i, k - i) for k in range(4, top + 1) for i in range(k, -1, -1))
    fp = B(ctx, {ij: rng.randrange(1, ctx.order) for ij in ijs})
    if top == 4:
        assert cv._linear_exponents(sorted(cv._forms_by_degree(fp)), ctx.p) is None
    want = cv.count_affine(fp, ctx, "ratio_not_in_Fq")  # builds the tables outside the trace
    tracemalloc.start()
    try:
        res = cv.count_affine(fp, ctx, "ratio_not_in_Fq")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == want and res.count > 0
    assert peak <= CHART_PEAK_BYTES[field]


def _random_quotient_curve(rng, ctx):
    """(f, t, curve): f with two or three nonzero coefficients off index t."""
    t = rng.randrange(ctx.d)
    encs = [0] * ctx.d
    for j in rng.sample([j for j in range(ctx.d) if j != t], min(ctx.d - 1, rng.choice((2, 2, 3)))):
        encs[j] = rng.randrange(1, ctx.order)
    f = lp.QPoly.from_encs(ctx, encs)
    return f, t, cv.build_scatter_curve(f, t)


def test_linear_exponents_of_quotient_curves():
    # the forms of the quotient curve have degrees q^j + q^t - q - 1 over the
    # support j of f, so the shift q^(least j) gives the exponents q^j
    for p, e, d in ((2, 1, 7), (3, 1, 5), (2, 2, 4), (5, 1, 3), (3, 2, 3)):
        ctx = gf.make_field(p, e, d)
        rng = random.Random(11)
        for _ in range(12):
            f, t, c = _random_quotient_curve(rng, ctx)
            want = [ctx.q ** j for j in f.support() if j != t]
            assert cv._linear_exponents(sorted(cv._forms_by_degree(c)), p) == want
    # 1, q, q + 1: the only candidate shift is q, and 2q - 1 is no power of p
    for p, q in ((2, 2), (3, 3), (2, 4), (5, 5), (3, 9)):
        assert cv._linear_exponents([1, q, q + 1], p) is None
    assert cv._linear_exponents([2, 3], 2) == [1, 2]
    assert cv._linear_exponents([2, 3], 3) is None


# fields above 64 elements (the rank route), p = 2, 3, 5, 7, 13, e > 1 and an
# explicit modulus; (base, m): the curve of the base field counted over the
# extension of degree m
RANK_FIELDS = (
    ((2, 1, 7), 1), ((3, 1, 5, (1, 0, 1, 0, 1, 1)), 1), ((5, 1, 3), 1), ((7, 1, 3), 1),
    ((13, 1, 3), 1), ((2, 2, 4), 1), ((3, 2, 3), 1), ((2, 1, 3), 3), ((3, 1, 3), 2),
)


@pytest.mark.parametrize("small", (False, True), ids=("default-blocks", "small-blocks"))
def test_rank_route_matches_grid(small):
    for (p, e, d, *modulus), m in RANK_FIELDS:
        ctx = gf.make_field(p, e, d, modulus=modulus[0] if modulus else None)
        ext = gf.make_field(p, e, d * m)
        rng = random.Random(p * 100 + d * 10 + m)
        for _ in range(1 if p == 13 else 3):
            _, _, c = _random_quotient_curve(rng, ctx)
            assert cv._linear_exponents(sorted(cv._forms_by_degree(c)), p) is not None
            for pred in ("all", "ratio_not_in_Fq"):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(cv, "_linear_exponents", lambda degs, p: None)
                    # over F_(13^3) the grid's 2196 * 2197 cells pass the default ceiling
                    want = cv.count_affine(c, ext, pred, ceiling=1 << 23)
                with pytest.MonkeyPatch.context() as mp:
                    if small:
                        # several rank batches, and witness walks of one or two rows a block
                        mp.setattr(sc, "_CHUNK", 7)
                        mp.setattr(cv, "_GRID_BLOCK_CELLS", 300)
                    got = cv.count_affine(c, ext, pred)
                key = lambda r: (r.count, r.witness and tuple(w.val for w in r.witness))
                assert key(got) == key(want), (ctx, m, c, pred)


def test_multiplicity_examples():
    f16 = gf.make_field(2, 1, 4)
    conic = B(f16, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    m, cone = cv.multiplicity(conic, (0, 0))
    assert m == 2 and cone == conic
    f3 = gf.make_field(3, 1, 1)
    par = B(f3, {(0, 1): 1, (2, 0): f3.neg_i(1)})
    assert cv.multiplicity(par, (0, 0))[0] == 1
    assert cv.multiplicity(par, (1, 1))[0] == 1  # on the curve
    assert cv.multiplicity(par, (1, 0))[0] == 0  # off the curve


def test_multiplicity_counts_curve_points():
    # sum over the grid of [m >= 1] equals the affine count
    ctx = gf.make_field(3, 1, 2)
    fp = B(ctx, {(0, 1): 1, (2, 0): ctx.neg_i(1), (1, 1): 4})
    total = sum(
        1
        for x in range(ctx.order)
        for y in range(ctx.order)
        if cv.multiplicity(fp, (x, y))[0] >= 1
    )
    assert total == cv.count_affine(fp, ctx).count


def test_is_ordinary():
    f16 = gf.make_field(2, 1, 4)
    assert cv.is_ordinary(B(f16, {(2, 0): 1, (1, 1): 1, (0, 2): 1}))
    assert not cv.is_ordinary(B(f16, {(2, 0): 1, (0, 2): 1}))  # (X+Y)^2
    f9 = gf.make_field(3, 1, 2)
    assert cv.is_ordinary(B(f9, {(1, 1): 1}))  # XY
    assert not cv.is_ordinary(B(f9, {(2, 1): 1}))  # X^2 Y
    with pytest.raises(gf.FieldError):
        cv.is_ordinary(B(f9, {(1, 0): 1, (0, 2): 1}))  # not homogeneous


def test_is_ordinary_against_splitting_oracle():
    # oracle: multiplicity of each root of the dehomogenized form over a
    # splitting extension
    rng = random.Random(21)
    base = gf.make_field(2, 1, 2)
    ext = gf.make_field(2, 1, 4)
    phi = gf.embed(base, ext)
    for _ in range(30):
        lins = [
            (rng.randrange(4), rng.randrange(4))
            for _ in range(rng.randrange(1, 4))
        ]
        lins = [(a, b) for a, b in lins if a or b]
        if not lins:
            continue
        form = cv.BivarPoly.constant(base, 1)
        for a, b in lins:
            form = form.mul(B(base, {(1, 0): a, (0, 1): b}))
        dirs = set()
        repeated = False
        for a, b in lins:
            av, bv = phi.map_enc(a), phi.map_enc(b)
            if bv:
                key = ("fin", ext.mul_i(av, ext.inv_i(bv)))
            else:
                key = ("inf", 0)
            if key in dirs:
                repeated = True
            dirs.add(key)
        assert cv.is_ordinary(form) == (not repeated)


def test_geometric_transform_examples():
    f3 = gf.make_field(3, 1, 1)
    cusp = B(f3, {(0, 2): 1, (3, 0): f3.neg_i(1)})
    assert cv.geometric_transform(cusp) == B(f3, {(0, 2): 1, (1, 0): f3.neg_i(1)})
    f16 = gf.make_field(2, 1, 4)
    conic = B(f16, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert cv.geometric_transform(conic) == B(f16, {(0, 0): 1, (0, 1): 1, (0, 2): 1})
    with pytest.raises(gf.FieldError):
        cv.geometric_transform(B(f16, {(0, 0): 1, (1, 0): 1}))  # origin off curve
    with pytest.raises(gf.FieldError):
        cv.geometric_transform(B(f16, {(2, 0): 1, (0, 3): 1}))  # X = 0 tangent


def test_iterated_transform_reaches_simple_axis_points():
    # chart at the X-direction ideal point, then (q^k-1)/(q-1) transforms;
    # the result meets X = 0 exactly at the q-1 simple points with
    # eta^(q-1) = 1/lambda
    cases = [(2, 3, gf.make_field(2, 1, 4)), (3, 2, gf.make_field(3, 1, 3))]
    rng = random.Random(6)
    for q, k, ctx in cases:
        for _ in range(3):
            lam_enc = rng.randrange(1, ctx.order)
            lam = gf.FFElt(ctx, lam_enc)
            encs = [0] * (k + 1)
            encs[0] = 1
            encs[k] = lam_enc
            f = lp.QPoly.from_encs(ctx, encs)
            num = cv.scatter_curve_numerator(f, 1)
            h = cv.exact_divide(cv.infinity_chart(num), B(ctx, {(0, 1): 1}))
            steps = (q ** k - 1) // (q - 1)
            for _ in range(steps):
                h = cv.geometric_transform(h)
            axis = [y for y in range(ctx.order) if h.evaluate(0, y).val == 0]
            expect = [y for y in range(1, ctx.order) if ctx.pow_i(y, q - 1) == ctx.inv_i(lam_enc)]
            assert sorted(axis) == sorted(expect)
            assert all(cv.multiplicity(h, (0, y))[0] == 1 for y in axis)


def test_transform_preserves_branch_series():
    # one transform step sends the branch (X, y(X)) to (X, y(X)/X); after
    # recentering at (0, c_1) the series coefficients shift by one
    f5 = gf.make_field(5, 1, 1)
    f7 = gf.make_field(7, 1, 1)
    rng = random.Random(33)
    for ctx in (f5, f7):
        for _ in range(10):
            terms = {
                (0, 1): rng.randrange(1, ctx.order),
                (1, 0): rng.randrange(1, ctx.order),
                (2, 0): rng.randrange(ctx.order),
                (1, 1): rng.randrange(ctx.order),
                (2, 1): rng.randrange(ctx.order),
            }
            fp = B(ctx, terms)
            series = cv.branch_series(fp, 6)
            g = cv.geometric_transform(fp)
            recentered = g.shift(0, series[0].val)
            shifted = cv.branch_series(recentered, 5)
            assert [c.val for c in shifted] == [c.val for c in series[1:]]


def test_branch_series_examples():
    f5 = gf.make_field(5, 1, 1)
    par = B(f5, {(0, 1): 1, (2, 0): f5.neg_i(1)})
    assert [c.val for c in cv.branch_series(par, 5)] == [0, 1, 0, 0, 0]
    geo = B(f5, {(0, 1): 1, (1, 0): f5.neg_i(1), (1, 1): f5.neg_i(1)})
    assert [c.val for c in cv.branch_series(geo, 6)] == [1] * 6
    with pytest.raises(gf.FieldError):
        cv.branch_series(B(f5, {(0, 2): 1, (1, 0): 1}), 3)
    with pytest.raises(gf.FieldError):
        cv.branch_series(B(f5, {(0, 0): 1, (0, 1): 1}), 3)


def _reference_branch_series(f_poly, terms):
    """Branch series that rebuilds every power of the truncated series for
    every k (cost deg_Y * terms^3), kept as the reference."""
    ctx = f_poly.ctx
    inv_unit = ctx.inv_i(f_poly.terms[(0, 1)])
    series = [0]
    for k in range(1, terms + 1):
        cap = k + 1
        y1 = series[:cap] + [0] * (cap - len(series))
        ypows = {0: [1] + [0] * (cap - 1), 1: y1}
        for j in range(2, f_poly.deg_y() + 1):
            out = [0] * cap
            for a, ca in enumerate(ypows[j - 1]):
                for b, cb in enumerate(y1):
                    if ca and cb and a + b < cap:
                        out[a + b] = ctx.add_i(out[a + b], ctx.mul_i(ca, cb))
            ypows[j] = out
        val = 0
        for (i, j), c in f_poly.terms.items():
            if i <= k and ypows[j][k - i]:
                val = ctx.add_i(val, ctx.mul_i(c, ypows[j][k - i]))
        series.append(ctx.mul_i(ctx.neg_i(val), inv_unit))
    return series[1:]


def test_branch_series_matches_reference():
    rng = random.Random(41)
    fields = [gf.make_field(2, 1, 4), gf.make_field(3, 1, 1), gf.make_field(3, 2, 1),
              gf.make_field(5, 1, 2), gf.make_field(13, 1, 1)]
    for ctx in fields:
        for _ in range(8):
            terms = {(rng.randrange(6), rng.randrange(7)): rng.randrange(ctx.order) for _ in range(6)}
            terms.pop((0, 0), None)
            terms[(0, 1)] = rng.randrange(1, ctx.order)
            fp = B(ctx, terms)
            n_terms = rng.randrange(1, 25)
            assert [c.val for c in cv.branch_series(fp, n_terms)] == _reference_branch_series(fp, n_terms)


def test_branch_series_substitutes_to_zero():
    rng = random.Random(19)
    ctx = gf.make_field(3, 1, 2)
    for _ in range(15):
        terms = {(rng.randrange(4), rng.randrange(3)): rng.randrange(ctx.order) for _ in range(4)}
        terms.pop((0, 0), None)
        terms[(0, 1)] = rng.randrange(1, ctx.order)
        fp = B(ctx, terms)
        depth = 6
        series = cv.branch_series(fp, depth)
        # substitute and verify vanishing mod X^(depth+1)
        comp = [0] * (depth + 1)
        ypows = {0: [1] + [0] * depth}
        y = [0] + [c.val for c in series]
        ypows[1] = y + [0] * (depth + 1 - len(y))
        for j in range(2, max(j for _, j in fp.terms) + 1):
            prev = ypows[j - 1]
            cur = [0] * (depth + 1)
            for a_i, a_c in enumerate(prev):
                if a_c:
                    for b_i, b_c in enumerate(ypows[1]):
                        if b_c and a_i + b_i <= depth:
                            cur[a_i + b_i] = ctx.add_i(cur[a_i + b_i], ctx.mul_i(a_c, b_c))
            ypows[j] = cur
        for (i, j), c in fp.terms.items():
            for k, yc in enumerate(ypows[j]):
                if yc and i + k <= depth:
                    comp[i + k] = ctx.add_i(comp[i + k], ctx.mul_i(c, yc))
        assert all(v == 0 for v in comp)


def test_resultant_examples():
    f2 = gf.make_field(2, 1, 1)
    line = B(f2, {(0, 1): 1, (1, 0): 1})
    assert cv.resultant_in_y(line, line).is_zero()  # common component
    f3 = gf.make_field(3, 1, 1)
    a = B(f3, {(0, 1): 1, (1, 0): f3.neg_i(1)})
    b = B(f3, {(0, 1): 1, (2, 0): f3.neg_i(1)})
    r = cv.resultant_in_y(a, b)
    assert sorted(r.roots()) == [0, 1]
    assert r.degree() == 2


def test_resultant_degree_bound_and_components():
    rng = random.Random(29)
    ctx = gf.make_field(3, 1, 2)
    for _ in range(15):
        a = B(ctx, {(rng.randrange(3), rng.randrange(1, 3)): rng.randrange(1, 9) for _ in range(2)})
        b = B(ctx, {(rng.randrange(3), rng.randrange(1, 3)): rng.randrange(1, 9) for _ in range(2)})
        if a.deg_y() < 1 or b.deg_y() < 1:
            continue
        r = cv.resultant_in_y(a, b)
        bound = a.deg_y() * b.deg_x() + b.deg_y() * a.deg_x()
        if not r.is_zero():
            assert r.degree() <= bound
        common = B(ctx, {(1, 1): 1, (0, 1): 2})
        rz = cv.resultant_in_y(a.mul(common), b.mul(common))
        assert rz.is_zero()


def test_resultant_vanishes_at_common_root_slices():
    # res(x0) = 0 exactly where the two curves share a Y-root over the field
    # or both leading coefficients die
    ctx = gf.make_field(2, 1, 2)
    a = B(ctx, {(0, 1): 1, (1, 0): 1})  # Y + X
    b = B(ctx, {(0, 2): 1, (1, 0): 1})  # Y^2 + X
    r = cv.resultant_in_y(a, b)
    for x in range(4):
        shared = any(
            a.evaluate(x, y).val == 0 and b.evaluate(x, y).val == 0 for y in range(4)
        )
        assert (r.evaluate(x) == 0) == shared


def test_resultant_requires_positive_y_degree():
    f4 = gf.make_field(2, 1, 2)
    with pytest.raises(gf.FieldError):
        cv.resultant_in_y(B(f4, {(1, 0): 1}), B(f4, {(0, 1): 1}))


def test_hasse_weil_gap_examples():
    f27 = gf.make_field(3, 1, 3)
    line = B(f27, {(0, 1): 1, (1, 0): f27.neg_i(5)})
    total, gap, bound, affine, infinity = cv.hasse_weil_gap(line)
    assert total == 27 + 1 and gap == 0 and bound == 0.0
    assert affine + infinity == total
    # reducible conic over F_4: computed, not asserted against the bound
    f4 = gf.make_field(2, 1, 2)
    conic = B(f4, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    total, gap, bound, affine, infinity = cv.hasse_weil_gap(conic)
    assert total == 2 * 4 + 1  # two lines through the origin, one shared point
    assert affine + infinity == total


def test_hasse_weil_suite_counts_infinity_once_per_curve(monkeypatch):
    calls = Counter()
    count = cv.points_at_infinity

    def counted(f_poly, *args, **kwargs):
        calls[f_poly] += 1
        return count(f_poly, *args, **kwargs)

    monkeypatch.setattr(cv, "points_at_infinity", counted)
    res = suites.run_hasse_weil()
    assert res.passed and res.checks == 128
    assert len(calls) == 128 and set(calls.values()) == {1}


def test_line_restriction():
    f16 = gf.make_field(2, 1, 4)
    b = f16.gen
    f = lp.QPoly(f16, [b, f16.zero, f16.one])
    curve = cv.build_scatter_curve(f, 1)
    for u in range(16):
        r = cv.line_restriction(f, 1, u, curve=curve)
        assert not r.is_zero()
        assert r.coeff(0) == b.val  # constant term survives every slice
        assert r.degree() <= 2 ** 2 - 1
    # zero restriction reduces to the constant part
    r0 = cv.line_restriction(f, 1, 0, curve=curve)
    assert r0.degree() == 0


def test_infinity_chart_shape():
    # frozen hand expansion for f = X + lam X^(q^3), t = 1, q = 2
    ctx = gf.make_field(2, 1, 4)
    lam = gf.FFElt(ctx, 5)
    f = lp.QPoly(ctx, [ctx.one, ctx.zero, ctx.zero, lam])
    num = cv.scatter_curve_numerator(f, 1)
    h = cv.exact_divide(cv.infinity_chart(num), B(ctx, {(0, 1): 1}))
    assert h == B(ctx, {(7, 1): 1, (0, 1): lam.val, (7, 0): 1, (0, 7): lam.val})
