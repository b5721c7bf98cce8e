"""Linearized polynomial algebra: evaluation, normalization, matrices,
kernel dimensions and composition."""

import random

import numpy as np
import pytest

from scatterpoly import curve as cv, gf, linpoly as lp


def test_evaluate_examples():
    f4 = gf.make_field(2, 1, 2)
    g = f4.gen
    ident = lp.QPoly(f4, [1])
    assert lp.evaluate(ident, g) == g
    frob = lp.QPoly.monomial(f4, 1)
    assert lp.evaluate(frob, g) == g * g
    both = lp.QPoly(f4, [1, 1])
    # oracle: g + g^2 with modulus X^2+X+1 forces g^2 = g + 1, so the sum is 1
    assert lp.evaluate(both, g) == f4.one


def test_evaluate_is_subfield_linear():
    rng = random.Random(3)
    for ctx in (gf.make_field(2, 1, 4), gf.make_field(3, 1, 3), gf.make_field(2, 2, 2)):
        f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
        if f.is_zero():
            continue
        subs = ctx.subfield_elems()
        for _ in range(20):
            lam = gf.FFElt(ctx, rng.choice(subs))
            x = gf.FFElt(ctx, rng.randrange(ctx.order))
            y = gf.FFElt(ctx, rng.randrange(ctx.order))
            assert lp.evaluate(f, lam * x + y) == lam * lp.evaluate(f, x) + lp.evaluate(f, y)


def test_evaluate_context_mismatch():
    f8 = gf.make_field(2, 1, 3)
    f = lp.QPoly(f8, [1])
    with pytest.raises(gf.ContextMismatch):
        lp.evaluate(f, gf.make_field(2, 1, 4).one)


def test_one_coefficient_rule():
    # FieldCtx.enc is the one rule behind every polynomial and element taker:
    # an element of another field raises, an element of an equal but
    # separately built field is accepted, and an int is reduced mod the order
    f8 = gf.make_field(2, 1, 3)
    twin = gf.FieldCtx(2, 1, 3)
    x = twin.elem(5)
    foreign = gf.make_field(2, 1, 4).gen ** 3  # encoding 8, no element of F_8
    phi = gf.embed(f8, gf.make_field(2, 1, 6))
    takers = [
        (lambda c: lp.QPoly(f8, [c]).encs[0], 5),
        (lambda c: cv.UnivarPoly(f8, [c]).coeffs[0], 5),
        (lambda c: cv.UnivarPoly(f8, [1]).scale(c).coeffs[0], 5),
        (lambda c: cv.BivarPoly(f8, {(1, 0): c}).terms[(1, 0)], 5),
        (lambda c: f8.elem(c).val, 5),
        (lambda c: lp.evaluate(lp.QPoly(f8, [1]), c).val, 5),
        (lambda c: phi(c).val, phi.map_enc(5)),
    ]
    for take, want in takers:
        with pytest.raises(gf.ContextMismatch):
            take(foreign)
        assert take(x) == want
    for build in (lambda c: lp.QPoly(f8, [c]).encs, lambda c: lp.QPoly.from_encs(f8, [c]).encs,
                  lambda c: cv.UnivarPoly(f8, [c]).coeffs,
                  lambda c: tuple(cv.BivarPoly(f8, {(0, 0): c}).terms.values())):
        assert build(9) == (1,) and build(-1) == (7,) and build(8) == ()
    assert lp.evaluate_vec(lp.QPoly.from_encs(f8, [9]), np.arange(8)).tolist() == list(range(8))
    f = lp.QPoly(f8, [3, x, 0, 9, 0])
    assert f.encs == (3, 5, 0, 1)
    assert all(type(c) is gf.FFElt and c.ctx is f8 for c in f.coeffs)
    assert tuple(c.val for c in f.coeffs) == f.encs


def test_normalize_shift_exceeds_index():
    f8 = gf.make_field(2, 1, 3)
    with pytest.raises(lp.NormalizationError):
        lp.normalize(lp.QPoly.monomial(f8, 2), 1)


def test_normalize_shift_lands_on_index():
    f8 = gf.make_field(2, 1, 3)
    # X^q + X^(q^2) at t=2 shifts by t0=1 onto X + X^q with new t=1, where the
    # coefficient at index 1 is nonzero
    with pytest.raises(lp.NormalizationError):
        lp.normalize(lp.QPoly(f8, [0, 1, 1]), 2)


def test_normalize_fixed_point():
    f8 = gf.make_field(2, 1, 3)
    b = f8.gen
    f = lp.QPoly(f8, [b, f8.zero, f8.one])
    inst, t0 = lp.normalize(f, 1)
    assert t0 == 0 and inst.t == 1 and inst.f == f


def test_normalize_shift_and_twist():
    f16 = gf.make_field(2, 1, 4)
    c = gf.FFElt(f16, 9)
    # f = c X^q + X^(q^3), t = 2: shift by t0 = 1, coefficients twisted by q^(n-1)
    f = lp.QPoly(f16, [f16.zero, c, f16.zero, f16.one])
    inst, t0 = lp.normalize(f, 2)
    assert t0 == 1 and inst.t == 1
    assert inst.f.coeff(0) == gf.frobenius(c, 3)
    assert inst.f.coeff(2) == f16.one
    assert inst.f.coeff(1).is_zero()
    # idempotent on its output
    inst2, t02 = lp.normalize(inst.f, inst.t)
    assert t02 == 0 and inst2.f == inst.f


def test_normalize_rescales_to_monic():
    f8 = gf.make_field(2, 1, 3)
    c = f8.gen
    f = lp.QPoly(f8, [f8.one, f8.zero, c])
    inst, _ = lp.normalize(f, 1)
    assert inst.f.coeffs[-1] == f8.one
    assert inst.f.coeff(0) == c.inv()


def test_normalized_instance_validation():
    f8 = gf.make_field(2, 1, 3)
    with pytest.raises(lp.NormalizationError):
        lp.NormalizedInstance(lp.QPoly(f8, [1]), 0)  # c_0 nonzero at t=0
    with pytest.raises(lp.NormalizationError):
        lp.NormalizedInstance(lp.QPoly(f8, [0, 1]), 2)  # c_0 zero with t>0
    with pytest.raises(lp.NormalizationError):
        lp.NormalizedInstance(lp.QPoly.from_encs(f8, [0, 2]), 0)  # not monic


def test_as_matrix_examples():
    f8 = gf.make_field(2, 1, 3)
    ident = lp.as_matrix(lp.QPoly(f8, [1]))
    n = f8.d
    for i in range(n):
        for j in range(n):
            assert ident[i][j] == (f8.one if i == j else f8.zero)
    zero = lp.as_matrix(lp.QPoly(f8, []))
    assert all(e.is_zero() for row in zero for e in row)
    tr = lp.QPoly(f8, [1, 1, 1])
    # oracle: Gaussian elimination rank of the trace map is 1
    assert lp.matrix_rank(f8, lp.as_matrix(tr)) == 1


def test_matrix_action_matches_evaluate():
    rng = random.Random(11)
    for ctx in (gf.make_field(2, 1, 4), gf.make_field(2, 2, 2), gf.make_field(3, 1, 3)):
        f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
        m = lp.as_matrix(f)
        g = ctx.gen
        for v in range(0, ctx.order, max(1, ctx.order // 17)):
            coords = ctx.subfield_coords(v)
            out = [ctx.zero] * ctx.d
            for i in range(ctx.d):
                for j in range(ctx.d):
                    out[i] = out[i] + m[i][j] * gf.FFElt(ctx, coords[j])
            acc = ctx.zero
            for i in range(ctx.d):
                acc = acc + out[i] * g ** i
            assert acc == lp.evaluate(f, gf.FFElt(ctx, v))


def test_kernel_dim_examples():
    f8 = gf.make_field(2, 1, 3)
    xq_minus_x = lp.QPoly(f8, [-f8.one, f8.one])
    assert lp.kernel_dim(xq_minus_x) == 1
    assert lp.kernel_dim(lp.QPoly(f8, [1])) == 0
    tr = lp.QPoly(f8, [1, 1, 1])
    assert lp.kernel_dim(tr) == 2


def test_kernel_dim_counts_roots():
    rng = random.Random(4)
    for ctx in (gf.make_field(2, 1, 4), gf.make_field(3, 1, 2), gf.make_field(2, 2, 2)):
        for _ in range(25):
            f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
            if f.is_zero():
                continue
            roots = sum(1 for v in range(ctx.order) if lp.evaluate(f, gf.FFElt(ctx, v)).val == 0)
            assert roots == ctx.q ** lp.kernel_dim(f)


def test_compose_examples():
    f4 = gf.make_field(2, 1, 2)
    g = lp.QPoly(f4, [f4.gen, 1])
    ident = lp.QPoly(f4, [1])
    assert lp.compose_mod(ident, g) == g
    frob = lp.QPoly.monomial(f4, 1)
    assert lp.compose_mod(frob, frob) == lp.QPoly(f4, [1])  # indices wrap mod 2
    f8 = gf.make_field(2, 1, 3)
    c = f8.gen
    sq = lp.QPoly.monomial(f8, 1)
    cx = lp.QPoly(f8, [c])
    assert lp.compose_mod(sq, cx) == lp.QPoly(f8, [f8.zero, c * c])


def test_compose_evaluates_and_matrices_multiply():
    rng = random.Random(9)
    for ctx in (gf.make_field(2, 1, 3), gf.make_field(3, 1, 2), gf.make_field(2, 2, 2)):
        for _ in range(10):
            f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
            g = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
            h = lp.compose_mod(f, g)
            for v in range(ctx.order):
                x = gf.FFElt(ctx, v)
                assert lp.evaluate(h, x) == lp.evaluate(f, lp.evaluate(g, x))
            mf, mg, mh = lp.as_matrix(f), lp.as_matrix(g), lp.as_matrix(h)
            prod = [
                [sum((mf[i][k] * mg[k][j] for k in range(ctx.d)), ctx.zero) for j in range(ctx.d)]
                for i in range(ctx.d)
            ]
            assert prod == mh


def test_degree_ceiling():
    f8 = gf.make_field(2, 1, 3)
    with pytest.raises(gf.FieldError):
        lp.QPoly(f8, [1] * (lp.DEFAULT_DEGREE_CEILING + 2))
    assert lp.QPoly(f8, [1] * (lp.DEFAULT_DEGREE_CEILING + 1)).qdegree() == lp.DEFAULT_DEGREE_CEILING
