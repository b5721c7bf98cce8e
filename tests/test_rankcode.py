"""Rank-metric code reports and the scattered/MRD equivalence."""

import random

import pytest

from scatterpoly import gf, linpoly as lp, rankcode as rk, scattered as sc


def test_min_distance_examples():
    f8 = gf.make_field(2, 1, 3)
    rep = rk.min_distance(rk.CodeSpec(f8, 0, lp.QPoly.monomial(f8, 1)))
    assert rep.min_distance == 2 == f8.d - 1
    assert rep.is_mrd
    f16 = gf.make_field(2, 1, 4)
    rep16 = rk.min_distance(rk.CodeSpec(f16, 0, lp.QPoly.monomial(f16, 2)))
    assert rep16.min_distance == 2 < f16.d - 1
    assert not rep16.is_mrd


def test_gabidulin_baseline():
    for p in (2, 3):
        for n in range(2, 6):
            ctx = gf.make_field(p, 1, n)
            rep = rk.min_distance(rk.CodeSpec(ctx, 0, lp.QPoly.monomial(ctx, 1)))
            assert rep.min_distance == n - 1 and rep.is_mrd


def test_report_invariants():
    rng = random.Random(2)
    for _ in range(30):
        ctx = gf.make_field(2, 1, rng.choice((3, 4)))
        t = rng.randrange(ctx.d)
        encs = [rng.randrange(ctx.order) for _ in range(ctx.d)]
        encs[t] = 0
        if not any(encs):
            continue
        spec = rk.CodeSpec(ctx, t, lp.QPoly.from_encs(ctx, encs))
        rep = rk.min_distance(spec)
        n, q = ctx.d, ctx.q
        assert rep.code_size == q ** (2 * n)
        assert rep.min_distance == n - max(rep.kernel_histogram)
        assert sum(rep.kernel_histogram.values()) == q ** (2 * n) - 1
        # Singleton-type bound: size q^(2n) needs distance <= n - 1, with
        # equality in the bound exactly at distance n - 1
        assert rep.code_size <= q ** (n * (n - rep.min_distance + 1))
        assert rep.is_mrd == (rep.min_distance == n - 1)
        assert rep.is_mrd == (rep.code_size == q ** (n * (n - rep.min_distance + 1)))


def test_projective_classes_cover_all_pairs():
    # exhaustive check at q=2, n=3: representatives reach the same max kernel
    ctx = gf.make_field(2, 1, 3)
    f = lp.QPoly.monomial(ctx, 1)
    spec = rk.CodeSpec(ctx, 0, f)
    rep = rk.min_distance(spec)
    xqt = lp.QPoly.monomial(ctx, 0)
    kmax = 0
    hist = {}
    for a in range(ctx.order):
        for b in range(ctx.order):
            if a == 0 and b == 0:
                continue
            g = xqt.scale(gf.FFElt(ctx, a)).add(f.scale(gf.FFElt(ctx, b)))
            k = lp.kernel_dim(g)
            kmax = max(kmax, k)
            hist[k] = hist.get(k, 0) + 1
    assert ctx.d - kmax == rep.min_distance
    assert hist == rep.kernel_histogram


def per_class_histogram(spec):
    """Kernel dimension of one representative per scaling class, straight
    from the scalar route: X^(q^t) + b*f for every b, and f for (0, 1)."""
    ctx = spec.ctx
    xqt = lp.QPoly.monomial(ctx, spec.t)
    dims = [lp.kernel_dim(spec.f)]
    dims += [lp.kernel_dim(xqt.add(spec.f.scale(gf.FFElt(ctx, b)))) for b in range(ctx.order)]
    hist = {}
    for dim in dims:
        hist[dim] = hist.get(dim, 0) + ctx.order - 1
    return hist


def test_histogram_matches_per_class_reference():
    rng = random.Random(8)
    for ctx in (gf.make_field(13, 1, 2), gf.make_field(3, 2, 2), gf.make_field(5, 1, 3)):
        for t in range(ctx.d):
            for _ in range(3):
                encs = [rng.randrange(ctx.order) for _ in range(ctx.d)]
                encs[t] = 0
                if not any(encs):
                    continue
                spec = rk.CodeSpec(ctx, t, lp.QPoly.from_encs(ctx, encs))
                assert rk.min_distance(spec).kernel_histogram == per_class_histogram(spec)


def test_codespec_validation():
    ctx = gf.make_field(2, 1, 3)
    with pytest.raises(gf.FieldError):
        rk.CodeSpec(ctx, 0, lp.QPoly(ctx, []))
    with pytest.raises(gf.FieldError):
        rk.CodeSpec(ctx, 0, lp.QPoly(ctx, [1]))  # c_t nonzero
    with pytest.raises(gf.FieldError):
        rk.CodeSpec(ctx, 1, lp.QPoly(gf.make_field(2, 1, 4), [1]))


def test_bridge_on_known_instances():
    f8 = gf.make_field(2, 1, 3)
    assert rk.scattered_mrd_bridge(rk.CodeSpec(f8, 0, lp.QPoly.monomial(f8, 1)))
    f16 = gf.make_field(2, 1, 4)
    assert rk.scattered_mrd_bridge(rk.CodeSpec(f16, 0, lp.QPoly.monomial(f16, 2)))


def test_bridge_random():
    rng = random.Random(14)
    for _ in range(40):
        ctx = gf.make_field(2, 1, rng.choice((3, 4)))
        t = rng.randrange(ctx.d)
        encs = [rng.randrange(ctx.order) for _ in range(ctx.d)]
        encs[t] = 0
        if not any(encs):
            continue
        assert rk.scattered_mrd_bridge(rk.CodeSpec(ctx, t, lp.QPoly.from_encs(ctx, encs)))
