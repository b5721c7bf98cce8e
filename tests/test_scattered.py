"""Scatteredness verdicts, weight spectra, extension scans and the decision
predicates, each cross-checked against brute-force oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scatterpoly import gf, linpoly as lp, rankcode as rk, scattered as sc

SMALL_FIELDS = lambda: (
    gf.make_field(2, 1, 3),
    gf.make_field(2, 1, 4),
    gf.make_field(3, 1, 2),
    gf.make_field(3, 1, 3),
    gf.make_field(2, 2, 2),
)


def brute_verdict(f, t):
    """O(order^2) pair scan straight from the fiber definition."""
    ctx = f.ctx
    ratios = {}
    for x in range(1, ctx.order):
        r = ctx.mul_i(lp.evaluate(f, gf.FFElt(ctx, x)).val, ctx.inv_i(ctx.frob_i(x, t)))
        ratios[x] = r
    for x in range(1, ctx.order):
        for y in range(1, ctx.order):
            if x == y:
                continue
            if ratios[x] == ratios[y] and not ctx.in_subfield_i(ctx.mul_i(y, ctx.inv_i(x))):
                return False, (x, y) if x < y else None
    return True, None


def first_brute_witness(f, t):
    ctx = f.ctx
    ratios = {}
    for x in range(1, ctx.order):
        ratios[x] = ctx.mul_i(lp.evaluate(f, gf.FFElt(ctx, x)).val, ctx.inv_i(ctx.frob_i(x, t)))
    for x in range(1, ctx.order):
        for y in range(1, ctx.order):
            if y != x and ratios[x] == ratios[y] and not ctx.in_subfield_i(ctx.mul_i(y, ctx.inv_i(x))):
                return x, y
    return None


def test_scatter_examples():
    f8 = gf.make_field(2, 1, 3)
    assert sc.scatter_test(lp.QPoly.monomial(f8, 1), 0).scattered
    assert sc.scatter_test(lp.QPoly(f8, [1]), 1).scattered
    f16 = gf.make_field(2, 1, 4)
    v = sc.scatter_test(lp.QPoly.monomial(f16, 2), 0)
    assert not v.scattered
    x, y = v.witness
    assert x == f16.one
    assert (y ** 3) == f16.one and not f16.in_subfield_i(y.val)


def test_witness_is_first_pair_and_valid():
    rng = random.Random(17)
    for ctx in SMALL_FIELDS():
        for _ in range(12):
            f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
            if f.is_zero():
                continue
            t = rng.randrange(ctx.d)
            v = sc.scatter_test(f, t)
            expected = first_brute_witness(f, t)
            if v.scattered:
                assert expected is None
            else:
                x, y = v.witness
                assert (x.val, y.val) == expected
                # the defining identity of a witness pair
                lhs = lp.evaluate(f, x) * gf.frobenius(y, t)
                rhs = lp.evaluate(f, y) * gf.frobenius(x, t)
                assert lhs == rhs
                assert not ctx.in_subfield_i((y / x).val)


def test_fiber_and_kernel_testers_agree_exhaustively():
    # every (f, t) pair over tiny fields
    for ctx in (gf.make_field(2, 1, 2), gf.make_field(3, 1, 2)):
        for enc in range(1, ctx.order ** 2):
            f = lp.QPoly.from_encs(ctx, [enc % ctx.order, enc // ctx.order])
            if f.is_zero():
                continue
            for t in range(ctx.d):
                assert sc.scatter_test(f, t).scattered == sc.scatter_test_kernel(f, t)


def test_testers_agree_random_larger():
    rng = random.Random(23)
    # p = 13 and 17 need int16 entries; p = 191 needs int32 entries and matmuls
    for ctx in (
        gf.make_field(2, 1, 6), gf.make_field(3, 1, 4), gf.make_field(2, 2, 3),
        gf.make_field(13, 1, 2), gf.make_field(17, 1, 2), gf.make_field(191, 1, 2),
    ):
        for _ in range(10):
            f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
            if f.is_zero():
                continue
            t = rng.randrange(ctx.d)
            assert sc.scatter_test(f, t).scattered == sc.scatter_test_kernel(f, t)


def test_scaling_invariance():
    rng = random.Random(31)
    for ctx in SMALL_FIELDS():
        for _ in range(8):
            f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
            if f.is_zero():
                continue
            t = rng.randrange(ctx.d)
            base = sc.scatter_test(f, t).scattered
            for _ in range(3):
                c = gf.FFElt(ctx, rng.randrange(1, ctx.order))
                assert sc.scatter_test(f.scale(c), t).scattered == base


def test_is_scattered_on_normalized_instance():
    # F_(13^2) is small enough for the inline kernel-sweep cross-check
    for ctx in (gf.make_field(2, 1, 3), gf.make_field(13, 1, 2)):
        inst, _ = lp.normalize(lp.QPoly.monomial(ctx, 1), 0)
        assert sc.is_scattered(inst).scattered


def test_monomial_law_small():
    for q, p, e in ((2, 2, 1), (3, 3, 1), (4, 2, 2)):
        for n in range(2, 5):
            ctx = gf.make_field(p, e, n)
            for s in range(1, n):
                got = sc.scatter_test(lp.QPoly.monomial(ctx, s), 0).scattered
                assert got == (math.gcd(s, n) == 1)


def test_linear_set_report_examples():
    f8 = gf.make_field(2, 1, 3)
    rep = sc.linear_set_report_raw(lp.QPoly.monomial(f8, 1), 0)
    assert rep.size == 7 and rep.weight_spectrum == {1: 7} and rep.max_weight == 1
    f16 = gf.make_field(2, 1, 4)
    rep = sc.linear_set_report_raw(lp.QPoly.monomial(f16, 2), 0)
    assert rep.max_weight == 2 and rep.size == 5


def test_linear_set_weights_match_kernel_dims(monkeypatch):
    # independent route: the weight of the point over c is the kernel
    # dimension of c*X^(q^t) - f, from the scalar route and the batched sweep
    fields = (
        gf.make_field(2, 1, 4), gf.make_field(3, 1, 2), gf.make_field(2, 2, 2),
        gf.make_field(13, 1, 2), gf.make_field(17, 1, 2),
        gf.make_field(3, 1, 3, modulus=(2, 2, 0, 1)), gf.make_field(2, 2, 3),
    )
    # 7-scalar chunks split every sweep into several batches
    for chunk in (sc._CHUNK, 7):
        monkeypatch.setattr(sc, "_CHUNK", chunk)
        rng = random.Random(41)
        for ctx in fields:
            for _ in range(6):
                f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
                if f.is_zero():
                    continue
                t = rng.randrange(ctx.d)
                rep = sc.linear_set_report_raw(f, t)
                dims = scalar_route_dims(f, t)
                assert sc.kernel_dims_per_scalar(f, t).tolist() == dims
                spectrum = {}
                for w in dims:
                    if w:
                        spectrum[w] = spectrum.get(w, 0) + 1
                assert spectrum == rep.weight_spectrum
                assert rep.size == sum(spectrum.values())


def scalar_route_dims(f, t):
    """The kernel dimension of c*X^(q^t) - f at every encoding c, one
    kernel_dim per scalar."""
    ctx = f.ctx
    xqt = lp.QPoly.monomial(ctx, t)
    return [lp.kernel_dim(xqt.scale(gf.FFElt(ctx, c)).sub(f)) for c in range(ctx.order)]


# p in {2, 3, 5, 7, 13}, e in {1, 2, 3}, two explicit moduli, and F_q itself (d = 1)
ORBIT_FIELDS = (
    (2, 1, 1), (2, 2, 1), (3, 3, 1), (5, 2, 1), (2, 1, 4), (2, 1, 6), (2, 2, 3), (2, 3, 2),
    (2, 1, 5, (1, 0, 1, 0, 0, 1)), (3, 1, 3, (2, 2, 0, 1)), (3, 1, 4), (3, 2, 2),
    (5, 1, 3), (7, 1, 2), (7, 1, 3), (13, 1, 2),
)


def orbit_instances(ctx, rng):
    """Coefficient lists of five kinds, with an s that the symmetry r of
    each must divide: random f (s = N), mu*g with g over a proper subfield
    F_(p^s) (s = N when there is none), mu*X^(q^j) (s = 1), random
    coefficients on a gapped support {j0, j0 + g, ...} below 2d, g a divisor
    of d above 1 (s = N), whose scale group F_(q^g)^* is larger than F_q^*,
    two of each; and four binomials on j0 < j1 below 2d: two with random
    coefficients (s = N) and two b*X^(q^j0) + X^(q^j1) with b from a proper
    subfield F_(p^s), whose semilinear stabilizer is often larger than
    their Frobenius symmetry."""
    for _ in range(2):
        encs = [rng.randrange(ctx.order) for _ in range(ctx.d)]
        encs[-1] = encs[-1] or 1
        yield encs, ctx.N
    for _ in range(2):
        s = rng.choice([s for s in range(1, ctx.N) if ctx.N % s == 0] or [ctx.N])
        sub = ctx.subfield_of_size_elems(ctx.p ** s)
        mu = rng.randrange(1, ctx.order)
        encs = [ctx.mul_i(mu, rng.choice(sub)) for _ in range(ctx.d)]
        encs[rng.randrange(ctx.d)] = mu
        yield encs, s
    for _ in range(2):
        yield [0] * rng.randrange(ctx.d) + [rng.randrange(1, ctx.order)], 1
    for _ in range(2):
        g = rng.choice([g for g in range(2, ctx.d) if ctx.d % g == 0] or [ctx.d])
        j0 = rng.randrange(ctx.d)
        encs = [0] * j0 + [rng.randrange(ctx.order) if i % g == 0 else 0 for i in range(2 * ctx.d - j0)]
        encs[j0] = encs[j0] or 1
        yield encs, ctx.N
    for kind in range(4):
        j0, j1 = sorted(rng.sample(range(2 * ctx.d), 2))
        encs = [0] * (j1 + 1)
        if kind < 2:
            encs[j0], encs[j1] = rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)
            yield encs, ctx.N
            continue
        s = rng.choice([s for s in range(1, ctx.N) if ctx.N % s == 0] or [ctx.N])
        encs[j0], encs[j1] = rng.choice(ctx.subfield_of_size_elems(ctx.p ** s)[1:]), 1
        yield encs, s


def test_orbit_reduced_sweep_matches_scalar_route(monkeypatch):
    # the sweep ranks orbit leaders only; every scalar must still get the
    # dimension the scalar route gives it, and the rank-code histogram, which
    # sums the orbit sizes of the leaders, must count every scalar once
    rng = random.Random(47)
    cases, scaled, semilinear = [], 0, 0
    for p, e, d, *modulus in ORBIT_FIELDS:
        ctx = gf.make_field(p, e, d, modulus=modulus[0] if modulus else None)
        for encs, s in orbit_instances(ctx, rng):
            f = lp.QPoly.from_encs(ctx, encs)
            t = rng.randrange(d)
            r = sc._frobenius_symmetry(f)[1]
            assert s % r == 0
            # non-monomials whose classes hold several shifts l + i*m
            scaled += len(f.support()) > 1 and sc._semilinear_stabilizer(f, t)[3] < ctx.order - 1
            # non-monomials whose stabilizer has more Frobenius powers: j* < r
            semilinear += len(f.support()) > 1 and sc._semilinear_stabilizer(f, t)[2] > ctx.N // r
            cases.append((f, t, scalar_route_dims(f, t), sc.scatter_test(f, t).scattered))
    assert scaled >= 10 and semilinear >= 10
    # the orbit sweep forced on these small fields, where 7-scalar batches
    # and 5-log filter blocks make the leaders of one block straddle
    # batches; then the default rule, which ranks every scalar of them
    for chunk, block, sweep_all in ((sc._CHUNK, gf._ORBIT_BLOCK, 0), (7, 5, 0),
                                    (sc._CHUNK, gf._ORBIT_BLOCK, sc._SWEEP_ALL_MAX)):
        monkeypatch.setattr(sc, "_CHUNK", chunk)
        monkeypatch.setattr(gf, "_ORBIT_BLOCK", block)
        monkeypatch.setattr(sc, "_SWEEP_ALL_MAX", sweep_all)
        for f, t, dims, scattered in cases:
            assert sc.kernel_dims_per_scalar(f, t).tolist() == dims
            assert sc.scatter_test_kernel(f, t) == scattered
            # a code needs f without the X^(q^t) term; subfield-valued f and
            # monomials keep their short orbits without it
            ctx, encs = f.ctx, list(f.encs) + [0] * (t + 1)
            encs[t] = 0
            g = lp.QPoly.from_encs(ctx, encs)
            if g.is_zero():
                continue
            want = np.bincount(sc.kernel_dims_per_scalar(g, t))
            want[0] += 1  # the class (1, 0)
            hist = rk.min_distance(rk.CodeSpec(ctx, t, g)).kernel_histogram
            assert hist == {dim: int(cnt) * (ctx.order - 1) for dim, cnt in enumerate(want) if cnt}


def test_frobenius_symmetry(monkeypatch):
    # X^q over F_((2^2)^3): r = 1, so an orbit is a whole x -> x^2 orbit of
    # N = 6 scalars, not d = 3; the orbit sweep is forced on these small fields
    monkeypatch.setattr(sc, "_SWEEP_ALL_MAX", 0)
    ctx = gf.make_field(2, 2, 3)
    assert sc._frobenius_symmetry(lp.QPoly.monomial(ctx, 1)) == (1, 1)
    g = ctx.mult_generator_enc
    orbits = sc._kernel_dim_chunks([lp.QPoly.monomial(ctx, 1)], 0, None)[0]
    orbit = set(orbits.members(np.array([1]))[:, 0, 0].tolist())  # the images of g = gen^1
    assert orbit == {ctx.pow_i(g, 2 ** k) for k in range(ctx.N)} and len(orbit) == 6
    # b*X + X^(q^2) with b the generator of F_(3^4) inside F_(3^12): mu = b, r = 4
    small, ext = gf.make_field(3, 1, 4), gf.make_field(3, 1, 12)
    b = gf.embed(small, ext).map_enc(small.gen_enc)
    assert sc._frobenius_symmetry(lp.QPoly.from_encs(ext, [b, 0, 1])) == (b, 4)
    # random full support: no symmetry
    rng = random.Random(53)
    for ctx in (gf.make_field(2, 1, 6), gf.make_field(3, 2, 2), gf.make_field(5, 1, 3)):
        f = lp.QPoly.from_encs(ctx, [rng.randrange(1, ctx.order) for _ in range(ctx.d)])
        assert sc._frobenius_symmetry(f)[1] == ctx.N
    # the scalar orbits of F_(2^6) under x -> x^2 for X + X^q, t = 0, whose
    # scale group is F_2^* (m = 63): 0, and on the logs mod 63 the 13 binary
    # necklaces of length 6 other than 111111
    f64 = gf.make_field(2, 1, 6)
    orbits = sc._kernel_dim_chunks([lp.QPoly.from_encs(f64, [1, 1])], 0, None)[0]
    assert orbits.m == 63 and sum(len(ls) for ls in orbits.leaders()) == 14
    # X^q scales by all of F_(2^6)^* (m = 2^1 - 1): the scalars 0 and 1 lead
    orbits = sc._kernel_dim_chunks([lp.QPoly.monomial(f64, 1)], 0, None)[0]
    assert [ls.tolist() for ls in orbits.leaders()] == [[-1, 0]]


def test_scale_modulus(monkeypatch):
    # the kernel dimension at c = mu*gen^l depends on l mod m only: checked
    # against the scalar route at every c; m is the gcd law for monomials,
    # gcd(q1, q1/(q^g - 1) * (q^j0 - q^t)) with g = gcd(d, j - j0 over the
    # support), so order - 1 when g = 1; the classes of the leaders hold
    # every scalar once (the orbit sweep forced on these small fields)
    monkeypatch.setattr(sc, "_SWEEP_ALL_MAX", 0)
    rng = random.Random(59)
    for p, e, d, *modulus in ORBIT_FIELDS:
        ctx = gf.make_field(p, e, d, modulus=modulus[0] if modulus else None)
        q, q1 = ctx.q, ctx.order - 1
        for s in range(2 * d):
            for t in range(2 * d):
                assert sc._semilinear_stabilizer(lp.QPoly.monomial(ctx, s), t)[3] == q ** math.gcd(abs(s - t), d) - 1
        for encs, _ in orbit_instances(ctx, rng):
            f = lp.QPoly.from_encs(ctx, encs)
            t = rng.randrange(2 * d)
            m = sc._semilinear_stabilizer(f, t)[3]
            sup = f.support()
            g = math.gcd(d, *(j - sup[0] for j in sup))
            assert m == math.gcd(q1, q1 // (q ** g - 1) * (q ** sup[0] - q ** t))
            assert g > 1 or m == q1
            dims = scalar_route_dims(f, t)
            gm = ctx.pow_i(ctx.mult_generator_enc, m)
            assert all(dims[c] == dims[ctx.mul_i(c, gm)] for c in range(ctx.order))
            orbits = sc._kernel_dim_chunks([f], t, None)[0]
            assert orbits.m == m
            assert sum(int(orbits.sizes(ls).sum()) for ls in orbits.leaders()) == ctx.order


def test_semilinear_stabilizer(monkeypatch):
    # the solver against a brute force over every divisor j of N and every
    # lambda in F^*: j* is the least j with some lambda and kappa making
    # f_i^(p^j) = kappa*f_i*lambda^(q^i) on the support, and with mu the
    # first coefficient, c = mu*gen^l -> c^(p^j*) lambda^(-q^t) kappa^(-1)
    # is mu*gen^(P*l + s) up to a multiple of m in the log for every such
    # lambda; the kernel dimension is the same at c and at its image through
    # the scalar route at every c, and the classes of the leaders hold every
    # scalar once (the orbit sweep forced on these small fields)
    monkeypatch.setattr(sc, "_SWEEP_ALL_MAX", 0)
    rng = random.Random(61)
    for p, e, d, *modulus in ORBIT_FIELDS:
        ctx = gf.make_field(p, e, d, modulus=modulus[0] if modulus else None)
        q1, gen = ctx.order - 1, ctx.mult_generator_enc
        log = lambda x: int(ctx.log_vec([x])[0])
        for encs, _ in orbit_instances(ctx, rng):
            f = lp.QPoly.from_encs(ctx, encs)
            t = rng.randrange(2 * d)
            P, s, count, m = sc._semilinear_stabilizer(f, t)
            assert q1 % m == 0 and 0 <= s < q1
            sup = f.support()
            mu = f.encs[sup[0]]
            for j in (j for j in range(1, ctx.N + 1) if ctx.N % j == 0):
                shifts = set()
                for lam in range(1, ctx.order):
                    kappa = ctx.mul_i(ctx.pow_i(mu, p ** j), ctx.inv_i(ctx.mul_i(mu, ctx.pow_i(lam, ctx.q ** sup[0]))))
                    if all(ctx.pow_i(f.encs[i], p ** j) == ctx.mul_i(kappa, ctx.mul_i(f.encs[i], ctx.pow_i(lam, ctx.q ** i)))
                           for i in sup):
                        w = ctx.inv_i(ctx.mul_i(ctx.pow_i(lam, ctx.q ** t), kappa))
                        shifts.add(((p ** j - 1) * log(mu) + log(w)) % m)
                if shifts:
                    break
            assert (P, count) == (p ** j, ctx.N // j) and shifts == {s % m}
            dims = scalar_route_dims(f, t)
            image = [0] + [ctx.mul_i(mu, ctx.pow_i(gen, (P * (log(c) - log(mu)) + s) % q1)) for c in range(1, ctx.order)]
            assert all(dims[c] == dims[image[c]] for c in range(ctx.order))
            orbits = sc._kernel_dim_chunks([f], t, None)[0]
            assert orbits == (ctx, mu, P, s, count, m)
            assert sum(int(orbits.sizes(ls).sum()) for ls in orbits.leaders()) == ctx.order
    # the worked case: b*X + X^(q^2), t = 1, b from F_(3^4) with norm not 1
    # inside F_(3^12): j* = 2 where r = 4, and c -> c^9 b^(-6)
    small, ext = gf.make_field(3, 1, 4), gf.make_field(3, 1, 12)
    phi = gf.embed(small, ext)
    b = next(phi.map_enc(v) for v in range(2, small.order)
             if gf.norm_rel(gf.FFElt(small, v)).val != 1 and ext.pow_i(phi.map_enc(v), 8) != 1)
    f = lp.QPoly.from_encs(ext, [b, 0, 1])
    assert sc._frobenius_symmetry(f)[1] == 4
    P, s, count, m = sc._semilinear_stabilizer(f, 1)
    assert (P, count) == (9, 6)
    # c = b*gen^l goes to c^9 b^(-6) = b*gen^(9l) b^2
    assert (s - 2 * int(ext.log_vec([b])[0])) % m == 0
    # 22,151 classes, 0 among them, where the Frobenius symmetry alone leaves 44,301
    assert sum(len(ls) for ls in sc._ScalarOrbits(ext, b, P, s, count, m).leaders()) == 22151


def test_sweep_batches_double(monkeypatch):
    # an early exit ranks the first batch only: batches grow from
    # _FIRST_CHUNK scalars by doubling, up to _CHUNK, and hold every leader
    # once, ascending
    monkeypatch.setattr(sc, "_CHUNK", 4 * sc._FIRST_CHUNK)
    ctx = gf.make_field(2, 1, 12)
    orbits = sc._ScalarOrbits(ctx, 1, 2 ** 12, 0, 1, ctx.order - 1)
    batches = list(orbits.leaders())
    first = sc._FIRST_CHUNK
    assert [len(ls) for ls in batches[:4]] == [first, 2 * first, 4 * first, 4 * first]
    assert np.concatenate(batches).tolist() == list(range(-1, ctx.order - 1))


def _divided_ratios(f, t):
    """The evaluate-then-divide route: f(x) by Frobenius terms, times the
    inverse of x^(q^t), on every nonzero x."""
    ctx = f.ctx
    xs = np.arange(1, ctx.order, dtype=np.int64)
    fx = np.zeros_like(xs)
    for j, c in enumerate(f.encs):
        if c:
            fx = ctx.add_vec(fx, ctx.mul_vec(np.int64(c), ctx.frob_vec(xs, j)))
    ratios = ctx.mul_vec(fx, ctx.inv_vec(ctx.frob_vec(xs, t)))
    return ratios, np.bincount(ratios, minlength=ctx.order)


def test_ratio_power_sum_matches_division():
    rng = random.Random(67)
    fields = SMALL_FIELDS() + (gf.make_field(2, 1, 1), gf.make_field(3, 2, 2), gf.make_field(5, 1, 2),
                               gf.make_field(3, 1, 3, modulus=(2, 2, 0, 1)))
    for ctx in fields:
        d = ctx.d
        for _ in range(6):
            # indices up to 2d + 1, so j >= d occurs unreduced, and the
            # coefficient at t is left nonzero as often as not
            encs = [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 2 * d + 2))]
            encs[-1] = encs[-1] or 1
            f = lp.QPoly.from_encs(ctx, encs)
            for t in range(2 * d + 1):
                ratios = ctx.power_sum(sc._ratio_terms([f], t), np.arange(1, ctx.order, dtype=np.int64))
                assert ratios.tolist() == _divided_ratios(f, t)[0].tolist()


# fields where a line holds many points: q - 1 = 8 and 3, and an explicit
# modulus (X^3 + X + 4, not the canonical X^3 + X + 1) with q - 1 = 4
LINE_FIELDS = lambda: (
    gf.make_field(3, 2, 2),
    gf.make_field(2, 2, 3),
    gf.make_field(5, 1, 3, modulus=(4, 1, 0, 1)),
)


def test_line_scan_witness_and_partition_match_brute_force():
    # the scan reads one x per F_q^*-line; the witness is still the first
    # pair of the full element order, and the lines over each ratio count
    # (q^w - 1)/(q - 1) for a point of weight w
    rng = random.Random(71)
    for ctx in LINE_FIELDS():
        sub = ctx.subfield_elems()
        polys = [lp.QPoly.monomial(ctx, 1), lp.QPoly.monomial(ctx, ctx.d - 1)]
        polys += [lp.QPoly.from_encs(ctx, [rng.choice(sub) for _ in range(ctx.d)]) for _ in range(2)]
        polys += [lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)]) for _ in range(3)]
        for f in polys:
            if f.is_zero():
                continue
            for t in list(range(ctx.d)) + [ctx.d + rng.randrange(ctx.d)]:
                verdict, rep = sc.scatter_report(f, t)
                expected = first_brute_witness(f, t)
                assert verdict == sc.scatter_test(f, t) and rep == sc.linear_set_report_raw(f, t)
                assert verdict.scattered == (expected is None)
                if expected is not None:
                    assert tuple(w.val for w in verdict.witness) == expected
                total = sum(cnt * (ctx.q ** w - 1) for w, cnt in rep.weight_spectrum.items())
                assert total == ctx.order - 1
                assert (rep.size == (ctx.order - 1) // (ctx.q - 1)) == verdict.scattered


def test_chunked_line_scan_matches_one_shot():
    # the orbit scan on every field, blocks of 4 conjugates and of 3 candidate
    # lines (fresh fields, so no orbits are cached), and a witness walk that
    # starts at 2 encodings: M = 10, 21 and 31 split into several blocks, the
    # last one ragged; verdicts, witnesses and spectra stay those of the
    # brute-force witness and of the per-x ratios
    rng = random.Random(83)
    witnesses = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_SCAN_BLOCK", 4)
        mp.setattr(sc, "_ORBIT_SCAN_MIN", 0)
        mp.setattr(sc, "_WALK_BLOCK", 2)
        mp.setattr(gf, "_ORBIT_BLOCK", 3)
        for ctx in [gf.FieldCtx(c.p, c.e, c.d, c.modulus) for c in LINE_FIELDS()]:
            q, M = ctx.q, (ctx.order - 1) // (ctx.q - 1)
            assert M > 8 and M % 4
            polys = [lp.QPoly.monomial(ctx, 1), lp.QPoly(ctx, [1])]
            polys += [lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)]) for _ in range(3)]
            for f in polys:
                if f.is_zero():
                    continue
                for t in range(ctx.d):
                    verdict, rep = sc.scatter_report(f, t)
                    expected = first_brute_witness(f, t)
                    assert verdict == sc.scatter_test(f, t) and verdict.scattered == (expected is None)
                    if expected is not None:
                        assert tuple(w.val for w in verdict.witness) == expected
                        witnesses += 1
                    # fibers of the per-x ratios: q^w - 1 elements over a point of weight w
                    fibers = np.bincount(_divided_ratios(f, t)[1])
                    assert rep.weight_spectrum == {w: int(fibers[q ** w - 1]) for w in range(1, ctx.d + 1)
                                                   if q ** w - 1 < len(fibers) and fibers[q ** w - 1]}
    assert witnesses > 0


def _affine_shifts(n, P, count):
    """Shifts s with (k -> P*k + s)^count = 1 mod n: the multiples of
    n/gcd(n, 1 + P + ... + P^(count - 1)), two of them, the first the least
    above 0 (0 when there is none)."""
    step = n // math.gcd(n, sum(P ** i for i in range(count)))
    return [s for s in (step, 3 * step) if s < n] or [0]


@pytest.mark.parametrize("kind", ["lines", "scalar-logs", "affine-logs"])
def test_line_orbits_match_brute_force(kind):
    # the orbits of k -> P*k mod n, P = p^r, for every divisor r of N,
    # against the orbits walked one k at a time: on the classes of lines
    # modulo every divisor n of M (from line_orbits, n = M taking every line
    # apart) and on the logs of the sweep's scalars (n = order - 1,
    # from _ScalarOrbits, with -1 for the scalar 0 first and 7-log batches);
    # affine-logs: k -> P*k + s mod n through _ScalarOrbits, for every
    # divisor n of order - 1 and shifts s that keep the map's order, each
    # class size the orbit size times (order - 1)/n; 5-element candidate
    # blocks (fresh fields, so nothing is cached) split the range into
    # several blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "_ORBIT_BLOCK", 5)
        mp.setattr(sc, "_CHUNK", 7)
        for p, e, d, *modulus in ORBIT_FIELDS:
            ctx = gf.FieldCtx(p, e, d, modulus=modulus[0] if modulus else None)
            q1 = ctx.order - 1
            for r in [r for r in range(1, ctx.N + 1) if ctx.N % r == 0]:
                P, count = p ** r, ctx.N // r
                if kind == "affine-logs":
                    maps = [(n, s) for n in range(1, q1 + 1) if q1 % n == 0 for s in _affine_shifts(n, P, count)]
                elif kind == "lines":
                    M = q1 // (ctx.q - 1)
                    maps = [(n, 0) for n in range(1, M + 1) if M % n == 0]
                else:
                    maps = [(q1, 0)]
                for n, s in maps:
                    orbits = {}
                    for k in range(n):
                        orbit = [k]
                        for _ in range(count - 1):
                            orbit.append((P * orbit[-1] + s) % n)
                        assert (P * orbit[-1] + s) % n == k
                        orbits[min(orbit)] = len(set(orbit))
                    if kind != "lines":
                        stream = sc._ScalarOrbits(ctx, 1, P, s, count, n)
                        batches = [ls.tolist() for ls in stream.leaders()]
                        assert all(len(ls) == 7 for ls in batches[:-1]) and 0 < len(batches[-1]) <= 7
                        assert sum(batches, []) == [-1] + sorted(orbits)
                        # the scalar 0 (l = -1) is fixed
                        sizes = stream.sizes(np.array(sum(batches, [])))
                        assert sizes.tolist() == [1] + [orbits[k] * (q1 // n) for k in sorted(orbits)]
                        continue
                    leaders, sizes = ctx.line_orbits(r, n)
                    assert leaders.tolist() == sorted(orbits)
                    assert sizes.tolist() == [orbits[k] for k in sorted(orbits)]
                    assert ctx.line_orbits(r, n)[0] is leaders


# fields with a proper subfield, of order at most 256, e > 1 among them
SUBFIELD_FIELDS = [(2, 1, 4), (2, 1, 6), (2, 1, 8), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 4, 2),
                   (3, 1, 2), (3, 1, 4), (3, 2, 2), (5, 1, 2), (7, 1, 2), (13, 1, 2)]


def _explicit_modulus_field(rnd, fields):
    """A field of `fields` with a random explicit modulus: the first monic
    irreducible at or after a random tail encoding, cyclically."""
    p, e, d = rnd.choice(fields)
    n, start = e * d, rnd.randrange(p ** (e * d))
    tails = ([(start + v) % p ** n // p ** i % p for i in range(n)] for v in range(p ** n))
    return gf.make_field(p, e, d, modulus=next(tail + [1] for tail in tails if gf.is_irreducible(tail + [1], p)))


@st.composite
def orbit_cases(draw):
    """(f, t, s): f = mu*g with g over a proper subfield F_(p^s), over a field
    with a random explicit modulus, so the scan's symmetry r divides s;
    indices and t go up to 2d, unreduced ones included.  With probability
    1/2 g is c*X^(q^a) - c*X^(q^b), which vanishes on F_q, so the zero ratio
    occurs (the whole map is zero when a = b mod d)."""
    rnd = draw(st.randoms(use_true_random=False))
    ctx = _explicit_modulus_field(rnd, SUBFIELD_FIELDS)
    d = ctx.d
    s = rnd.choice([s for s in range(1, ctx.N) if ctx.N % s == 0])
    sub = ctx.subfield_of_size_elems(ctx.p ** s)
    g = [rnd.choice(sub) if rnd.random() < 0.6 else 0 for _ in range(rnd.randrange(1, 2 * d + 2))]
    if rnd.random() < 0.5:
        a, b = rnd.sample(range(2 * d + 1), 2)
        c = rnd.choice(sub[1:])
        g = [0] * (max(a, b) + 1)
        g[a], g[b] = c, ctx.neg_i(c)
    assume(any(g))
    mu = rnd.randrange(1, ctx.order)
    return lp.QPoly.from_encs(ctx, [ctx.mul_i(mu, v) for v in g]), rnd.randrange(2 * d + 1), s


def _check_class_scan(f, t):
    """The class scan of (f, t) against the per-x oracles, on a field small
    enough for them: verdict, witness, spectrum, and the lines over each
    ratio read from the classes, with every symmetry taken however few
    lines it saves, small blocks and a walk that starts at 2 encodings.
    Returns the scan."""
    ctx, q = f.ctx, f.ctx.q
    q1 = ctx.order - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_ORBIT_SCAN_MIN", 0)
        mp.setattr(sc, "_SCAN_BLOCK", 8)
        mp.setattr(sc, "_WALK_BLOCK", 2)
        scan = sc._line_scan([f], t)
        verdict, rep = sc.scatter_report(f, t)
    classes, lines, values = sc._classes(scan)
    per_value = lines // values
    assert (per_value * values == lines).all()
    # the residue 0 mod n_s is fixed by tau
    n_orb = len(scan.powers)
    if n_orb > 1 and scan.n_s > 1:
        assert min(f.ctx.line_orbits(f.ctx.N // n_orb, scan.n_s)[1]) < n_orb
    expected = first_brute_witness(f, t)
    assert verdict.scattered == (expected is None)
    if expected is not None:
        assert tuple(w.val for w in verdict.witness) == expected
    _, counts = _divided_ratios(f, t)
    fibers = np.bincount(counts)
    assert rep.weight_spectrum == {w: int(fibers[q ** w - 1]) for w in range(1, ctx.d + 1)
                                   if q ** w - 1 < len(fibers) and fibers[q ** w - 1]}
    # class c holds the ratios mu * gen^l with l mod m in the orbit of c
    # under l -> P*l, each on per_value lines, that is on per_value * (q - 1)
    # nonzero x
    per_ratio = {}
    for c, on, n in zip(classes.tolist(), per_value.tolist(), values.tolist()):
        orbit = {c * pow(scan.P, j, scan.m) % scan.m for j in range(len(scan.powers))}
        logs = [-1] if c < 0 else [l for l in range(q1) if l % scan.m in orbit]
        assert len(logs) == n and min(logs) == c
        for v in ctx.power_sum_at_logs([(1, scan.mu)], np.array(logs)).tolist():
            per_ratio[v] = on * (q - 1)
    assert per_ratio == {v: n for v, n in enumerate(counts.tolist()) if n}
    # the trivial group, which small fields take by default, agrees
    assert sc.scatter_report(f, t) == (verdict, rep)
    return scan


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=orbit_cases())
def test_orbit_scan_matches_brute_force(case):
    # the scan over one line per class, on fields small enough for the
    # per-x oracles; f has coefficients in mu*F_(p^s), so r divides s
    f, t, s = case
    _check_class_scan(f, t)
    assert s % sc._frobenius_symmetry(f)[1] == 0


# fields of order at most 256 with d even, all but one with a divisor g of d
# strictly between 1 and d, e > 1 among them
SCALE_FIELDS = [(2, 1, 4), (2, 1, 6), (2, 1, 8), (2, 2, 4), (3, 1, 4), (3, 2, 2)]


@st.composite
def scale_cases(draw):
    """(f, t) with a scale group F_(q^g)^*, g >= 2, and a Frobenius symmetry
    with N/r >= 2, over a field with a random explicit modulus (e > 1 among
    them): f = mu*h with h over a proper subfield F_(p^s) and supported on
    indices j0 + g*k, g a divisor of d above 1.  Kinds: b*X + X^(q^2) at
    t = 1 (g = 2); a monomial, n_s = 1; c*X^(q^a) - c*X^(q^b), which
    vanishes on F_(q^g), so the zero ratio occurs; and a random such h.
    Indices and t go up to 2d, unreduced ones included."""
    rnd = draw(st.randoms(use_true_random=False))
    ctx = _explicit_modulus_field(rnd, SCALE_FIELDS)
    d = ctx.d
    s = rnd.choice([s for s in range(1, ctx.N) if ctx.N % s == 0])
    sub = ctx.subfield_of_size_elems(ctx.p ** s)
    # g < d where d allows it, so that 1 < n_s < M
    g = rnd.choice([g for g in range(2, d) if d % g == 0] or [d])
    kind = rnd.choice(["binomial", "monomial", "vanishing", "random"])
    t = rnd.randrange(2 * d + 1)
    if kind == "binomial":
        h, t = [rnd.choice(sub[1:]), 0, 1], 1
    elif kind == "monomial":
        h = [0] * rnd.randrange(2 * d + 1) + [rnd.choice(sub[1:])]
    else:
        j0 = rnd.randrange(d)
        idx = [j0 + g * k for k in range(2 * d // g + 1)]
        h = [0] * (idx[-1] + 1)
        if kind == "vanishing":
            a, b = rnd.sample(idx, 2)
            c = rnd.choice(sub[1:])
            h[a], h[b] = c, ctx.neg_i(c)
        else:
            for j in idx:
                h[j] = rnd.choice(sub) if rnd.random() < 0.6 else 0
    assume(any(h))
    mu = rnd.randrange(1, ctx.order)
    return lp.QPoly.from_encs(ctx, [ctx.mul_i(mu, v) for v in h]), t


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=scale_cases())
def test_scale_class_scan_matches_brute_force(case):
    # the scan modulo the scale group: n_s = (order - 1)/(q^g - 1) with g
    # the gcd of d and the index gaps, m = gcd(order - 1, n_s*(q^j0 - q^t)),
    # and the verdict, witness, spectrum and lines per ratio of the per-x
    # oracles
    f, t = case
    ctx, q, q1 = f.ctx, f.ctx.q, f.ctx.order - 1
    sup = f.support()
    g = math.gcd(ctx.d, *(j - sup[0] for j in sup))
    scan = _check_class_scan(f, t)
    assert g >= 2 and len(scan.powers) >= 2
    assert scan.n_s == q1 // (q ** g - 1)
    assert scan.m == math.gcd(q1, scan.n_s * (q ** sup[0] - q ** t))


def test_scale_classes_count_guard(monkeypatch):
    # the reduction cannot switch off silently: b*X + X^9, t = 1, with b the
    # generator of F_(3^4) inside F_(3^12) has r = 4 and g = 2, so the scan
    # evaluates one leader per orbit of k -> 81*k mod n_s = 3^12 - 1 / 8,
    # 22,150 of them; a monomial X^(q^s) has n_s = 1, reads one line and
    # never calls line_orbits
    small, ext = gf.make_field(3, 1, 4), gf.make_field(3, 1, 12)
    b = gf.embed(small, ext).map_enc(small.gen_enc)
    evaluated = []
    evaluate = gf.FieldCtx.log_power_sum_at_logs

    def counted(self, terms, ks):
        evaluated.append(len(ks))
        return evaluate(self, terms, ks)

    def refused(self, r, n):
        raise AssertionError("line_orbits called for a monomial")

    monkeypatch.setattr(gf.FieldCtx, "log_power_sum_at_logs", counted)
    scan = sc._line_scan([lp.QPoly.from_encs(ext, [b, 0, 1])], 1)
    assert (scan.n_s, len(scan.powers)) == ((ext.order - 1) // 8, 3)
    assert sum(evaluated) == len(scan.ranked) == 22150
    monkeypatch.setattr(gf.FieldCtx, "line_orbits", refused)
    for ctx in (ext, gf.make_field(2, 1, 16)):
        for s in range(2 * ctx.d):
            evaluated.clear()
            scan = sc._line_scan([lp.QPoly.monomial(ctx, s)], 1)
            assert scan.n_s == 1
            assert sum(evaluated) == len(scan.ranked) == 1


def test_scatter_report_builds_the_class_table_once(monkeypatch):
    # scatter_report hands one class table to the verdict and the spectrum;
    # scatter_test still builds its own under a symmetry group and none
    # under the trivial group, where the ranked keys decide
    small, ext = gf.make_field(3, 1, 4), gf.make_field(3, 1, 12)
    b = gf.embed(small, ext).map_enc(small.gen_enc)
    f2 = gf.make_field(2, 1, 6)
    built = []
    classes = sc._classes
    monkeypatch.setattr(sc, "_classes", lambda scan: built.append(scan.trivial) or classes(scan))
    for f, t, trivial in ((lp.QPoly.from_encs(ext, [b, 0, 1]), 1, False),
                          (lp.QPoly.from_encs(ext, [b, 0, 0, 1]), 1, False),
                          (lp.QPoly.from_encs(f2, [1, 1]), 0, True), (lp.QPoly.from_encs(f2, [0, 1, 1]), 0, True)):
        built.clear()
        report = sc.scatter_report(f, t)
        assert built == [trivial]
        built.clear()
        assert report == (sc.scatter_test(f, t), sc.linear_set_report_raw(f, t))
        assert built == [trivial] * (1 if trivial else 2)


def test_witness_class_with_one_spread_leader():
    # the first fat x of these pairs has a ratio whose lines lie in one line
    # orbit: its class holds a single leader, whose orbit is larger than the
    # ratio's, so the walk's fat test must read the class's lines per ratio,
    # not its number of leaders
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_ORBIT_SCAN_MIN", 0)
        for (p, e, d), encs, t in (((2, 1, 6), [58, 1, 0, 58, 59], 5), ((2, 2, 5), [1, 0, 236], 3)):
            ctx = gf.make_field(p, e, d)
            f = lp.QPoly.from_encs(ctx, encs)
            scan = sc._line_scan([f], t)
            verdict = sc._fiber_verdict(f, t, scan)
            assert tuple(w.val for w in verdict.witness) == first_brute_witness(f, t)
            logs = ctx.log_power_sum_at_logs(scan.terms, ctx.log_vec([verdict.witness[0].val]))
            least = sc._ratio_classes(logs, scan.powers, scan.m)
            assert np.count_nonzero(scan.ranked >> scan.bits == least[0]) == 1


# p in {2, 3, 5, 7}, e > 1 among them; each also taken with a random
# explicit modulus
KERNEL_FIELDS = [(2, 1, 4), (2, 2, 3), (2, 1, 6), (3, 1, 3), (3, 2, 2), (5, 1, 3), (7, 1, 2)]


def test_kernel_is_the_fiber():
    # the kernel of c*X^(q^t) - f, read off the reduced rows of as_matrix,
    # is the fiber {x != 0 : f(x) = c*x^(q^t)} and 0, for random c, c = 0
    # and the ratio of a random x (so fibers of every size occur)
    rnd = random.Random(31)
    fields = [gf.make_field(*pe_d) for pe_d in KERNEL_FIELDS]
    fields += [_explicit_modulus_field(rnd, [pe_d]) for pe_d in KERNEL_FIELDS]
    for ctx in fields:
        d = ctx.d
        xs = np.arange(1, ctx.order, dtype=np.int64)
        for _ in range(8):
            t = rnd.randrange(2 * d)
            kind = rnd.randrange(3)
            if kind == 0:  # a monomial: fibers of dimension gcd(s - t, d)
                encs = [0] * rnd.randrange(2 * d) + [rnd.randrange(1, ctx.order)]
            elif kind == 1:  # vanishes on a subfield: the fiber over 0
                a, b = rnd.sample(range(2 * d), 2)
                encs = [0] * (max(a, b) + 1)
                encs[a], encs[b] = 1, ctx.neg_i(1)
            else:
                encs = [rnd.randrange(ctx.order) for _ in range(rnd.randrange(1, 2 * d + 1))]
            f = lp.QPoly.from_encs(ctx, encs)
            fx = lp.evaluate_vec(f, xs)
            x = rnd.randrange(1, ctx.order)
            ratio = ctx.mul_i(lp.evaluate(f, gf.FFElt(ctx, x)).val, ctx.inv_i(ctx.frob_i(x, t)))
            for c in (0, rnd.randrange(1, ctx.order), ratio):
                kernel = sc._kernel(lp.QPoly.monomial(ctx, t, c).sub(f))
                fiber = xs[fx == ctx.mul_vec(ctx.frob_vec(xs, t), np.int64(c))]
                assert len(set(kernel.tolist())) == len(kernel) == len(fiber) + 1
                assert sorted(kernel.tolist()) == [0] + fiber.tolist()


def test_thin_kernel_under_a_fat_fiber_raises(monkeypatch):
    # every witness is checked against linear algebra as it is made: a
    # kernel of dimension 1 under a fiber the scan found fat raises
    f16 = gf.make_field(2, 1, 4)
    kernel = sc._kernel

    def line(g):
        k = kernel(g)
        return g.ctx.mul_vec(np.array(g.ctx.subfield_elems(), dtype=np.int64), int(k[k > 0].min()))
    monkeypatch.setattr(sc, "_kernel", line)
    assert sc.scatter_test(lp.QPoly.monomial(f16, 1), 0).scattered
    for f, t in ((lp.QPoly.monomial(f16, 2), 0), (lp.QPoly.from_encs(f16, [1, 0, 1]), 1)):
        with pytest.raises(gf.FieldError, match="internal error: fat fiber without an off-line mate"):
            sc.scatter_test(f, t)
        with pytest.raises(gf.FieldError, match="internal error"):
            sc.scatter_report(f, t)


def test_lifted_binomial_witness_is_pinned():
    # b*X + X^(q^2), t = 1, b from F_27 with N(b) = 2, lifted into F_(3^12):
    # N(b)^4 = 1 there, so the pair is not scattered; the witnesses are
    # pinned values, found before by a mate search over lines
    small, ext = gf.make_field(3, 1, 3), gf.make_field(3, 1, 12)
    phi = gf.embed(small, ext)
    for bv, witness in ((3, (1, 8181)), (4, (1, 7371)), (5, (1, 8118))):
        assert gf.norm_rel(small.elem(bv)).val == 2
        f = lp.QPoly.from_encs(ext, [phi.map_enc(bv), 0, 1])
        verdict = sc.scatter_test(f, 1)
        assert tuple(w.val for w in verdict.witness) == witness
        x, y = verdict.witness
        assert lp.evaluate(f, x) * gf.frobenius(y, 1) == lp.evaluate(f, y) * gf.frobenius(x, 1)
        assert not ext.in_subfield_i((y / x).val)


def test_line_scan_keeps_one_key_array():
    # the scan holds its keys once, sorted in place: one int32 array, for
    # a stack, a single pair under the trivial group and one under the
    # class group
    f64 = gf.make_field(2, 1, 6)
    small, ext = gf.make_field(3, 1, 4), gf.make_field(3, 1, 12)
    b = gf.embed(small, ext).map_enc(small.gen_enc)
    stack = [lp.QPoly.from_encs(f64, [1, 5]), lp.QPoly.from_encs(f64, [0, 1, 1]), lp.QPoly.monomial(f64, 2)]
    for fs, t, shape in ((stack, 0, (3, 63)), (stack[:1], 0, (63,)), ([lp.QPoly.from_encs(ext, [b, 0, 1])], 1, (22150,))):
        scan = sc._line_scan(fs, t)
        keys = [v for v in scan if isinstance(v, np.ndarray) and v.dtype == np.int32]
        assert len(keys) == 1 and keys[0] is scan.ranked and scan.ranked.base is None
        assert scan.ranked.shape == shape and (np.diff(scan.ranked, axis=-1) >= 0).all()


def test_linear_set_partition_identity():
    rng = random.Random(43)
    for ctx in SMALL_FIELDS():
        for _ in range(6):
            f = lp.QPoly.from_encs(ctx, [rng.randrange(ctx.order) for _ in range(ctx.d)])
            if f.is_zero():
                continue
            t = rng.randrange(ctx.d)
            rep = sc.linear_set_report_raw(f, t)
            total = sum(cnt * (ctx.q ** w - 1) for w, cnt in rep.weight_spectrum.items())
            assert total == ctx.order - 1
            assert rep.size <= (ctx.order - 1) // (ctx.q - 1)
            assert (rep.max_weight == 1) == sc.scatter_test(f, t).scattered
            assert (rep.size == (ctx.order - 1) // (ctx.q - 1)) == (rep.max_weight == 1)


def test_scan_extensions():
    f8 = gf.make_field(2, 1, 3)
    entries = sc.scan_extensions(lp.QPoly(f8, [1]), 1, [1, 2, 3])
    assert all(e.verdict.scattered for e in entries)
    # monomial with gcd(s, mn) = 2 for every m fails immediately
    f16 = gf.make_field(2, 1, 4)
    entries = sc.scan_extensions(lp.QPoly.monomial(f16, 2), 0, [1, 2])
    assert all(e.verdict and not e.verdict.scattered for e in entries)


def test_scan_respects_ceiling_per_entry():
    f8 = gf.make_field(2, 1, 3)
    entries = sc.scan_extensions(lp.QPoly(f8, [1]), 1, [1, 2, 5], ceiling=50)
    assert entries[0].verdict is not None
    assert entries[1].skipped and entries[1].verdict is None
    assert entries[2].skipped


def test_scan_skip_messages_match_formed_sizes():
    # the decimal size gives way to "at least 2^k" past 4300 digits: 16^3572
    # and 81^2254 are the first such sizes; a descending m restarts the size
    for ctx, switch in ((gf.make_field(2, 1, 4), 3572), (gf.make_field(3, 2, 2), 2254)):
        ms = [1, switch - 1, switch, switch + 1, 30000, 2]
        entries = sc.scan_extensions(lp.QPoly.monomial(ctx, 1), 0, ms, ceiling=1)
        for m, entry in zip(ms, entries):
            with pytest.raises(gf.CeilingExceeded) as exc:
                gf.check_ceiling(ctx.order ** m, 1)
            assert (entry.m, entry.verdict, entry.skipped) == (m, None, str(exc.value))
        assert "at least" not in entries[1].skipped
        assert "at least 2^" in entries[2].skipped


def test_component_inequality_examples():
    assert sc.irreducible_component_inequality(2, 1, 2, 2) is False  # 6 vs 8/9
    assert sc.irreducible_component_inequality(7, 1, 2, 2) is True  # 336 vs 392
    assert sc.irreducible_component_inequality(5, 1, 2, 2) is False  # 120 vs 800/9
    with pytest.raises(gf.FieldError):
        sc.irreducible_component_inequality(2, 2, 2, 2)
    with pytest.raises(gf.FieldError):
        sc.irreducible_component_inequality(2, 1, 3, 4)


def test_case_table_examples():
    assert sc.inequality_case_table(2, 3, 1) is True
    assert sc.inequality_case_table(4, 2, 1) is False
    assert sc.inequality_case_table(7, 5, 4) is True
    assert sc.inequality_case_table(3, 4, 3) is False
    assert sc.inequality_case_table(5, 2, 1) is False


def test_not_scattered_verdict_kernel_branch():
    # f = X^q + X^(q^3) over F_16 kills the 6th roots of unity: kernel dim 2
    f16 = gf.make_field(2, 1, 4)
    f = lp.QPoly.from_encs(f16, [0, 1, 0, 1])
    verdict = sc.not_scattered_verdict(f, 1, 3, 4)
    assert verdict.guaranteed and verdict.reason == sc.REASON_KERNEL
    assert verdict.ell - 1 > 1
    assert not sc.scatter_test(f, 0).scattered


def test_not_scattered_verdict_gcd_branch():
    f256 = gf.make_field(2, 1, 8)
    f = lp.QPoly.from_encs(f256, [0, 1, 1])  # X^q + X^(q^2), gcd(2, 8) = 2
    verdict = sc.not_scattered_verdict(f, 1, 2, 8)
    assert verdict.guaranteed and verdict.reason == sc.REASON_GCD
    assert not sc.scatter_test(f, 0).scattered
    f6561 = gf.make_field(3, 1, 8)
    f3 = lp.QPoly.from_encs(f6561, [0, 1, 1])
    verdict3 = sc.not_scattered_verdict(f3, 1, 2, 8)
    assert verdict3.guaranteed and verdict3.reason == sc.REASON_GCD
    assert not sc.scatter_test(f3, 0).scattered


def test_not_scattered_verdict_inequality_branch():
    # gcd(k, n) = 1 with k <= n/4 and the bound satisfied: needs n >= 4k + 1,
    # smallest workable case k = 3, n = 13; every b keeps the kernel small
    # because 2^13 - 1 is prime, so the inequality branch fires
    ctx = gf.make_field(2, 1, 13)
    f = lp.QPoly.from_encs(ctx, [0, 1, 0, 5])
    verdict = sc.not_scattered_verdict(f, 1, 3, 13)
    assert verdict.guaranteed and verdict.reason == sc.REASON_INEQUALITY
    assert not sc.scatter_test(f, 0).scattered


def test_not_scattered_verdict_inconclusive():
    f343 = gf.make_field(7, 1, 3)
    f = lp.QPoly.from_encs(f343, [0, 1, 5])  # k = 2 > n/4
    verdict = sc.not_scattered_verdict(f, 1, 2, 3)
    if verdict.ell - 1 <= 1:
        assert verdict.inconclusive


def test_not_scattered_verdict_ell_is_the_kernel_dimension():
    # ell - i is the kernel dimension of f, counted by its roots: the scalar
    # elimination is the oracle, on random X^(q^i) + middle + b*X^(q^k) with k
    # up to n and on X^(q^i) - X^(q^k), whose kernel F_(q^gcd(k - i, n)) has
    # dimension gcd(k - i, n); the kernel reason fires exactly when it exceeds 1
    rng = random.Random(89)
    dims = set()
    for p, e, d, *modulus in ((2, 2, 4), (3, 2, 3), (5, 1, 4), (7, 1, 3), (2, 1, 5, (1, 0, 1, 0, 0, 1))):
        ctx = gf.make_field(p, e, d, modulus=modulus[0] if modulus else None)
        for i in range(1, d):
            for k in range(i + 1, d + 1):
                for kind in range(4):
                    middle = [rng.randrange(ctx.order) for _ in range(k - i - 1)]
                    b = rng.randrange(1, ctx.order)
                    if kind == 0:
                        middle, b = [0] * (k - i - 1), ctx.neg_i(1)
                    f = lp.QPoly.from_encs(ctx, [0] * i + [1] + middle + [b])
                    dim = lp.kernel_dim(f)
                    assert kind or dim == math.gcd(k - i, d)
                    verdict = sc.not_scattered_verdict(f, i, k, d)
                    assert verdict.ell - i == dim
                    assert (verdict.reason == sc.REASON_KERNEL) == (dim > 1)
                    dims.add(dim)
    assert {0, 1, 2} <= dims


def test_not_scattered_verdict_shape_checks():
    f16 = gf.make_field(2, 1, 4)
    with pytest.raises(gf.FieldError):
        sc.not_scattered_verdict(lp.QPoly.from_encs(f16, [1, 0, 1]), 1, 2, 4)  # support from 0
    with pytest.raises(gf.FieldError):
        sc.not_scattered_verdict(lp.QPoly.from_encs(f16, [0, 3, 1]), 1, 2, 4)  # lowest coeff not 1
    with pytest.raises(gf.FieldError):
        sc.not_scattered_verdict(lp.QPoly.from_encs(f16, [0, 1, 1]), 1, 2, 5)  # wrong n


def test_pair_product_image():
    f8 = gf.make_field(2, 1, 3)
    img = {x.val for x in sc.pair_product_image(f8)}
    assert img == set(range(8))
    f4 = gf.make_field(2, 1, 2)
    img4 = {x.val for x in sc.pair_product_image(f4)}
    assert img4 == {0, 1}  # the prime field only; full coverage needs n >= 3
    # 0 always present (u = v)
    assert 0 in img and 0 in img4


def test_find_many_roots_completion():
    f8 = gf.make_field(2, 1, 3)
    a = sc.find_many_roots_completion(f8.one)
    assert a is not None
    f = lp.QPoly(f8, [f8.one, a, f8.one])
    assert lp.kernel_dim(f) == 2
    with pytest.raises(gf.FieldError):
        sc.find_many_roots_completion(f8.zero)  # norm 0 violates the contract


def test_completion_is_the_least_a_with_q2_roots():
    # independent route: X^(q^2) + a*X^q + b*X has q^2 roots exactly when its
    # kernel has dimension 2; the completion is the least such a, for every
    # norm-1 b, whatever order the sweep ranks its leaders in
    for p, n in ((3, 3), (3, 4), (2, 3), (2, 4)):
        ctx = gf.make_field(p, 1, n)
        xs = np.arange(ctx.order, dtype=np.int64)
        a_xq = ctx.mul_vec(xs[:, None], ctx.frob_vec(xs, 1)[None, :])  # row a: a*x^q
        for b in range(1, ctx.order):
            if gf.norm_rel(gf.FFElt(ctx, b)) != ctx.one:
                continue
            vals = ctx.add_vec(a_xq, ctx.power_sum([(ctx.q ** 2, 1), (1, b)], xs)[None, :])
            roots = (vals == 0).sum(axis=1)
            assert sc.find_many_roots_completion(gf.FFElt(ctx, b)).val == int(np.argmax(roots == ctx.q ** 2))


def test_completion_matches_determinant_construction():
    # independent route: for independent u, v the map with matrix rows
    # (x, x^q, x^(q^2)) at u, v has kernel spanned by u, v; dividing by
    # alpha = u v^q - v u^q gives lowest coefficient alpha^(q-1) of norm 1
    for ctx in (gf.make_field(2, 1, 3), gf.make_field(3, 1, 3)):
        rng = random.Random(7)
        for _ in range(10):
            u = gf.FFElt(ctx, rng.randrange(1, ctx.order))
            v = gf.FFElt(ctx, rng.randrange(1, ctx.order))
            alpha = u * gf.frobenius(v, 1) - v * gf.frobenius(u, 1)
            if alpha.is_zero():
                continue
            beta = gf.frobenius(u, 2) * v - gf.frobenius(v, 2) * u
            b = alpha ** (ctx.q - 1)
            assert gf.norm_rel(b) == ctx.one
            a = beta / alpha
            f = lp.QPoly(ctx, [b, a, ctx.one])
            assert lp.kernel_dim(f) == 2
            assert lp.evaluate(f, u).val == 0 and lp.evaluate(f, v).val == 0


def test_zero_map_rejected():
    f8 = gf.make_field(2, 1, 3)
    with pytest.raises(gf.FieldError):
        sc.scatter_test(lp.QPoly(f8, []), 0)
