"""Field arithmetic: construction, canonical order, subfield structure,
Frobenius, norm/trace and embeddings."""

import hashlib
import itertools
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from scatterpoly import gf


def test_make_field_examples():
    f8 = gf.make_field(2, 1, 3)
    assert f8.modulus == (1, 1, 0, 1)  # X^3 + X + 1
    assert f8.order == 8
    f3 = gf.make_field(3, 1, 1)
    assert f3.order == 3
    f16 = gf.make_field(2, 2, 2)
    assert f16.order == 16
    s = f16.subfield_gen
    assert (s ** 3).val == 1 and s.val != 1  # order 3


def test_subfield_gen_satisfies_canonical_modulus():
    for p, e, d in ((2, 2, 2), (2, 2, 3), (3, 2, 2)):
        ctx = gf.make_field(p, e, d)
        s = ctx.subfield_gen
        acc = ctx.zero
        for c in reversed(gf.canonical_modulus(p, e)):
            acc = acc * s + ctx.elem(c)
        assert acc.val == 0
        assert (s ** (ctx.q - 1)).val == 1


def test_make_field_rejects_bad_input():
    with pytest.raises(gf.FieldError):
        gf.make_field(4, 1, 2)
    with pytest.raises(gf.FieldError):
        gf.make_field(2, 0, 3)
    with pytest.raises(gf.FieldError):
        gf.make_field(2, 1, 2, modulus=(0, 0, 1))  # X^2 reducible


def test_modulus_irreducibility_by_trial_division():
    # oracle: no monic factor of degree 1..N/2 divides the canonical modulus
    for p, n in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        mod = gf.canonical_modulus(p, n)
        for d in range(1, n // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                cand = list(tail) + [1]
                _, rem = _polydivmod(list(mod), cand, p)
                assert any(rem), (p, n, cand)


def test_is_irreducible_matches_necklace_count():
    # oracle: (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles of degree n,
    # over every monic candidate of degree n >= 1 with p^n <= 2^12
    def mobius(d):
        sign = 1
        for f in range(2, d + 1):
            if d % f == 0:
                d //= f
                if d % f == 0:
                    return 0
                sign = -sign
        return sign

    for p in (2, 3, 5, 7, 11, 13):
        assert not gf.is_irreducible([1], p)  # degree 0
        n = 1
        while p ** n <= 1 << 12:
            count = sum(gf.is_irreducible(list(tail) + [1], p) for tail in itertools.product(range(p), repeat=n))
            assert count == sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n, (p, n)
            n += 1


def _polydivmod(a, b, p):
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] * pow(b[-1], p - 2, p) % p
        out[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        a.pop()
    return out, a


def test_field_axioms_exhaustive_small():
    for ctx in (gf.make_field(2, 1, 3), gf.make_field(3, 1, 2), gf.make_field(2, 2, 2)):
        elems = gf.enumerate_elements(ctx)
        one, zero = ctx.one, ctx.zero
        for x in elems:
            assert x + zero == x
            assert x * one == x
            if x.val:
                assert x * x.inv() == one
                assert (x ** (ctx.order - 1)) == one  # Lagrange
        for x in elems[:6]:
            for y in elems[:6]:
                assert x + y == y + x
                assert x * y == y * x
                for z in elems[:4]:
                    assert (x + y) * z == x * z + y * z


def test_pow_examples():
    ctx = gf.make_field(3, 1, 2)
    g = gf.FFElt(ctx, ctx.mult_generator_enc)
    assert g ** 0 == ctx.one
    assert ctx.zero ** 0 == ctx.one
    assert ctx.zero ** 5 == ctx.zero
    with pytest.raises(gf.FieldError):
        ctx.pow_i(2, -1)


def test_inversion_of_zero_raises():
    ctx = gf.make_field(2, 1, 3)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inv()


def test_context_mismatch():
    a = gf.make_field(2, 1, 3).one
    b = gf.make_field(2, 1, 4).one
    with pytest.raises(gf.ContextMismatch):
        a + b


def test_enumerate_canonical_order():
    f2 = gf.make_field(2, 1, 1)
    assert [x.val for x in gf.enumerate_elements(f2)] == [0, 1]
    f4 = gf.make_field(2, 1, 2)
    vals = [x.val for x in gf.enumerate_elements(f4)]
    assert len(vals) == 4 and vals[:2] == [0, 1]
    assert vals == sorted(vals)
    assert len([x for x in gf.enumerate_elements(gf.make_field(2, 1, 3))]) == 8


def test_enumerate_ceiling():
    ctx = gf.make_field(2, 1, 5)
    with pytest.raises(gf.CeilingExceeded):
        gf.enumerate_elements(ctx, ceiling=16)


def test_enumeration_reproducible():
    a = gf.FieldCtx(2, 1, 4)
    b = gf.FieldCtx(2, 1, 4)
    a._ensure_tables()
    b._ensure_tables()
    assert a.modulus == b.modulus
    assert np.array_equal(a._exp, b._exp)


def test_frobenius_examples_and_additivity():
    f8 = gf.make_field(2, 1, 3)
    g = f8.gen
    assert gf.frobenius(g, 0) == g
    assert gf.frobenius(g, 3) == g  # x^(q^d) = x
    assert gf.frobenius(g, 1) == g * g
    # additivity, exhaustive on fields up to 2^10 elements
    for ctx in (f8, gf.make_field(2, 1, 10), gf.make_field(3, 1, 4), gf.make_field(2, 2, 2)):
        xs = np.arange(ctx.order, dtype=np.int64)
        for s in (1, 2):
            fx = ctx.frob_vec(xs, s)
            for shift in (1, 3):
                ys = np.roll(xs, shift)
                lhs = ctx.frob_vec(ctx.add_vec(xs, ys), s)
                rhs = ctx.add_vec(fx, ctx.frob_vec(ys, s))
                assert np.array_equal(lhs, rhs)


def test_norm_examples():
    f4 = gf.make_field(2, 1, 2)
    assert gf.norm_rel(f4.one) == f4.one
    g = f4.gen
    assert gf.norm_rel(g) == f4.one  # g^3 = 1
    f9 = gf.make_field(3, 1, 2)
    h = gf.FFElt(f9, f9.mult_generator_enc)
    # oracle: direct exponentiation h^((9-1)/(3-1)) = h^4
    expect = h * h * h * h
    assert gf.norm_rel(h) == expect
    assert expect == f9.elem(2)  # the element -1 of F_3


def test_norm_multiplicative_and_fibers():
    for ctx in (gf.make_field(2, 1, 4), gf.make_field(3, 1, 2), gf.make_field(2, 2, 2)):
        elems = gf.enumerate_elements(ctx)
        for x in elems[:8]:
            for y in elems[:8]:
                assert gf.norm_rel(x * y) == gf.norm_rel(x) * gf.norm_rel(y)
        fibers = Counter(gf.norm_rel(x).val for x in elems if x.val)
        expected = (ctx.q ** ctx.d - 1) // (ctx.q - 1)
        assert all(ctx.in_subfield_i(v) for v in fibers)
        assert len(fibers) == ctx.q - 1  # onto the nonzero subfield elements
        assert set(fibers.values()) == {expected}


def test_trace_examples():
    f4 = gf.make_field(2, 1, 2)
    assert gf.trace_rel(f4.zero) == f4.zero
    assert gf.trace_rel(f4.one) == f4.zero  # 1 + 1 = 0
    f8 = gf.make_field(2, 1, 3)
    kernel = [x for x in gf.enumerate_elements(f8) if gf.trace_rel(x).val == 0]
    assert len(kernel) == 4
    # additivity and subfield image
    for x in gf.enumerate_elements(f8):
        assert f8.in_subfield_i(gf.trace_rel(x).val)


def test_embed_examples():
    f4 = gf.make_field(2, 1, 2)
    f16 = gf.make_field(2, 1, 4)
    phi = gf.embed(f4, f16)
    assert phi(f4.one) == f16.one
    im = phi(f4.gen)
    assert (im * im + im + f16.one).val == 0  # satisfies X^2+X+1
    ident = gf.embed(f16, f16)
    for v in (0, 1, 7, 12):
        assert ident(gf.FFElt(f16, v)).val == v


def test_embed_respects_operations_and_image():
    f9 = gf.make_field(3, 1, 2)
    f81 = gf.make_field(3, 1, 4)
    phi = gf.embed(f9, f81)
    elems = gf.enumerate_elements(f9)
    for x in elems:
        for y in elems[:5]:
            assert phi(x + y) == phi(x) + phi(y)
            assert phi(x * y) == phi(x) * phi(y)
        assert phi(gf.frobenius(x, 1)) == gf.frobenius(phi(x), 1)
    images = {phi(x).val for x in elems}
    fixed = {v for v in range(81) if f81.pow_i(v, 9) == v}
    assert images == fixed
    assert len(images) == 9


def test_embed_least_root_choice():
    # deterministic witness: the chosen root is the least root in canonical order
    f4 = gf.make_field(2, 1, 2)
    f16 = gf.make_field(2, 1, 4)
    phi = gf.embed(f4, f16)
    roots = [v for v in range(16) if _eval_poly(f16, f4.modulus, v) == 0]
    assert phi.root_enc == min(roots)


def _eval_poly(ctx, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = ctx.add_i(ctx.mul_i(acc, x), c % ctx.p)
    return acc


def test_embed_requires_compatible_structure():
    with pytest.raises(gf.FieldError):
        gf.embed(gf.make_field(2, 1, 2), gf.make_field(2, 1, 3))
    with pytest.raises(gf.FieldError):
        gf.embed(gf.make_field(2, 2, 1), gf.make_field(2, 1, 4))


def test_subfield_coords_roundtrip():
    fields = (gf.make_field(2, 2, 2), gf.make_field(3, 1, 3), gf.make_field(2, 2, 3),
              gf.make_field(2, 2, 1), gf.make_field(2, 3, 2), gf.make_field(2, 2, 4), gf.make_field(5, 2, 2),
              gf.make_field(3, 2, 2, modulus=(2, 0, 0, 1, 1)))  # X^4 + X^3 + 2, not the canonical X^4 + X + 2
    for ctx in fields:
        g = ctx.gen
        for v in range(0, ctx.order, max(1, ctx.order // 23)):
            coords = ctx.subfield_coords(v)
            assert len(coords) == ctx.d
            assert all(ctx.in_subfield_i(c) for c in coords)
            acc = ctx.zero
            for j, c in enumerate(coords):
                acc = acc + gf.FFElt(ctx, c) * g ** j
            assert acc.val == v


def test_vector_ops_match_scalar():
    # F_2 and F_3 invert with the exponents order - 2 = 0 and 1
    fields = (gf.make_field(3, 1, 3), gf.make_field(2, 2, 2), gf.make_field(2, 1, 1), gf.make_field(3, 1, 1),
              gf.make_field(13, 1, 2), gf.make_field(3, 1, 3, modulus=(2, 2, 0, 1)))
    for ctx in fields:
        u = np.arange(ctx.order, dtype=np.int64)
        v = (u * 5 + 3) % ctx.order
        assert all(ctx.add_vec(u, v)[i] == ctx.add_i(int(u[i]), int(v[i])) for i in range(ctx.order))
        assert all(ctx.sub_vec(u, v)[i] == ctx.sub_i(int(u[i]), int(v[i])) for i in range(ctx.order))
        assert all(ctx.mul_vec(u, v)[i] == ctx.mul_i(int(u[i]), int(v[i])) for i in range(ctx.order))
        assert all(ctx.frob_vec(u, 2)[i] == ctx.frob_i(int(u[i]), 2) for i in range(ctx.order))
        nz = u[u != 0]
        assert all(ctx.inv_vec(nz)[i] == ctx.inv_i(int(nz[i])) for i in range(len(nz)))


def test_vector_add_sub_wide_digits():
    # digit sums reach 2(p - 1), past int8 from p = 67; from p = 131 p itself is past int8
    for ctx in (gf.make_field(67, 1, 2), gf.make_field(131, 1, 2)):
        u = np.arange(ctx.order, dtype=np.int64)
        v = np.roll(u, 1)
        add, sub = ctx.add_vec(u, v).tolist(), ctx.sub_vec(u, v).tolist()
        assert add == [ctx.add_i(int(a), int(b)) for a, b in zip(u, v)]
        assert sub == [ctx.sub_i(int(a), int(b)) for a, b in zip(u, v)]


def test_mul_matches_schoolbook():
    # table multiplication against the bootstrap polynomial product
    for ctx in (gf.make_field(2, 1, 4), gf.make_field(3, 1, 2), gf.make_field(5, 1, 2)):
        for u in range(ctx.order):
            for v in range(0, ctx.order, 3):
                assert ctx.mul_i(u, v) == ctx._mul_slow(u, v)


def _digitwise(ctx, u, v, sign):
    """Reference addition on base-p digits: undigits((digits(u) + sign * digits(v)) % p)."""
    return ctx.undigits([(a + sign * b) % ctx.p for a, b in zip(ctx.digits(u), ctx.digits(v))])


def test_addition_matches_digitwise_reference():
    fields = (
        gf.make_field(3, 1, 3), gf.make_field(3, 2, 2), gf.make_field(5, 1, 2), gf.make_field(13, 1, 2),
        gf.make_field(131, 1, 2), gf.make_field(3, 1, 3, modulus=(2, 2, 0, 1)),  # X^3 + 2X + 2, not the canonical X^3 + 2X + 1
    )
    for ctx in fields:
        u = np.arange(ctx.order, dtype=np.int64)
        neg_u = [_digitwise(ctx, 0, a, -1) for a in range(ctx.order)]
        assert [ctx.neg_i(a) for a in range(ctx.order)] == neg_u
        # v = 0 (and u = 0 at index 0), u = v, u = -v, and unrelated pairs
        for v in (np.zeros_like(u), u, np.array(neg_u), np.roll(u, 1), np.roll(u[::-1], 5)):
            for sign, scalar, vec in ((1, ctx.add_i, ctx.add_vec), (-1, ctx.sub_i, ctx.sub_vec)):
                ref = [_digitwise(ctx, a, b, sign) for a, b in zip(u.tolist(), v.tolist())]
                assert [scalar(a, b) for a, b in zip(u.tolist(), v.tolist())] == ref
                assert vec(u, v).tolist() == ref
                assert vec(v, u).tolist() == [_digitwise(ctx, b, a, sign) for a, b in zip(u.tolist(), v.tolist())]


def test_pow_frob_vec_past_int32_log_products():
    # a log near 3^12 times an exponent near 3^11 passes 2^31
    ctx = gf.make_field(3, 1, 12)
    rng = np.random.default_rng(5)
    g = ctx.mult_generator_enc
    top = [ctx.pow_i(g, k) for k in range(ctx.order - 12, ctx.order - 1)]  # logs up to order - 2
    u = np.concatenate([[0, 1, 2], rng.integers(0, ctx.order, 400), top])
    assert ctx.frob_vec(u, 11).tolist() == [ctx.frob_i(int(a), 11) for a in u]
    m = ctx.order - 2
    assert ctx.pow_vec(u, m).tolist() == [ctx.pow_i(int(a), m) for a in u]


def test_table_cap_checked_before_allocation():
    with pytest.raises(gf.CeilingExceeded):
        gf.make_field(2, 1, 30).inv_i(1)


# (p, e, d, modulus): the multiplicative generator and SHA-256 digests, as
# little-endian int64, of _exp[:order - 1], _log and _zech
TABLE_DIGESTS = {
    (2, 1, 1, None): (
        1, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
        "60c69a3e87bf5c4f1e546bec45f262690bcf5494c4ecac2616bf2f731afa152a",
        None),
    (2, 1, 4, None): (
        2, "1b3553e94660d3aaa951959df5449388084822f376745a532b63c1b24afaca97",
        "42d49f76ddc31ea1aa8d62f705255e3831f8bc9ca3f136290f846d05aedb727b",
        None),
    (2, 1, 5, (1, 0, 1, 0, 0, 1)): (
        2, "baa8a706cb55e34dce386f0461ddc1b0d317d8621e2f77b7b983ac8b91d89da2",
        "54abc48e89106bd46458aba658c007f0ee99abc0664bbbfeaf266a2ef5764ab0",
        None),
    (2, 2, 4, None): (
        3, "11266a21c8268fe0d18220349a334db46275acf77c028eb418cf6317b305acc7",
        "e6c4386b08504dc699c5cf71ad8668c6513706a4a9b79da086330a5fcb3ad933",
        None),
    (2, 1, 16, None): (
        3, "a9c0b9735a82fc72c5287527e2930d5f0603c0dae1bd9c70ade1fc1578a1d84d",
        "0f41fdce3eabda40cf3cdda317cab701f03874f59156f192b0f1e8830e7a11e7",
        None),
    (3, 1, 1, None): (
        2, "0c730b69905c5ef7a4ca5269f72365400bde2dd2c04eaf9bbb3d1c4a265a0131",
        "d6c3f800c1b53a78e97d97be229f84126df8d4c2c3c4d2ae3165b1dbb5f34a19",
        "db0550d553e2a146e34164d19cd55f006c38d700d8f9a4e3ba2c889a1d7c26b2"),
    (3, 1, 3, (2, 2, 0, 1)): (
        6, "510e8ab7bdf7178294defd6230d099737bc2a4529ebb2eb767385a6d16004dde",
        "2d17567e3a81f01468c7f8b00d3cb730a28459a27f02336ee5a9e6d4bc87bd89",
        "5657afbbe9c5c38fcf1a4efc460772cd7a70565511d43a29ab989d42bbfc1151"),
    (3, 2, 2, None): (
        3, "6d1eb4f77b46bca3fa4387db5ea3dcb2db3c626d30d0a4bbd0b26b6bc33f9f78",
        "5c326d7cfbd598f9132e784b013d0f608514b5b49dc37a37db5b5936d4ae67ba",
        "c81c4e376145bd5d71f5683f18b78a5c74264eb548b46634eb9e6f2de169c783"),
    (3, 1, 10, None): (
        34, "05e6eecc9abe2e8fc95256f41a756ad049ea391b26cc74fa08e316ceeca86baa",
        "453cc6d71240e529d2c0522b418b46a56de11959e9aa682cdbb157002efd2734",
        "0b362223e83a185845ffe4000a1e6d1aface5614e6ebd3be6f325082e9ed8b06"),
    (5, 1, 6, None): (
        5, "46e0e83ab73fbe9641effea57dc067f79deafbc103ebd69634d917b5323cd802",
        "8ccafc2fa90db8e686d1bb986236167a2f5f0d808ab7166cbc6e3516f2f84476",
        "f36a7ff51618e077c21e77b3de8c7cefae7dad3bb36853652afd2d2381d45fd7"),
    (7, 1, 5, None): (
        9, "c69917ea67c62c00115d6d32fac2ea4e839f5cd287014388d02491661f7b1c3d",
        "0e8495f64ef1daa27fdc3cc1c25326cde10c9da655eca36c9ea994ba09026293",
        "66f01698f91364bf0e4c56b0d11683a3ffb4151e9383385fdae9aadbd24aee13"),
    (13, 1, 1, None): (
        2, "ca9c8cdd04b2e88aa4d188381cc7e73e2f469fa8a19bf387e04f92933202c555",
        "82ff80f378683ffcf052114af0e4a8c3dcfe12f7f6aee3ee6776c4c1c5357f86",
        "565e1483157ebaa37640b22c83adc4e2fbbe1630854547ac501cb79f96df94ae"),
    (13, 1, 4, None): (
        17, "e094c3ab2f613ecd1a926df62d5cf5e4281b9f0e568ad60257daf845966b6eed",
        "b0e9c7ff2979e5f93dac734152183e73b88a055fa6321d3d7ae541c8bf7ebb76",
        "2f6fa16526ed8129088da33bee798700996af0998af62bc9daffccdece495c62"),
}


def _sha256_int64(a):
    return hashlib.sha256(np.asarray(a, dtype="<i8").tobytes()).hexdigest()


def test_log_tables_are_pinned():
    for (p, e, d, modulus), (gen, exp, log, zech) in TABLE_DIGESTS.items():
        ctx = gf.make_field(p, e, d, modulus)
        q1 = ctx.order - 1
        assert ctx.mult_generator_enc == gen
        assert _sha256_int64(ctx._exp[:q1]) == exp and _sha256_int64(ctx._log) == log
        # the doubled layout: a second period, then the 0 that index -1 reads
        assert ctx._exp.dtype == np.int32 and ctx._log.dtype == np.int32
        assert ctx._exp.shape == (2 * q1 + 1,) and ctx._log.shape == (ctx.order,)
        assert (ctx._exp[q1:-1] == ctx._exp[:q1]).all() and ctx._exp[-1] == 0
        if p == 2:
            assert ctx._zech is None and zech is None
        else:
            # one period: a difference of two reduced logs wraps once
            assert ctx._zech.dtype == np.int32 and ctx._zech.shape == (q1,)
            assert _sha256_int64(ctx._zech) == zech


def test_generator_search_skips_the_prime_field():
    # for N > 1 the search starts at encoding p: F_(2039^2) reaches its
    # generator 2044 without trying the 2,038 elements of F_2039^*
    assert gf.make_field(2039, 1, 2).mult_generator_enc == 2044
    for (p, e, d), first, gen in (((7, 1, 1), 1, 3), ((13, 1, 1), 1, 2), ((3, 1, 4), 3, 3), ((2, 2, 3), 2, 2)):
        ctx = gf.FieldCtx(p, e, d)  # not make_field: the cached contexts stay clean
        tried = []
        slow = ctx._pow_slow
        ctx._pow_slow = lambda u, m: tried.append(u) or slow(u, m)
        assert ctx._find_mult_generator() == gen and tried[0] == first
    # a prime field still searches from 1, which generates F_2^*
    assert gf.FieldCtx(2, 1, 1)._find_mult_generator() == 1


def test_generator_search_matches_the_scalar_route(monkeypatch):
    # the blocked search against the least candidate whose powers
    # a^((order - 1)/ell) by _pow_slow all differ from 1, with the default
    # blocks and with 3-candidate blocks that end between candidates, every
    # field taking the blocked search
    def scalar_route(ctx):
        q1 = ctx.order - 1
        primes = [ell for ell in range(2, q1 + 1) if q1 % ell == 0 and gf.is_prime(ell)]
        return next(a for a in range(1, ctx.order) if all(ctx._pow_slow(a, q1 // ell) != 1 for ell in primes))
    fields = [(2, 1, 1, None), (3, 1, 1, None), (2, 1, 8, None), (3, 1, 8, None), (2, 2, 4, None), (5, 1, 4, None),
              (3, 2, 3, None), (7, 1, 3, None), (2, 1, 11, (1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
              (3, 1, 3, (2, 2, 0, 1)), (521, 1, 1, None), (2039, 1, 2, None)]
    monkeypatch.setattr(gf, "_GEN_SCALAR_MAX", 0)
    for block in (gf._GEN_BLOCK, 3):
        monkeypatch.setattr(gf, "_GEN_BLOCK", block)
        for p, e, d, modulus in fields:
            ctx = gf.FieldCtx(p, e, d, modulus)
            assert ctx._find_mult_generator() == scalar_route(ctx)


# (p, e, d, modulus) whose tables are checked against _pow_slow: every prime
# p <= 13 and p = 2039, e > 1 and explicit moduli.  order - 1 lies below the
# 512-power bootstrap block (242, 342, 120, 168), at it (511), just above it
# (520, 528), or takes several doubling steps (the rest, up to seven).
TABLE_ROUTE_FIELDS = (
    (2, 1, 9, None), (2, 1, 10, None), (2, 2, 5, None), (2, 1, 16, None),
    (2, 1, 11, (1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    (3, 1, 5, None), (3, 1, 6, None), (3, 2, 4, None), (3, 1, 12, None),
    (3, 1, 7, (1, 1, 2, 2, 2, 2, 2, 1)), (3, 1, 3, (2, 2, 0, 1)),
    (5, 1, 4, None), (5, 2, 3, None), (7, 1, 3, None), (7, 1, 4, None),
    (11, 1, 2, None), (11, 1, 3, None), (13, 1, 2, None), (13, 1, 3, None), (13, 2, 2, None),
    (23, 1, 2, None), (521, 1, 1, None), (2039, 1, 1, None), (2039, 1, 2, None),
)


def test_tables_match_the_scalar_route():
    # _exp[k] == gen^k by square-and-multiply on digit polynomials, over the
    # whole period up to 2^11 elements and at sampled k above: both ends,
    # k = 2^j - 1, 2^j, 2^j + 1 around every doubling step, and random k
    rng = random.Random(89)
    for p, e, d, modulus in TABLE_ROUTE_FIELDS:
        ctx = gf.FieldCtx(p, e, d, modulus)
        gen, q1 = ctx.mult_generator_enc, ctx.order - 1
        if ctx.order <= 1 << 11:
            ks = range(q1)
        else:
            edges = {k for j in range(q1.bit_length()) for k in (2 ** j - 1, 2 ** j, 2 ** j + 1)}
            ks = sorted({k for k in edges if k < q1} | {q1 - 1} | {rng.randrange(q1) for _ in range(24)})
        for k in ks:
            assert int(ctx._exp[k]) == ctx._pow_slow(gen, k) == int(ctx._exp[q1 + k])
            assert ctx._log[ctx._exp[k]] == k
        assert ctx._exp[-1] == 0
        if p == 2:
            continue
        # one period of Zech logs: gen^Z(k) = 1 + gen^k, digit 0 stepped by one
        assert ctx._zech.dtype == np.int32 and ctx._zech.shape == (q1,)
        for k in ks:
            digits = list(ctx.digits(ctx._pow_slow(gen, k)))
            digits[0] = (digits[0] + 1) % p
            one_plus, z = ctx.undigits(digits), int(ctx._zech[k])
            assert z == -1 if one_plus == 0 else 0 <= z < q1 and ctx._pow_slow(gen, z) == one_plus


def test_table_check_rejects_a_non_generator():
    # 1 on F_16, -1 on F_9 and 2 (of order 3) on F_7 leave nonzero log slots
    # unfilled; so do gen^3 on F_(2^12), gen^2 on F_(3^7) and on F_2039, whose
    # periods are filled by doubling
    cases = [((2, 4), 1), ((3, 2), 2), ((7, 1), 2)]
    for (p, d), m in (((2, 12), 3), ((3, 7), 2), ((2039, 1), 2)):
        big = gf.make_field(p, 1, d)
        cases.append(((p, d), big._pow_slow(big.mult_generator_enc, m)))
    for (p, d), bad in cases:
        ctx = gf.FieldCtx(p, 1, d)  # not make_field: the cached contexts stay clean
        ctx._find_mult_generator = lambda bad=bad: bad
        with pytest.raises(gf.FieldError, match="^internal error: bad discrete log table$"):
            ctx._ensure_tables()
        assert ctx._exp is None and ctx._log is None and ctx._zech is None


def _power_sum_ref(ctx, terms, x):
    """sum c * x^m on one encoding, from the scalar operations."""
    acc = 0
    for m, c in terms:
        acc = ctx.add_i(acc, ctx.mul_i(c, ctx.pow_i(x, m)))
    return acc


POWER_SUM_FIELDS = lambda: (
    gf.make_field(2, 1, 1), gf.make_field(3, 1, 1),  # order - 1 of 1 and 2
    gf.make_field(2, 2, 3), gf.make_field(3, 2, 2), gf.make_field(13, 1, 2),
    gf.make_field(3, 1, 3, modulus=(2, 2, 0, 1)),
)


def test_power_sum_matches_scalar_reference():
    rng = random.Random(61)
    for ctx in POWER_SUM_FIELDS():
        xs = np.arange(ctx.order, dtype=np.int64)  # x = 0 included
        q1 = ctx.order - 1
        c = lambda: rng.randrange(ctx.order)
        cases = [
            [(0, c())],  # 0^0 = 1
            [(q1, c()), (2 * q1, c())],  # multiples of order - 1 still vanish at 0
            [(ctx.q ** j, c()) for j in range(41)],  # Frobenius exponents, unreduced
            [(0, 0), (1, c()), (5, 0), (ctx.q + 1, 1)],  # zero and unit coefficients
            [(rng.randrange(1, 3 * ctx.order), c()) for _ in range(6)] + [(0, c())],
            [],
        ]
        ks = np.arange(-1, q1)  # k = -1 stands for x = 0
        powers = [0] + [ctx.pow_i(ctx.mult_generator_enc, k) for k in range(q1)]
        for terms in cases:
            out = ctx.power_sum(terms, xs)
            assert out.dtype == np.int64 and out.shape == xs.shape
            assert out.tolist() == [_power_sum_ref(ctx, terms, x) for x in xs.tolist()]
            # the same sum at x = gen^k, from the exponents k
            assert ctx.power_sum_at_logs(terms, ks).tolist() == [_power_sum_ref(ctx, terms, x) for x in powers]
            for x in (0, 1, c()):  # a lone x gives a new 0-d array for every p
                out = ctx.power_sum(terms, np.int64(x))
                assert type(out) is np.ndarray and out.ndim == 0 and out.dtype == np.int64
                assert int(out) == _power_sum_ref(ctx, terms, x)
        # so do the vector operations that are power sums
        one = np.int64(1)
        for out in (ctx.mul_vec(one, one), ctx.pow_vec(one, 3), ctx.inv_vec(one), ctx.frob_vec(one, 1)):
            assert type(out) is np.ndarray and out.ndim == 0 and out.dtype == np.int64 and int(out) == 1
        # a column of xs against rows of coefficients
        col = xs[:, None]
        rows = [(m, np.array([c() for _ in range(4)])) for m in (0, 1, ctx.q, q1)]
        out = ctx.power_sum(rows, col)
        assert out.shape == (ctx.order, 4)
        assert out.tolist() == [[_power_sum_ref(ctx, [(m, int(cs[k])) for m, cs in rows], x) for k in range(4)]
                                for x in xs.tolist()]
        # a lone constant row still takes the shape of the column, in a new array
        const = rows[0][1]
        out = ctx.power_sum(rows[:1], col)
        assert out.shape == (ctx.order, 4) and (out == const).all()
        assert not np.shares_memory(out, const) and not np.shares_memory(ctx.power_sum([(0, xs)], xs), xs)
        # array coefficients holding 0, against the flat xs and as the chart's
        # rows against a column that holds x = 0
        zs = np.array([0, c(), 0, 1, c()])
        for terms in ([(0, xs)], [(1, xs), (2, xs[::-1].copy())], [(ctx.q, xs), (0, 0), (3, 1)]):
            assert ctx.power_sum(terms, xs).tolist() == [
                _power_sum_ref(ctx, [(m, int(np.broadcast_to(cs, xs.shape)[i])) for m, cs in terms], x)
                for i, x in enumerate(xs.tolist())]
        rows = [(0, zs), (1, zs[::-1].copy()), (ctx.q + 1, np.zeros(5, dtype=np.int64)), (q1, zs)]
        out = ctx.power_sum(rows, col)
        assert out.tolist() == [[_power_sum_ref(ctx, [(m, int(cs[k])) for m, cs in rows], x) for k in range(5)]
                                for x in xs.tolist()]
        # the kernel sweep's columns c*h_i - f(b_i): (N, 1) columns h and -f(b),
        # the latter with a zero entry, against a row of scalars c that holds 0
        h = np.array([[c() or 1] for _ in range(3)])
        neg_fb = np.array([[c()], [0], [c()]])
        out = ctx.power_sum([(1, h), (0, neg_fb)], xs)
        assert out.shape == (3, ctx.order)
        assert out.tolist() == [[_power_sum_ref(ctx, [(1, int(h[i, 0])), (0, int(neg_fb[i, 0]))], x)
                                 for x in xs.tolist()] for i in range(3)]
        # u + (-u) + w: the running sum is 0 at every x before the last term
        for w in (c(), 0):
            u = c()
            terms = [(3, u), (3, ctx.neg_i(u)), (ctx.q, w), (1, zs[:1])]
            assert ctx.power_sum(terms, xs).tolist() == [_power_sum_ref(ctx, terms[:3], x) for x in xs.tolist()]
            assert ctx.power_sum(terms, col).tolist() == [[_power_sum_ref(ctx, terms[:3], x)] for x in xs.tolist()]
        # cancellation at some x only: c x + c' x^q is 0 where x^(q-1) = -c/c'
        terms = [(1, c() or 1), (ctx.q, c() or 1), (ctx.q ** 2, c()), (0, c())]
        assert ctx.power_sum(terms, xs).tolist() == [_power_sum_ref(ctx, terms, x) for x in xs.tolist()]
    # on F_(3^12), m near order - 1 times any log above 4041 passes 2^31, so
    # the product must be formed in int64
    ctx = gf.make_field(3, 1, 12)
    q1 = ctx.order - 1
    xs = np.array([0, 1, 2, q1] + [rng.randrange(ctx.order) for _ in range(300)])
    for terms in ([(q1 - 1, 1)], [(q1 - 1, 5), (3 ** 11 + 7, 2), (2 * q1 + 1, 7), (0, 4)],
                  [(ctx.order - 2, q1), (ctx.order - 2, ctx.neg_i(q1)), (q1 - 3, 9)]):
        want = [_power_sum_ref(ctx, terms, x) for x in xs.tolist()]
        assert ctx.power_sum(terms, xs).tolist() == want
        assert ctx.power_sum(terms, xs[:, None]).ravel().tolist() == want
    # add_vec and sub_vec are power sums for p = 2 too: a lone pair gives a new
    # 0-d int64 array in every characteristic
    for ctx in (gf.make_field(2, 1, 3), gf.make_field(3, 1, 3)):
        for u, v in ((1, 1), (5, 0), (0, 6), (3, 7), (0, 0)):
            for out, want in ((ctx.add_vec(np.int64(u), np.int64(v)), ctx.add_i(u, v)),
                              (ctx.sub_vec(np.int64(u), np.int64(v)), ctx.sub_i(u, v))):
                assert type(out) is np.ndarray and out.ndim == 0 and out.dtype == np.int64 and int(out) == want


def test_power_sum_returns_new_int64_arrays():
    # _exp is int32, yet every power sum is a new int64 array: empty, 0-d and
    # 2-D xs, constant-only terms and all-zero coefficients, for p = 2 and
    # odd p, on fields with and without doubling steps
    for ctx in (gf.make_field(2, 1, 3), gf.make_field(2, 1, 10), gf.make_field(3, 1, 3), gf.make_field(3, 1, 7)):
        q1 = ctx.order - 1
        row = np.array([0, 1, 2, q1])
        grid = np.arange(12).reshape(3, 4) % ctx.order
        cases = [(xs, terms)
                 for xs in (np.empty(0, dtype=np.int64), np.int64(5), np.array(0), grid)
                 for terms in ([(1, 3), (ctx.q, 5)], [(0, 3)], [(0, 3), (2, 0)], [(1, 0)], [])]
        cases += [(xs, terms)
                  for xs in (np.int64(5), np.empty((0, 4), dtype=np.int64), grid)
                  for terms in ([(0, row)], [(1, row), (0, 2)])]
        for xs, terms in cases:
            want = np.broadcast_shapes(np.shape(xs), *(np.shape(c) for _, c in terms))
            for out in (ctx.power_sum(terms, xs), ctx.power_sum_at_logs(terms, np.minimum(xs, q1 - 1))):
                assert type(out) is np.ndarray and out.dtype == np.int64 and out.shape == want
                assert not np.shares_memory(out, ctx._exp) and not np.shares_memory(out, row)
                assert not np.shares_memory(out, xs)


# odd p in {3, 5, 7}, e > 1 and explicit moduli (X^3 + 2X + 2, X^2 + 2 and
# X^2 + 1, none canonical); 728, 624 and 2400 take doubling steps
REDUCED_LOG_FIELDS = lambda: (
    gf.make_field(3, 2, 3), gf.make_field(5, 1, 4), gf.make_field(7, 2, 2),
    gf.make_field(3, 1, 3, modulus=(2, 2, 0, 1)), gf.make_field(5, 1, 2, modulus=(2, 0, 1)),
    gf.make_field(7, 1, 2, modulus=(1, 0, 1)),
)


def _antilog_slow(ctx, k):
    """gen^k by square-and-multiply on digit polynomials; 0 at k = -1."""
    return 0 if k < 0 else ctx._pow_slow(ctx.mult_generator_enc, k)


def _power_sum_slow(ctx, terms, x):
    """sum c * x^m on one encoding: _mul_slow products added digitwise."""
    acc = 0
    for m, c in terms:
        power = 1 if m == 0 else 0 if x == 0 else ctx._pow_slow(x, m)
        acc = _digitwise(ctx, acc, ctx._mul_slow(c, power), 1)
    return acc


def test_add_logs_on_reduced_logs():
    # every pair from the ends of [-1, order - 1), around the log of -1 and
    # inside: lu = -1 against lv = order - 2, and the mirror, differ by
    # order - 1, one past the period of _zech; u + (-u) gives -1
    rng = random.Random(97)
    for ctx in REDUCED_LOG_FIELDS():
        q1 = ctx.order - 1
        half = q1 // 2  # the log of -1
        logs = sorted({-1, 0, 1, half - 1, half, half + 1, q1 - 2, q1 - 1} | {rng.randrange(q1) for _ in range(6)})
        lu, lv = (np.array(side, dtype=np.int32) for side in zip(*itertools.product(logs, repeat=2)))
        want = [_digitwise(ctx, _antilog_slow(ctx, a), _antilog_slow(ctx, b), 1) for a, b in zip(lu.tolist(), lv.tolist())]
        for out in (ctx._add_logs(lu, lv), ctx._add_logs(lu.reshape(len(logs), -1)[:, :1], lv[:len(logs)]).ravel()):
            assert out.dtype == np.int32 and ((-1 <= out) & (out < q1)).all()
            assert [_antilog_slow(ctx, s) for s in out.tolist()] == want
        for a, b in ((-1, q1 - 1), (q1 - 1, -1), (-1, -1), (0, half)):
            out = ctx._add_logs(np.int32(a), np.int32(b))
            assert out.ndim == 0 and _antilog_slow(ctx, int(out)) == _digitwise(ctx, _antilog_slow(ctx, a), _antilog_slow(ctx, b), 1)
        # and the scalar route's wrap, on the same one period
        assert ctx.add_i(1, _antilog_slow(ctx, q1 - 1)) == _digitwise(ctx, 1, _antilog_slow(ctx, q1 - 1), 1)


def test_power_sums_on_reduced_logs():
    # against _mul_slow and digitwise sums, at x = 0 (k = -1), at both ends
    # of the period and inside; every log out lies in [-1, order - 1)
    rng = random.Random(101)
    for ctx in REDUCED_LOG_FIELDS():
        q1 = ctx.order - 1
        c = lambda: rng.randrange(1, ctx.order)
        ks = np.array(sorted({-1, 0, 1, q1 // 2, q1 - 2, q1 - 1} | {rng.randrange(q1) for _ in range(10)}))
        xs = [_antilog_slow(ctx, k) for k in ks.tolist()]
        u = c()
        neg_u = _digitwise(ctx, 0, u, -1)
        cases = [
            # u + (-u) cancels at every x, then further terms
            [(3, u), (3, neg_u), (ctx.q, c()), (1, 0), (0, c())],
            [(0, u), (0, neg_u), (q1 - 1, c())],
            [(5, u), (5, neg_u)],
            # any m > 0 vanishes at x = 0, a multiple of order - 1 included
            [(q1, c()), (2 * q1, c()), (3 * q1 + 1, c())],
            [(q1, c()), (0, c())],
            [(rng.randrange(1, 3 * ctx.order), c()) for _ in range(5)],
        ]
        for terms in cases:
            want = [_power_sum_slow(ctx, terms, x) for x in xs]
            assert ctx.power_sum_at_logs(terms, ks).tolist() == want
            logs = ctx.log_power_sum_at_logs(terms, ks)
            assert logs.dtype == np.int32 and ((-1 <= logs) & (logs < q1)).all()
            assert [_antilog_slow(ctx, k) for k in logs.tolist()] == want
            lone = ctx.log_power_sum_at_logs(terms, np.int64(-1))  # a lone x = 0
            assert lone.ndim == 0 and _antilog_slow(ctx, int(lone)) == want[0]
        # array coefficients holding 0 that broadcast past x: a column of
        # points against rows of coefficients
        row = np.array([0, c(), 0, c(), 1, ctx.p - 1])
        rows = [(1, row), (ctx.q, row[::-1].copy()), (q1, np.zeros(len(row), dtype=np.int64)), (0, row), (2, c())]
        want = [[_power_sum_slow(ctx, [(m, int(np.broadcast_to(cs, row.shape)[j])) for m, cs in rows], x)
                 for j in range(len(row))] for x in xs]
        assert ctx.power_sum_at_logs(rows, ks[:, None]).tolist() == want
        logs = ctx.log_power_sum_at_logs(rows, ks[:, None])
        assert logs.shape == (len(ks), len(row)) and ((-1 <= logs) & (logs < q1)).all()
        assert [[_antilog_slow(ctx, k) for k in r] for r in logs.tolist()] == want


def _slow_log_layout(ctx):
    """(rows, logs): the digit rows of gen^i, i < order - 1, from repeated
    _mul_slow, and the log of each encoding, -1 at 0."""
    powers = [1]
    for _ in range(ctx.order - 2):
        powers.append(ctx._mul_slow(powers[-1], ctx.mult_generator_enc))
    logs = np.full(ctx.order, -1)
    logs[powers] = np.arange(len(powers))
    return np.array([ctx.digits(v) for v in powers]), logs


def _digitwise_power_sum(ctx, layout, terms, ks):
    """sum c * x^m at x = gen^k (k = -1 for x = 0) with c broadcasting
    against ks: each term the digit row of gen^(m*k + log c), the rows added
    digitwise mod p."""
    rows, logs = layout
    acc = np.zeros(np.shape(ks) + (ctx.N,), dtype=np.int64)
    for m, c in terms:
        lc = logs[np.asarray(c)]
        live = (lc >= 0) & ((ks >= 0) | (m == 0))
        acc = acc + rows[(m * ks + lc) % (ctx.order - 1)] * live[..., None]
    return acc % ctx.p @ ctx.p ** np.arange(ctx.N)


def test_stacked_power_sums_match_slow_reference():
    # the terms c * x^m with m > 0 and a scalar c sum in stacks of
    # _BUILD_BLOCK // points: over every point of F_(2^12) and F_(3^8) (4,096
    # and 6,561) nine such terms take three and five stacks; the smaller
    # fields take one stack of nine, an odd count at three levels of the
    # Zech tree
    rng = random.Random(131)
    fields = (gf.make_field(2, 2, 6), gf.make_field(3, 2, 4), gf.make_field(2, 2, 3),
              gf.make_field(2, 1, 4, modulus=(1, 0, 0, 1, 1))) + REDUCED_LOG_FIELDS()
    for ctx in fields:
        q1 = ctx.order - 1
        layout = _slow_log_layout(ctx)
        ks = np.arange(-1, q1)  # k = -1 stands for x = 0
        c = lambda: rng.randrange(1, ctx.order)
        neg = lambda v: _digitwise(ctx, 0, v, -1)
        u, w = c(), c()
        cases = [
            [(rng.randrange(1, 3 * ctx.order), c()) for _ in range(9)] + [(0, c())],
            # u + (-u) and w + (-w) cancel at every x in the tree's first
            # level, their sum again in the second, with an odd count of terms
            [(3, u), (ctx.q, w), (3, neg(u)), (ctx.q, neg(w)), (1, c())],
            [(3, u), (3, neg(u)), (ctx.q, c()), (2, c()), (0, c())],
            # x = 0 with m = 0 and with multiples of order - 1
            [(0, u), (q1, c()), (2 * q1, neg(u))],
            [(1, 0), (ctx.q, 0), (0, 0)],
        ]
        for terms in cases:
            want = _digitwise_power_sum(ctx, layout, terms, ks).tolist()
            assert ctx.power_sum_at_logs(terms, ks).tolist() == want
            logs = ctx.log_power_sum_at_logs(terms, ks)
            assert logs.dtype == np.int32 and ((-1 <= logs) & (logs < q1)).all()
            assert np.where(logs < 0, 0, layout[0][logs] @ ctx.p ** np.arange(ctx.N)).tolist() == want
            for k in (-1, 0, q1 - 1):  # a lone x
                out = ctx.power_sum_at_logs(terms, np.int64(k))
                assert out.ndim == 0 and int(out) == want[k + 1]
        # scalar and array coefficients in one call: a column of points
        # against rows of coefficients that hold 0
        row = np.array([0, c(), c(), 1])
        terms = [(1, row), (3, c()), (ctx.q, c()), (0, row[::-1].copy()), (2, c()), (q1, 0), (5, np.zeros(4, dtype=np.int64))]
        col = ks[:, None]
        want = _digitwise_power_sum(ctx, layout, terms, col).tolist()
        assert ctx.power_sum_at_logs(terms, col).tolist() == want


@pytest.mark.parametrize("field", [(2, 1, 16), (3, 1, 10)], ids=lambda f: "%d^%d^%d" % f)
def test_power_sum_peak_does_not_grow_with_terms(field):
    # over more points than _BUILD_BLOCK the scalar terms go one at a time:
    # sixteen peak where two do
    ctx = gf.make_field(*field)
    xs = np.arange(ctx.order)
    rng = random.Random(17)
    terms = [(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)) for _ in range(16)]
    ctx.power_sum(terms, xs)  # builds the tables outside the trace
    peaks = []
    for count in (2, 16):
        tracemalloc.start()
        try:
            ctx.power_sum(terms[:count], xs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096


def test_table_build_peak_is_the_tables():
    # the F_(3^12) build allocates its tables and one block's temporaries at
    # a time: no order-sized temporary outlives the one-shot log fill, whose
    # arange stands in for the Zech table not yet allocated
    ctx = gf.FieldCtx(3, 1, 12)  # not make_field: the tables are built here
    ctx.modulus  # the modulus search allocates nothing order-sized either
    tracemalloc.start()
    try:
        ctx._ensure_tables()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = ctx._exp.nbytes + ctx._log.nbytes + ctx._zech.nbytes
    assert tables == 16 * ctx.order - 8  # int32: _exp 2(order - 1) + 1, _log order, _zech order - 1
    assert peak <= tables + 32 * gf._BUILD_BLOCK


def test_frob_vec_keeps_zero_over_f2():
    # over F_2, q^s reduced mod order - 1 = 1 is 0, which once read as the constant exponent
    f2 = gf.make_field(2, 1, 1)
    for s in range(4):
        assert f2.frob_vec(np.array([0, 1]), s).tolist() == [0, 1]
        assert [f2.frob_i(x, s) for x in (0, 1)] == [0, 1]


def test_only_gf_reads_the_log_tables():
    # the log layout is gf's own: every other module goes through its operations
    layout = re.compile(r"\b(_log|_exp|_zech|_ensure_tables)\b")
    src = Path(gf.__file__).parent
    hits = [f"{path.name}:{n}" for path in sorted(src.glob("*.py")) if path.name != "gf.py"
            for n, line in enumerate(path.read_text().splitlines(), 1) if layout.search(line)]
    assert hits == []
