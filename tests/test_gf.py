"""Field arithmetic: construction, canonical order, subfield structure,
Frobenius, norm/trace and embeddings."""

import itertools
import random
import re
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
    for ctx in (gf.make_field(2, 2, 2), gf.make_field(3, 1, 3), gf.make_field(2, 2, 3)):
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
    for ctx in (gf.make_field(3, 1, 3), gf.make_field(2, 2, 2)):
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
        for terms in cases:
            out = ctx.power_sum(terms, xs)
            assert out.dtype == np.int64 and out.shape == xs.shape
            assert out.tolist() == [_power_sum_ref(ctx, terms, x) for x in xs.tolist()]
            for x in (0, 1, c()):  # a lone x
                assert int(ctx.power_sum(terms, np.int64(x))) == _power_sum_ref(ctx, terms, x)
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
