"""Stacked pair verdicts and distances: `scattered.scattered_many` and
`rankcode.min_distances` against the per-pair calls, the suites that hand
them their pairs, and the ceiling order of both."""

import random

import pytest

from scatterpoly import gf, linpoly as lp, rankcode as rk, scattered as sc, suites

# (p, e, d, modulus): p in {2, 3, 5, 7}, e > 1, explicit moduli, and fields
# on both sides of the sweep threshold (orders up to 343, then 625 to 2187)
STACK_FIELDS = (
    (2, 1, 4, None), (2, 2, 3, None), (2, 1, 5, (1, 0, 1, 0, 0, 1)), (3, 1, 3, (2, 2, 0, 1)),
    (3, 1, 4, None), (3, 2, 2, None), (5, 1, 3, (4, 1, 0, 1)), (5, 1, 4, None), (7, 1, 2, None),
    (7, 1, 3, None), (2, 1, 10, None), (3, 1, 7, None), (2, 1, 11, None),
)


def _field(p, e, d, modulus):
    return gf.make_field(p, e, d, modulus=modulus)


def _stack(ctx, rng, t, size, code=False):
    """A stack over ctx for one t: monomials (scattered or not), binomials
    and random supports of every length up to 2d + 1, so members are
    zero-padded against each other and use indices of at least d.  A code
    stack keeps the coefficient at t zero, and each member nonzero."""
    d = ctx.d
    fs = []
    while len(fs) < size:
        kind = rng.randrange(4)
        if kind == 0:
            encs = [0] * rng.randrange(2 * d + 1) + [rng.randrange(1, ctx.order)]
        elif kind == 1:
            encs = [0] * rng.randrange(1, 2 * d + 1) + [1]
            encs[rng.randrange(len(encs) - 1)] = rng.randrange(1, ctx.order)
        else:
            encs = [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 2 * d + 2))]
        if code and t < len(encs):
            encs[t] = 0
        f = lp.QPoly.from_encs(ctx, encs)
        if not f.is_zero():
            fs.append(f)
    return fs


def test_stacked_verdicts_match_per_pair():
    # every stacked verdict equals scatter_test's, and, on fields small
    # enough, the kernel sweep's; stacks of one, stacks cut into pieces of 3
    # pairs, and per-pair orbit scans when every field counts as large
    rng = random.Random(101)
    seen = set()
    for p, e, d, modulus in STACK_FIELDS:
        ctx = _field(p, e, d, modulus)
        for size in (1, 2, 9):
            t = rng.randrange(2 * d)
            fs = _stack(ctx, rng, t, size)
            want = [sc.scatter_test(f, t).scattered for f in fs]
            seen.update(want)
            assert sc.scattered_many(fs, t) == want
            if ctx.order <= 1 << 11:
                assert want == [sc.scatter_test_kernel(f, t) for f in fs]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sc, "_STACK_KEYS", 3 * sc._lines(ctx))
                assert sc.scattered_many(fs, t) == want
                mp.setattr(sc, "_ORBIT_SCAN_MIN", 0)
                assert sc.scattered_many(fs, t) == want
    assert seen == {True, False}


def test_stacked_distances_match_orbit_sweep():
    # min_distances, which ranks every scalar on small fields, against the
    # orbit sweep's min_distance per code (forced by a threshold of 0):
    # distance and kernel histogram; above the threshold the default orbit
    # sweep against every scalar ranked (a threshold above the order), and
    # stacks cut into several sweeps by a small _CHUNK
    rng = random.Random(103)
    mrd = set()
    for p, e, d, modulus in STACK_FIELDS:
        ctx = _field(p, e, d, modulus)
        for size in (1, 5):
            t = rng.randrange(d)
            specs = [rk.CodeSpec(ctx, t, f) for f in _stack(ctx, rng, t, size, code=True)]
            got = rk.min_distances(specs)
            with pytest.MonkeyPatch.context() as mp:
                small = ctx.order <= sc._SWEEP_ALL_MAX
                mp.setattr(sc, "_SWEEP_ALL_MAX", 0 if small else ctx.order)
                other = [rk.min_distance(spec) for spec in specs]
                assert rk.min_distances(specs) == other
                mp.setattr(sc, "_CHUNK", 2 * ctx.order)
                assert rk.min_distances(specs) == other
            assert got == other
            assert all(sum(r.kernel_histogram.values()) == r.code_size - 1 for r in got)
            mrd.update(r.is_mrd for r in got)
    assert mrd == {True, False}


def test_stacked_completions_match_orbit_sweep():
    # the least a per b from one stacked sweep, against the orbit sweep per
    # b (forced by a threshold of 0), a stack cut into pieces of 2 among them
    rng = random.Random(107)
    for p, e, d in ((2, 1, 3), (2, 1, 4), (2, 2, 3), (3, 1, 3), (3, 1, 4), (3, 2, 3), (5, 1, 3), (3, 1, 7)):
        ctx = gf.make_field(p, e, d)
        norm_one = [b for b in map(ctx.elem, range(1, ctx.order)) if gf.norm_rel(b) == ctx.one]
        bs = rng.sample(norm_one, min(len(norm_one), 12))
        got = sc.find_many_roots_completions(bs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sc, "_SWEEP_ALL_MAX", 0)
            assert got == [sc.find_many_roots_completion(b) for b in bs]
            mp.setattr(sc, "_SWEEP_ALL_MAX", 1 << 12)
            mp.setattr(sc, "_CHUNK", 2 * ctx.order)
            assert sc.find_many_roots_completions(bs) == got
        assert None not in got


def test_stacks_are_checked_before_tables_are_built():
    # the ceiling, mixed stacks and zero maps are refused before any table
    # of the field exists; an empty stack makes no call
    ctx = gf.FieldCtx(2, 1, 9)
    fs = [lp.QPoly.monomial(ctx, 1), lp.QPoly.monomial(ctx, 2)]
    with pytest.raises(gf.CeilingExceeded, match="needs 512 elements"):
        sc.scattered_many(fs, 0, ceiling=100)
    with pytest.raises(gf.CeilingExceeded, match="needs 512 elements"):
        rk.min_distances([rk.CodeSpec(ctx, 0, f) for f in fs], ceiling=100)
    with pytest.raises(gf.ContextMismatch):
        sc.scattered_many(fs + [lp.QPoly.monomial(gf.make_field(2, 1, 3), 1)], 0)
    with pytest.raises(gf.FieldError, match="one t"):
        rk.min_distances([rk.CodeSpec(ctx, 0, fs[0]), rk.CodeSpec(ctx, 2, fs[0])])
    with pytest.raises(gf.FieldError, match="zero map"):
        sc.scattered_many(fs + [lp.QPoly(ctx, [])], 0)
    assert ctx._exp is None
    assert sc.scattered_many([], 0) == [] and rk.min_distances([]) == []


class _Counting:
    """A module stand-in that records each call of the named functions."""

    def __init__(self, module, names, calls):
        self._module, self._names, self._calls = module, names, calls

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        if name not in self._names:
            return fn

        def counted(*args, **kwargs):
            self._calls.append((name, args))
            return fn(*args, **kwargs)
        return counted


@pytest.mark.parametrize("name", ["monomial-law", "family-13", "corollary38", "bridge"])
def test_suites_make_one_stacked_call_per_group(name, monkeypatch):
    # no per-pair scatter_test or min_distance from the suite itself, and one
    # stacked call per (field, t) group of its stacked pairs, each pair in
    # exactly one call; no sweep of these small fields reads the stabilizer
    calls = []
    monkeypatch.setattr(suites, "sc", _Counting(sc, {"scatter_test", "scattered_many", "find_many_roots_completion",
                                                     "find_many_roots_completions"}, calls))
    monkeypatch.setattr(suites, "rk", _Counting(rk, {"min_distance", "min_distances"}, calls))

    def refused(f, t):
        raise AssertionError("the stabilizer read by a sweep below the threshold")
    monkeypatch.setattr(sc, "_semilinear_stabilizer", refused)
    res = suites.SUITES[name](seed=0)
    assert res.passed
    assert not [c for c, _ in calls if c in ("scatter_test", "min_distance", "find_many_roots_completion")]
    # corollary38's completions: one stack per field, q in {2, 3}, n in {3, 4}
    completion_calls = [args[0] for c, args in calls if c == "find_many_roots_completions"]
    assert [len(bs) for bs in completion_calls] == ([7, 15, 13, 40] if name == "corollary38" else [])
    stacked = res.instances
    if name == "corollary38":
        # its m = 1 pairs, over the fields where some b has norm other than
        # 1, which its scan over extensions lists a second time at m = 1
        stacked = list(dict.fromkeys((f, t) for f, t in stacked if (f.ctx.q, f.ctx.d) in {(3, 3), (3, 4)}))
    groups = {(f.ctx, t) for f, t in stacked}
    verdict_calls = [args for c, args in calls if c == "scattered_many"]
    assert len(verdict_calls) == len(groups)
    got = []
    for fs, t, *_ in verdict_calls:
        assert len({f.ctx for f in fs}) == 1
        got += [(f, t) for f in fs]
    assert sorted(map(repr, got)) == sorted(map(repr, stacked))
    distance_calls = [args[0] for c, args in calls if c == "min_distances"]
    assert len(distance_calls) == (len(groups) if name == "bridge" else 0)
    assert sum(len(specs) for specs in distance_calls) == (200 if name == "bridge" else 0)
    for specs in distance_calls:
        assert len({(s.ctx, s.t) for s in specs}) == 1


def test_sweep_rule_is_chosen_from_the_field_order(monkeypatch):
    # the stabilizer is read above the threshold only, for a single pair
    # and a stack alike
    read = []
    stabilizer = sc._semilinear_stabilizer
    monkeypatch.setattr(sc, "_semilinear_stabilizer", lambda f, t: read.append(f.ctx.order) or stabilizer(f, t))
    assert sc._SWEEP_ALL_MAX == 512
    for ctx in (gf.make_field(2, 1, 9), gf.make_field(3, 1, 5), gf.make_field(2, 1, 10), gf.make_field(3, 1, 6)):
        f = lp.QPoly.from_encs(ctx, [0, 1, 0, 1])
        sc.scatter_test_kernel(f, 0)
        sc.kernel_dims_per_scalar(f, 2)
        rk.min_distances([rk.CodeSpec(ctx, 0, f), rk.CodeSpec(ctx, 0, lp.QPoly.monomial(ctx, 2))])
    assert read == [1024] * 4 + [729] * 4
