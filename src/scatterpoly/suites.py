"""Named verification campaigns.

Each suite exhaustively checks one classification fact at desk scale and
tallies it in a `SuiteResult`: the check count, the failure descriptions and
the (f, t) pairs whose scatteredness was tested, which the acceptance tests
cross-check with other routes.  Results are memoized per (name, seed,
ceiling) since every campaign is deterministic.

`monomial-law`, `family-13`, `corollary38` (its completions and its m = 1
verdicts) and `bridge` (its verdicts and distances) test each (field, t)
group of their pairs as one stack (`scattered.scattered_many`,
`scattered.find_many_roots_completions`, `rankcode.min_distances`), groups
in the order of their first pair; checks, failures and instances keep the
order of the per-pair loop.  A stack checks its field against the ceiling
before it builds its terms.  `family-13` and `corollary38` stack each
field's pairs where that loop tested them; `monomial-law` and `bridge`
stack every pair up front, which stops at the same field: the former makes
no other call that can raise, and the first pair of the latter lies over
its larger field.  So a ceiling stops a suite with the error line of the
per-pair loop.  The curve counts of `bridge`, the extension scans of
`corollary38` and `theorem34-soundness` (which tests only its few
guaranteed verdicts, so a stack of all 200 pairs costs more) stay per pair.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import curve as cv
from . import gf
from . import rankcode as rk
from . import scattered as sc
from .gf import FFElt
from .linpoly import QPoly

SCAN_SIZE_LIMIT = 1 << 20

_QS = ((2, (2, 1)), (3, (3, 1)), (4, (2, 2)))


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)
    instances: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, failure: str) -> None:
        """Count one check, keeping `failure` when it does not hold."""
        self.checks += 1
        if not ok:
            self.failures.append(failure)


def _stacked(items, key, run) -> list:
    """run(group) for each group of the items with one key, in the order of
    each group's first item, so the first group over the ceiling raises as
    its first item would alone; the results in the order of the items.  The
    keys hold id(ctx): make_field gives one context per field."""
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    out = [None] * len(items)
    for idx in groups.values():
        for i, r in zip(idx, run([items[i] for i in idx])):
            out[i] = r
    return out


def _verdicts(pairs, ceiling) -> list[bool]:
    """scatter_test(f, t).scattered of each pair (f, t), one stack per
    (field, t)."""
    return _stacked(pairs, lambda ft: (id(ft[0].ctx), ft[1]),
                    lambda grp: sc.scattered_many([f for f, _ in grp], grp[0][1], ceiling))


def run_monomial_law(seed: int = 0, ceiling=None) -> SuiteResult:
    """X^(q^s) at index 0 is scattered over F_{q^n} exactly when gcd(s, n) = 1;
    q in {2, 3, 4}, n up to 6, every s."""
    res = SuiteResult("monomial-law")
    cases = []
    for q, (p, e) in _QS:
        for n in range(2, 7):
            ctx = gf.make_field(p, e, n)
            for s in range(1, n):
                res.instances.append((QPoly.monomial(ctx, s), 0))
                cases.append((q, n, s))
    for (q, n, s), got in zip(cases, _verdicts(res.instances, ceiling)):
        want = math.gcd(s, n) == 1
        res.check(got == want, f"q={q} n={n} s={s}: got {got}, want {want}")
    return res


def _norm_ne_one_encs(ctx) -> list[int]:
    return [v for v in range(1, ctx.order) if gf.norm_rel(FFElt(ctx, v)).val != 1]


def run_family_13(seed: int = 0, ceiling=None) -> SuiteResult:
    """The two-term family delta*X^(q^s) + X^(q^(n-s)) with gcd(s, n) = 1 and
    Norm(delta) != 1 is scattered; checked both at index 0 and in its shifted
    index-s form X + delta*X^(q^(2s mod n))."""
    res = SuiteResult("family-13")
    for q, (p, e) in _QS[:2]:
        for n in (4, 5):
            ctx = gf.make_field(p, e, n)
            pairs, failures = [], []
            deltas = [0] + _norm_ne_one_encs(ctx)
            for s in [s for s in range(1, n) if math.gcd(s, n) == 1]:
                j = (2 * s) % n
                for dv in deltas:
                    # index-s form
                    encs = [0] * (max(j, 0) + 1)
                    encs[0] = 1
                    if dv:
                        encs[j] = dv
                    pairs.append((QPoly.from_encs(ctx, encs), s))
                    failures.append(f"q={q} n={n} s={s} delta={dv}: index-{s} form not scattered")
                    # index-0 form (s != n - s here since gcd(s, n) = 1, n > 2)
                    encs0 = [0] * (max(s, n - s) + 1)
                    encs0[n - s] = 1
                    if dv:
                        encs0[s] = dv
                    pairs.append((QPoly.from_encs(ctx, encs0), 0))
                    failures.append(f"q={q} n={n} s={s} delta={dv}: index-0 form not scattered")
            res.instances += pairs
            for failure, scattered in zip(failures, _verdicts(pairs, ceiling)):
                res.check(scattered, failure)
    return res


def _scan_horizon(q: int, n: int) -> list[int]:
    ms = []
    m = 1
    while q ** (m * n) <= SCAN_SIZE_LIMIT:
        ms.append(m)
        m += 1
    return ms


def run_corollary38(seed: int = 0, ceiling=None) -> SuiteResult:
    """Degree-q^2 classification facts for q in {2, 3}, n in {3, 4}.

    Necessity: every nonzero b of norm 1 admits a completion a making
    X^(q^2) + a*X^q + b*X have a q^2-element kernel.  Sufficiency: for every
    b with Norm(b) != 1, the pair (b*X + X^(q^2), t=1) is scattered at m = 1
    and, over each extension in the scan horizon, is scattered exactly when
    the norm of b over that extension is still not 1 (the norm composes as
    its m-th power, so even multiples can and must fail).
    """
    res = SuiteResult("corollary38")
    completions = 0
    for q, (p, e) in _QS[:2]:
        for n in (3, 4):
            ctx = gf.make_field(p, e, n)
            one = ctx.one
            norm_one = [b for b in map(ctx.elem, range(1, ctx.order)) if gf.norm_rel(b) == one]
            for b, a in zip(norm_one, sc.find_many_roots_completions(norm_one, ceiling)):
                res.check(a is not None, f"q={q} n={n} b={b.val}: no completion with a q^2 kernel")
                completions += a is not None
            bvs = _norm_ne_one_encs(ctx)
            fs = [QPoly(ctx, [FFElt(ctx, bv), ctx.zero, one]) for bv in bvs]
            for bv, f, scattered in zip(bvs, fs, _verdicts([(f, 1) for f in fs], ceiling)):
                b = FFElt(ctx, bv)
                res.instances.append((f, 1))
                res.check(scattered, f"q={q} n={n} b={bv}: not scattered at m=1")
                for entry in sc.scan_extensions(f, 1, _scan_horizon(q, n), ceiling):
                    if entry.verdict is None:
                        res.check(False, f"q={q} n={n} b={bv} m={entry.m}: skipped ({entry.skipped})")
                        continue
                    ext = gf.make_field(p, e, n * entry.m)
                    phi = gf.embed(ctx, ext)
                    res.instances.append((QPoly.from_encs(ext, [phi.map_enc(v) for v in f.encs]), 1))
                    got = entry.verdict.scattered
                    predicted = gf.norm_rel(phi(b)) != ext.one
                    res.check(got == predicted, f"q={q} n={n} b={bv} m={entry.m}: scattered={got}, "
                                                f"norm condition predicts {predicted}")
    res.details["completions_found"] = completions
    return res


def run_remark32(seed: int = 0, ceiling=None) -> SuiteResult:
    """The component bound inequality at ell = i + 1 agrees with the small-q
    case table for every prime power q <= 9 and 1 <= i < k <= 8."""
    res = SuiteResult("remark32")
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in range(2, 9):
            for i in range(1, k):
                got = sc.irreducible_component_inequality(q, i, k, i + 1)
                want = sc.inequality_case_table(q, k, i)
                res.check(got == want, f"q={q} k={k} i={i}: inequality {got}, table {want}")
    return res


def _random_index1_poly(ctx, k: int, rng: random.Random) -> QPoly:
    """X + middle terms + lambda*X^(q^k) with lambda != 0 and a zero
    coefficient at index 1."""
    encs = [0] * (k + 1)
    encs[0] = 1
    for j in range(2, k):
        encs[j] = rng.randrange(ctx.order)
    encs[k] = rng.randrange(1, ctx.order)
    return QPoly.from_encs(ctx, encs)


def run_infinity_counts(seed: int = 0, ceiling=None) -> SuiteResult:
    """Index-1 curves have exactly q^(k-1) + 1 points at infinity over any
    extension containing F_{q^(k-1)}; 20 random samples plus two embedded
    extension checks."""
    rng = random.Random(seed)
    res = SuiteResult("infinity-counts")
    for q, (p, e) in _QS[:2]:
        for k in (2, 3):
            ctx = gf.make_field(p, e, 4)
            for _ in range(5):
                f = _random_index1_poly(ctx, k, rng)
                pts = cv.points_at_infinity(cv.build_scatter_curve(f, 1), ceiling=ceiling)
                res.check(len(pts) == q ** (k - 1) + 1, f"q={q} k={k} f={f.encs}: {len(pts)} infinity points")
        # embedded extension route: curve over F_(q^3), points read in F_(q^6)
        ctx3 = gf.make_field(p, e, 3)
        ext = gf.make_field(p, e, 6)
        f = _random_index1_poly(ctx3, 2, rng)
        pts = cv.points_at_infinity(cv.build_scatter_curve(f, 1), ext, ceiling=ceiling)
        res.check(len(pts) == q + 1, f"q={q} embedded: {len(pts)} infinity points")
    return res


def run_factorization(seed: int = 0, ceiling=None) -> SuiteResult:
    """(X^(q^k) Y - X Y^(q^k)) / (X^q Y - X Y^q) equals the product of
    Y - rho*X over rho in F_{q^k} outside F_q, expanded over F_{q^k}."""
    res = SuiteResult("factorization")
    for q, (p, e) in _QS[:2]:
        for k in (2, 3):
            ctx = gf.make_field(p, e, k)
            qk = q ** k
            num = cv.BivarPoly(ctx, {(qk, 1): 1, (1, qk): ctx.neg_i(1)})
            den = cv.BivarPoly(ctx, {(q, 1): 1, (1, q): ctx.neg_i(1)})
            quot = cv.exact_divide(num, den)
            prod = cv.BivarPoly.constant(ctx, 1)
            for rho in range(ctx.order):
                if not ctx.in_subfield_i(rho):
                    prod = prod.mul(cv.BivarPoly(ctx, {(0, 1): 1, (1, 0): ctx.neg_i(rho)}))
            res.check(quot == prod, f"q={q} k={k}: quotient differs from the linear-factor product")
    return res


def run_alpha_image(seed: int = 0, ceiling=None) -> SuiteResult:
    """{u*v^q - v*u^q} covers the whole field for q in {2, 3}, n in {3, 4}."""
    res = SuiteResult("alpha-image")
    for q, (p, e) in _QS[:2]:
        for n in (3, 4):
            ctx = gf.make_field(p, e, n)
            image = {x.val for x in sc.pair_product_image(ctx, ceiling)}
            res.check(image == set(range(ctx.order)),
                      f"q={q} n={n}: image has {len(image)} of {ctx.order} elements")
    return res


def run_hasse_weil(seed: int = 0, ceiling=None) -> SuiteResult:
    """Y - Y^q - alpha*X^(q+1) stays within the Hasse-Weil gap bound for every
    nonzero alpha, and its affine count clears q^n - q(q-1)q^(n/2)."""
    res = SuiteResult("hasse-weil")
    for q, (p, e) in _QS[:2]:
        for n in (3, 4):
            ctx = gf.make_field(p, e, n)
            low = ctx.order - q * (q - 1) * math.sqrt(ctx.order)
            for av in range(1, ctx.order):
                f_poly = cv.BivarPoly(
                    ctx, {(0, 1): 1, (0, q): ctx.neg_i(1), (q + 1, 0): ctx.neg_i(av)}
                )
                _, gap, bound, affine, _ = cv.hasse_weil_gap(f_poly, ceiling=ceiling)
                # one check, which can fail both ways
                res.checks += 1
                if gap > bound:
                    res.failures.append(f"q={q} n={n} alpha={av}: gap {gap} > bound {bound:.3f}")
                if affine < low:
                    res.failures.append(f"q={q} n={n} alpha={av}: affine {affine} below {low:.3f}")
    return res


def _random_codespec(rng: random.Random, ctx) -> rk.CodeSpec:
    n = ctx.d
    while True:
        t = rng.randrange(n)
        encs = [rng.randrange(ctx.order) for _ in range(n)]
        encs[t] = 0
        if any(encs):
            return rk.CodeSpec(ctx, t, QPoly.from_encs(ctx, encs))


def run_bridge(seed: int = 0, ceiling=None) -> SuiteResult:
    """Scattered <=> minimum rank distance n - 1, and scattered <=> no affine
    curve point with y/x outside F_q; 200 random instances, q = 2, n in
    {3, 4}."""
    rng = random.Random(seed)
    res = SuiteResult("bridge")
    specs = [_random_codespec(rng, gf.make_field(2, 1, 3 if trial % 2 else 4)) for trial in range(200)]
    res.instances = [(spec.f, spec.t) for spec in specs]
    verdicts = _verdicts(res.instances, ceiling)
    reports = _stacked(specs, lambda spec: (id(spec.ctx), spec.t), lambda grp: rk.min_distances(grp, ceiling))
    for trial, (spec, scattered, report) in enumerate(zip(specs, verdicts, reports)):
        ctx, dist = spec.ctx, report.min_distance
        res.check(scattered == (dist == ctx.d - 1),
                  f"trial {trial}: code distance {dist} vs scattered {scattered}")
        hits = cv.count_affine(
            cv.build_scatter_curve(spec.f, spec.t), ctx, "ratio_not_in_Fq", ceiling
        ).count
        res.check(scattered == (hits == 0), f"trial {trial}: curve count {hits} vs scattered {scattered}")
    return res


def _random_index0_shape(rng: random.Random, ctx, i: int, k: int) -> QPoly:
    encs = [0] * (k + 1)
    encs[i] = 1
    for j in range(i + 1, k):
        encs[j] = rng.randrange(ctx.order)
    encs[k] = rng.randrange(1, ctx.order)
    return QPoly.from_encs(ctx, encs)


def run_theorem34_soundness(seed: int = 0, ceiling=None) -> SuiteResult:
    """Every guaranteed-not-scattered verdict is confirmed by brute force;
    200 random shape instances across q in {2, 3}, n <= 8, plus targeted
    cases covering each decision branch."""
    rng = random.Random(seed)
    res = SuiteResult("theorem34-soundness")
    reasons: dict[str, int] = {}
    pool = []
    for _ in range(196):
        q, (p, e) = _QS[rng.randrange(2)]
        n = rng.randrange(3, 9)
        k = rng.randrange(2, n)
        i = rng.randrange(1, k)
        pool.append((p, e, n, i, k))
    # targeted coverage: gcd branch needs n = 4k, kernel branch a degenerate map
    pool += [(2, 1, 8, 1, 2), (3, 1, 8, 1, 2), (2, 1, 4, 1, 3), (3, 1, 4, 1, 3)]
    for p, e, n, i, k in pool:
        ctx = gf.make_field(p, e, n)
        f = _random_index0_shape(rng, ctx, i, k)
        verdict = sc.not_scattered_verdict(f, i, k, n)
        if verdict.guaranteed:
            reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
            res.instances.append((f, 0))
        res.check(not (verdict.guaranteed and sc.scatter_test(f, 0, ceiling).scattered),
                  f"q={ctx.q} n={n} i={i} k={k} f={f.encs}: verdict contradicted")
    res.details["reason_counts"] = reasons
    return res


SUITES = {
    "monomial-law": run_monomial_law,
    "family-13": run_family_13,
    "corollary38": run_corollary38,
    "remark32": run_remark32,
    "infinity-counts": run_infinity_counts,
    "factorization": run_factorization,
    "alpha-image": run_alpha_image,
    "hasse-weil": run_hasse_weil,
    "bridge": run_bridge,
    "theorem34-soundness": run_theorem34_soundness,
}

_MEMO: dict = {}


def run_suite(name: str, seed: int = 0, ceiling=None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    key = (name, seed, ceiling)
    if key not in _MEMO:
        _MEMO[key] = SUITES[name](seed=seed, ceiling=ceiling)
    return _MEMO[key]
