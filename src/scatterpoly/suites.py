"""Named verification campaigns.

Each suite exhaustively checks one classification fact at desk scale and
returns a structured result: pass/fail, the individual check count, failure
descriptions, and the list of (field, f, t) instances whose scatteredness was
tested (consumed by the cross-checking suites).  Results are memoized per
(name, seed, ceiling) since every campaign is deterministic.
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


@dataclass(frozen=True)
class InstanceRec:
    p: int
    e: int
    d: int
    coeffs: tuple
    t: int

    def realize(self):
        ctx = gf.make_field(self.p, self.e, self.d)
        return ctx, QPoly.from_encs(ctx, self.coeffs), self.t


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list
    seed: int | None = None
    instances: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _rec(f: QPoly, t: int) -> InstanceRec:
    ctx = f.ctx
    return InstanceRec(ctx.p, ctx.e, ctx.d, f.encs, t)


def run_monomial_law(seed: int = 0, ceiling=None) -> SuiteResult:
    """X^(q^s) at index 0 is scattered over F_{q^n} exactly when gcd(s, n) = 1;
    q in {2, 3, 4}, n up to 6, every s."""
    checks, failures, instances = 0, [], []
    for q, (p, e) in _QS:
        for n in range(2, 7):
            ctx = gf.make_field(p, e, n)
            for s in range(1, n):
                f = QPoly.monomial(ctx, s)
                instances.append(_rec(f, 0))
                verdict = sc.scatter_test(f, 0, ceiling)
                expected = math.gcd(s, n) == 1
                checks += 1
                if verdict.scattered != expected:
                    failures.append(f"q={q} n={n} s={s}: got {verdict.scattered}, want {expected}")
    return SuiteResult("monomial-law", not failures, checks, failures, seed, instances)


def _norm_ne_one_encs(ctx) -> list[int]:
    return [v for v in range(1, ctx.order) if gf.norm_rel(FFElt(ctx, v)).val != 1]


def run_family_13(seed: int = 0, ceiling=None) -> SuiteResult:
    """The two-term family delta*X^(q^s) + X^(q^(n-s)) with gcd(s, n) = 1 and
    Norm(delta) != 1 is scattered; checked both at index 0 and in its shifted
    index-s form X + delta*X^(q^(2s mod n))."""
    checks, failures, instances = 0, [], []
    for q, (p, e) in _QS[:2]:
        for n in (4, 5):
            ctx = gf.make_field(p, e, n)
            deltas = [0] + _norm_ne_one_encs(ctx)
            for s in [s for s in range(1, n) if math.gcd(s, n) == 1]:
                j = (2 * s) % n
                for dv in deltas:
                    # index-s form
                    encs = [0] * (max(j, 0) + 1)
                    encs[0] = 1
                    if dv:
                        encs[j] = dv
                    f_s = QPoly.from_encs(ctx, encs)
                    instances.append(_rec(f_s, s))
                    checks += 1
                    if not sc.scatter_test(f_s, s, ceiling).scattered:
                        failures.append(f"q={q} n={n} s={s} delta={dv}: index-{s} form not scattered")
                    # index-0 form (s != n - s here since gcd(s, n) = 1, n > 2)
                    encs0 = [0] * (max(s, n - s) + 1)
                    encs0[n - s] = 1
                    if dv:
                        encs0[s] = dv
                    f_0 = QPoly.from_encs(ctx, encs0)
                    instances.append(_rec(f_0, 0))
                    checks += 1
                    if not sc.scatter_test(f_0, 0, ceiling).scattered:
                        failures.append(f"q={q} n={n} s={s} delta={dv}: index-0 form not scattered")
    return SuiteResult("family-13", not failures, checks, failures, seed, instances)


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
    checks, failures, instances = 0, [], []
    completions = 0
    for q, (p, e) in _QS[:2]:
        for n in (3, 4):
            ctx = gf.make_field(p, e, n)
            one = ctx.one
            for bv in range(1, ctx.order):
                b = FFElt(ctx, bv)
                if gf.norm_rel(b) == one:
                    checks += 1
                    a = sc.find_many_roots_completion(b, ceiling)
                    if a is None:
                        failures.append(f"q={q} n={n} b={bv}: no completion with a q^2 kernel")
                    else:
                        completions += 1
            for bv in _norm_ne_one_encs(ctx):
                b = FFElt(ctx, bv)
                f = QPoly(ctx, [b, ctx.zero, one])
                instances.append(_rec(f, 1))
                checks += 1
                if not sc.scatter_test(f, 1, ceiling).scattered:
                    failures.append(f"q={q} n={n} b={bv}: not scattered at m=1")
                entries = sc.scan_extensions(f, 1, _scan_horizon(q, n), ceiling)
                for entry in entries:
                    checks += 1
                    if entry.verdict is None:
                        failures.append(f"q={q} n={n} b={bv} m={entry.m}: skipped ({entry.skipped})")
                        continue
                    ext = gf.make_field(p, e, n * entry.m)
                    phi = gf.embed(ctx, ext)
                    f_ext = QPoly.from_encs(ext, [phi.map_enc(v) for v in f.encs])
                    instances.append(_rec(f_ext, 1))
                    predicted = gf.norm_rel(phi(b)) != ext.one
                    if entry.verdict.scattered != predicted:
                        failures.append(
                            f"q={q} n={n} b={bv} m={entry.m}: scattered={entry.verdict.scattered}, "
                            f"norm condition predicts {predicted}"
                        )
    result = SuiteResult("corollary38", not failures, checks, failures, seed, instances)
    result.details["completions_found"] = completions
    return result


def run_remark32(seed: int = 0, ceiling=None) -> SuiteResult:
    """The component bound inequality at ell = i + 1 agrees with the small-q
    case table for every prime power q <= 9 and 1 <= i < k <= 8."""
    checks, failures = 0, []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in range(2, 9):
            for i in range(1, k):
                checks += 1
                got = sc.irreducible_component_inequality(q, i, k, i + 1)
                want = sc.inequality_case_table(q, k, i)
                if got != want:
                    failures.append(f"q={q} k={k} i={i}: inequality {got}, table {want}")
    return SuiteResult("remark32", not failures, checks, failures, seed)


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
    checks, failures = 0, []
    for q, (p, e) in _QS[:2]:
        for k in (2, 3):
            ctx = gf.make_field(p, e, 4)
            for _ in range(5):
                f = _random_index1_poly(ctx, k, rng)
                pts = cv.points_at_infinity(cv.build_scatter_curve(f, 1), ceiling=ceiling)
                checks += 1
                if len(pts) != q ** (k - 1) + 1:
                    failures.append(f"q={q} k={k} f={f.encs}: {len(pts)} infinity points")
        # embedded extension route: curve over F_(q^3), points read in F_(q^6)
        ctx3 = gf.make_field(p, e, 3)
        ext = gf.make_field(p, e, 6)
        f = _random_index1_poly(ctx3, 2, rng)
        pts = cv.points_at_infinity(cv.build_scatter_curve(f, 1), ext, ceiling=ceiling)
        checks += 1
        if len(pts) != q + 1:
            failures.append(f"q={q} embedded: {len(pts)} infinity points")
    return SuiteResult("infinity-counts", not failures, checks, failures, seed)


def run_factorization(seed: int = 0, ceiling=None) -> SuiteResult:
    """(X^(q^k) Y - X Y^(q^k)) / (X^q Y - X Y^q) equals the product of
    Y - rho*X over rho in F_{q^k} outside F_q, expanded over F_{q^k}."""
    checks, failures = 0, []
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
            checks += 1
            if quot != prod:
                failures.append(f"q={q} k={k}: quotient differs from the linear-factor product")
    return SuiteResult("factorization", not failures, checks, failures, seed)


def run_alpha_image(seed: int = 0, ceiling=None) -> SuiteResult:
    """{u*v^q - v*u^q} covers the whole field for q in {2, 3}, n in {3, 4}."""
    checks, failures = 0, []
    for q, (p, e) in _QS[:2]:
        for n in (3, 4):
            ctx = gf.make_field(p, e, n)
            image = {x.val for x in sc.pair_product_image(ctx, ceiling)}
            checks += 1
            if image != set(range(ctx.order)):
                failures.append(f"q={q} n={n}: image has {len(image)} of {ctx.order} elements")
    return SuiteResult("alpha-image", not failures, checks, failures, seed)


def run_hasse_weil(seed: int = 0, ceiling=None) -> SuiteResult:
    """Y - Y^q - alpha*X^(q+1) stays within the Hasse-Weil gap bound for every
    nonzero alpha, and its affine count clears q^n - q(q-1)q^(n/2)."""
    checks, failures = 0, []
    for q, (p, e) in _QS[:2]:
        for n in (3, 4):
            ctx = gf.make_field(p, e, n)
            for av in range(1, ctx.order):
                f_poly = cv.BivarPoly(
                    ctx, {(0, 1): 1, (0, q): ctx.neg_i(1), (q + 1, 0): ctx.neg_i(av)}
                )
                total, gap, bound = cv.hasse_weil_gap(f_poly, ceiling=ceiling)
                affine = total - len(cv.points_at_infinity(f_poly, ceiling=ceiling))
                checks += 1
                if gap > bound:
                    failures.append(f"q={q} n={n} alpha={av}: gap {gap} > bound {bound:.3f}")
                low = ctx.order - q * (q - 1) * math.sqrt(ctx.order)
                if affine < low:
                    failures.append(f"q={q} n={n} alpha={av}: affine {affine} below {low:.3f}")
    return SuiteResult("hasse-weil", not failures, checks, failures, seed)


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
    checks, failures, instances = 0, [], []
    for trial in range(200):
        ctx = gf.make_field(2, 1, 3 if trial % 2 else 4)
        spec = _random_codespec(rng, ctx)
        instances.append(_rec(spec.f, spec.t))
        verdict = sc.scatter_test(spec.f, spec.t, ceiling)
        report = rk.min_distance(spec, ceiling)
        checks += 1
        if verdict.scattered != (report.min_distance == ctx.d - 1):
            failures.append(f"trial {trial}: code distance {report.min_distance} vs scattered {verdict.scattered}")
        hits = cv.count_affine(
            cv.build_scatter_curve(spec.f, spec.t), ctx, "ratio_not_in_Fq", ceiling
        )
        checks += 1
        if verdict.scattered != (hits.count == 0):
            failures.append(f"trial {trial}: curve count {hits.count} vs scattered {verdict.scattered}")
    return SuiteResult("bridge", not failures, checks, failures, seed, instances)


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
    checks, failures, instances = 0, [], []
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
        checks += 1
        if verdict.guaranteed:
            reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
            instances.append(_rec(f, 0))
            if sc.scatter_test(f, 0, ceiling).scattered:
                failures.append(f"q={ctx.q} n={n} i={i} k={k} f={f.encs}: verdict contradicted")
    result = SuiteResult("theorem34-soundness", not failures, checks, failures, seed, instances)
    result.details["reason_counts"] = reasons
    return result


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
