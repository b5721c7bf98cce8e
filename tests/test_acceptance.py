"""Acceptance criteria, one test per criterion.
Each test prints a single PASS line once its assertions hold, so running
with -s gives a one-line-per-criterion summary.  The verification campaigns
in scatterpoly.suites are shared (memoized) across criteria; this module adds
the cross-checks that tie the suites together: curve-bridge agreement on
every tested instance and fiber/kernel tester consistency.
"""
import random
from scatterpoly import curve as cv, gf, linpoly as lp, scattered as sc
from scatterpoly import suites
GRID_AUDIT_MAX_ORDER = 1 << 10  # full-grid curve audits stay below 2^20 cells
def _done(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")
def test_criterion_01_monomial_law():
    """Index-0 monomials are scattered exactly when gcd(s, n) = 1."""
    result = suites.run_suite("monomial-law")
    assert result.passed, result.failures
    assert result.checks == 45
    _done(1, "monomial law")
def test_criterion_02_two_term_family():
    """The two-term family with coprime exponent and norm condition is
    scattered, in both its index-0 and shifted index-s forms."""
    result = suites.run_suite("family-13")
    assert result.passed, result.failures
    assert result.checks > 0
    _done(2, "two-term family scattered")
def test_criterion_03_completion_necessity():
    """Every nonzero b of norm 1 admits a completion a giving
    X^(q^2) + a X^q + b X a kernel of dimension exactly 2."""
    result = suites.run_suite("corollary38")
    assert result.passed, result.failures
    # all norm-one b across q in {2,3}, n in {3,4}: 7 + 15 + 13 + 40
    assert result.details["completions_found"] == 75
    _done(3, "degree q^2 completion necessity")
def test_criterion_04_two_term_sufficiency_scan():
    """b X + X^(q^2) at index 1 is scattered at m = 1 for every b with
    Norm(b) != 1, and over each scanned extension the verdict equals the
    norm condition there.
    The relative norm composes as its m-th power over a degree-m extension,
    so for q = 3 every even m forces a composed norm of 1 and the pair must
    stop being scattered there; the suite checks the verdicts two-sidedly
    instead of expecting every extension to stay scattered.
    """
    result = suites.run_suite("corollary38")
    assert result.passed, result.failures
    # pin one flipped extension explicitly: q = 3, n = 3, m = 2
    ctx = gf.make_field(3, 1, 3)
    bval = next(v for v in range(1, 27) if gf.norm_rel(gf.FFElt(ctx, v)).val != 1)
    f = lp.QPoly.from_encs(ctx, [bval, 0, 1])
    entries = sc.scan_extensions(f, 1, [1, 2])
    assert entries[0].verdict.scattered is True
    assert entries[1].verdict.scattered is False
    ext = gf.make_field(3, 1, 6)
    assert gf.norm_rel(gf.embed(ctx, ext)(gf.FFElt(ctx, bval))) == ext.one
    _done(4, "two-term sufficiency scan (norm-condition verdicts)")
def test_criterion_05_pair_product_image():
    """{u v^q - v u^q} fills the whole field for n in {3, 4}."""
    result = suites.run_suite("alpha-image")
    assert result.passed, result.failures
    _done(5, "pair-product image fills the field")
def test_criterion_06_infinity_counts():
    """Index-1 curves carry exactly q^(k-1) + 1 ideal points."""
    result = suites.run_suite("infinity-counts")
    assert result.passed, result.failures
    assert result.checks >= 20
    _done(6, "index-1 infinity counts")
def test_criterion_07_cyclotomic_factorization():
    """Quotient equals the product of Y - rho X over rho outside F_q."""
    result = suites.run_suite("factorization")
    assert result.passed, result.failures
    assert result.checks == 4
    _done(7, "cyclotomic factorization")
def test_criterion_08_origin_multiplicity():
    """Index-0 curves with i = 2, k = 3 over q = 2: the origin is an
    ordinary singular point of multiplicity q^i - q = 2."""
    rng = random.Random(80)
    ctx = gf.make_field(2, 1, 5)
    for _ in range(20):
        b = rng.randrange(1, ctx.order)
        f = lp.QPoly.from_encs(ctx, [0, 0, 1, b])
        curve = cv.build_scatter_curve(f, 0)
        m, cone = cv.multiplicity(curve, (0, 0))
        assert m == 2 ** 2 - 2 == 2
        assert cv.is_ordinary(cone)
    _done(8, "origin multiplicity and ordinariness")
def test_criterion_09_hasse_weil_audit():
    """The norm-image curves stay inside the gap bound and keep the
    guaranteed affine count."""
    result = suites.run_suite("hasse-weil")
    assert result.passed, result.failures
    assert result.checks == (8 - 1) + (16 - 1) + (27 - 1) + (81 - 1)
    _done(9, "Hasse-Weil gap audit")
def test_criterion_10_case_table_cross_check():
    """The exact inequality at ell = i + 1 matches the small-q case table
    for every prime power q <= 9 and 1 <= i < k <= 8."""
    result = suites.run_suite("remark32")
    assert result.passed, result.failures
    assert result.checks == 7 * 28
    _done(10, "inequality case-table cross-check")
def test_criterion_11_verdict_soundness():
    """Guaranteed-not-scattered verdicts are confirmed by brute force on 200
    random shape instances; both decision branches fire at least once."""
    result = suites.run_suite("theorem34-soundness")
    assert result.passed, result.failures
    assert result.checks == 200
    reasons = result.details["reason_counts"]
    assert reasons.get(sc.REASON_KERNEL, 0) >= 1
    assert reasons.get(sc.REASON_GCD, 0) >= 1
    _done(11, "not-scattered verdict soundness")
def test_criterion_12_mrd_bridge():
    """Scattered <=> minimum rank distance n - 1 on 200 random instances."""
    result = suites.run_suite("bridge")
    assert result.passed, result.failures
    assert len(result.instances) == 200
    _done(12, "scattered/MRD bridge")
def _suite_instances(*names):
    seen = set()
    for name in names:
        for rec in suites.run_suite(name).instances:
            if rec not in seen:
                seen.add(rec)
                yield rec
def test_criterion_13_curve_bridge():
    """The affine curve has a point with y/x outside F_q exactly when the
    pair is not scattered, for every instance of the first suites whose grid
    fits the audit budget."""
    audited = 0
    for rec in _suite_instances("monomial-law", "family-13", "corollary38"):
        f, t = rec
        ctx = f.ctx
        if ctx.order > GRID_AUDIT_MAX_ORDER:
            continue
        verdict = sc.scatter_test(f, t)
        hits = cv.count_affine(cv.build_scatter_curve(f, t), ctx, "ratio_not_in_Fq")
        assert verdict.scattered == (hits.count == 0), (rec, hits.count)
        if not verdict.scattered:
            wx, wy = verdict.witness
            hx, hy = hits.witness
            assert (hx.val, hy.val) == (wx.val, wy.val)
        audited += 1
    assert audited > 1000
    _done(13, f"curve bridge on {audited} instances")
def test_criterion_14_tester_self_consistency():
    """Fiber-count and kernel-dimension testers agree on every instance
    recorded by every suite."""
    checked = 0
    for rec in _suite_instances(
        "monomial-law", "family-13", "corollary38", "bridge", "theorem34-soundness"
    ):
        f, t = rec
        assert sc.scatter_test(f, t).scattered == sc.scatter_test_kernel(f, t), rec
        checked += 1
    assert checked > 1500
    _done(14, f"tester self-consistency on {checked} instances")
