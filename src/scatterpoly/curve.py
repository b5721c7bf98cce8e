"""Bivariate polynomial machinery for the plane curves attached to (f, t).

The central object is the quotient curve (f(X)Y^(q^t) - f(Y)X^(q^t)) divided
exactly by X^q Y - X Y^q.  On top of sparse bivariate arithmetic the module
provides points at infinity, exhaustive affine point counts with the
y/x-outside-F_q predicate, multiplicities and tangent cones, the local
quadratic transform F(X, XY)/X^r, truncated branch series, Sylvester
resultants in Y, and Hasse-Weil gap audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gf
from . import scattered as sc
from .gf import FFElt, FieldCtx, FieldError, check_ceiling
from .linpoly import QPoly


class InexactDivision(FieldError):
    pass


def _binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient mod p by Lucas reduction."""
    r = 1
    while n or k:
        a, b = n % p, k % p
        if b > a:
            return 0
        r = (r * math.comb(a, b)) % p
        n //= p
        k //= p
    return r


# ---------------------------------------------------------------------------

class UnivarPoly:
    """Dense univariate polynomial over a field context, low degree first."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        cs = [ctx.enc(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UnivarPoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def add(self, other: "UnivarPoly") -> "UnivarPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivarPoly(self.ctx, [self.ctx.add_i(self.coeff(k), other.coeff(k)) for k in range(n)])

    def sub(self, other: "UnivarPoly") -> "UnivarPoly":
        return self.add(other.neg())

    def neg(self) -> "UnivarPoly":
        return UnivarPoly(self.ctx, [self.ctx.neg_i(c) for c in self.coeffs])

    def mul(self, other: "UnivarPoly") -> "UnivarPoly":
        if self.is_zero() or other.is_zero():
            return UnivarPoly(self.ctx, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        ctx = self.ctx
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = ctx.add_i(out[i + j], ctx.mul_i(a, b))
        return UnivarPoly(ctx, out)

    def scale(self, c) -> "UnivarPoly":
        c = self.ctx.enc(c)
        return UnivarPoly(self.ctx, [self.ctx.mul_i(a, c) for a in self.coeffs])

    def divmod(self, other: "UnivarPoly") -> tuple["UnivarPoly", "UnivarPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ctx = self.ctx
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UnivarPoly(ctx, []), self
        quot = [0] * (dq + 1)
        inv_lead = ctx.inv_i(other.coeffs[-1])
        for k in range(dq, -1, -1):
            top = rem[k + other.degree()]
            if top == 0:
                continue
            c = ctx.mul_i(top, inv_lead)
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = ctx.sub_i(rem[k + j], ctx.mul_i(c, b))
        return UnivarPoly(ctx, quot), UnivarPoly(ctx, rem)

    def exact_div(self, other: "UnivarPoly") -> "UnivarPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InexactDivision("inexact univariate division")
        return q

    def gcd(self, other: "UnivarPoly") -> "UnivarPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.scale(self.ctx.inv_i(a.coeffs[-1]))

    def derivative(self) -> "UnivarPoly":
        ctx = self.ctx
        return UnivarPoly(ctx, [ctx.mul_i(c, k % ctx.p) for k, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> int:
        ctx = self.ctx
        x = ctx.enc(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add_i(ctx.mul_i(acc, x), c)
        return acc

    def roots(self) -> list[int]:
        """All roots in the coefficient field, ascending encodings."""
        ctx = self.ctx
        if self.is_zero():
            return list(range(ctx.order))
        vals = ctx.power_sum([(k, c) for k, c in enumerate(self.coeffs) if c], np.arange(ctx.order))
        return np.nonzero(vals == 0)[0].tolist()

    def __eq__(self, other):
        return (
            isinstance(other, UnivarPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.key, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "UnivarPoly(0)"
        return "UnivarPoly(" + " + ".join(
            f"{self.ctx.digits(c)}*X^{k}" for k, c in enumerate(self.coeffs) if c
        ) + ")"


# ---------------------------------------------------------------------------

class BivarPoly:
    """Sparse bivariate polynomial sum c_(i,j) X^i Y^j over a field context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms=None):
        tm = {}
        for (i, j), c in (terms or {}).items():
            v = ctx.enc(c)
            if v:
                if i < 0 or j < 0:
                    raise FieldError("negative exponent")
                tm[(int(i), int(j))] = v
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", tm)

    def __setattr__(self, *a):
        raise AttributeError("BivarPoly is immutable")

    @classmethod
    def constant(cls, ctx: FieldCtx, c) -> "BivarPoly":
        return cls(ctx, {(0, 0): c})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((i +j for i, j in self.terms), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def deg_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {i + j for i, j in self.terms}
        return len(degs) <= 1

    def coeff(self, i: int, j: int) -> FFElt:
        return FFElt(self.ctx, self.terms.get((i, j), 0))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def mul(self, other: "BivarPoly") -> "BivarPoly":
        ctx = self.ctx
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = ctx.add_i(out.get(k, 0), ctx.mul_i(c1, c2))
        return BivarPoly(ctx, out)

    def evaluate(self, x, y) -> FFElt:
        ctx = self.ctx
        x, y = ctx.enc(x), ctx.enc(y)
        acc = 0
        for (i, j), c in self.terms.items():
            acc = ctx.add_i(acc, ctx.mul_i(c, ctx.mul_i(ctx.pow_i(x, i), ctx.pow_i(y, j))))
        return FFElt(ctx, acc)

    def shift(self, u, v) -> "BivarPoly":
        """F(X+u, Y+v), exact binomial expansion."""
        ctx = self.ctx
        cur = self.terms
        for axis, s in enumerate((ctx.enc(u), ctx.enc(v))):
            if not s:
                continue
            out: dict = {}
            for (i, j), c in cur.items():
                n = (i, j)[axis]
                for a in range(n + 1):
                    bc = _binom_mod(n, a, ctx.p)
                    if bc:
                        k = (a, j) if axis == 0 else (i, a)
                        out[k] = ctx.add_i(out.get(k, 0), ctx.mul_i(c, ctx.mul_i(bc, ctx.pow_i(s, n - a))))
            cur = out
        return BivarPoly(ctx, cur)

    def embed_into(self, ext: FieldCtx) -> "BivarPoly":
        if ext is self.ctx or ext == self.ctx:
            return self
        phi = gf.embed(self.ctx, ext)
        return BivarPoly(ext, {k: phi.map_enc(c) for k, c in self.terms.items()})

    def coeffs_in_y(self) -> dict:
        """Map j -> UnivarPoly in X (the coefficient of Y^j)."""
        ctx = self.ctx
        by_j: dict = {}
        for (i, j), c in self.terms.items():
            by_j.setdefault(j, {})[i] = c
        out = {}
        for j, d in by_j.items():
            out[j] = UnivarPoly(ctx, [d.get(i, 0) for i in range(max(d) + 1)])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, BivarPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx.key, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if self.is_zero():
            return "BivarPoly(0)"
        parts = [f"{self.ctx.digits(c)}*X^{i}*Y^{j}" for (i, j), c in self.sorted_terms()]
        return "BivarPoly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------

def exact_divide(a: BivarPoly, b: BivarPoly) -> BivarPoly:
    """Quotient a / b under the lexicographic order with Y above X; raises
    InexactDivision when any reduction step has no divisible leading term."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ctx = a.ctx
    (bi, bj) = max(b.terms, key=lambda ij: (ij[1], ij[0]))
    bc_inv = ctx.inv_i(b.terms[(bi, bj)])
    rem = dict(a.terms)
    quot: dict = {}
    while rem:
        (ai, aj) = max(rem, key=lambda ij: (ij[1], ij[0]))
        if ai < bi or aj < bj:
            raise InexactDivision("leading term not divisible")
        qi, qj = ai - bi, aj - bj
        qc = ctx.mul_i(rem[(ai, aj)], bc_inv)
        quot[(qi, qj)] = qc
        for (ci, cj), cc in b.terms.items():
            k = (qi + ci, qj + cj)
            v = ctx.sub_i(rem.get(k, 0), ctx.mul_i(qc, cc))
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return BivarPoly(ctx, quot)


def scatter_curve_numerator(f: QPoly, t: int) -> BivarPoly:
    """f(X) Y^(q^t) - f(Y) X^(q^t) with q-power indices folded below n."""
    ctx = f.ctx
    fr = f.reduce_indices()
    if not fr.coeff(t % ctx.d).is_zero():
        raise FieldError(f"coefficient at index {t} must be zero")
    q = ctx.q
    qt = q ** (t % ctx.d)
    out: dict = {}
    for j, c in enumerate(fr.encs):
        if not c or j == t % ctx.d:
            continue
        qj = q ** j
        out[(qj, qt)] = c
        out[(qt, qj)] = ctx.neg_i(c)
    return BivarPoly(ctx, out)


def build_scatter_curve(f: QPoly, t: int) -> BivarPoly:
    """The quotient curve of (f, t): the numerator divided exactly by
    X^q Y - X Y^q, of degree q^k + q^t - q - 1 for top index k.

    The quotient is written down, not divided out.  With lo, hi the sorted
    q^j, q^t of an index j != t of the folded support and L = (hi - lo)/(q - 1),
    the pair of numerator terms of j is c_j (X^hi Y^lo - X^lo Y^hi), c_j
    negated when j < t, and X^hi Y^lo - X^lo Y^hi = (XY)^lo (A^L - B^L) with
    A = X^(q-1), B = Y^(q-1), while the divisor is XY (A - B).  So j gives
    c_j (XY)^(lo-1) sum_(i<L) A^i B^(L-1-i), all of degree q^j + q^t - q - 1:
    no two indices meet."""
    ctx = f.ctx
    if f.is_zero():
        raise FieldError("f must be nonzero")
    fr = f.reduce_indices()
    tt = t % ctx.d
    if not fr.coeff(tt).is_zero():
        raise FieldError(f"coefficient at index {t} must be zero")
    q = ctx.q
    out: dict = {}
    for j, c in enumerate(fr.encs):
        if c and j != tt:
            lo, hi = sorted((q ** j, q ** tt))
            L, c = (hi - lo) // (q - 1), ctx.neg_i(c) if j < tt else c
            out.update({(lo - 1 + (q - 1) * i, lo - 1 + (q - 1) * (L - 1 - i)): c for i in range(L)})
    if not out:
        # every term shares index t; the instance normalization forbids this
        raise FieldError("numerator vanished: f is supported only at index t")
    quot = BivarPoly(ctx, out)
    if quot.degree() != q ** fr.qdegree() + q ** tt - q - 1:
        raise FieldError("internal error: unexpected curve degree")
    return quot


def infinity_chart(f_poly: BivarPoly) -> BivarPoly:
    """Affine chart of the homogenized curve at the point (1, 0, 0): the old
    homogenizing variable becomes X and the second coordinate stays Y."""
    d = f_poly.degree()
    out: dict = {}
    for (i, j), c in f_poly.terms.items():
        out[(d - i - j, j)] = c
    return BivarPoly(f_poly.ctx, out)


def _forms_by_degree(f_poly: BivarPoly) -> dict[int, dict[int, int]]:
    """The homogeneous parts of F as k -> {j: c_(k-j, j)}, so that
    F(x, u x) = sum_k x^k G_k(u) with G_k(u) = sum_j c_(k-j, j) u^j."""
    forms: dict = {}
    for (i, j), c in f_poly.terms.items():
        forms.setdefault(i + j, {})[j] = c
    return forms


@dataclass(frozen=True)
class ProjPointSet:
    points: tuple

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return tuple(p) in self.points


def points_at_infinity(f_poly: BivarPoly, ext: FieldCtx | None = None, ceiling=None) -> ProjPointSet:
    """Projective points of the curve on the line at infinity, over `ext`
    (default: the field of definition).  Points are returned deduplicated,
    first nonzero coordinate scaled to 1, sorted in canonical order."""
    if f_poly.is_zero():
        raise FieldError("zero polynomial has no well-defined curve")
    ext = ext or f_poly.ctx
    check_ceiling(ext.order, ceiling)
    fe = f_poly.embed_into(ext)
    d = fe.degree()
    pts = []
    if d >= 1:
        top = _forms_by_degree(fe)[d]
        u = UnivarPoly(ext, [top.get(k, 0) for k in range(d + 1)])
        if u.coeff(d) == 0:
            pts.append((ext.zero, ext.one, ext.zero))
        for r in u.roots():
            pts.append((ext.one, FFElt(ext, r), ext.zero))
    pts.sort(key=lambda p: (p[0].val, p[1].val, p[2].val))
    return ProjPointSet(tuple(pts))


class AffineCount(NamedTuple):
    count: int
    witness: tuple[FFElt, FFElt] | None


def count_affine(
    f_poly: BivarPoly,
    ext: FieldCtx | None = None,
    predicate: str = "all",
    ceiling=None,
) -> AffineCount:
    """Exhaustive count of affine zeros over `ext`, with the first witness in
    grid order (x ascending, then y).  predicate "ratio_not_in_Fq" keeps only
    zeros with x nonzero and y/x outside the designated subfield F_q.

    On each line y = u*x the count is a rank when the curve's forms make the
    line's polynomial F_p-linear in x (see _count_affine_chart), as they do
    for every quotient curve; otherwise the chart is swept cell by cell, and
    the ceiling is checked against its (order - 1) * columns cells too."""
    if predicate not in ("all", "ratio_not_in_Fq"):
        raise FieldError(f"unknown predicate {predicate!r}")
    ext = ext or f_poly.ctx
    check_ceiling(ext.order, ceiling)
    fe = f_poly.embed_into(ext)
    if fe.degree() == 0:
        return AffineCount(0, None)
    return _count_affine_chart(fe, predicate, ceiling)


_GRID_BLOCK_CELLS = 1 << 20


def _linear_exponents(degs: list[int], p: int) -> list[int] | None:
    """The exponents k - degs[0] + s, one per degree k, for the shift s = p^a
    that makes every one a power of p, or None if there is no such s.  With
    span = degs[-1] - degs[0] > 0, span + s = p^b > s forces
    s*(p^(b-a) - 1) = span, so a is the p-adic valuation of span: the only
    candidate.  For a quotient curve the degrees are q^j + q^t - q - 1 over
    the support j of f, and the exponents are the q^j."""
    span = degs[-1] - degs[0]
    s = 1
    while span % (s * p) == 0:
        s *= p
    exps = [k - degs[0] + s for k in degs]
    for e in exps:
        while e % p == 0:
            e //= p
        if e != 1:
            return None
    return exps


def _chart_blocks(ext: FieldCtx, degs, gs, us, size: int, cap: int):
    """(xs, mask) over the nonzero x ascending, in blocks of `size` rows that
    double up to `cap`: mask[r, c] is F(x_r, us[c] x_r) = 0, from
    F(x, u x) / x^kmin = sum_k x^(k - kmin) G_k(u) with the rows gs = G_k(us)
    as power-sum coefficients."""
    start = 1
    while start < ext.order:
        xs = np.arange(start, min(start + size, ext.order), dtype=np.int64)[:, None]
        yield xs, ext.power_sum([(k - degs[0], g) for k, g in zip(degs, gs)], xs) == 0
        start, size = start + size, min(2 * size, cap)


def _first_point(ext: FieldCtx, xs, mask, us) -> tuple[FFElt, FFElt]:
    """The first point of a block in grid order: the least x with a zero,
    then the least y = u x over its zeros."""
    r = int(np.argmax(mask.any(axis=1)))
    x = int(xs[r, 0])
    return FFElt(ext, x), FFElt(ext, int(ext.power_sum([(1, x)], us[mask[r]]).min()))


def _count_affine_chart(fe: BivarPoly, predicate: str, ceiling) -> AffineCount:
    """Count over the chart (x, u = y/x): the row x = 0 is F(0, y) itself,
    and for x nonzero F(x, u x) = sum_k x^k G_k(u) over the forms of degree
    k.  Under the ratio predicate the columns with u in F_q are dropped.

    Rank route.  If some s = p^a makes every k - kmin + s a power of p
    (_linear_exponents), then L_u(x) = x^(s - kmin) F(x, u x) =
    sum_k G_k(u) x^(k - kmin + s) is a linearized polynomial, F_p-linear in
    x, and its roots in `ext` form an F_p-subspace (Lidl-Niederreiter,
    Finite Fields, 3.4).  So column u holds p^(N - rank L_u) - 1 points
    with x nonzero: the columns are ranked in _CHUNK batches from the
    encodings of L_u on the power basis p^i, and the first point is found
    by evaluating the columns with a point in blocks of x that double from
    _WALK_BLOCK rows, up to the first block that holds one.

    Grid route, for the charts with no such s and those of at most
    _WALK_BLOCK rows: every cell is evaluated, in blocks of about
    _GRID_BLOCK_CELLS cells."""
    ext = fe.ctx
    order = ext.order
    us = np.arange(order, dtype=np.int64)
    count = 0
    witness = None
    if predicate == "all":
        row = ext.power_sum([(j, c) for (i, j), c in fe.terms.items() if i == 0], us) == 0
        count = int(row.sum())
        if count:
            witness = (ext.zero, FFElt(ext, int(np.argmax(row))))
    else:
        us = us[ext.frob_vec(us, 1) != us]
    forms = _forms_by_degree(fe) or {0: {}}  # the zero polynomial is one zero form
    degs = sorted(forms)
    gs = [ext.power_sum(forms[k].items(), us) for k in degs]
    if len(degs) == 1:
        hits = us[gs[0] == 0]
        count += (order - 1) * len(hits)
        if witness is None and len(hits):
            witness = (ext.one, FFElt(ext, int(hits.min())))
        return AffineCount(count, witness)
    exps = _linear_exponents(degs, ext.p) if order - 1 > sc._WALK_BLOCK else None
    if exps is None:
        check_ceiling((order - 1) * len(us), ceiling)
        chunk = max(1, _GRID_BLOCK_CELLS // max(1, len(us)))
        for xs, mask in _chart_blocks(ext, degs, gs, us, chunk, chunk):
            c = int(mask.sum())
            if c and witness is None:
                witness = _first_point(ext, xs, mask, us)
            count += c
        return AffineCount(count, witness)
    basis = (ext.p ** np.arange(ext.N, dtype=np.int64))[:, None]
    dims = np.empty(len(us), dtype=np.int64)
    for lo in range(0, len(us), sc._CHUNK):
        enc = ext.power_sum([(e, g[lo : lo + sc._CHUNK]) for e, g in zip(exps, gs)], basis)
        dims[lo : lo + sc._CHUNK] = ext.N - sc._rank_columns(ext, enc)
    count += int((ext.p ** dims - 1).sum())
    live = dims > 0
    if witness is None and live.any():
        us, gs = us[live], [g[live] for g in gs]
        chunk = max(1, _GRID_BLOCK_CELLS // len(us))
        for xs, mask in _chart_blocks(ext, degs, gs, us, min(sc._WALK_BLOCK, chunk), chunk):
            if mask.any():
                witness = _first_point(ext, xs, mask, us)
                break
    return AffineCount(count, witness)


# ---------------------------------------------------------------------------

def multiplicity(f_poly: BivarPoly, point) -> tuple[int, BivarPoly]:
    """Multiplicity of the curve at an affine point and the tangent cone (the
    least-degree homogeneous part of the shifted polynomial).  Zero exactly
    when the point is off the curve."""
    if f_poly.is_zero():
        raise FieldError("zero polynomial has no well-defined curve")
    u, v = point
    g = f_poly.shift(u, v)
    m = min(i + j for i, j in g.terms) if g.terms else 0
    cone = BivarPoly(g.ctx, {k: c for k, c in g.terms.items() if k[0] + k[1] == m})
    return m, cone


def is_ordinary(cone: BivarPoly) -> bool:
    """True when the homogeneous form is squarefree over the algebraic
    closure, i.e. all tangent directions are distinct."""
    if cone.is_zero():
        raise FieldError("zero tangent cone")
    if not cone.is_homogeneous():
        raise FieldError("tangent cone must be homogeneous")
    ctx = cone.ctx
    if cone.degree() == 0:
        raise FieldError("a point of multiplicity 0 has no tangent cone")
    alpha = min(i for i, _ in cone.terms)
    beta = min(j for _, j in cone.terms)
    if alpha >= 2 or beta >= 2:
        return False
    core = {(i - alpha, j - beta): c for (i, j), c in cone.terms.items()}
    deg = max(i for i, _ in core) if core else 0
    c_poly = UnivarPoly(ctx, [dict(((i, c) for (i, j), c in core.items())).get(k, 0) for k in range(deg + 1)])
    if c_poly.degree() <= 0:
        return True
    d_poly = c_poly.derivative()
    if d_poly.is_zero():
        return False  # p-th power: every root repeats
    return c_poly.gcd(d_poly).degree() == 0


def geometric_transform(f_poly: BivarPoly) -> BivarPoly:
    """F(X, XY) / X^r with r the multiplicity at the origin.  Requires the
    origin on the curve and the line X = 0 not tangent there."""
    m, cone = multiplicity(f_poly, (0, 0))
    if m < 1:
        raise FieldError("the origin is not on the curve")
    if all(i > 0 for i, _ in cone.terms):
        raise FieldError("the line X = 0 is tangent at the origin")
    out = {}
    for (i, j), c in f_poly.terms.items():
        out[(i + j - m, j)] = c
    return BivarPoly(f_poly.ctx, out)


def branch_series(f_poly: BivarPoly, terms: int) -> list[FFElt]:
    """Coefficients c_1..c_terms of the unique series y(X) with
    F(X, y(X)) = 0 mod X^(terms+1); needs F(0,0) = 0 and dF/dY nonzero at the
    origin.  Each coefficient is solved by dividing by that unit only."""
    ctx = f_poly.ctx
    if f_poly.terms.get((0, 0), 0):
        raise FieldError("the origin is not on the curve")
    unit = f_poly.terms.get((0, 1), 0)
    if not unit:
        raise FieldError("dF/dY vanishes at the origin")
    inv_unit = ctx.inv_i(unit)
    # pows[j][m] = coefficient of X^m in y^j, each power carried from one k to
    # the next; c_k is still 0 while its equation is formed, and [X^k] y^j for
    # j >= 2 only reads c_1..c_(k-1)
    pows = [[1]] + [[0] for _ in range(f_poly.deg_y())]
    y = pows[1]
    for k in range(1, terms + 1):
        for j in range(2, len(pows)):
            acc = 0
            for a, ca in enumerate(pows[j - 1][j - 1 : k], j - 1):
                if ca and y[k - a]:
                    acc = ctx.add_i(acc, ctx.mul_i(ca, y[k - a]))
            pows[j].append(acc)
        pows[0].append(0)
        y.append(0)
        val = 0
        for (i, j), c in f_poly.terms.items():
            if i <= k and pows[j][k - i]:
                val = ctx.add_i(val, ctx.mul_i(c, pows[j][k - i]))
        y[k] = ctx.mul_i(ctx.neg_i(val), inv_unit)
    return [FFElt(ctx, c) for c in y[1:]]


def resultant_in_y(a: BivarPoly, b: BivarPoly) -> UnivarPoly:
    """Sylvester resultant eliminating Y, as a polynomial in X.  Vanishes
    identically exactly when the inputs share a common component."""
    if a.is_zero() or b.is_zero():
        raise FieldError("resultant requires nonzero inputs")
    da, db = a.deg_y(), b.deg_y()
    if da < 1 or db < 1:
        raise FieldError("resultant requires positive Y-degree")
    ctx = a.ctx
    ac = a.coeffs_in_y()
    bc = b.coeffs_in_y()
    zero = UnivarPoly(ctx, [])
    n = da + db
    m = [[zero] * n for _ in range(n)]
    for r in range(db):
        for k in range(da + 1):
            m[r][r + k] = ac.get(da - k, zero)
    for r in range(da):
        for k in range(db + 1):
            m[db + r][r + k] = bc.get(db - k, zero)
    return _poly_det_bareiss(ctx, m)


def _poly_det_bareiss(ctx: FieldCtx, m) -> UnivarPoly:
    """Fraction-free determinant of a matrix of univariate polynomials."""
    n = len(m)
    m = [row[:] for row in m]
    one = UnivarPoly(ctx, [1])
    prev = one
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if piv is None:
                return UnivarPoly(ctx, [])
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j].mul(m[k][k]).sub(m[i][k].mul(m[k][j]))
                m[i][j] = num.exact_div(prev)
            m[i][k] = UnivarPoly(ctx, [])
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = det.neg()
    return det


def hasse_weil_gap(f_poly: BivarPoly, ext: FieldCtx | None = None, ceiling=None):
    """Projective point count over `ext`, the gap |count - |ext| - 1|, the
    bound (d-1)(d-2)sqrt(|ext|), then the affine and infinity counts that sum
    to the first.  The caller decides whether the bound applies; it only does
    for absolutely irreducible curves."""
    ext = ext or f_poly.ctx
    affine = count_affine(f_poly, ext, "all", ceiling=ceiling).count
    infinity = len(points_at_infinity(f_poly, ext, ceiling=ceiling))
    total = affine + infinity
    gap = abs(total - ext.order - 1)
    d = f_poly.degree()
    bound = (d - 1) * (d - 2) * math.sqrt(ext.order)
    return total, gap, bound, affine, infinity


def line_restriction(f: QPoly, t: int, u, curve: BivarPoly | None = None) -> UnivarPoly:
    """The scatter curve evaluated along Y = u X, as a univariate polynomial.
    A zero result would mean the line is a component, which the classification
    rules out; it is reported as an error."""
    f_poly = curve if curve is not None else build_scatter_curve(f, t)
    ctx = f_poly.ctx
    u = ctx.enc(u)
    out: dict[int, int] = {}
    for k, form in _forms_by_degree(f_poly).items():
        for j, c in form.items():
            out[k] = ctx.add_i(out.get(k, 0), ctx.mul_i(c, ctx.pow_i(u, j)))
    poly = UnivarPoly(ctx, [out.get(k, 0) for k in range(max(out, default=0) + 1)])
    if poly.is_zero():
        raise FieldError("the line Y = uX lies on the curve")
    return poly
