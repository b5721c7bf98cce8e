"""Linearized polynomial algebra over F_{q^n}.

A QPoly is sum_j c_j X^(q^j) with coefficients in F_{q^n}, stored as their
encodings; it acts on the field as an F_q-linear map.  The module provides
evaluation, the structural normalization used across the scatteredness
machinery, the F_q matrix of the map, kernel dimension and composition modulo
X^(q^n) - X.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gf import ContextMismatch, FFElt, FieldCtx, FieldError

DEFAULT_DEGREE_CEILING = 1024


class NormalizationError(FieldError):
    pass


class QPoly:
    """sum_j c_j * X^(q^j) over the encodings `encs` of the c_j, trailing
    zeros trimmed; every coefficient passes through `FieldCtx.enc`."""

    __slots__ = ("ctx", "encs")

    def __init__(self, ctx: FieldCtx, coeffs):
        cs = [ctx.enc(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) - 1 > DEFAULT_DEGREE_CEILING:
            raise FieldError(f"q-degree {len(cs) - 1} exceeds the ceiling {DEFAULT_DEGREE_CEILING}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "encs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def from_encs(cls, ctx: FieldCtx, encs) -> "QPoly":
        return cls(ctx, encs)

    @classmethod
    def monomial(cls, ctx: FieldCtx, j: int, coeff=None) -> "QPoly":
        return cls(ctx, [0] * j + [1 if coeff is None else coeff])

    @property
    def coeffs(self) -> tuple:
        return tuple(FFElt(self.ctx, v) for v in self.encs)

    def is_zero(self) -> bool:
        return not self.encs

    def qdegree(self) -> int:
        """Index k of the top term X^(q^k); -1 for the zero map."""
        return len(self.encs) - 1

    def support(self):
        return tuple(j for j, c in enumerate(self.encs) if c)

    def coeff(self, j: int) -> FFElt:
        return FFElt(self.ctx, self.encs[j] if 0 <= j < len(self.encs) else 0)

    def scale(self, c) -> "QPoly":
        ctx = self.ctx
        c = ctx.enc(c)
        return QPoly(ctx, [ctx.mul_i(c, a) for a in self.encs])

    def add(self, other: "QPoly") -> "QPoly":
        if other.ctx != self.ctx:
            raise ContextMismatch("mixed contexts")
        pairs = itertools.zip_longest(self.encs, other.encs, fillvalue=0)
        return QPoly(self.ctx, [self.ctx.add_i(a, b) for a, b in pairs])

    def sub(self, other: "QPoly") -> "QPoly":
        if other.ctx != self.ctx:
            raise ContextMismatch("mixed contexts")
        pairs = itertools.zip_longest(self.encs, other.encs, fillvalue=0)
        return QPoly(self.ctx, [self.ctx.sub_i(a, b) for a, b in pairs])

    def reduce_indices(self) -> "QPoly":
        """Fold X^(q^j) onto X^(q^(j mod n)); unchanged as a map on F_{q^n}."""
        ctx, n = self.ctx, self.ctx.d
        out = [0] * n
        for j, c in enumerate(self.encs):
            out[j % n] = ctx.add_i(out[j % n], c)
        return QPoly(ctx, out)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.ctx == other.ctx and self.encs == other.encs

    def __hash__(self):
        return hash((self.ctx.key, self.encs))

    def __repr__(self):
        if self.is_zero():
            return "QPoly(0)"
        parts = [f"{c!r}*X^q^{j}" for j, c in enumerate(self.coeffs) if not c.is_zero()]
        return "QPoly(" + " + ".join(parts) + ")"


def evaluate(f: QPoly, x: FFElt) -> FFElt:
    """f(x) = sum_j c_j x^(q^j)."""
    ctx = f.ctx
    x = ctx.enc(x)
    acc = 0
    for j, c in enumerate(f.encs):
        if c:
            acc = ctx.add_i(acc, ctx.mul_i(c, ctx.frob_i(x, j)))
    return FFElt(ctx, acc)


def evaluate_vec(f: QPoly, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an array of encodings."""
    return f.ctx.power_sum([(f.ctx.q ** j, c) for j, c in enumerate(f.encs) if c], xs)


class NormalizedInstance:
    """A pair (f, t) in reduced form: coefficient at index t is zero, the
    constant-index coefficient is nonzero whenever t > 0, and the top
    coefficient is 1 (monic)."""

    __slots__ = ("f", "t")

    def __init__(self, f: QPoly, t: int):
        if f.is_zero():
            raise NormalizationError("zero polynomial")
        if t < 0:
            raise NormalizationError("index must be nonnegative")
        if not f.coeff(t).is_zero():
            raise NormalizationError(f"coefficient at index {t} must be zero")
        if t > 0 and not f.encs[0]:
            raise NormalizationError("constant-index coefficient must be nonzero when t > 0")
        if f.encs[-1] != 1:
            raise NormalizationError("instance must be monic")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "t", t)

    def __setattr__(self, *a):
        raise AttributeError("NormalizedInstance is immutable")

    def __repr__(self):
        return f"NormalizedInstance(t={self.t}, f={self.f!r})"


def normalize(f: QPoly, t: int) -> tuple[NormalizedInstance, int]:
    """Reduce (f, t) to normalized form; returns the instance and the index
    shift t0 that was applied.

    When t > 0 and the constant coefficient vanishes, indices are shifted down
    by t0 = min support and coefficients are twisted by the matching Frobenius
    power (a projective change of coordinates, so scatteredness is preserved).
    The coefficient at the new index t must already vanish; dropping terms
    silently is refused.  Finally f is rescaled to be monic.
    """
    if f.is_zero():
        raise NormalizationError("zero polynomial")
    ctx = f.ctx
    n = ctx.d
    t0 = 0
    encs = f.encs
    if t > 0 and not encs[0]:
        t0 = f.support()[0]
        if t0 > t:
            raise NormalizationError(f"least support index {t0} exceeds the index t={t}")
        encs = [ctx.frob_i(c, (n - t0) % n) for c in encs[t0:]]
        t = t - t0
    g = QPoly(ctx, encs)
    if not g.coeff(t).is_zero():
        raise NormalizationError(f"coefficient at index {t} is nonzero after reduction")
    if g.encs[-1] != 1:
        g = g.scale(ctx.inv_i(g.encs[-1]))
    return NormalizedInstance(g, t), t0


def as_matrix(f: QPoly):
    """Matrix of the map x -> f(x) over F_q in the power basis 1, g, ..., g^(n-1).

    Returns a list of rows of FFElt whose values lie in the designated
    subfield; column i holds the coordinates of f(g^i).
    """
    ctx = f.ctx
    n = ctx.d
    cols = []
    for i in range(n):
        b = FFElt(ctx, ctx.pow_i(ctx.gen_enc, i)) if ctx.N > 1 else ctx.one
        cols.append(ctx.subfield_coords(evaluate(f, b).val))
    return [[FFElt(ctx, cols[i][r]) for i in range(n)] for r in range(n)]


def matrix_rank(ctx: FieldCtx, rows) -> int:
    """Rank of a matrix of FFElt entries by Gauss-Jordan elimination, which
    leaves the list `rows` in reduced row echelon form: the pivot rows first,
    each with a 1 in its pivot column and 0 there on every other row."""
    m = [[e.val for e in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        ic = ctx.inv_i(m[rank][col])
        m[rank] = [ctx.mul_i(x, ic) for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                fct = m[r][col]
                m[r] = [ctx.sub_i(x, ctx.mul_i(fct, y)) for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    rows[:] = [[FFElt(ctx, v) for v in row] for row in m]
    return rank


def kernel_dim(f: QPoly) -> int:
    """dim over F_q of the kernel of x -> f(x) on F_{q^n}."""
    if f.is_zero():
        return f.ctx.d
    return f.ctx.d - matrix_rank(f.ctx, as_matrix(f))


def compose_mod(f: QPoly, g: QPoly) -> QPoly:
    """f(g(X)) reduced modulo X^(q^n) - X."""
    if f.ctx != g.ctx:
        raise ContextMismatch("mixed contexts")
    ctx = f.ctx
    n = ctx.d
    out = [0] * n
    for i, ci in enumerate(f.encs):
        if not ci:
            continue
        for j, dj in enumerate(g.encs):
            if dj:
                k = (i + j) % n
                out[k] = ctx.add_i(out[k], ctx.mul_i(ci, ctx.frob_i(dj, i)))
    return QPoly(ctx, out)
