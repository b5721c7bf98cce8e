"""Finite field arithmetic for towers F_p < F_q < F_{q^d} with q = p^e.

An element of F_{p^N} (N = e*d) is stored as an integer in [0, p^N): digit i
in base p is the coefficient of g^i, where g is the root of the field
modulus.  The canonical element order is ascending encoding order, so 0 and 1
are always the first two elements and enumeration is reproducible.

The modulus is the lexicographically least monic irreducible polynomial of
degree N over F_p, coefficients compared from the constant term up.

Arithmetic runs on one log layout built once per field: discrete logs to a
least multiplicative generator, antilogs, and for odd p the Zech logarithms
Z(k) = log(1 + g^k), so u + v = u * (1 + v/u) is table lookups as well.  For
p = 2 addition is XOR, the native addition of the encoding.  numpy kernels
back the bulk operations used by exhaustive scans; the main one,
`FieldCtx.power_sum`, evaluates sum c * x^m over an array with every term
kept as a log (m * log x + log c) until one antilog gather at the end.
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_ENUM_CEILING = 1 << 22
# Largest field whose log tables are built: about 1.75 GiB of tables, and
# int32 sums of two logs stay below 2^31.
TABLE_CEILING = 1 << 26


class FieldError(ValueError):
    pass


class CeilingExceeded(FieldError):
    """An exhaustive operation would enumerate more elements than allowed."""


class ContextMismatch(FieldError):
    """Operands belong to different field contexts."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def check_ceiling(size: int, ceiling: int | None) -> None:
    limit = DEFAULT_ENUM_CEILING if ceiling is None else ceiling
    if size > limit:
        try:
            need = str(size)
        except ValueError:  # more digits than the interpreter writes
            need = f"at least 2^{size.bit_length() - 1}"
        raise CeilingExceeded(f"operation needs {need} elements, ceiling is {limit}")


# ---------------------------------------------------------------------------
# Dense polynomial helpers over F_p, coefficients ascending, used only for
# modulus selection and bootstrap arithmetic before the log tables exist.

def _pp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pp_trim(out)


def _pp_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _pp_trim(a)
    return a


def _pp_mulmod(a, b, m, p):
    return _pp_mod(_pp_mul(a, b, p), m, p)


def _pp_powmod(a, n, m, p):
    r = [1]
    a = _pp_mod(a, m, p)
    while n:
        if n & 1:
            r = _pp_mulmod(r, a, m, p)
        a = _pp_mulmod(a, a, m, p)
        n >>= 1
    return r


def _pp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pp_mod(a, b, p)
    return a


def is_irreducible(m, p) -> bool:
    """Rabin test: x^(p^N) = x mod m, and gcd(x^(p^r) - x, m) trivial for
    every proper divisor r of N."""
    m = list(m)
    n = len(m) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    t = x
    powers = {}
    for r in range(1, n + 1):
        t = _pp_powmod(t, p, m, p)
        powers[r] = t
    top = [(c1 - c2) % p for c1, c2 in itertools.zip_longest(powers[n], x, fillvalue=0)]
    if _pp_trim(top):
        return False
    for r in range(1, n):
        if n % r:
            continue
        diff = [(c1 - c2) % p for c1, c2 in itertools.zip_longest(powers[r], x, fillvalue=0)]
        g = _pp_gcd(m, _pp_trim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


def canonical_modulus(p: int, n: int) -> tuple:
    """Least monic irreducible of degree n over F_p in ascending encoding
    order (the tail coefficients read as a base-p integer, constant term
    least significant).  X^3+X+1 for F_8, X^4+X+1 for F_16."""
    for v in range(p ** n):
        cand = [(v // p ** i) % p for i in range(n)] + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise FieldError(f"no irreducible polynomial of degree {n} over F_{p}")


# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable context for F_{p^(e*d)} with designated subfield F_q, q = p^e.

    Shared freely between threads once constructed; every operation here is a
    pure function of its inputs.
    """

    def __init__(self, p: int, e: int, d: int, modulus=None):
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if e < 1 or d < 1:
            raise FieldError("extension degrees must be >= 1")
        self.p = p
        self.e = e
        self.d = d
        self.N = e * d
        self.q = p ** e
        self.order = p ** self.N
        if modulus is None:
            modulus = canonical_modulus(p, self.N)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != self.N + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree e*d")
            if not is_irreducible(list(modulus), p):
                raise FieldError("modulus is reducible")
        self.modulus = tuple(modulus)
        self._pp = [p ** i for i in range(self.N + 1)]
        # encoding of the modulus root g (for N = 1 the power basis is just {1})
        self.gen_enc = p % self.order if self.N > 1 else (-modulus[0]) % p
        self._exp = None
        self._log = None
        self._zech = None
        self._subfield_gen_enc = None
        self._subfield_elems = None
        self._coord_solver = None
        self._mulgen_enc = None

    # -- identity ----------------------------------------------------------

    @property
    def key(self):
        return (self.p, self.e, self.d, self.modulus)

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}^{self.d}"
        return f"F_({self.p}^{self.e})^{self.d}"

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldCtx) and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    # -- encoding helpers ----------------------------------------------------

    def digits(self, v: int):
        p = self.p
        return tuple((v // self._pp[i]) % p for i in range(self.N))

    def undigits(self, ds) -> int:
        return sum((c % self.p) * self._pp[i] for i, c in enumerate(ds))

    # -- bootstrap arithmetic (no tables) ------------------------------------

    def _mul_slow(self, u: int, v: int) -> int:
        r = _pp_mulmod(list(self.digits(u)), list(self.digits(v)), list(self.modulus), self.p)
        return self.undigits(r)

    def _pow_slow(self, u: int, m: int) -> int:
        r = 1
        while m:
            if m & 1:
                r = self._mul_slow(r, u)
            u = self._mul_slow(u, u)
            m >>= 1
        return r

    # -- log/antilog tables ---------------------------------------------------

    def _find_mult_generator(self) -> int:
        """Least element (canonical order) generating the multiplicative group."""
        qm1 = self.order - 1
        primes = []
        m = qm1
        f = 2
        while f * f <= m:
            if m % f == 0:
                primes.append(f)
                while m % f == 0:
                    m //= f
            f += 1
        if m > 1:
            primes.append(m)
        for cand in range(1, self.order):
            if all(self._pow_slow(cand, qm1 // ell) != 1 for ell in primes):
                return cand
        raise FieldError("no multiplicative generator found")

    def _ensure_tables(self):
        """Build the log layout: `_log` (int32, -1 at 0); `_exp`, the powers
        g^0 .. g^(q-2) twice over and a trailing 0, so a sum of two logs
        indexes it directly and index -1 reads 0; and for odd p `_zech`,
        Z(k) = log(1 + g^k) twice over, so a difference of two logs indexes it
        directly (negative differences wrap)."""
        if self._exp is not None:
            return
        if self.order > TABLE_CEILING:
            raise CeilingExceeded(f"log tables for {self.order} elements exceed the cap of {TABLE_CEILING}")
        q1 = self.order - 1
        gen = self._find_mult_generator()
        self._mulgen_enc = gen
        p, N = self.p, self.N
        block = min(1 << 9, q1)
        small = [1]
        for _ in range(block - 1):
            small.append(self._mul_slow(small[-1], gen))
        step_enc = self._mul_slow(small[-1], gen)  # gen^block
        # row c holds the digits of gen^block * g^c: multiplication by gen^block on digit rows
        mstep = self.digits_vec([self._mul_slow(step_enc, pp) for pp in self._pp[:N]])
        dig = self.digits_vec(small)
        place = np.array(self._pp[:N], dtype=np.int64)
        exp = np.empty(q1, dtype=np.int64)
        for pos in range(0, q1, block):
            take = min(block, q1 - pos)
            exp[pos : pos + take] = dig[:take] @ place
            dig = dig @ mstep % p
        counts = np.bincount(exp, minlength=self.order)
        if counts.max() != 1 or counts[0] != 0:
            raise FieldError("internal error: bad discrete log table")
        log = np.full(self.order, -1, dtype=np.int32)
        log[exp] = np.arange(q1, dtype=np.int32)
        if p > 2:
            # 1 + x only increments digit 0 of x
            low = exp % p
            self._zech = np.tile(log[exp - low + (low + 1) % p], 2)
        self._log = log
        self._exp = np.concatenate([exp, exp, np.zeros(1, dtype=np.int64)])

    @property
    def mult_generator_enc(self) -> int:
        self._ensure_tables()
        return self._mulgen_enc

    # -- scalar arithmetic on encodings --------------------------------------

    def add_i(self, u: int, v: int) -> int:
        if self.p == 2:
            return u ^ v
        if u == 0 or v == 0:
            return u or v
        self._ensure_tables()
        lu = int(self._log[u])
        z = int(self._zech[int(self._log[v]) - lu])
        return 0 if z < 0 else int(self._exp[lu + z])

    def neg_i(self, u: int) -> int:
        if self.p == 2 or u == 0:
            return u
        self._ensure_tables()
        return int(self._exp[int(self._log[u]) + (self.order - 1) // 2])  # -1 = g^((q-1)/2)

    def sub_i(self, u: int, v: int) -> int:
        return self.add_i(u, self.neg_i(v))

    def mul_i(self, u: int, v: int) -> int:
        if u == 0 or v == 0:
            return 0
        self._ensure_tables()
        return int(self._exp[int(self._log[u]) + int(self._log[v])])

    def inv_i(self, u: int) -> int:
        if u == 0:
            raise ZeroDivisionError("inversion of zero")
        self._ensure_tables()
        return int(self._exp[self.order - 1 - int(self._log[u])])

    def pow_i(self, u: int, m: int) -> int:
        if m < 0:
            raise FieldError("pow expects a nonnegative exponent")
        if u == 0:
            return 1 if m == 0 else 0
        if m == 0:
            return 1
        self._ensure_tables()
        return int(self._exp[(int(self._log[u]) * (m % (self.order - 1))) % (self.order - 1)])

    def frob_i(self, u: int, s: int) -> int:
        """u^(q^s)."""
        return self.pow_i(u, self.q ** s)

    def in_subfield_i(self, u: int) -> bool:
        return self.frob_i(u, 1) == u

    # -- vector arithmetic (numpy arrays of encodings) ------------------------

    def digits_vec(self, vs: np.ndarray) -> np.ndarray:
        """Base-p digits of encodings along a new last axis, digit 0 first."""
        rest = np.array(vs, dtype=np.int64)
        out = np.empty(rest.shape + (self.N,), dtype=np.int64)
        for i in range(self.N):
            np.divmod(rest, self.p, out=(rest, out[..., i]))
        return out

    def _add_logs(self, lu, lv):
        """log(g^lu + g^lv) for odd p, broadcasting, as a new int32 array.

        Logs in and out are at most 2(order - 2), the largest sum of two
        reduced logs, so every difference indexes the doubled `_zech`; -1
        stands for 0."""
        q1 = self.order - 1
        s = np.asarray(self._zech[np.subtract(lv, lu)])  # log(1 + g^(lv - lu))
        np.add(s, lu, out=s, where=s >= 0)  # s = -1 stays: v = -u
        np.subtract(s, q1, out=s, where=s > 2 * q1 - 2)
        np.copyto(s, lv, where=lu < 0)
        np.copyto(s, lu, where=lv < 0)
        return s

    def add_vec(self, u, v):
        if self.p == 2:
            return u ^ v
        self._ensure_tables()
        return self._exp[self._add_logs(self._log[u], self._log[v])]

    def sub_vec(self, u, v):
        if self.p == 2:
            return u ^ v
        self._ensure_tables()
        lv = self._log[v]
        return self._exp[self._add_logs(self._log[u], np.where(lv < 0, -1, lv + (self.order - 1) // 2))]

    def mul_vec(self, u, v):
        self._ensure_tables()
        lu, lv = self._log[u], self._log[v]
        return self._exp[np.where((lu < 0) | (lv < 0), -1, lu + lv)]

    def inv_vec(self, u):
        self._ensure_tables()
        if (u == 0).any():
            raise ZeroDivisionError("inversion of zero")
        return self._exp[self.order - 1 - self._log[u]]

    def pow_vec(self, u, m: int):
        return self.power_sum([(m, 1)], u)

    def frob_vec(self, u, s: int):
        # q^s unreduced: reduced mod order - 1 it is 0 over F_2, read as x^0
        return self.pow_vec(u, self.q ** s)

    def power_sum(self, terms, xs):
        """sum c * x^m over the (m, c) pairs of `terms`, as a new int64 array.

        m is an unreduced exponent: m = 0 is the constant term c (0^0 = 1),
        while any m > 0 gives 0 at x = 0, a multiple of order - 1 included.
        c is an encoding or an array of encodings broadcasting against xs.

        The sum runs on logs, -1 standing for 0.  log x is read once; a term's
        log is (m * log x mod (order - 1)) + log c, at most 2(order - 2), so
        it indexes the doubled tables as it is.  Terms are added as Zech logs
        for odd p and as XORed antilogs for p = 2; one antilog gather ends
        the sum."""
        self._ensure_tables()
        xs = np.asarray(xs, dtype=np.int64)
        q1 = self.order - 1
        lx = self._log[xs]
        x_zero = lx < 0 if lx.min(initial=0) < 0 else None
        acc = None
        for m, c in terms:
            lt = self._log[c]
            if lt.ndim == 0 and lt < 0:
                continue  # c = 0
            if m:
                lt = self._term_log(lx, m % q1, lt, x_zero)
            if self.p > 2:
                acc = lt if acc is None else self._add_logs(acc, lt)
                continue
            # the term's antilogs overwrite its int64 logs (-1 wraps to the
            # trailing 0), then XOR into whichever operand has the sum's shape
            lt = np.asarray(lt, dtype=np.int64)
            np.take(self._exp, lt, out=lt, mode="wrap")
            if acc is None:
                acc = lt
                continue
            shape = np.broadcast_shapes(acc.shape, lt.shape)
            if acc.shape != shape:
                acc, lt = lt, acc
            if acc.shape == shape:
                acc ^= lt
            else:
                acc = acc ^ lt
        if acc is None:
            return np.zeros(xs.shape, dtype=np.int64)
        out = self._exp[acc] if self.p > 2 else acc
        if out.shape != xs.shape:  # constant terms alone miss the shape of xs
            shape = np.broadcast_shapes(xs.shape, out.shape)
            out = out if out.shape == shape else np.broadcast_to(out, shape).copy()
        return out

    def _term_log(self, lx, mr, lc, x_zero):
        """log(c * x^m) from lx = log x, mr = m mod (order - 1) for m > 0 and
        lc = log c, as a new array (int32 for odd p, int64 for p = 2, whose
        logs become antilogs in place); -1 where x or c is 0."""
        q1 = self.order - 1
        # int64: the product can pass 2^31; asarray keeps a lone x writable in place
        power = np.asarray(np.multiply(lx, mr, dtype=np.int64))
        quot = power // q1  # floor division by a scalar is numpy's fast path, % is not
        quot *= q1
        power -= quot
        del quot  # freed before lt is allocated
        # a zero factor becomes a log of -2(order - 1): any sum with it stays negative
        zero = -2 * q1
        if x_zero is not None:
            np.copyto(power, zero, where=x_zero)
        c_zero = lc.ndim > 0 and lc.min(initial=0) < 0
        if c_zero:
            lc = np.where(lc < 0, zero, lc)
        lt = np.asarray(np.add(power, lc, dtype=np.int32 if self.p > 2 else np.int64))
        if x_zero is not None or c_zero:
            np.maximum(lt, -1, out=lt)
        return lt

    # -- elements -------------------------------------------------------------

    def elem(self, v) -> "FFElt":
        if isinstance(v, FFElt):
            if v.ctx is not self:
                raise ContextMismatch("element from a different field")
            return v
        return FFElt(self, int(v) % self.order)

    def from_coeffs(self, coeffs) -> "FFElt":
        cs = list(coeffs)
        if len(cs) > self.N:
            raise FieldError("coefficient vector longer than the field degree")
        cs += [0] * (self.N - len(cs))
        return FFElt(self, self.undigits(cs))

    @property
    def zero(self) -> "FFElt":
        return FFElt(self, 0)

    @property
    def one(self) -> "FFElt":
        return FFElt(self, 1 % self.order)

    @property
    def gen(self) -> "FFElt":
        return FFElt(self, self.gen_enc)

    # -- designated subfield ----------------------------------------------------

    @property
    def subfield_gen(self) -> "FFElt":
        """Image of the canonical generator of F_q in this field.

        For e = 1 this is 1 (the prime field needs no generator); for e > 1 it
        is the least root here of the canonical degree-e modulus over F_p.
        """
        if self._subfield_gen_enc is None:
            if self.e == 1:
                self._subfield_gen_enc = 1 % self.order
            else:
                small = canonical_modulus(self.p, self.e)
                self._subfield_gen_enc = self._least_root_of(small)
        return FFElt(self, self._subfield_gen_enc)

    def _least_root_of(self, poly) -> int:
        """Least root (canonical order) of an F_p polynomial whose splitting
        degree divides N; searched inside the subfield it cuts out."""
        deg = len(poly) - 1
        if self.N % deg:
            raise FieldError("no root: degree does not divide the field degree")
        cands = np.array(self.subfield_of_size_elems(self.p ** deg), dtype=np.int64)
        vals = self.power_sum([(k, co % self.p) for k, co in enumerate(poly) if co % self.p], cands)
        roots = cands[vals == 0]
        if not len(roots):
            raise FieldError("no root found")
        return int(roots.min())

    def subfield_of_size_elems(self, size: int):
        """All encodings of the subfield with `size` elements, ascending."""
        if size < 2 or (self.order - 1) % (size - 1):
            raise FieldError(f"no subfield of size {size}")
        self._ensure_tables()
        if size == self.order:
            return list(range(self.order))
        step = (self.order - 1) // (size - 1)
        out = [0] + [int(self._exp[k * step]) for k in range(size - 1)]
        out.sort()
        return out

    def subfield_elems(self):
        """Encodings of the designated subfield F_q, ascending."""
        if self._subfield_elems is None:
            self._subfield_elems = self.subfield_of_size_elems(self.q)
        return self._subfield_elems

    def subfield_coords(self, v: int):
        """Coordinates of v over F_q in the power basis 1, g, ..., g^(n-1).

        Returns a tuple of n encodings, each lying in F_q.
        """
        if self.e == 1:
            return self.digits(v)
        if self._coord_solver is None:
            self._coord_solver = self._build_coord_solver()
        inv = self._coord_solver
        dg = self.digits(v)
        p, e, n = self.p, self.e, self.d
        s = self.subfield_gen.val
        spow = [self.pow_i(s, i) for i in range(e)]
        out = []
        for j in range(n):
            acc = 0
            for i in range(e):
                a = sum(inv[j * e + i][k] * dg[k] for k in range(self.N)) % p
                if a:
                    acc = self.add_i(acc, self.mul_i(a, spow[i]))
            out.append(acc)
        return tuple(out)

    def _build_coord_solver(self):
        """Inverse over F_p of the basis matrix with columns s^i * g^j."""
        p, e, n, N = self.p, self.e, self.d, self.N
        s = self.subfield_gen.val
        cols = []
        for j in range(n):
            gj = self.pow_i(self.gen_enc, j) if N > 1 else 1
            for i in range(e):
                cols.append(self.digits(self.mul_i(self.pow_i(s, i), gj)))
        # invert the N x N matrix whose column (j*e+i) is cols[j*e+i]
        a = [[cols[c][r] for c in range(N)] for r in range(N)]
        aug = [row[:] + [1 if k == r else 0 for k in range(N)] for r, row in enumerate(a)]
        for col in range(N):
            piv = next((r for r in range(col, N) if aug[r][col]), None)
            if piv is None:
                raise FieldError("subfield basis is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            ic = pow(aug[col][col], p - 2, p)
            aug[col] = [(x * ic) % p for x in aug[col]]
            for r in range(N):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
        return [row[N:] for row in aug]


class FFElt:
    """A field element: immutable wrapper over its context and encoding."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val: int):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *a):
        raise AttributeError("FFElt is immutable")

    @property
    def coeffs(self):
        return self.ctx.digits(self.val)

    def is_zero(self) -> bool:
        return self.val == 0

    def _coerce(self, other) -> "FFElt":
        if isinstance(other, FFElt):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch("elements from different fields")
            return other
        if isinstance(other, int):
            return self.ctx.elem(other % self.ctx.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return FFElt(self.ctx, self.ctx.add_i(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FFElt(self.ctx, self.ctx.sub_i(self.val, o.val))

    def __rsub__(self, other):
        o = self._coerce(other)
        return FFElt(self.ctx, self.ctx.sub_i(o.val, self.val))

    def __neg__(self):
        return FFElt(self.ctx, self.ctx.neg_i(self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        return FFElt(self.ctx, self.ctx.mul_i(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return FFElt(self.ctx, self.ctx.mul_i(self.val, self.ctx.inv_i(o.val)))

    def __pow__(self, m: int):
        return FFElt(self.ctx, self.ctx.pow_i(self.val, m))

    def inv(self) -> "FFElt":
        return FFElt(self.ctx, self.ctx.inv_i(self.val))

    def __eq__(self, other):
        if isinstance(other, FFElt):
            return self.val == other.val and (self.ctx is other.ctx or self.ctx == other.ctx)
        if isinstance(other, int):
            return self.val == self.ctx.elem(other % self.ctx.p).val
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.key, self.val))

    def __repr__(self):
        return "<" + ",".join(str(c) for c in self.coeffs) + ">"


# ---------------------------------------------------------------------------

_FIELD_CACHE: dict = {}


def make_field(p: int, e: int, d: int, modulus=None) -> FieldCtx:
    """Field constructor with a process-wide cache, so log tables are shared."""
    key = (p, e, d, tuple(modulus) if modulus is not None else None)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, e, d, modulus)
        _FIELD_CACHE[key] = ctx
    return ctx


def frobenius(x: FFElt, s: int) -> FFElt:
    """x^(q^s), the s-fold q-power Frobenius."""
    if s < 0:
        raise FieldError("frobenius expects s >= 0")
    return FFElt(x.ctx, x.ctx.frob_i(x.val, s))


def norm_rel(x: FFElt) -> FFElt:
    """Relative norm onto the designated subfield: x^((q^d-1)/(q-1))."""
    ctx = x.ctx
    expo = (ctx.q ** ctx.d - 1) // (ctx.q - 1)
    return FFElt(ctx, ctx.pow_i(x.val, expo))


def trace_rel(x: FFElt) -> FFElt:
    """Relative trace onto the designated subfield: sum of x^(q^j), j < d."""
    ctx = x.ctx
    acc = 0
    for j in range(ctx.d):
        acc = ctx.add_i(acc, ctx.frob_i(x.val, j))
    return FFElt(ctx, acc)


def enumerate_elements(ctx: FieldCtx, ceiling: int | None = None):
    """All elements in canonical (ascending encoding) order."""
    check_ceiling(ctx.order, ceiling)
    return [FFElt(ctx, v) for v in range(ctx.order)]


class Embedding:
    """Ring embedding of one field context into a larger one, determined by
    sending the root of the small modulus to its least root in the big field."""

    __slots__ = ("sub", "sup", "root_enc", "_powers")

    def __init__(self, sub: FieldCtx, sup: FieldCtx, root_enc: int):
        self.sub = sub
        self.sup = sup
        self.root_enc = root_enc
        self._powers = [sup.pow_i(root_enc, i) for i in range(sub.N)]

    def map_enc(self, v: int) -> int:
        dg = self.sub.digits(v)
        acc = 0
        for i, c in enumerate(dg):
            if c:
                acc = self.sup.add_i(acc, self.sup.mul_i(c, self._powers[i]))
        return acc

    def __call__(self, x: FFElt) -> FFElt:
        if x.ctx is not self.sub and x.ctx != self.sub:
            raise ContextMismatch("element does not belong to the embedded field")
        return FFElt(self.sup, self.map_enc(x.val))


_EMBED_CACHE: dict = {}


def embed(sub: FieldCtx, sup: FieldCtx, ceiling: int | None = None) -> Embedding:
    """Canonical embedding F_{q^d_sub} -> F_{q^d_sup}.

    Requires matching F_q structure (same p and e) and d_sub | d_sup.
    """
    if sub.p != sup.p or sub.e != sup.e:
        raise FieldError("subfield structures do not agree")
    if sup.d % sub.d:
        raise FieldError("degree of the small field does not divide the big one")
    key = (sub.key, sup.key)
    emb = _EMBED_CACHE.get(key)
    if emb is not None:
        return emb
    if sub.key == sup.key:
        emb = Embedding(sub, sup, sup.gen_enc)
    else:
        check_ceiling(sup.order, ceiling)
        root = sup._least_root_of(list(sub.modulus))
        emb = Embedding(sub, sup, root)
    _EMBED_CACHE[key] = emb
    return emb
