"""Finite field arithmetic for towers F_p < F_q < F_{q^d} with q = p^e.

An element of F_{p^N} (N = e*d) is stored as an integer in [0, p^N): digit i
in base p is the coefficient of g^i, where g is the root of the field
modulus.  The canonical element order is ascending encoding order, so 0 and 1
are always the first two elements and enumeration is reproducible.

The modulus is the lexicographically least monic irreducible polynomial of
degree N over F_p, coefficients compared from the constant term up.

Arithmetic runs on one log layout built once per field: discrete logs to a
least multiplicative generator, antilogs over two periods, and for odd p the
Zech logarithms Z(k) = log(1 + g^k) over one, so u + v = u * (1 + v/u) is
table lookups as well.  The first block of antilogs is digit rows stepped by
one F_p matrix, multiplication by the generator; the rest of the period is
filled by doubling, each step a multiplication by gen^L applied through
lookup tables of a few digits each, and the log table is checked by its own
fill.  For p = 2 scalar addition is XOR, the native addition of the
encoding.  The one array kernel is `FieldCtx.power_sum_at_logs`, which
evaluates sum c * x^m at x = gen^k from the exponents k, with every term
and running sum kept as a log reduced to [0, order - 1) (m * k + log c)
until one antilog gather at the end; a scan over a range of k never reads
a log, and `FieldCtx.log_power_sum_at_logs` is the same sum ending in its
log.  Terms c * x^m with m > 0 and a scalar c go in stacks of at most
_BUILD_BLOCK // size, one pass each: their logs reduced together, then one
XOR reduction (p = 2) or a pairwise Zech tree (odd p).
`FieldCtx.power_sum` is that kernel on log x, and the other array
operations are power sums (u * v is v * u^1, u + v is 1 * u^1 + v * u^0, 1/u
is u^(order - 2)).  Coordinates over F_q are remainders modulo the minimal
polynomial of g over F_q.  `FieldCtx.enc` is the one rule that turns an int or
an element into an encoding.  `orbit_leaders` filters the orbits of the
affine map k -> P*k + s mod n from integer arithmetic alone, for
`FieldCtx.line_orbits` on the classes of F_q^*-lines {gen^(k + jM)} modulo a
divisor n of M (s = 0) and for the sweep's scalar logs.
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_ENUM_CEILING = 1 << 22
# Largest field whose log tables are built: the int32 tables take 12 bytes
# per element for p = 2 (768 MiB at 2^26) and 16 for odd p, and int32 sums of
# two logs stay below 2^31.
TABLE_CEILING = 1 << 26
# The table build's doubling steps multiply _BUILD_BLOCK encodings at a time
# through lookup tables of about _BUILD_TABLE entries, so both stay in L2; a
# power sum stacks the logs of at most _BUILD_BLOCK scalar terms and points.
_BUILD_BLOCK = 1 << 14
_BUILD_TABLE = 1 << 11
# orbit_leaders filters _ORBIT_BLOCK candidates at a time
_ORBIT_BLOCK = 1 << 14
# the generator search tests _GEN_BLOCK candidates at a time, and one at a
# time by scalar powers in fields of at most _GEN_SCALAR_MAX elements, where
# those cost less than the array calls of one block
_GEN_BLOCK = 1 << 4
_GEN_SCALAR_MAX = 1 << 12


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
    """Ben-Or test: m of degree N is irreducible iff gcd(x^(p^i) - x, m) is
    trivial for every i <= N/2, so it stops at the first i that finds a
    factor of degree dividing i."""
    m = list(m)
    n = len(m) - 1
    if n < 1:
        return False
    x = [0, 1]
    t = x
    for _ in range(n // 2):
        t = _pp_powmod(t, p, m, p)
        diff = [(c1 - c2) % p for c1, c2 in itertools.zip_longest(t, x, fillvalue=0)]
        if len(_pp_gcd(m, _pp_trim(diff), p)) > 1:
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
        if modulus is not None:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != self.N + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree e*d")
            if not is_irreducible(list(modulus), p):
                raise FieldError("modulus is reducible")
        self._modulus = modulus
        self._pp = [p ** i for i in range(self.N + 1)]
        # encoding of the modulus root g (for N = 1 the power basis is just {1})
        self.gen_enc = p % self.order if self.N > 1 else (-self.modulus[0]) % p
        self._exp = None
        self._log = None
        self._zech = None
        self._subfield_gen_enc = None
        self._subfield_elems = None
        self._subfield_minpoly = None
        self._mulgen_enc = None
        self._line_orbits = {}

    @property
    def modulus(self) -> tuple:
        """The explicit modulus, or else the canonical one, searched on first
        use: the search is slow for a large N, and a field past a ceiling is
        refused before anything reads it."""
        if self._modulus is None:
            self._modulus = canonical_modulus(self.p, self.N)
        return self._modulus

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
        return self.undigits(_pp_powmod(list(self.digits(u)), m, list(self.modulus), self.p))

    # -- log/antilog tables ---------------------------------------------------

    def _find_mult_generator(self) -> int:
        """Least element (canonical order) generating the multiplicative
        group: the candidates are tested _GEN_BLOCK at a time (_generates),
        or one at a time by _pow_slow in fields of at most _GEN_SCALAR_MAX
        elements."""
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
        exps = np.array([qm1 // ell for ell in primes], dtype=np.int64)
        # for N > 1 the p - 1 nonzero elements of F_p (encodings 1 .. p - 1)
        # have order dividing p - 1 < order - 1, so the search starts at p
        start = self.p if self.N > 1 else 1
        if self.order <= _GEN_SCALAR_MAX:
            for cand in range(start, self.order):
                if all(self._pow_slow(cand, qm1 // ell) != 1 for ell in primes):
                    return cand
            raise FieldError("no multiplicative generator found")
        for lo in range(start, self.order, _GEN_BLOCK):
            cands = np.arange(lo, min(lo + _GEN_BLOCK, self.order), dtype=np.int64)
            hit = np.flatnonzero(self._generates(cands, exps))
            if len(hit):
                return int(cands[hit[0]])
        raise FieldError("no multiplicative generator found")

    def _generates(self, cands, exps) -> np.ndarray:
        """Which encodings of cands generate the multiplicative group: a
        does iff a^m != 1 for every m of exps, (order - 1)/ell over the
        primes ell dividing order - 1.

        The powers are digit rows, of every candidate and exponent at once,
        by square-and-multiply from the low bit, so the exponents share the
        squares a^(2^b).  The digits of x*y are those of x (outer) y, mod p,
        times the digit rows of g^(k + l), k, l < N, mod p.  That product
        runs in float64, where its sums, below N^2 p^2 <= 2^53 while
        order <= 2^26, are exact (below N^2 (p - 1)^3 for small p without
        the first reduction)."""
        p, N = self.p, self.N
        # the digit rows of g^k, k < 2N - 1: each a shift up of the last,
        # with its top digit folded back by the modulus
        fold = -np.array(self.modulus[:N], dtype=np.int64) % p
        rows = [np.eye(1, N, dtype=np.int64)[0]]
        for _ in range(2 * N - 2):
            rows.append((np.concatenate(([0], rows[-1][:-1])) + rows[-1][-1] * fold) % p)
        table = np.array(rows, dtype=np.float64)[np.add.outer(np.arange(N), np.arange(N))].reshape(N * N, N)

        def times(x, y):
            prod = x[..., :, None] * y[..., None, :]
            prod -= prod // p * p
            out = (prod.reshape(prod.shape[:-2] + (N * N,)) @ table).astype(np.int64)
            out -= out // p * p
            return out

        base = self.digits_vec(cands)
        acc = np.zeros((len(exps), len(cands), N), dtype=np.int64)
        acc[..., 0] = 1
        for bit in range(int(exps.max(initial=0)).bit_length()):
            if bit:
                base = times(base, base)
            take = (exps >> bit & 1).astype(bool)
            acc[take] = times(acc[take], base)
        return ((acc[..., 0] != 1) | (acc[..., 1:] != 0).any(axis=-1)).all(axis=0)

    def _ensure_tables(self):
        """Build the log layout: `_log` (int32, -1 at 0); `_exp` (int32), the
        powers gen^0 .. gen^(order-2) twice over and a trailing 0, so a sum of
        two reduced logs indexes it directly and index -1 reads 0; and for odd
        p `_zech` (int32), Z(k) = log(1 + gen^k) over one period, so a
        difference of two reduced logs indexes it directly (a negative one
        wraps once).

        `mat` is multiplication by gen on digit rows (row i holds the digits
        of gen * g^i).  Doubling `dig` from the digits of 1 with `dig @ mat`,
        and squaring `mat` each time, gives the first block of up to 512
        powers and the matrix of gen^block.  The rest of the period is filled
        by doubling, period[L:2L] = gen^L * period[:L], each step a
        `_multiplier` map of the current `mat`, which is then squared.  The
        order - 1 writes of `_log` fill its nonzero slots exactly once iff gen
        generates, so the fill checks itself.  That fill is one shot, through
        an order-sized arange freed before `_zech` is allocated, and `_zech`
        is filled _BUILD_BLOCK entries at a time, so the build peaks at about
        the table bytes."""
        if self._exp is not None:
            return
        if self.order > TABLE_CEILING:
            raise CeilingExceeded(f"log tables for {self.order} elements exceed the cap of {TABLE_CEILING}")
        q1 = self.order - 1
        gen = self._find_mult_generator()
        p, N = self.p, self.N
        mat = self.digits_vec([self._mul_slow(gen, pp) for pp in self._pp[:N]])
        dig = np.eye(1, N, dtype=np.int64)
        while len(dig) < min(1 << 9, q1):
            dig = np.vstack((dig, dig @ mat % p))
            mat = mat @ mat % p
        exp = np.empty(2 * q1 + 1, dtype=np.int32)
        period = exp[:q1]
        done = min(len(dig), q1)
        period[:done] = dig[:done] @ np.array(self._pp[:N], dtype=np.int64)
        times = self._multiplier() if done < q1 else None
        while done < q1:
            step = times(mat)  # mat is multiplication by gen^done
            take = min(done, q1 - done)
            for lo in range(0, take, _BUILD_BLOCK):
                hi = min(lo + _BUILD_BLOCK, take)
                period[done + lo : done + hi] = step(period[lo:hi])
            mat = mat @ mat % p
            done += take
        exp[q1:-1] = period
        exp[-1] = 0
        log = np.full(self.order, -1, dtype=np.int32)
        log[period] = np.arange(q1, dtype=np.int32)
        if log[0] != -1 or log[1:].min() < 0:
            raise FieldError("internal error: bad discrete log table")
        if p > 2:
            # 1 + x only increments digit 0 of x
            zech = np.empty(q1, dtype=np.int32)
            for lo in range(0, q1, _BUILD_BLOCK):
                xs = period[lo : lo + _BUILD_BLOCK]
                low = xs % p
                zech[lo : lo + _BUILD_BLOCK] = log[xs - low + (low + 1) % p]
            self._zech = zech
        self._mulgen_enc = gen
        self._log = log
        self._exp = exp

    def _multiplier(self):
        """times(mat) -> step, where `mat` is multiplication by some nonzero a
        on digit rows (row i holds the digits of a * g^i) and step maps an
        int32 array of encodings x to the encodings of a * x.

        a * x is F_p-linear in the digits of x.  x is cut into chunks of c
        digits, and a * (chunk value * p^lo) is looked up in a table of p^c
        entries built from c rows of `mat`.  For p = 2 the entries are
        encodings and the chunk terms XOR.  For odd p an entry holds its N
        digits in fields of b bits, wide enough that the chunk terms add
        without carry; one lookup per piece of fields then reduces the sum
        mod p and re-encodes it.  A table covers as many digits, or fields,
        as fit in _BUILD_TABLE entries, and at least one.  For N = 1 the
        encoding is the residue, and a * x is one product mod p."""
        p, N = self.p, self.N
        if N == 1:
            return lambda mat: lambda xs: np.multiply(xs, int(mat[0, 0]), dtype=np.int64) % p
        cmax = 1
        while p ** (cmax + 1) <= _BUILD_TABLE:
            cmax += 1
        c = -(-N // -(-N // cmax))  # the fewest chunks, as even as they go
        P = p ** c
        # the digits of every value of a chunk, for each chunk width
        values = {w: np.arange(p ** w)[:, None] // p ** np.arange(w) % p for w in (c, N - (N - 1) // c * c)}
        if p == 2:
            place, word, add = 1 << np.arange(N), np.int32, np.bitwise_xor
        else:
            b = (-(-N // c) * (p - 1)).bit_length()
            place, word, add = 1 << b * np.arange(N), np.min_scalar_type((1 << b * N) - 1), np.add
            k = max(1, (_BUILD_TABLE.bit_length() - 1) // b)  # fields per piece
            pieces = []
            for lo in range(0, N, k):
                w = min(k, N - lo)
                fields = np.arange(1 << b * w)[:, None] >> b * np.arange(w) & (1 << b) - 1
                pieces.append((b * lo, (1 << b * w) - 1, (fields % p @ p ** np.arange(lo, lo + w)).astype(np.int32)))

        def times(mat):
            tabs = [(values[len(rows)] @ rows % p @ place).astype(word)
                    for rows in (mat[lo : lo + c] for lo in range(0, N, c))]

            def step(xs):
                acc, rest = None, xs
                for tab in tabs:
                    if p == 2:
                        digit, rest = rest & (P - 1), rest >> c
                    else:
                        rest, digit = np.divmod(rest, P)
                    term = np.take(tab, digit)
                    acc = term if acc is None else add(acc, term, out=acc)
                if p == 2:
                    return acc
                out = None
                for shift, mask, tab in pieces:
                    term = np.take(tab, (acc >> shift) & mask)
                    out = term if out is None else np.add(out, term, out=out)
                return out
            return step
        return times

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

        Logs in and out are reduced to [0, order - 1), -1 standing for 0, so
        a difference of two logs indexes the one-period `_zech` (a negative
        one wraps once).  A zero operand is found by one min per operand: the
        sum is then the other operand, and lu = -1 is clamped to 0 for the
        gather, since its difference with order - 2 would be order - 1."""
        q1 = self.order - 1
        u_zero = lu.min(initial=0) < 0
        v_zero = lv.min(initial=0) < 0
        s = np.asarray(self._zech[np.subtract(lv, np.maximum(lu, 0) if u_zero else lu)])  # log(1 + g^(lv - lu))
        np.add(s, lu, out=s, where=s >= 0)  # s = -1 stays: v = -u
        # s < 2(order - 1): less order - 1, and order - 1 back where that is
        # negative, it is reduced, and s = -1 comes back to -1
        s -= q1
        _wrap_up(s, q1)
        if u_zero:
            np.copyto(s, lv, where=lu < 0)
        if v_zero:
            np.copyto(s, lu, where=lv < 0)
        return s

    def add_vec(self, u, v):
        return self.power_sum([(1, 1), (0, v)], u)

    def sub_vec(self, u, v):
        return self.power_sum([(1, self.p - 1), (0, u)], v)  # (-1) * v + u

    def mul_vec(self, u, v):
        return self.power_sum([(1, v)], u)

    def inv_vec(self, u):
        if (u == 0).any():
            raise ZeroDivisionError("inversion of zero")
        return self.pow_vec(u, self.order - 2)

    def pow_vec(self, u, m: int):
        return self.power_sum([(m, 1)], u)

    def frob_vec(self, u, s: int):
        # q^s unreduced: reduced mod order - 1 it is 0 over F_2, read as x^0
        return self.pow_vec(u, self.q ** s)

    def log_vec(self, xs):
        """Discrete logs to the multiplicative generator of the encodings
        xs, -1 at 0, as a new int32 array."""
        self._ensure_tables()
        return self._log[np.asarray(xs, dtype=np.int64)]

    def power_sum(self, terms, xs):
        """sum c * x^m over the (m, c) pairs of `terms`, as a new int64 array.

        m is an unreduced exponent: m = 0 is the constant term c (0^0 = 1),
        while any m > 0 gives 0 at x = 0, a multiple of order - 1 included.
        c is an encoding or an array of encodings broadcasting against xs.

        It is power_sum_at_logs applied to log x."""
        return self.power_sum_at_logs(terms, self.log_vec(xs))

    def power_sum_at_logs(self, terms, ks):
        """power_sum at x = gen^k for each k of `ks`, where gen is the
        multiplicative generator, 0 <= k < order - 1, and k = -1 stands for
        x = 0.  A scan over a range of k evaluates at those powers of gen
        without reading log x.

        The sum runs on logs, -1 standing for 0.  A term's log is
        m * k + log c reduced to [0, order - 1), so it indexes the tables as
        it is.  Terms are added as Zech logs for odd p and as XORed antilogs
        for p = 2, those with m > 0 and a scalar c in stacks of at most
        _BUILD_BLOCK // size terms (see _sum_at_logs); one antilog gather
        ends the sum."""
        acc, lx = self._sum_at_logs(terms, ks)
        if acc is None:
            return np.zeros(lx.shape, dtype=np.int64)
        if self.p > 2:
            # acc is a new array of logs (or a scalar): the antilogs overwrite
            # it.  No log wraps, but mode="raise" would buffer `out`.
            acc = np.asarray(acc)
            np.take(self._exp, acc, out=acc, mode="wrap")
        return _shaped(acc, lx.shape, np.int64)

    def log_power_sum_at_logs(self, terms, ks):
        """The log of power_sum_at_logs(terms, ks), in [0, order - 1) and -1
        where the sum is 0, as a new int32 array.  For odd p the Zech sum
        already ends in a reduced log; for p = 2 the XORed antilogs take one
        log gather."""
        acc, lx = self._sum_at_logs(terms, ks)
        if acc is None:
            return np.full(lx.shape, -1, dtype=np.int32)
        if self.p == 2:
            acc = self._log[acc]
        return _shaped(acc, lx.shape, np.int32)

    def _sum_at_logs(self, terms, ks):
        """(acc, lx): lx = ks as an array and acc the power sum at gen^k,
        held as logs in [-1, order - 1) for odd p and as int32 encodings for
        p = 2; None when every coefficient is 0.

        The terms c * x^m with m > 0 and a scalar c go in stacks of at most
        _BUILD_BLOCK // size terms (_stack_sum), so a call over more than
        _BUILD_BLOCK points takes them one at a time; a constant, or a term
        with an array of coefficients, is a pass of its own (_array_term)."""
        self._ensure_tables()
        lx = np.asarray(ks)
        x_zero = lx < 0 if lx.min(initial=0) < 0 else None
        # a scalar c = 0 drops
        stack = [(m % (self.order - 1), self._log[c]) for m, c in terms if m and not isinstance(c, np.ndarray) and c]
        group = _BUILD_BLOCK // (lx.size or 1) or 1
        acc = None
        for lo in range(0, len(stack), group):
            acc = self._add_to(acc, self._stack_sum(lx, stack[lo : lo + group], x_zero))
        for m, c in terms if len(stack) < len(terms) else ():
            if isinstance(c, np.ndarray) or not m and c:
                acc = self._add_to(acc, self._array_term(lx, m, self._log[c], x_zero))
        return acc, lx

    def _add_to(self, acc, part):
        """acc + part, partial sums held as _sum_at_logs holds them (acc None
        before the first): Zech logs for odd p, and for p = 2 an XOR into
        whichever operand has the sum's shape."""
        if acc is None:
            return part
        if self.p > 2:
            return self._add_logs(acc, part)
        shape = np.broadcast_shapes(acc.shape, part.shape)
        if acc.shape != shape:
            acc, part = part, acc
        if acc.shape == shape:
            acc ^= part
            return acc
        return acc ^ part

    def _reduced(self, power):
        """The int64 array power reduced mod order - 1 by floor division (% is
        no fast path): in place for p = 2, the gather's index type, else as a
        new int32 array for the Zech table, written by the last subtraction."""
        quot = power // (self.order - 1)
        quot *= self.order - 1
        if self.p > 2:
            return np.asarray(np.subtract(power, quot, dtype=np.int32))
        power -= quot
        return power

    def _stack_sum(self, lx, stack, x_zero):
        """The sum of the terms (m mod (order - 1), log c) of `stack`, m > 0,
        at lx = log x: their logs m * log x + log c as one (terms, *shape)
        array, reduced in one pass, -1 where x = 0; then for p = 2 one
        antilog gather and one XOR reduction, for odd p a pairwise Zech tree
        of about log2(terms) _add_logs calls."""
        # a lone term takes no stacking axis
        ms, lcs = stack[0] if len(stack) == 1 else np.array(stack, dtype=np.int64).T.reshape((2, -1) + (1,) * lx.ndim)
        # int64: the product can pass 2^31; asarray keeps a lone x writable in place
        power = np.asarray(np.multiply(lx, ms, dtype=np.int64))
        power += lcs
        lt = self._reduced(power)
        if x_zero is not None:
            np.copyto(lt, -1, where=x_zero)
        if len(stack) == 1:
            return lt if self.p > 2 else self._exp[lt]
        if self.p == 2:
            return np.bitwise_xor.reduce(self._exp[lt], axis=0)
        while len(lt) > 1:
            half = len(lt) // 2
            s = self._add_logs(lt[:half], lt[half : 2 * half])
            lt = s if len(lt) % 2 == 0 else np.concatenate((s, lt[-1:]))
        return lt[0]

    def _array_term(self, lx, m, lc, x_zero):
        """c * x^m at lx = log x from the logs lc of c, an array, or a scalar
        for m = 0, held as _sum_at_logs holds the sum: logs for odd p, whose
        sums run on the int32 Zech table, and antilogs for p = 2 (-1 reads
        the trailing 0).

        The logs c broadcast past x, so they are added after the reduction.
        For odd p they are added less order - 1, and order - 1 goes back on
        where the sum is negative; for p = 2 the sum, below 2(order - 1), is
        left as it is, since it only indexes the doubled antilog table."""
        q1 = self.order - 1
        if not m:
            return lc if self.p > 2 else self._exp[lc]
        # int64: the product can pass 2^31; asarray keeps a lone x writable in place
        lt = self._reduced(np.asarray(np.multiply(lx, m % q1, dtype=np.int64)))
        # a zero factor becomes a log of -3(order - 1): any sum with it stays
        # negative past _wrap_up
        zero = -3 * q1
        if x_zero is not None:
            np.copyto(lt, zero, where=x_zero)
        c_zero = lc.min(initial=0) < 0
        if self.p > 2:
            # on the coefficients' shape, which the sum's broadcasts
            lt = _wrap_up(lt + (np.where(lc < 0, zero, lc - q1) if c_zero else lc - q1), q1)
        else:
            lt = lt + (np.where(lc < 0, zero, lc) if c_zero else lc)
        if x_zero is not None or c_zero:
            np.maximum(lt, -1, out=lt)
        return lt if self.p > 2 else self._exp[lt]

    # -- elements -------------------------------------------------------------

    def enc(self, v) -> int:
        """The encoding of v: an element of this field (or of an equal one)
        gives its value, any other element raises ContextMismatch, and an int
        is reduced modulo the order."""
        if isinstance(v, FFElt):
            if v.ctx is not self and v.ctx != self:
                raise ContextMismatch("element from a different field")
            return v.val
        return int(v) % self.order

    def elem(self, v) -> "FFElt":
        return FFElt(self, self.enc(v))

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

    def line_orbits(self, r: int, n: int):
        """The orbits of tau(x) = x^(p^r), r a divisor of N, on the classes
        of F_q^*-lines modulo n, n a divisor of M = (order - 1)/(q - 1): line
        k, 0 <= k < M, holds the points gen^(k + jM), tau maps it to line
        P*k mod M, P = p^r, and class k mod n to class P*k mod n.  n = M
        takes every line apart; the fiber scan takes n = n_s, the classes of
        its scale translations k -> k + i*n_s.

        Returns (leaders, sizes), the least k < n of each orbit, ascending,
        and the orbit sizes as int8, computed once per (r, n) from
        orbit_leaders; the leaders are int32 when P*n < 2^31, else int64."""
        orbits = self._line_orbits.get((r, n))
        if orbits is not None:
            return orbits
        P, count = self.p ** r, self.N // r
        leaders = list(orbit_leaders(n, P, count))
        sizes = [orbit_sizes(ks, P, count, n).astype(np.int8) for ks in leaders]
        orbits = self._line_orbits[r, n] = np.concatenate(leaders), np.concatenate(sizes)
        return orbits

    def subfield_coords(self, v: int):
        """Coordinates of v over F_q in the power basis 1, g, ..., g^(n-1).

        Returns a tuple of n encodings, each lying in F_q: the remainder of the
        digit polynomial sum_k digit_k X^k modulo the minimal polynomial
        m_q(X) = prod_{k<n} (X - g^(q^k)) of g over F_q, whose coefficients
        lie in F_q.
        """
        if self.e == 1:
            return self.digits(v)
        n = self.d
        if self._subfield_minpoly is None:
            m = [1]  # ascending coefficients, monic
            for k in range(n):
                neg_root = self.neg_i(self.frob_i(self.gen_enc, k))
                m = [self.add_i(a, self.mul_i(neg_root, b)) for a, b in zip([0] + m, m + [0])]
            self._subfield_minpoly = m
        m = self._subfield_minpoly
        r = list(self.digits(v))
        for k in range(self.N - 1, n - 1, -1):
            if r[k]:
                for i in range(n):
                    r[k - n + i] = self.sub_i(r[k - n + i], self.mul_i(r[k], m[i]))
        return tuple(r[:n])


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


def mulmod(a, m, n: int) -> np.ndarray:
    """a * m mod n as a new int64 array, broadcasting, for integer arrays or
    ints a and m of values in [-1, n), n <= 2^26, so every product stays
    below 2^52 in magnitude; floor division by a scalar is numpy's fast
    path, % is not."""
    out = np.multiply(a, m, dtype=np.int64)
    out -= out // n * n
    return out


def orbit_sizes(ks, P: int, count: int, n: int, s: int = 0) -> np.ndarray:
    """The sizes of the orbits of the ks under the affine map
    k -> P*k + s mod n, 0 <= s < n, whose count-th power is the identity,
    as int64: the least divisor j of count with k*(P^j - 1) +
    s*(1 + P + ... + P^(j - 1)) = 0 mod n."""
    sizes = np.full(np.shape(ks), count, dtype=np.int64)
    for j in range(count - 1, 0, -1):  # the least fixing divisor is written last
        if count % j == 0:
            shift = s * ((P ** j - 1) // (P - 1)) % n
            sizes[mulmod(ks, (P ** j - 1) % n, n) == (n - shift) % n] = j
    return sizes


def orbit_leaders(n: int, P: int, count: int, s: int = 0):
    """The least k of each orbit of the affine map k -> P*k + s mod n,
    0 <= k < n, 0 <= s < n, whose count-th power is the identity, ascending,
    lazily: one array per block of _ORBIT_BLOCK candidates, where pass j
    drops those above their j-th image, in int32 when P*n + s < 2^31, else
    int64.  No table is read."""
    dtype = np.int32 if P * n + s < 1 << 31 else np.int64
    for lo in range(0, n, _ORBIT_BLOCK):
        ks = np.arange(lo, min(lo + _ORBIT_BLOCK, n), dtype=dtype)
        conj = ks.copy()
        for _ in range(count - 1):
            conj *= P
            conj += s
            conj -= conj // n * n
            keep = ks <= conj
            ks, conj = ks[keep], conj[keep]
        yield ks


def _wrap_up(a, n: int) -> np.ndarray:
    """a + n where a < 0, in place, for an int32 array a: its sign bits,
    shifted down, mask n.  A masked add on a random half of the entries
    costs several times more."""
    a += a >> 31 & n
    return a


def _shaped(acc, shape, dtype) -> np.ndarray:
    """acc as an array of the given shape and dtype: a sum of constant terms
    alone misses the shape of the points."""
    out = np.asarray(acc, dtype=dtype)
    if out.shape != shape:
        shape = np.broadcast_shapes(shape, out.shape)
        out = out if out.shape == shape else np.broadcast_to(out, shape).copy()
    return out


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
        return FFElt(self.sup, self.map_enc(self.sub.enc(x)))


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
