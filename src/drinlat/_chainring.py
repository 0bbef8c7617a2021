"""Truncated rings A/p^k on one packed-integer encoding, and the Smith
form of a basis over them.

A/p^k = F_q[t]/(p(t)^k) is a local principal ring with uniformizer the
class of p.  An element is its canonical representative (degree <
deg(p)*k) packed into one Python int: w = (q-1).bit_length() bits per
coefficient, the constant term in the lowest bits.  At a prime p = t - c
of degree 1 the representative is written in the variable s = t - c, so
that p^k = s^k: reduction mod p^k is a mask, multiplication by p a shift,
the valuation the count of trailing zero coefficients and the pi-adic
digits are the coefficients; `from_poly` and `to_poly` translate.  At
primes of higher degree the kernel divides by p^k: over F_2 by shift-xor,
over odd prime fields Barrett-style, over extension fields by long
division.  Over F_2 a polynomial is a bit vector (add is XOR, mul is
shift-xor, 4 bits at a time above 6 bits); over any other base field the
kernel unpacks coefficient lists and calls the `_*_coeffs` functions of
`ffpoly`, the one sum, product and division per base field; only the
Barrett division and series inverse over odd prime fields compute on
their own.  No Poly object is built.  A unit is inverted by Newton
iteration from its residue, except a constant of F_q, whose inverse is
the constant c^-1 at every precision; at a degree-1 prime over an odd
prime field the iteration runs on coefficient lists.
`localfield` keeps the unit parts of its truncated elements in the same
encoding.

`ChainRing.reduce` maps a Poly of A into A/p^k and `ChainRing.lift`
returns the canonical Poly.  `smith_form_left`, the Smith form of a basis
over A/p^k with its row transform and inverse, is the one elimination on
submodules of (A/p^k)^n: `localfield` reads lattice spans, multiplier
rings, hom-modules and their sizes off it, and builds the transforms of a
multiplier ring at its own depth k.  `smith_exponents` is its
exponents-only form, with the same pivots and no inverse: `localfield`
reads the elementary divisors of an exact matrix, and of a lattice basis
at the working precision, off it.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import InvariantError
from .ffpoly import (Poly, Prime, _add_coeffs, _divmod_coeffs, _mul_coeffs,
                     _neg_coeffs, _reducer, _scale_coeffs, residue_field)


class _Kernel:
    """Packed polynomials over F_q and their reduction at one prime p.

    Every argument and result is a packed int.  `mod`, `divmod_p`, `shl`
    and `shr` work at p^j; at a prime of degree 1 they are masks and
    shifts, since the kernel then packs polynomials in s = t - c.  This
    class is the generic kernel on coefficient lists; `_F2Kernel`
    replaces the coefficient arithmetic by bit operations.
    """

    def __init__(self, prime: Prime):
        F = prime.field
        self.prime = prime
        self.field = F
        self.q = q = F.size
        self.w = (q - 1).bit_length()
        self.cmask = (1 << self.w) - 1
        self.d = prime.degree
        # at p = t - c of degree 1 the kernel packs polynomials in s = t - c
        self.linear = self.d == 1
        self.shift = F.neg(prime.poly.coeffs[0]) if self.linear else 0
        self.kp = residue_field(prime)
        # k(p) encodes a residue by its coefficients in base q; that is the
        # packed int itself when q = 2^w or the residue is a constant
        self._direct_residue = q == 1 << self.w or self.d == 1
        self._char = F.p if F.base is None else None
        F._fill_coefficient_tables()
        self.p = self.from_poly(prime.poly)
        self._pows = [1, self.p]
        # Barrett division at p^j rests on the Kronecker products of an odd
        # prime field; over F_2 shift-xor division is cheaper
        self._barrett = self._char is not None and q > 2
        self._barrett_tabs = [([1], [1])]
        # k(p) builds its log/exp tables on first use, inv(1) included:
        # build them with the kernel, so that the first inverse at this
        # prime costs what the others do
        self.kp.inv(1)
        self._two = self.pack([F.add(1, 1)])  # 1 + 1, zero in characteristic 2

    # -- codecs --------------------------------------------------------------

    def unpack(self, a: int) -> List[int]:
        w, m = self.w, self.cmask
        return [(a >> s) & m for s in range(0, a.bit_length(), w)]

    def pack(self, coeffs: Sequence[int]) -> int:
        w = self.w
        a = 0
        for c in reversed(coeffs):
            a = (a << w) | c
        return a

    def from_poly(self, f: Poly) -> int:
        a = self.pack(f.coeffs)
        return self.translate(a, self.shift) if self.shift else a

    def to_poly(self, a: int) -> Poly:
        if self.shift:
            a = self.translate(a, self.field.neg(self.shift))
        return Poly(self.field, self.unpack(a))

    def translate(self, a: int, c: int) -> int:
        """f(x + c) for the packed f(x), by Horner's rule."""
        F = self.field
        out: List[int] = []
        for b in reversed(self.unpack(a)):
            # out <- out * (x + c) + b
            out = _add_coeffs(F, [b] + out, _scale_coeffs(F, c, out))
        return self.pack(out)

    def _divmod_poly(self, a: int, m: int) -> Tuple[int, int]:
        """(a // m, a % m) by long division, for m = p or a power of p."""
        M, A = self.unpack(m), self.unpack(a)
        if len(A) < len(M):
            return 0, a
        Q, R = _divmod_coeffs(self.field, A, _reducer(self.field, M))
        return self.pack(Q), self.pack(R)

    def _series_inv(self, R: List[int], n: int) -> List[int]:
        """R^-1 mod x^n over an odd prime field, R[0] = 1: Newton's
        X <- X (2 - R X) doubles the number of correct terms."""
        p = self._char
        X, c = [1], 1
        while c < n:
            c = min(2 * c, n)
            T = [(-e) % p for e in _mul_coeffs(self.field, R, X, c)]
            T[0] = (T[0] + 2) % p
            X = _mul_coeffs(self.field, X, T, c)
        return X

    def _barrett_powers(self, j: int) -> Tuple[List[int], List[int]]:
        """p^j and rev(p^j)^-1 mod x^(dj) as coefficient lists (kept per
        exponent).  rev(p^j) = rev(p)^j, so the inverses are the powers of
        one series, each cut to its length."""
        tabs = self._barrett_tabs
        if len(tabs) <= j:
            tabs = list(tabs)  # extended privately, then swapped in whole
            n = self.d * j
            s = self._series_inv(self.unpack(self.p)[::-1], n)
            power = [1]
            for i in range(1, j + 1):
                power = _mul_coeffs(self.field, power, s, n)
                if i >= len(tabs):
                    tabs.append((self.unpack(self.pow_p(i)), power[:self.d * i]))
            self._barrett_tabs = tabs
        return tabs[j]

    def _divmod_pow(self, a: int, j: int) -> Tuple[int, int]:
        """(a // p^j, a mod p^j).

        Over an odd prime field the division is Barrett's, n = deg(p^j)
        quotient coefficients at a time from the top: the reversed block
        quotient is the reversed top 2n coefficients times rev(p^j)^-1, and
        the block remainder is what is left of them.  Two Kronecker
        products per block, whose cost does not depend on how many
        coefficients of p^j vanish, replace one per quotient coefficient.
        """
        if not self._barrett or not j:
            return self._divmod_poly(a, self.pow_p(j))
        n = self.d * j
        A = self.unpack(a)
        if len(A) <= n:
            return 0, a
        M, inv = self._barrett_powers(j)
        p = self._char
        Q = [0] * (len(A) - n)
        while len(A) > n:
            s = max(len(A) - 2 * n, 0)
            X = A[s:]
            l = len(X) - n
            q = _mul_coeffs(self.field, X[:n - 1:-1], inv, l)[::-1]
            Q[s:s + l] = q
            A = A[:s] + [(x - y) % p for x, y in
                         zip(X, _mul_coeffs(self.field, q, M, n))]
        return self.pack(Q), self.pack(A)

    # -- ring operations ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.pack(_add_coeffs(self.field, self.unpack(a),
                                     self.unpack(b)))

    def neg(self, a: int) -> int:
        return self.pack(_neg_coeffs(self.field, self.unpack(a)))

    def sub(self, a: int, b: int) -> int:
        F = self.field
        return self.pack(_add_coeffs(F, self.unpack(a),
                                     _neg_coeffs(F, self.unpack(b))))

    def mul(self, a: int, b: int) -> int:
        A, B = self.unpack(a), self.unpack(b)
        return self.pack(_mul_coeffs(self.field, A, B, len(A) + len(B)))

    def mulmod(self, a: int, b: int, k: int) -> int:
        """a * b mod p^k."""
        if self.linear:
            return self.pack(_mul_coeffs(self.field, self.unpack(a),
                                         self.unpack(b), k))
        return self.mod(self.mul(a, b), k)

    def pow_p(self, j: int) -> int:
        """p^j, packed (kept per exponent)."""
        pows = self._pows
        if len(pows) <= j:
            pows = list(pows)  # extended privately, then swapped in whole
            while len(pows) <= j:
                pows.append(self.mul(pows[-1], self.p))
            self._pows = pows
        return pows[j]

    def reserve(self, k: int) -> None:
        """Cache p^j, and its Barrett inverse, for j <= k now, when
        elements known mod p^k are built, instead of in their first product
        (no powers are needed at degree 1)."""
        if not self.linear:
            self.pow_p(k)
            if self._barrett:
                self._barrett_powers(k)

    def mod(self, a: int, k: int) -> int:
        """Canonical residue of a mod p^k.  A polynomial of degree below
        deg(p^k) is its own residue, and is not divided."""
        if self.linear:
            return a & ((1 << (self.w * k)) - 1)
        if a.bit_length() <= self.w * self.d * k:
            return a
        return self._divmod_pow(a, k)[1]

    def divmod_p(self, a: int, j: int) -> Tuple[int, int]:
        """(a // p^j, a mod p^j)."""
        if self.linear:
            s = self.w * j
            return a >> s, a & ((1 << s) - 1)
        return self._divmod_pow(a, j)

    def shl(self, a: int, j: int) -> int:
        """a * p^j."""
        if self.linear:
            return a << (self.w * j)
        return self.mul(a, self.pow_p(j)) if j else a

    def shr(self, a: int, j: int) -> int:
        """a // p^j (exact when p^j divides a)."""
        if self.linear:
            return a >> (self.w * j)
        return self._divmod_pow(a, j)[0] if j else a

    def val(self, a: int) -> int:
        """p-adic valuation of a nonzero a."""
        if self.linear:
            return ((a & -a).bit_length() - 1) // self.w
        if a.bit_length() <= self.w * self.d:
            return 0  # degree below deg(p): a residue, so a unit
        v = 0
        while True:
            quot, rem = self._divmod_poly(a, self.p)
            if rem:
                return v
            a, v = quot, v + 1

    def ndigits(self, a: int) -> int:
        """Number of pi-adic digits of a (0 for a = 0): floor(deg/d) + 1."""
        if not a:
            return 0
        return (a.bit_length() - 1) // self.w // self.d + 1

    def is_unit(self, a: int) -> bool:
        return self.mod(a, 1) != 0

    def inv(self, a: int, k: int) -> int:
        """Inverse of a unit mod p^k.  A constant c of F_q (every pivot of
        a standard Hecke matrix, and 1) has the constant c^-1 as its
        inverse at every precision.  Any other unit is lifted by Newton
        iteration from its residue field inverse: x <- x (2 - a x) doubles
        the precision.  The test is "constant", not "residue": t at
        p = t^2+t+1 is a residue with a different inverse mod p^2.  At a
        degree-1 prime over an odd prime field, p^k = s^k, so the inverse
        is a power series inverse mod s^k: a_0^-1 (a / a_0)^-1, iterated
        on coefficient lists and packed once."""
        r = self.residue(a)
        if not r:
            raise ZeroDivisionError("non-unit in chain ring")
        x = self.from_residue(self.kp.inv(r))
        if a <= self.cmask:
            return x
        F = self.field
        if self.linear and self._char is not None and F.p > 2:
            R = _scale_coeffs(F, x, self.unpack(a)[:k])
            return self.pack(_scale_coeffs(F, x, self._series_inv(R, k)))
        c = 1
        while c < k:
            c = min(2 * c, k)
            x = self.mulmod(x, self.sub(self._two, self.mulmod(a, x, c)), c)
        return x

    def residue(self, a: int) -> int:
        """a mod p as an element of k(p)."""
        r = self.mod(a, 1)
        if self._direct_residue:
            return r
        out = 0
        for c in reversed(self.unpack(r)):
            out = out * self.q + c
        return out

    def from_residue(self, c: int) -> int:
        """Canonical packed representative of c in k(p)."""
        if self._direct_residue:
            return c
        coeffs = []
        while c:
            c, r = divmod(c, self.q)
            coeffs.append(r)
        return self.pack(coeffs)

    def digits(self, a: int, n: int) -> List[int]:
        """The first n pi-adic digits of a, each packed."""
        if self.linear:
            w, m = self.w, self.cmask
            return [(a >> (w * i)) & m for i in range(n)]
        out = []
        for _ in range(n):
            a, r = self._divmod_poly(a, self.p)
            out.append(r)
        return out

    def from_digits(self, digits: Sequence[int]) -> int:
        """sum digits[i] * p^i."""
        acc = 0
        for x in reversed(digits):
            acc = self.add(self.shl(acc, 1), x)
        return acc

    def elements(self, n: int) -> Iterator[int]:
        """All packed polynomials of degree < n, the constant term of the
        polynomial in t varying fastest."""
        if self.q == 1 << self.w:
            seq = range(self.q ** n)
        else:
            seq = (self.pack(combo[::-1])
                   for combo in itertools.product(range(self.q), repeat=n))
        if not self.shift:
            yield from seq
            return
        c = self.shift
        for a in seq:
            yield self.translate(a, c)


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two F_2 bit vectors.

    A shorter operand of at most 6 bits is read bit by bit (shift-xor).
    A longer one is read 4 bits at a time against a table of the 16
    multiples of the longer operand: a quarter of the loop's steps for
    14 shifts and xors.  Timed against the bit loop, the window is even
    at 6 bits and 1.2x, 1.6x and 1.8x faster at 8, 12 and 16 bits."""
    if a < b:
        a, b = b, a
    r = 0
    if b < 64:
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r
    a2 = a << 1
    a4 = a << 2
    a6 = a4 ^ a2
    a8 = a << 3
    a10 = a8 ^ a2
    a12 = a8 ^ a4
    a14 = a12 ^ a2
    tab = (0, a, a2, a2 ^ a, a4, a4 ^ a, a6, a6 ^ a,
           a8, a8 ^ a, a10, a10 ^ a, a12, a12 ^ a, a14, a14 ^ a)
    s = 0
    while b:
        r ^= tab[b & 15] << s
        b >>= 4
        s += 4
    return r


class _F2Kernel(_Kernel):
    """The kernel over F_2: packed polynomials are bit vectors."""

    # the operations are the int functions themselves, so that a call
    # costs no extra frame
    add = sub = staticmethod(operator.xor)
    neg = staticmethod(operator.pos)
    mul = staticmethod(_clmul)

    def mulmod(self, a: int, b: int, k: int) -> int:
        if self.linear:
            m = (1 << k) - 1
            return _clmul(a & m, b & m) & m
        return self.mod(_clmul(a, b), k)

    def translate(self, a: int, c: int) -> int:
        out = 0  # c = 1, the one nonzero shift
        for i in reversed(range(a.bit_length())):
            out = (out << 1) ^ out ^ ((a >> i) & 1)
        return out

    def _divmod_poly(self, a: int, m: int) -> Tuple[int, int]:
        dm = m.bit_length() - 1
        quot = 0
        n = a.bit_length()
        while n > dm:
            s = n - 1 - dm
            quot |= 1 << s
            a ^= m << s
            n = a.bit_length()
        return quot, a


_KERNELS: Dict[Tuple[int, Tuple[int, ...]], _Kernel] = {}


def _kernel(prime: Prime) -> _Kernel:
    """The packed kernel of a prime, built once.

    Keyed by the prime's value (fields are interned): keyed by the Prime
    object, a lookup with an equal Prime other than the one that built the
    kernel would compare polynomials every time."""
    key = (id(prime.field), prime.poly.coeffs)
    kr = _KERNELS.get(key)
    if kr is None:
        cls = _F2Kernel if prime.field.size == 2 else _Kernel
        kr = _KERNELS[key] = cls(prime)
    return kr


class ChainRing:
    """A/p^k; elements are packed ints (canonical representatives)."""

    def __init__(self, prime: Prime, k: int):
        if k < 1:
            raise ValueError(f"chain ring A/p^{k} needs k >= 1")
        self.prime = prime
        self.k = k
        self.kernel = _kernel(prime)
        self.zero = 0
        self.one = 1

    def reduce(self, f: Poly) -> int:
        """The ring map A -> A/p^k."""
        kr = self.kernel
        return kr.mod(kr.from_poly(f), self.k)

    def lift(self, a: int) -> Poly:
        """Canonical representative of a, as a Poly of degree < deg(p)*k."""
        return self.kernel.to_poly(a)

    def to_residue(self, a: int) -> int:
        """The class of a in k(p) = A/p."""
        return self.kernel.residue(a)

    def add(self, a: int, b: int) -> int:
        return self.kernel.add(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.kernel.sub(a, b)

    def mul(self, a: int, b: int) -> int:
        """a * b mod p^k; a product below depth k is not divided."""
        return self.kernel.mulmod(a, b, self.k)

    def val(self, a: int) -> int:
        """p-adic valuation of the class, capped at k (val(0) = k)."""
        return self.kernel.val(a) if a else self.k

    def is_unit(self, a: int) -> bool:
        return self.kernel.is_unit(a)

    def inv(self, a: int) -> int:
        return self.kernel.inv(a, self.k)

    def unit_part(self, a: int, v: int) -> int:
        """u with a = u * pi^v, given val(a) >= v."""
        if not v:
            return a
        quot, rem = self.kernel.divmod_p(a, v)
        if rem:
            raise InvariantError("inexact chain-ring division")
        return quot

    def pi_pow(self, v: int) -> int:
        return self.kernel.pow_p(v) if v < self.k else 0

    def elements(self) -> Iterator[int]:
        """All elements (size = q_p^k of them), constant term fastest."""
        return self.kernel.elements(self.prime.degree * self.k)


Vec = Tuple[int, ...]
Matrix = List[List[int]]


def _place_pivot(ring: ChainRing, A: Matrix, t: int
                 ) -> Tuple[Optional[int], int]:
    """Move the pivot of step t to A[t][t] and return its former row and
    its valuation; (None, k) when the trailing submatrix A[t:, t:] is zero
    mod p^k.  The pivot is the first entry of least valuation there, in
    row-major order."""
    best, e = None, ring.k
    val = ring.val
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, len(row)):
            if row[j]:
                v = val(row[j])
                if v < e:
                    best, e = (i, j), v
                    if not v:
                        break
        if not e:
            break
    if best is None:
        return None, e
    i0, j0 = best
    if i0 != t:
        A[i0], A[t] = A[t], A[i0]
    if j0 != t:
        for row in A[t:]:
            row[j0], row[t] = row[t], row[j0]
    return i0, e


def _pad_ascending(exps: List[int], r: int, k: int) -> None:
    """Give the rows without a pivot exponent k, and check that minimum-
    valuation pivoting left the exponents ascending."""
    exps.extend([k] * (r - len(exps)))
    if any(exps[i] > exps[i + 1] for i in range(r - 1)):
        raise InvariantError(f"Smith exponents not ascending: {exps}")


def smith_exponents(ring: ChainRing, rows: Sequence[Sequence[int]]
                    ) -> Tuple[int, ...]:
    """The Smith exponents of the r x L matrix with the given rows over
    A/p^k: the first component of `smith_form_left` of its columns, with
    the same pivots, from row operations that invert nothing.

    With the pivot pi^e u of step t (u a unit), row i becomes
    u * row i - (x / pi^e) * row t, where x is its entry in the pivot
    column: a product with the unit u, not with u^-1, which is invertible
    all the same and clears x exactly.  No transform is built, so there is
    no U U^-1 check.  Only the columns right of the pivot are updated; the
    pivot row and column are never read again.  Entries stay canonical
    representatives, of degree below deg(p^k), since `ChainRing.mul`
    divides a product by p^k only when it reaches that depth.
    """
    k = ring.k
    A = [list(row) for row in rows]
    r, L = len(A), len(A[0])
    mul, sub = ring.mul, ring.sub
    exps: List[int] = []
    for t in range(min(r, L)):
        i0, e = _place_pivot(ring, A, t)
        if i0 is None:
            break
        prow = A[t][t + 1:]
        u = ring.unit_part(A[t][t], e)
        for i in range(t + 1, r):
            row = A[i]
            x = row[t]
            if not x:
                continue
            c = ring.unit_part(x, e)
            if u == 1:
                row[t + 1:] = [sub(a, mul(c, b)) if b else a
                               for a, b in zip(row[t + 1:], prow)]
            else:
                row[t + 1:] = [sub(mul(u, a), mul(c, b))
                               for a, b in zip(row[t + 1:], prow)]
        exps.append(e)
    _pad_ascending(exps, r, k)
    return tuple(exps)


def smith_form_left(ring: ChainRing, cols: Sequence[Vec]
                    ) -> Tuple[Tuple[int, ...], Matrix, Matrix]:
    """Smith form of the r x L matrix B with the given L columns, with its
    row transform: (exps, U, U_inv) such that B = U D V for some V
    invertible over A/p^k, where D is r x L with pi^exps[i] (times a unit)
    at (i, i) and zeros elsewhere.  The r exponents ascend; a row without
    a pivot (a zero trailing submatrix mod p^k, or i >= L) gets exponent
    k, as pi^k = 0.  So the column span of B is U diag(pi^exps) (A/p^k)^r.

    Pivot rule: minimum valuation in the trailing submatrix, ties by
    row-major position.  Only row operations are carried out: once the
    pivot column is cleared below the pivot, the column operations would
    only clear the pivot row, which no later step reads, so V is never
    formed.  The pivots keep their unit parts, which V absorbs.
    """
    k = ring.k
    r, L = len(cols[0]), len(cols)
    add, sub, mul = ring.add, ring.sub, ring.mul
    A = [[cols[j][i] for j in range(L)] for i in range(r)]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    U_inv = [row[:] for row in U]
    exps: List[int] = []
    for t in range(min(r, L)):
        i0, e = _place_pivot(ring, A, t)
        if i0 is None:
            break
        if i0 != t:
            U_inv[i0], U_inv[t] = U_inv[t], U_inv[i0]
            for row in U:
                row[i0], row[t] = row[t], row[i0]
        prow, irow = A[t], U_inv[t]
        u_inv = ring.inv(ring.unit_part(prow[t], e))
        for i in range(t + 1, r):
            x = A[i][t]
            if not x:
                continue
            # row i -= c * row t clears A[i][t]; U gets the inverse
            # operation.  A multiplier c = 1 is subtracted without a product
            c = ring.unit_part(x, e)
            if u_inv != 1:
                c = u_inv if c == 1 else mul(c, u_inv)
            A[i] = [sub(a, b if c == 1 else c if b == 1 else mul(c, b))
                    if b else a for a, b in zip(A[i], prow)]
            U_inv[i] = [sub(a, b if c == 1 else c if b == 1 else mul(c, b))
                        if b else a for a, b in zip(U_inv[i], irow)]
            for row in U:
                y = row[i]
                if y:
                    row[t] = add(row[t], y if c == 1 else c if y == 1
                                 else mul(c, y))
        exps.append(e)
    _pad_ascending(exps, r, k)
    inv_cols = list(zip(*U_inv))
    for i in range(r):
        for j in range(r):
            acc = 0
            for a, b in zip(U[i], inv_cols[j]):
                if a and b:
                    acc = add(acc, b if a == 1 else a if b == 1 else mul(a, b))
            if acc != (i == j):
                raise InvariantError("Smith row transform is not invertible")
    return tuple(exps), U, U_inv
