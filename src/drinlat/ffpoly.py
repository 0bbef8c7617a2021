"""Exact arithmetic in F_q and F_q[t].

Finite fields are built either over the prime field (with a
deterministically chosen irreducible modulus) or as a quotient of F_q[t]
by a prime, so residue fields are ordinary field objects.  Elements are
plain ints in [0, size) encoding coordinates in a fixed polynomial basis
over the base field; no compatibility between different constructions of
the same order is promised.  Extension fields of at most `_TABLE_LIMIT`
elements multiply and invert through discrete-logarithm (log/exp)
tables of about 3q entries; larger ones multiply the digit lists of
their elements (`FiniteField._mul_raw`) and invert them by the extended
Euclidean algorithm against the modulus, without building Polys.

Sums, negations, scalar multiples, products and divisions of coefficient
lists live in the `_*_coeffs` functions, which `Poly`, `FiniteField` and
the packed kernel of `_chainring` share.  Each tells apart a prime field
(ints, Kronecker products), an extension field with the q x q tables that
a packed kernel over it fills (2q^2 + q entries, beside the log/exp
tables), and any other field (its own methods).

The primes of one degree come from a sieve that marks every monic
multiple of the smaller primes in a byte array indexed by coefficient
vectors.  `power_residue_symbol` computes (a/b)_n by Euclid's algorithm
and the reciprocity law, with no residue field, and `absolute_trace`
takes the trace of a residue class by Frobenius steps in F_q[t].
Equal-degree splitting takes a product of two linear factors apart by
the quadratic formula, so its cost does not depend on which roots they
are.  Its square root and every n-th root (`FiniteField.nth_root`, one
call per prime factor r of n) come from one r-th root routine,
`FiniteField._rth_root`: Tonelli-Shanks's loop, with the discrete
logarithms of Adleman-Manders-Miller at odd r.  These roots and the
roots of y^p - y = c (`FiniteField.artin_schreier_root`) multiply
without filling tables, and the p-th power `FiniteField.frobenius` is a
spread of digits and one reduction.

Polynomial text grammar (bit-exact, used by the CLI and JSON payloads):
terms ``c*t^k`` joined by ``+``, coefficients as decimal integers,
e.g. ``t^3+2*t+1``; a field is written ``p^e``, e.g. ``3^2``.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterator, Optional

from .errors import (BudgetExceeded, InvariantError, MalformedInput,
                     ZeroPolynomial, decoding)

# Extension fields up to this size keep log/exp tables of their
# multiplicative group (see FiniteField._build_tables); larger ones take
# each product on digit lists (FiniteField._mul_raw) and each inverse by
# extended Euclid (FiniteField._inv_raw).
_TABLE_LIMIT = 256

# Extension fields up to this size get q x q tables for their coefficient
# lists when a packed kernel over them is built (_fill_coefficient_tables).
_KERNEL_TABLE_LIMIT = 64


def _is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class FiniteField:
    """GF(p^e), elements encoded as ints in [0, size).

    For an extension field the int is the base-`base.size` digit vector of
    the coordinates in the power basis of ``modulus``'s root.  Over F_2
    every such encoding is a bit vector, so addition is XOR.

    An extension field of at most ``_TABLE_LIMIT`` elements builds its
    log/exp tables on first use, from one walk over the powers of its
    smallest primitive element g.  A product of nonzero elements is then
    g^(log a + log b) and an inverse g^(q - 1 - log a), one lookup each.
    """

    def __init__(self, p: int, base: Optional["FiniteField"] = None,
                 modulus: Optional["Poly"] = None):
        if base is None:
            if not _is_prime_int(p):
                raise MalformedInput(f"characteristic {p} is not prime")
            self.p = p
            self.base = None
            self.modulus = None
            self.size = p
            self.e = 1
        else:
            if modulus is None or modulus.field is not base:
                raise ValueError("the modulus must be a polynomial over base")
            if not modulus.is_monic() or modulus.degree < 1:
                raise ValueError("the modulus must be monic of degree >= 1")
            self.p = base.p
            self.base = base
            self.modulus = modulus
            self.size = base.size ** modulus.degree
            self.e = base.e * modulus.degree
            self._weights = [base.size ** i for i in range(modulus.degree)]
            self._reducer = _reducer(base, modulus.coeffs)
        self._log: Optional[list] = None
        self._exp: Optional[list] = None
        self._nonres: dict = {}
        self._at = self._mt = self._nt = None  # see _fill_coefficient_tables

    # -- construction ---------------------------------------------------

    @staticmethod
    def of_order(p: int, e: int = 1) -> "FiniteField":
        """The (interned) field of order p^e over a deterministic modulus."""
        return _field_of_order(p, e)

    def extension(self, modulus: "Poly") -> "FiniteField":
        return FiniteField(self.p, base=self, modulus=modulus)

    # -- element codecs ---------------------------------------------------

    def _split(self, a: int) -> list:
        """Digits of a in base base.size, length = modulus degree."""
        b = self.base.size
        return [a // w % b for w in self._weights]

    def _join(self, digits) -> int:
        b = self.base.size
        a = 0
        for d in reversed(digits):
            a = a * b + d
        return a

    def to_poly(self, a: int) -> "Poly":
        """Element as a polynomial over the base field (extension only)."""
        return Poly(self.base, self._split(a))

    def from_base_poly(self, f: "Poly") -> int:
        """Reduce a base-field polynomial mod the modulus and encode."""
        return self._join(_divmod_coeffs(self.base, list(f.coeffs),
                                         self._reducer)[1])

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        bb = self.base.size
        x, y, out, mult = a, b, 0, 1
        while x or y:
            x, dx = divmod(x, bb)
            y, dy = divmod(y, bb)
            out += self.base.add(dx, dy) * mult
            mult *= bb
        return out

    def neg(self, a: int) -> int:
        if self.base is None:
            return (-a) % self.p
        if self.p == 2:
            return a
        bb = self.base.size
        x, out, mult = a, 0, 1
        while x:
            x, dx = divmod(x, bb)
            out += self.base.neg(dx) * mult
            mult *= bb
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return (a * b) % self.p
        if self.size <= _TABLE_LIMIT:
            log = self._log or self._build_tables()
            return self._exp[log[a] + log[b]] if a and b else 0
        return self._mul_raw(a, b)

    def _mul_raw(self, a: int, b: int) -> int:
        """The product of the digit lists, reduced by the monic modulus."""
        x, y = self._split(a), self._split(b)
        prod = _mul_coeffs(self.base, x, y, len(x) + len(y) - 1)
        return self._join(_divmod_coeffs(self.base, prod, self._reducer)[1])

    def _fill_coefficient_tables(self) -> None:
        """Sum, product and negation tables for the coefficient lists of an
        extension field of at most `_KERNEL_TABLE_LIMIT` elements, filled by
        the first packed kernel over it (never a k(p): primes are over F_q)."""
        r = range(self.size)
        if self.base and self.size <= _KERNEL_TABLE_LIMIT and not self._mt:
            self._at = tuple(self.add(x, y) for x in r for y in r)
            self._mt = tuple(self.mul(x, y) for x in r for y in r)
            self._nt = tuple(self.neg(x) for x in r)

    def _build_tables(self) -> list:
        """Fill the log/exp tables from a walk over the powers of the
        primitive element g: q - 1 raw products, the last checking that
        g^(q-1) = 1.  ``exp`` holds g^0 .. g^(q-2) twice, so a sum of two
        logarithms needs no reduction mod q - 1.  Returns ``log``."""
        q = self.size
        n = q - 1
        mul = self._mul_raw
        g = self._element_of_order(n)
        exp = [1] * n
        log = [0] * q
        x = 1
        for k in range(1, n):
            x = mul(g, x)
            if x == 1:
                raise InvariantError(
                    f"{self!r}: element {g} has order {k}, not {n}")
            exp[k] = x
            log[x] = k
        if mul(g, x) != 1:
            raise InvariantError(f"{self!r}: element {g}^{n} is not 1")
        self._exp = exp + exp
        self._log = log
        return log

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        if self.size <= _TABLE_LIMIT:
            log = self._log or self._build_tables()
            return self._exp[self.size - 1 - log[a]]
        return self._inv_raw(a)

    def _inv_raw(self, a: int) -> int:
        """Extended Euclid on the digit lists of a and the modulus m: keeps
        r = s*a mod m, dividing by one base-field inverse per remainder."""
        B = self.base
        mul, sub = B.mul, B.sub
        r0, r1 = list(self.modulus.coeffs), self._split(a)
        s0, s1 = [], [1]
        while r1 and r1[-1] == 0:
            r1.pop()
        while len(r1) > 1:
            # r0 <- r0 mod r1 and s0 <- s0 - (r0 div r1) * s1
            d = len(r1) - 1
            lead_inv = B.inv(r1[-1])
            while len(r0) > d:
                c = mul(r0[-1], lead_inv)
                k = len(r0) - 1 - d
                for i, y in enumerate(r1, k):
                    r0[i] = sub(r0[i], mul(c, y))
                s0 += [0] * (k + len(s1) - len(s0))
                for i, y in enumerate(s1, k):
                    s0[i] = sub(s0[i], mul(c, y))
                while r0 and r0[-1] == 0:
                    r0.pop()
            if not r0:
                raise ZeroDivisionError(f"{a} is not invertible in {self!r}")
            r0, r1, s0, s1 = r1, r0, s1, s0
        c = B.inv(r1[0])
        return self._join([mul(c, x) for x in s1])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.base is None:
            return pow(a, n, self.p)
        if a == 0:
            return 1 if n == 0 else 0
        if n >= self.size:
            n %= self.size - 1
        return _pow_by(self.mul, a, n)

    def from_int(self, c: int) -> int:
        """Grammar coefficient: reduced mod p for prime fields, mod size
        (digit encoding) for extensions."""
        if self.base is None:
            return c % self.p
        return c % self.size

    def elements(self) -> range:
        return range(self.size)

    def _untabled_mul(self):
        """The product of the root formulas, which fills no table: the
        log/exp tables where another caller has built them, digit lists
        (`_mul_raw`) where it has not, plain ints over a prime field."""
        if self.base is None:
            p = self.p
            return lambda a, b: a * b % p
        if self._log is not None:
            return self.mul
        return self._mul_raw

    def frobenius(self, a: int) -> int:
        """a^p, from the digits of a by `_frobenius_coeffs`: no products
        in this field."""
        if self.base is None:
            return a
        return self._join(_frobenius_coeffs(self._split(a), self._reducer,
                                            self.base))

    def scale(self, c: int, a: int) -> int:
        """c * a for c in the base field, digit by digit."""
        if self.base is None:
            return self.mul(c, a)
        return self._join(_scale_coeffs(self.base, c, self._split(a)))

    def trace(self, a: int) -> int:
        """The absolute trace of a, an element of F_p (`_trace_coeffs`)."""
        if self.base is None:
            return a
        return _trace_coeffs(self._split(a), self._reducer, self.base, self.e)

    def artin_schreier_root(self, c: int) -> int:
        """A root y of y^p - y = c, for c of absolute trace 0.

        With e = [F : F_p], an element delta of trace 1 and C_j = c +
        c^p + ... + c^(p^(j-1)), y = -sum over 0 < j < e of
        delta^(p^j) C_j has y^p - y = c Tr(delta) - delta Tr(c) = c
        (Lidl & Niederreiter, Finite Fields, Thm 2.25).  When p does not
        divide e, delta = 1/e lies in F_p and the sum is
        y = (1/e) sum over i < e of i c^(p^i), scalings only; for p = 2
        it is a half-trace.  Otherwise delta is the first F_p-basis
        element p^j of nonzero trace, scaled, and the sum takes e - 1
        products through `_untabled_mul`."""
        p, e = self.p, self.e
        y, x = 0, c
        if e % p:
            inv_e = pow(e, -1, p)
            for i in range(1, e):
                x = self.frobenius(x)
                if i * inv_e % p:
                    y = self.add(y, self.scale(i * inv_e % p, x))
            return y
        delta = next(z for z in (p ** j for j in range(e)) if self.trace(z))
        delta = self.scale(pow(self.trace(delta), -1, p), delta)
        mul = self._untabled_mul()
        prefix = 0
        for _ in range(e - 1):
            prefix = self.add(prefix, x)
            x = self.frobenius(x)
            delta = self.frobenius(delta)
            y = self.add(y, mul(delta, prefix))
        return self.neg(y)

    def nth_root(self, a: int, n: int) -> int:
        """An n-th root of a, for n dividing size - 1 and a an n-th power.

        One prime factor r of n at a time, by `_rth_root`.  An r-th root of
        a k-th power is a (k/r)-th power when k divides size - 1, so the
        chain never leaves the residues.  The root is checked (root^n = a)
        before it is returned; a non-residue a fails that check and raises
        MalformedInput."""
        if n < 1 or (self.size - 1) % n:
            raise MalformedInput(f"{n} does not divide {self.size} - 1")
        x = a
        if a:
            for r, mult in _int_factor(n):
                for _ in range(mult):
                    x = self._rth_root(x, r)
        if _pow_by(self._untabled_mul(), x, n) != a:
            raise MalformedInput(f"{a} is not an {n}-th power in {self!r}")
        return x

    def _rth_root(self, a: int, r: int) -> int:
        """An r-th root of a nonzero r-th power a, for a prime r dividing
        size - 1 = r^s t with r prime to t.

        One power w = a^(alpha - 1), r alpha = 1 mod t, gives x = w a and
        b = x^(r-1) w = a^(r alpha - 1), so x^r = a b with b of order r^k;
        k < s exactly when a is an r-th power.  Each step lowers k: d =
        b^(r^(k-1)) is z^l in the order-r subgroup <z>, z = rho^((size -
        1)/r) the Euler value of the non-residue rho (l by walking the
        powers of z), and with y = c^(r^(s-k-1)), c = rho^t, the pair
        x y^(r-l), b y^(r(r-l)) keeps x^r = a b.  At r = 2 (z = -1, l = 1)
        this is Tonelli-Shanks step for step; at odd r it returns the root
        of Adleman-Manders-Miller (FOCS 1977) from one power instead of
        two.  Products go through `_untabled_mul`, so a cold field builds
        no table."""
        mul = self._untabled_mul()
        s, t = 0, self.size - 1
        while t % r == 0:
            s, t = s + 1, t // r
        w = _pow_by(mul, a, (pow(r, -1, t) - 1) % t)
        x = mul(w, a)
        b = mul(_pow_by(mul, x, r - 1), w)
        c = None
        while b != 1:
            k, u = 0, b
            while u != 1:
                d, u = u, _pow_by(mul, u, r)
                k += 1
            if k == s:
                raise MalformedInput(f"{a} is not an {r}-th power in {self!r}")
            if c is None:
                c = _pow_by(mul, self._non_residue(r), t)
                z = self._nonres[r][1]
            c = _pow_by(mul, c, r ** (s - k - 1))
            j, u = r - 1, z
            while u != d:
                j, u = j - 1, mul(u, z)
            x = mul(x, _pow_by(mul, c, j))
            c = _pow_by(mul, c, r)
            b = mul(b, _pow_by(mul, c, j))
            s = k
        return x

    def _non_residue(self, r: int) -> int:
        """The smallest r-th power non-residue rho, for a prime r dividing
        size - 1; `_nonres` keeps it with its Euler value, the element
        rho^((size - 1)/r) of order r.  When r does not divide p - 1, or
        [F : F_p] is a multiple of r, every element of F_p (the ints below
        p) is an r-th power, so the search starts at p."""
        if r not in self._nonres:
            start = self.p if (self.p - 1) % r or self.e % r == 0 else 2
            for rho in range(start, self.size):
                z = self._euler_value(rho, r)
                if z != 1:
                    self._nonres[r] = rho, z
                    break
        return self._nonres[r][0]

    def _euler_value(self, z: int, r: int) -> int:
        """z^((size - 1)/r) for a nonzero z and r dividing size - 1, which
        is 1 exactly when z is an r-th power (Euler's criterion)."""
        return _pow_by(self._untabled_mul(), z, (self.size - 1) // r)

    def _element_of_order(self, k: int) -> int:
        """An element of exact order k | size - 1: z^((size - 1)/k) for the
        first z = 1, 2, ... whose power has order k, by `_untabled_mul`, so
        no table is filled (`_build_tables` takes its generator here)."""
        mul = self._untabled_mul()
        primes = [r for r, _ in _int_factor(k)]
        for z in range(1, self.size):
            w = _pow_by(mul, z, (self.size - 1) // k)
            if all(_pow_by(mul, w, k // r) != 1 for r in primes):
                return w
        raise InvariantError(f"{self!r}: no element of order {k}")

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __str__(self):
        return f"{self.p}^{self.e}" if self.e > 1 else str(self.p)


@lru_cache(maxsize=None)
def _field_of_order(p: int, e: int) -> FiniteField:
    if e == 1:
        return FiniteField(p)
    prime_field = _field_of_order(p, 1)
    for mod in _monic_polys(prime_field, e):
        if mod.is_irreducible():
            return FiniteField(p, base=prime_field, modulus=mod)
    raise InvariantError("no irreducible modulus found")


def _reducer(F: FiniteField, m, c: int = 1) -> tuple:
    """(deg m, the nonzero (j, -c m_j) below the leading term), as
    `_divmod_coeffs` takes it, of the monic c m over F: c is 1 for a monic
    m, else the inverse of its leading coefficient."""
    k = len(m) - 1
    low = (_neg_coeffs(F, m[:k]) if c == 1
           else _scale_coeffs(F, F.neg(c), m[:k]))
    return k, [(j, y) for j, y in enumerate(low) if y]


def _add_coeffs(F: FiniteField, A, B) -> list:
    """A + B, as long as the longer of the two."""
    if len(A) < len(B):
        A, B = B, A
    out = list(A)
    if F.base is None:
        p = F.p
        for i, y in enumerate(B):
            out[i] = (out[i] + y) % p
    elif F._at is not None:
        at, q = F._at, F.size
        for i, y in enumerate(B):
            out[i] = at[out[i] * q + y]
    else:
        add = F.add
        for i, y in enumerate(B):
            out[i] = add(out[i], y)
    return out


def _neg_coeffs(F: FiniteField, A) -> list:
    if F.base is None:
        p = F.p
        return [-x % p for x in A]
    if F._nt is not None:
        nt = F._nt
        return [nt[x] for x in A]
    return list(map(F.neg, A))


def _scale_coeffs(F: FiniteField, c: int, A) -> list:
    """c * A for c in F."""
    if F.base is None:
        p = F.p
        return [c * x % p for x in A]
    if F._mt is not None:
        row = F._mt[c * F.size:(c + 1) * F.size]
        return [row[x] for x in A]
    mul = F.mul
    return [mul(c, x) for x in A]


def _mul_coeffs(F: FiniteField, A, B, n: int) -> list:
    """The coefficients of A * B below degree n."""
    n = min(n, len(A) + len(B) - 1)
    if n <= 0 or not A or not B:
        return []
    if F.base is None:
        p = F.p
        if len(A) < 4 or len(B) < 4:  # short: schoolbook beats packing
            out = [0] * n
            for i, x in enumerate(A[:n]):
                if x:
                    for j, y in enumerate(B[:n - i], i):
                        out[j] = (out[j] + x * y) % p
            return out
        # Kronecker substitution: one big-int product, with slots wide
        # enough that no coefficient of the integer product carries
        W = (min(len(A), len(B), n) * (p - 1) ** 2).bit_length()
        a = b = 0
        for c in reversed(A[:n]):
            a = (a << W) | c
        for c in reversed(B[:n]):
            b = (b << W) | c
        prod, m = a * b, (1 << W) - 1
        return [((prod >> s) & m) % p for s in range(0, W * n, W)]
    out = [0] * n
    if F._mt is not None:
        mt, at, q = F._mt, F._at, F.size
        for i, x in enumerate(A[:n]):
            if x:
                row = mt[x * q:(x + 1) * q]
                for j, y in enumerate(B[:n - i], i):
                    if y:
                        out[j] = at[out[j] * q + row[y]]
        return out
    add, mul = F.add, F.mul
    for i, x in enumerate(A[:n]):
        if x:
            for j, y in enumerate(B[:n - i], i):
                if y:
                    out[j] = add(out[j], mul(x, y))
    return out


def _divmod_coeffs(F: FiniteField, x: list, reducer: tuple) -> tuple:
    """(x div m, x mod m) over F for the monic m of ``reducer = _reducer(F,
    m)``, by long division; x is overwritten and the remainder padded with
    zeros to deg m coefficients."""
    k, low = reducer
    top = range(len(x) - 1, k - 1, -1)
    if F.base is None:
        p = F.p
        for i in top:
            c = x[i] = x[i] % p
            if c:
                off = i - k
                for j, y in low:
                    x[off + j] += c * y
        rem = [c % p for c in x[:k]]
    elif F._mt is not None:
        mt, at, q = F._mt, F._at, F.size
        for i in top:
            c = x[i]
            if c:
                off = i - k
                for j, y in low:
                    x[off + j] = at[x[off + j] * q + mt[c * q + y]]
        rem = x[:k]
    else:
        add, mul = F.add, F.mul
        for i in top:
            c = x[i]
            if c:
                off = i - k
                for j, y in low:
                    x[off + j] = add(x[off + j], mul(c, y))
        rem = x[:k]
    return x[k:], rem + [0] * (k - len(rem))


def _frobenius_coeffs(x: list, reducer: tuple, F: FiniteField) -> list:
    """x^p mod m on coefficient lists over F of characteristic p, for the
    monic m that ``reducer`` describes: (sum c_i t^i)^p = sum c_i^p t^(p i),
    so the coefficients are spread (and raised to the p-th power over an
    extension F) and reduced once."""
    p = F.p
    out = [0] * (p * (len(x) - 1) + 1) if x else []
    out[::p] = x if F.base is None else [F.pow(c, p) for c in x]
    return _divmod_coeffs(F, out, reducer)[1]


def _trace_coeffs(x: list, reducer: tuple, F: FiniteField, e: int) -> int:
    """The trace of x mod m down to F_p, for the coefficient list x of
    length deg m and e = [F[t]/(m) : F_p]: the sum of the e images
    x^(p^i) mod m (`_frobenius_coeffs`).  It must be a constant of F_p,
    an int below p; anything else raises."""
    acc = list(x)
    for _ in range(e - 1):
        x = _frobenius_coeffs(x, reducer, F)
        acc = _add_coeffs(F, acc, x)
    if any(acc[1:]) or acc[0] >= F.p:
        raise InvariantError(f"trace {acc} is not in F_{F.p}")
    return acc[0]


def _pow_by(mul, a: int, n: int) -> int:
    """a^n for n >= 0 by square-and-multiply with ``mul``, top bit first;
    n < 3, the steps of `FiniteField._rth_root` at r = 2, directly."""
    if n < 3:
        return mul(a, a) if n == 2 else (a if n else 1)
    result = a
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


def _int_factor(n: int):
    out = []
    d = 2
    while d * d <= n:
        m = 0
        while n % d == 0:
            n //= d
            m += 1
        if m:
            out.append((d, m))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class Poly:
    """Univariate polynomial over a FiniteField, coefficients little-endian,
    canonical (no trailing zeros).  Immutable."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: FiniteField, coeffs):
        if coeffs and coeffs[-1] == 0:
            k = len(coeffs) - 1
            while k >= 0 and coeffs[k] == 0:
                k -= 1
            coeffs = coeffs[:k + 1]
        self.field = field
        self.coeffs = tuple(coeffs)
        self._hash = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field: FiniteField) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: FiniteField) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def const(field: FiniteField, c: int) -> "Poly":
        return Poly(field, (c % field.size,))

    @staticmethod
    def t(field: FiniteField) -> "Poly":
        return Poly(field, (0, 1))

    @staticmethod
    def monomial(field: FiniteField, c: int, k: int) -> "Poly":
        return Poly(field, (0,) * k + (c % field.size,))

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lead(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self.coeffs))
        return self._hash

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not other.coeffs:
            return self
        return Poly(self.field, _add_coeffs(self.field, self.coeffs,
                                            other.coeffs))

    def __neg__(self) -> "Poly":
        return Poly(self.field, _neg_coeffs(self.field, self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        return Poly(self.field,
                    _mul_coeffs(self.field, a, b, len(a) + len(b) - 1))

    def scale(self, c: int) -> "Poly":
        return Poly(self.field, _scale_coeffs(self.field, c, self.coeffs))

    def __divmod__(self, other: "Poly"):
        """Long division by other made monic, then the quotient scaled."""
        F, m = self.field, other.coeffs
        if not m:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(m):
            return Poly.zero(F), self
        c = 1 if m[-1] == 1 else F.inv(m[-1])
        quot, rem = _divmod_coeffs(F, list(self.coeffs), _reducer(F, m, c))
        if c != 1:
            quot = _scale_coeffs(F, c, quot)
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "Poly":
        result = Poly.one(self.field)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def pow_mod(self, n: int, mod: "Poly") -> "Poly":
        result = Poly.one(self.field)
        base = self % mod
        while n > 0:
            if n & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            n >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        """sum k c_k t^(k-1): each c_k with k = r mod p scaled by r < p."""
        F, c, p = self.field, self.coeffs, self.field.p
        out = [0] * max(len(c) - 1, 0)
        for r in range(1, min(p, len(c))):
            out[r - 1::p] = _scale_coeffs(F, r, c[r::p])
        return Poly(F, out)

    # -- factorization helpers ---------------------------------------------

    def is_irreducible(self) -> bool:
        """The distinct-degree test: deterministic, exact.

        A reducible f of degree d has an irreducible factor of degree
        i <= d/2, which divides x^(q^i) - x.  So f is irreducible iff
        gcd(x^(q^i) - x, f) = 1 for every i <= d/2, and x^(q^d) = x mod f
        holds as well.  The gcd is taken as each Frobenius power is
        computed, so a reducible f is rejected at its least factor degree.
        Rabin's test (`tests/irreducible_oracle.py`) takes gcds only at
        d/l for the primes l dividing d, all of them <= d/2, but computes
        every power first."""
        d = self.degree
        if d < 1 or not self.is_monic():
            f = self.monic() if d >= 1 else self
            if d < 1:
                return False
            return f.is_irreducible()
        q = self.field.size
        t_poly = Poly.t(self.field)
        xq = t_poly
        for i in range(1, d + 1):
            xq = xq.pow_mod(q, self)
            if 2 * i <= d and not (xq - t_poly).gcd(self).is_one():
                return False
        return xq == t_poly % self

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r} over {self.field})"


def _monic_polys(field: FiniteField, degree: int) -> Iterator[Poly]:
    """All monic polynomials of exact degree, ordered by coefficient
    vector read from the highest non-leading coefficient down."""
    for tail in itertools.product(field.elements(), repeat=degree):
        # tail is (c_{d-1}, ..., c_0)
        yield Poly(field, tuple(reversed(tail)) + (1,))


# ---------------------------------------------------------------------------
# Primes of F = F_q(t)

class Prime:
    """A finite place of F_q(t): a monic irreducible polynomial."""

    __slots__ = ("field", "poly", "degree", "residue_size", "_hash")

    def __init__(self, poly: Poly, check: bool = True):
        if check and not (poly.is_monic() and poly.is_irreducible()):
            raise MalformedInput(f"{poly_to_str(poly)} is not monic irreducible")
        self.field = poly.field
        self.poly = poly
        self.degree = poly.degree
        self.residue_size = poly.field.size ** poly.degree
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, Prime) and self.field is other.field
                and self.poly == other.poly)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("prime", id(self.field), self.poly.coeffs))
        return self._hash

    def __repr__(self):
        return f"Prime({poly_to_str(self.poly)} over {self.field})"

    def __str__(self):
        return poly_to_str(self.poly)

    def sort_key(self):
        return (self.degree, tuple(reversed(self.poly.coeffs)))


class ResidueField(FiniteField):
    """k(p) = F_q[t]/(p) with the reduction and lift maps."""

    def __init__(self, prime: Prime):
        super().__init__(prime.field.p, base=prime.field, modulus=prime.poly)
        self.prime = prime

    def reduce(self, f: Poly) -> int:
        """Ring map A -> k(p)."""
        if f.field is not self.base:
            raise ValueError(f"{f!r} is not a polynomial over {self.base!r}")
        return self.from_base_poly(f)

    def lift(self, a: int) -> Poly:
        """Canonical representative of degree < deg p."""
        return self.to_poly(a)

    def _euler_value(self, z: int, r: int) -> int:
        """The power residue symbol (z/p)_r when r divides q - 1, an element
        of F_q (the ints below q in k(p)): Euclid's algorithm in F_q[t] on
        degree < deg p instead of a power in k(p)."""
        if (self.base.size - 1) % r:
            return super()._euler_value(z, r)
        return power_residue_symbol(self.to_poly(z), self.prime.poly, r)


@lru_cache(maxsize=None)
def residue_field(prime: Prime) -> ResidueField:
    return ResidueField(prime)


def primes_of_degree(field: FiniteField, d: int) -> list:
    return list(_primes_of_degree_cached(field, d))


# The most indices the prime sieve marks, one byte each: the sieve of the
# primes of degree d over F_q has q^d of them (2^20 takes about 2 s).
MAX_SIEVE_SIZE = 2 ** 20


@lru_cache(maxsize=None)
def _primes_of_degree_cached(field: FiniteField, d: int) -> tuple:
    """The monic irreducibles of degree d in `_monic_polys` order, by a
    sieve.  A monic f of degree d has the index sum_{k<d} c_k q^k, its
    coefficients read as base-q digits (c_0 lowest), so `_monic_polys`
    walks the indices in increasing order.  Every reducible f is p*g for a
    prime p of degree <= d/2, and `_mark_multiples` marks all those indices;
    the unmarked ones are the primes.  The count is checked against
    Gauss's formula."""
    q = field.size
    # q >= 2, so a degree of 21 or more exceeds 2^20 at once
    if d >= MAX_SIEVE_SIZE.bit_length() or q ** d > MAX_SIEVE_SIZE:
        raise BudgetExceeded(
            f"a sieve of {q}^{d} polynomials exceeds {MAX_SIEVE_SIZE}")
    size = q ** d
    marked = bytearray(size)
    rows: dict = {}
    for e in range(1, d // 2 + 1):
        for p in _primes_of_degree_cached(field, e):
            _mark_multiples(marked, field, p.poly.coeffs, d, rows)
    out = []
    for idx in itertools.compress(range(size), marked.translate(_UNMARKED)):
        coeffs = []
        for _ in range(d):
            idx, c = divmod(idx, q)
            coeffs.append(c)
        coeffs.append(1)
        out.append(Prime(Poly(field, coeffs), check=False))
    if len(out) != count_irreducibles(q, d):
        raise InvariantError(
            f"prime sieve over {field!r} found {len(out)} primes of degree "
            f"{d}, not {count_irreducibles(q, d)}")
    return tuple(out)


# bytes.translate table: a zero byte (unmarked index) to 1, a mark to 0
_UNMARKED = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _mark_multiples(marked: bytearray, field: FiniteField, p: tuple, d: int,
                    rows: dict) -> None:
    """Mark the index of p*g for every monic g of degree m = d - deg p.

    Over F_P (q = P^E) the lower coefficients of g are m*E coordinates,
    coordinate k = j*E + b at the additive basis element P^b of the digit
    encoding of g_j, which moves p*g by w_k = P^b * p * t^j.  A base-P
    counter runs from 0 to q^m - 1, and each step adds w_k for the digit k
    that the step increments (the digits below k wrap to 0).  After s
    steps the coordinate at w_k is s_k - s_(k+1) mod P, the s_k being the
    digits of s, and that map is a bijection, so the walk meets every g
    once.  A step changes the coefficients of p*g by w_k and moves the
    index by the changed digits.  `rows` caches, per field element c, the
    list x -> x + c.
    """
    q = field.size
    P, E = field.p, field.e
    e = len(p) - 1
    m = d - e
    weight = [q ** k for k in range(d)]
    v = [0] * m + list(p[:e])  # p * t^m without its leading 1
    idx = sum(c * w for c, w in zip(v, weight))
    steps = []
    for j in range(m):
        for b in range(E):
            step = []
            for i, c in enumerate(p):
                c = field.mul(P ** b, c)
                if c:
                    row = rows.get(c)
                    if row is None:
                        row = rows[c] = [field.add(x, c) for x in range(q)]
                    step.append((j + i, row, weight[j + i]))
            steps.append(step)
    digits = [0] * (m * E)
    top = P - 1
    marked[idx] = 1
    for _ in range(q ** m - 1):
        k = 0
        while digits[k] == top:
            digits[k] = 0
            k += 1
        digits[k] += 1
        for pos, row, w in steps[k]:
            old = v[pos]
            new = row[old]
            v[pos] = new
            idx += (new - old) * w
        marked[idx] = 1


def enumerate_primes(field: FiniteField, d_max: int) -> list:
    """All monic irreducibles of degree <= d_max, sorted by
    (degree, lexicographic coefficient order)."""
    if d_max < 1:
        raise MalformedInput("d_max must be >= 1")
    out = []
    for d in range(1, d_max + 1):
        out.extend(primes_of_degree(field, d))
    return out


def moebius(n: int) -> int:
    fac = _int_factor(n)
    if any(m > 1 for _, m in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def count_irreducibles(q: int, d: int) -> int:
    """Gauss' necklace count (1/d) sum_{e|d} mu(e) q^(d/e)."""
    total = sum(moebius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    if total % d:
        raise InvariantError(f"necklace sum {total} is not divisible by {d}")
    return total // d


# ---------------------------------------------------------------------------
# Factorization

def poly_factor(f: Poly) -> list:
    """Factor f into monic irreducibles.

    Returns a list of (Prime-like monic irreducible Poly, multiplicity)
    sorted by (degree, coefficient order); the leading coefficient is
    dropped (recover it as f.lead()).  Uses exhaustive trial division
    when q^deg(f) <= 4096, distinct-degree then equal-degree splitting
    above that.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    F = f.field
    m = f.monic()
    if m.degree == 0:
        return []
    if F.size ** m.degree <= 4096:
        pairs = _trial_division(m)
    else:
        acc: dict = {}
        _factor_monic(m, 1, acc)
        pairs = sorted(acc.items(), key=lambda kv: _poly_sort_key(kv[0]))
    return pairs


def _poly_sort_key(f: Poly):
    return (f.degree, tuple(reversed(f.coeffs)))


def _trial_division(m: Poly) -> list:
    """Divide out the primes of degree d = 1, 2, ...; a cofactor of
    degree < 2d is then 1 or prime, so the division stops there."""
    out = []
    d = 1
    while m.degree >= 2 * d:
        for p in primes_of_degree(m.field, d):
            mult = 0
            while True:
                q, r = divmod(m, p.poly)
                if not r.is_zero():
                    break
                m, mult = q, mult + 1
            if mult:
                out.append((p.poly, mult))
                if m.degree < 2 * d:
                    break
        d += 1
    if m.degree >= 1:
        out.append((m, 1))
    out.sort(key=lambda kv: _poly_sort_key(kv[0]))
    return out


def _factor_monic(m: Poly, mult: int, acc: dict) -> None:
    if m.degree == 0:
        return
    d = m.derivative()
    if d.is_zero():
        # m = g(t^p); take p-th roots of coefficients
        F = m.field
        p = F.p
        root_exp = F.size // p  # a^(q/p) is the p-th root since a^q = a
        coeffs = [F.pow(m.coeffs[i], root_exp) for i in range(0, len(m.coeffs), p)]
        _factor_monic(Poly(F, coeffs), mult * p, acc)
        return
    g = m.gcd(d)
    if not g.is_one():
        _factor_monic(g, mult, acc)
        _factor_monic(m // g, mult, acc)
        return
    _factor_squarefree(m, mult, acc)


def _factor_squarefree(m: Poly, mult: int, acc: dict) -> None:
    F = m.field
    q = F.size
    t_poly = Poly.t(F)
    xq = t_poly % m
    d = 0
    while m.degree > 0:
        d += 1
        if m.degree < 2 * d:
            acc[m] = acc.get(m, 0) + mult
            return
        xq = xq.pow_mod(q, m)
        g = (xq - t_poly).gcd(m)
        if not g.is_one():
            for piece in _equal_degree_split(g, d):
                acc[piece] = acc.get(piece, 0) + mult
            m = m // g
            xq = xq % m


def _split_candidates(F: FiniteField, max_degree: int) -> Iterator[Poly]:
    """Monic polynomials of degree 1..max_degree; in characteristic 2,
    c*t for c in the F_2-basis 1, 2, 4, ... of F (elements are bit vectors)
    replace the linear ones.  In characteristic 2, a separates the roots r
    and s when Tr(a(r)) != Tr(a(s)), the trace taken to F_2; so t + c
    fails wherever t does, while Tr(c (r - s)) is F_2-linear in c and,
    for r != s in F, nonzero on some basis element.
    """
    for degree in range(1, max_degree + 1):
        if degree == 1 and F.p == 2:
            yield from (Poly(F, (0, 1 << j)) for j in range(F.e))
        else:
            yield from _monic_polys(F, degree)


def _equal_degree_split(g: Poly, d: int) -> list:
    """Split a squarefree product of degree-d irreducibles.

    A product of two linear factors in odd characteristic splits by the
    quadratic formula.  Otherwise a deterministic sweep over small
    candidate polynomials; fine at the field sizes this library targets.
    """
    F = g.field
    if g.degree == d:
        return [g]
    if d == 1 and g.degree == 2 and F.p != 2:
        c, b = g.coeffs[0], g.coeffs[1]
        two = F.add(1, 1)
        disc = F.sub(F.mul(b, b), F.mul(F.add(two, two), c))
        root = F._rth_root(disc, 2)
        half = F.inv(two)
        return sorted((Poly(F, (F.mul(F.add(b, sign), half), 1))
                       for sign in (root, F.neg(root))), key=_poly_sort_key)
    q = F.size
    for a in _split_candidates(F, g.degree + 3):
        if F.p == 2:
            # trace map over F_2
            acc = a % g
            term = a % g
            for _ in range(d * F.e - 1):
                term = term.pow_mod(2, g)
                acc = acc + term
            h = acc.gcd(g)
        else:
            b = a.pow_mod((q ** d - 1) // 2, g)
            h = (b - Poly.one(F)).gcd(g)
        if not h.is_one() and h.degree < g.degree:
            return sorted(
                _equal_degree_split(h, d) + _equal_degree_split(g // h, d),
                key=_poly_sort_key)
    raise InvariantError("equal-degree split failed to find a splitter")


# ---------------------------------------------------------------------------
# Text grammar

_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(t(?:\^(\d+))?)?$")

# The largest exponent the text parsers accept: polynomials are dense
# coefficient lists, so t^(10^8) would ask for gigabytes.
MAX_EXPONENT = 2 ** 18


def exponent_from_str(digits: str) -> int:
    """The exponent written `digits`; a ValueError above MAX_EXPONENT,
    which `errors.decoding` reports as malformed input."""
    k = int(digits)
    if k > MAX_EXPONENT:
        raise ValueError(f"exponent {k} exceeds {MAX_EXPONENT}")
    return k


def poly_to_str(f: Poly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for k in reversed(range(len(f.coeffs))):
        c = f.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
    return "+".join(parts)


def poly_from_str(s: str, field: FiniteField) -> Poly:
    if not isinstance(s, str):
        raise MalformedInput(f"polynomial must be a string, not {s!r}")
    text = s.replace(" ", "")
    if not text:
        raise MalformedInput("empty polynomial string")
    if text == "0":
        return Poly.zero(field)
    # normalize minus signs into +NEG markers
    text = text.replace("-", "+-")
    if text.startswith("+"):
        text = text[1:]
    coeffs: dict = {}
    with decoding(f"polynomial {s!r}"):
        for term in text.split("+"):
            if not term:
                raise MalformedInput(f"bad polynomial syntax: {s!r}")
            negate = term.startswith("-")
            if negate:
                term = term[1:]
            mm = _TERM_RE.match(term)
            if not mm or (mm.group(1) is None and mm.group(2) is None):
                raise MalformedInput(f"bad polynomial term {term!r} in {s!r}")
            c = 1 if mm.group(1) is None else field.from_int(int(mm.group(1)))
            if mm.group(2) is None:
                k = 0
            elif mm.group(3) is not None:
                k = exponent_from_str(mm.group(3))
            else:
                k = 1
            if negate:
                c = field.neg(c)
            coeffs[k] = field.add(coeffs.get(k, 0), c)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(field, out)


# The largest characteristic and field order the text parser accepts.  The
# characteristic is tested by trial division, and a field of order p^e is
# built by walking the monic polynomials of degree e, which holds all p
# elements of F_p at once.
MAX_CHARACTERISTIC = 2 ** 16
MAX_FIELD_ORDER = 2 ** 64


def field_from_str(s: str) -> FiniteField:
    mm = re.match(r"^(\d+)(?:\^(\d+))?$", s.strip())
    if not mm:
        raise MalformedInput(f"bad field spec {s!r}")
    with decoding(f"field spec {s!r}"):
        p = int(mm.group(1))
        e = int(mm.group(2)) if mm.group(2) else 1
        if p > MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {p} exceeds {MAX_CHARACTERISTIC}")
        if not _is_prime_int(p) or e < 1:
            raise MalformedInput(f"bad field spec {s!r}")
        # p >= 2, so an exponent of 65 or more exceeds 2^64 at once
        if e >= MAX_FIELD_ORDER.bit_length() or p ** e > MAX_FIELD_ORDER:
            raise ValueError(f"field order {p}^{e} exceeds "
                             f"2^{MAX_FIELD_ORDER.bit_length() - 1}")
    return FiniteField.of_order(p, e)


def prime_from_str(s: str, field: FiniteField) -> Prime:
    return Prime(poly_from_str(s, field))


def power_residue_symbol(a: Poly, b: Poly, n: int) -> int:
    """The n-th power residue symbol (a/b)_n in F_q, for n | q - 1 and a
    monic b of degree >= 1 prime to a.

    At a prime b it is a^((q^deg b - 1)/n) mod b, the element of the n-th
    roots of unity of F_q congruent to it; at a composite b it is the
    product over the prime factors.  Euclid's algorithm computes it from
    three rules, with e = (q-1)/n (Rosen, Number Theory in Function
    Fields, Ch. 3, Thm 3.3):
      (a/b)_n depends on a mod b only, and is multiplicative in a;
      (c/b)_n = (c^e)^(deg b) for a constant c;
      (a/b)_n = (-1)^(e deg a deg b) (b/a)_n for monic coprime a and b.
    """
    e = _residue_exponent(a.field, b, n)
    symbol = _residue_symbol(list(a.coeffs), b.coeffs, a.field, e)
    if not symbol:
        raise MalformedInput("power residue symbol of non-coprime arguments")
    return symbol


def power_residue_counts(b: Poly, n: int, d: int) -> dict:
    """{s: number of monic f of degree d with (f/b)_n = s}, over the f
    prime to b, for the b and n that `power_residue_symbol` takes."""
    F = b.field
    e = _residue_exponent(F, b, n)
    counts: dict = {}
    for tail in itertools.product(F.elements(), repeat=d):
        s = _residue_symbol(list(tail) + [1], b.coeffs, F, e)
        if s:
            counts[s] = counts.get(s, 0) + 1
    return counts


def _residue_exponent(F: FiniteField, b: Poly, n: int) -> int:
    """e = (q-1)/n, after checking n | q - 1 and that b is a monic
    modulus of degree >= 1."""
    q = F.size
    if n < 1 or (q - 1) % n:
        raise MalformedInput(f"n = {n} does not divide q - 1 = {q - 1}")
    if not b.is_monic() or b.degree < 1:
        raise MalformedInput("the symbol needs a monic modulus of degree >= 1")
    return (q - 1) // n


def _residue_symbol(x: list, y: tuple, F: FiniteField, e: int) -> int:
    """(x/y)_n on coefficient lists, e = (q-1)/n, for a monic y of degree
    >= 1; 0 when x and y are not coprime.  x is overwritten."""
    symbol = 1
    while True:
        k = len(y) - 1
        x = _divmod_coeffs(F, x, _reducer(F, y))[1]
        while x and x[-1] == 0:
            x.pop()
        if not x:
            return 0
        lead = x[-1]
        if lead != 1:
            symbol = F.mul(symbol, F.pow(lead, e * k))
            if len(x) > 1:
                x = _scale_coeffs(F, F.inv(lead), x)
        if len(x) == 1:
            return symbol
        if e * (len(x) - 1) * k % 2:
            symbol = F.neg(symbol)
        x, y = list(y), x


def absolute_trace(a: Poly, prime: Prime) -> int:
    """The trace of a mod p from k(p) = F_q[t]/(p) down to F_p, taken in
    F_q[t] on coefficient lists (`_trace_coeffs`), so no residue field is
    built."""
    F = a.field
    reducer = _reducer(F, prime.poly.coeffs)
    return _trace_coeffs(_divmod_coeffs(F, list(a.coeffs), reducer)[1],
                         reducer, F, prime.degree * F.e)


def ord_at(prime: Prime, f: Poly) -> int:
    """p-adic valuation of a nonzero polynomial."""
    if f.is_zero():
        raise ZeroPolynomial("valuation of zero polynomial")
    v = 0
    while True:
        q, r = divmod(f, prime.poly)
        if not r.is_zero():
            return v
        f, v = q, v + 1
