"""The digit-tuple LocalElement, kept as a test-only oracle.

This is `drinlat.localfield.LocalElement` as it was before elements moved
to a packed unit mod p^prec: each element stores its pi-adic digits as a
tuple of residue-field representatives, and every operation carries digit
by digit.  `tests/test_packed_kernel.py` compares the packed class with it
on kind, valuation, digits and the exact flag, window rules included.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from drinlat.errors import PrecisionExhausted, Singular
from drinlat.ffpoly import Poly, Prime, poly_to_str, residue_field

DEFAULT_PRECISION = 12


def _digit_divmod(prime: Prime, f: Poly):
    """Split an A-polynomial into (digit, carry) with f = digit + p*carry."""
    q, r = divmod(f, prime.poly)
    return r, q


class DigitElement:
    """Element of F_p known to finite pi-adic precision.

    kind 'n': nonzero, value = sum digits[i] * pi^(val+i), digits[0] != 0,
              known modulo pi^(val + len(digits)).
    kind 'z': exactly zero.
    kind 'u': O(pi^val): congruent to 0 mod pi^val, true valuation
              uncertified (apparent zero after cancellation).

    ``exact`` marks elements whose stored digits are the complete
    expansion (all later digits zero); sums and products of exact
    elements stay exact, so cancellation to a true zero is recognized
    instead of degrading to an uncertified O(pi^m).
    """

    __slots__ = ("prime", "kind", "val", "digits", "exact")

    def __init__(self, prime: Prime, kind: str, val: int,
                 digits: Tuple[Poly, ...], exact: bool = False):
        self.prime = prime
        self.kind = kind
        self.val = val
        self.digits = digits
        self.exact = exact if kind == "n" else (kind == "z")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(prime: Prime) -> "DigitElement":
        return DigitElement(prime, "z", 0, ())

    @staticmethod
    def unknown(prime: Prime, bound: int) -> "DigitElement":
        return DigitElement(prime, "u", bound, ())

    @staticmethod
    def from_poly(prime: Prime, f: Poly, precision: int = DEFAULT_PRECISION) -> "DigitElement":
        if f.is_zero():
            return DigitElement.zero(prime)
        val = 0
        while True:
            digit, carry = _digit_divmod(prime, f)
            if not digit.is_zero():
                break
            f = carry
            val += 1
        digits = []
        while not f.is_zero() and len(digits) < precision:
            digit, f = _digit_divmod(prime, f)
            digits.append(digit)
        exact = f.is_zero()
        while len(digits) < precision:
            digits.append(Poly.zero(prime.field))
        return DigitElement(prime, "n", val, tuple(digits), exact)

    @staticmethod
    def from_ratio(prime: Prime, num: Poly, den: Poly,
                   precision: int = DEFAULT_PRECISION) -> "DigitElement":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return DigitElement.zero(prime)
        a = DigitElement.from_poly(prime, num, precision)
        b = DigitElement.from_poly(prime, den, precision)
        return a.mul(b.inv())

    @staticmethod
    def from_integer(prime: Prime, c: int, precision: int = DEFAULT_PRECISION) -> "DigitElement":
        return DigitElement.from_poly(prime, Poly.const(prime.field, c), precision)

    @staticmethod
    def one(prime: Prime, precision: int = DEFAULT_PRECISION) -> "DigitElement":
        return DigitElement.from_integer(prime, 1, precision)

    @staticmethod
    def pi_power(prime: Prime, k: int, precision: int = DEFAULT_PRECISION) -> "DigitElement":
        return DigitElement.one(prime, precision).shift(k)

    # -- queries -----------------------------------------------------------

    @property
    def abs_prec(self) -> Optional[int]:
        """Element is known modulo pi^abs_prec (None = exact zero)."""
        if self.kind == "n":
            return self.val + len(self.digits)
        if self.kind == "u":
            return self.val
        return None

    def certified_val(self) -> int:
        if self.kind == "n":
            return self.val
        if self.kind == "z":
            raise Singular("exact zero has valuation +infinity")
        raise PrecisionExhausted(
            f"valuation uncertified beyond O(pi^{self.val})")

    def is_integral(self) -> bool:
        """Certified val >= 0 (refuses rather than guessing)."""
        if self.kind == "z":
            return True
        if self.val >= 0:
            return True
        if self.kind == "n":
            return False
        raise PrecisionExhausted("cannot certify integrality")

    def has_val_at_least(self, c: int) -> bool:
        if self.kind == "z":
            return True
        if self.val >= c:
            return True
        if self.kind == "n":
            return False
        raise PrecisionExhausted(f"cannot certify valuation >= {c}")

    # -- arithmetic ----------------------------------------------------------

    def _window(self, lo: int, hi: int) -> List[Poly]:
        """Digits covering positions [lo, hi); caller guarantees lo >= val
        is not required (leading positions fill with zero)."""
        zero = Poly.zero(self.prime.field)
        out = []
        for pos in range(lo, hi):
            i = pos - self.val
            out.append(self.digits[i] if 0 <= i < len(self.digits) else zero)
        return out

    def neg(self) -> "DigitElement":
        if self.kind != "n":
            return self
        return DigitElement(self.prime, "n", self.val,
                            tuple(-d for d in self.digits), self.exact)

    def add(self, other: "DigitElement") -> "DigitElement":
        p = self.prime
        a, b = self, other
        if a.kind == "z":
            return b
        if b.kind == "z":
            return a
        if a.kind == "n" and b.kind == "n" and a.exact and b.exact:
            lo = min(a.val, b.val)
            hi = max(a.abs_prec, b.abs_prec)
            raw = [x + y for x, y in zip(a._window(lo, hi), b._window(lo, hi))]
            return _normalize(p, lo, raw, hi, exact=True)
        hi = min(a.abs_prec, b.abs_prec)
        if a.kind == "u" and b.kind == "u":
            return DigitElement.unknown(p, hi)
        if a.kind == "u" or b.kind == "u":
            n = a if a.kind == "n" else b
            if n.val >= hi:
                return DigitElement.unknown(p, hi)
            return _normalize(p, n.val, n._window(n.val, hi), hi)
        lo = min(a.val, b.val)
        if hi <= lo:
            return DigitElement.unknown(p, hi)
        raw = [x + y for x, y in zip(a._window(lo, hi), b._window(lo, hi))]
        return _normalize(p, lo, raw, hi)

    def sub(self, other: "DigitElement") -> "DigitElement":
        return self.add(other.neg())

    def mul(self, other: "DigitElement") -> "DigitElement":
        p = self.prime
        a, b = self, other
        if a.kind == "z" or b.kind == "z":
            return DigitElement.zero(p)
        if a.kind == "u" or b.kind == "u":
            return DigitElement.unknown(p, a.val + b.val)
        val = a.val + b.val
        if a.exact and b.exact:
            da = _trim_digits(a.digits)
            db = _trim_digits(b.digits)
            raw = [Poly.zero(p.field) for _ in range(len(da) + len(db) - 1)]
            for i, x in enumerate(da):
                if x.is_zero():
                    continue
                for j, y in enumerate(db):
                    if not y.is_zero():
                        raw[i + j] = raw[i + j] + x * y
            width = max(len(a.digits), len(b.digits), len(raw))
            out = _normalize(p, val, raw, val + width, exact=True)
            assert out.kind == "n" and out.val == val
            return out
        prec = min(len(a.digits), len(b.digits))
        raw = [Poly.zero(p.field) for _ in range(prec)]
        for i, x in enumerate(a.digits[:prec]):
            if x.is_zero():
                continue
            for j, y in enumerate(b.digits[:prec - i]):
                if not y.is_zero():
                    raw[i + j] = raw[i + j] + x * y
        out = _normalize(p, val, raw, val + prec)
        assert out.kind == "n" and out.val == val, "leading digits cannot cancel"
        return out


    def inv(self) -> "DigitElement":
        p = self.prime
        if self.kind == "z":
            raise ZeroDivisionError("inverse of exact zero")
        if self.kind == "u":
            raise PrecisionExhausted("inverse of uncertified element")
        prec = len(self.digits)
        pi = p.poly
        mod = residue_field(p)
        d0_inv = mod.lift(mod.inv(mod.reduce(self.digits[0])))
        # schoolbook division 1 / unit-part
        rem = [Poly.one(p.field)] + [Poly.zero(p.field)] * (prec - 1)
        out = []
        for i in range(prec):
            digit = (rem[i] * d0_inv) % pi
            out.append(digit)
            if digit.is_zero():
                continue
            carry = Poly.zero(p.field)
            for j in range(i, prec):
                cur = rem[j] - digit * self.digits[j - i] - carry
                rem[j], c2 = _digit_divmod(p, cur)
                carry = -c2
        return DigitElement(p, "n", -self.val, tuple(out))

    def div(self, other: "DigitElement") -> "DigitElement":
        return self.mul(other.inv())

    def shift(self, k: int) -> "DigitElement":
        if self.kind == "z":
            return self
        return DigitElement(self.prime, self.kind, self.val + k, self.digits,
                            self.exact)

    def residue_poly(self, k: int) -> Poly:
        """Canonical representative of the class mod p^k (requires the
        element to be certified integral and known to depth k)."""
        if self.kind == "z":
            return Poly.zero(self.prime.field)
        if self.val >= k:
            return Poly.zero(self.prime.field)
        if self.kind == "u":
            raise PrecisionExhausted(f"class mod p^{k} uncertified")
        if self.val < 0:
            raise ValueError("element is not integral")
        if self.abs_prec < k and not self.exact:
            raise PrecisionExhausted(f"known only mod p^{self.abs_prec} < p^{k}")
        acc = Poly.zero(self.prime.field)
        for i in range(k - self.val):
            acc = acc + self.digits[i] * self.prime.poly ** (self.val + i)
        return acc % self.prime.poly ** k

    def __eq__(self, other):
        return (isinstance(other, DigitElement) and self.prime == other.prime
                and self.kind == other.kind and self.val == other.val
                and self.digits == other.digits)

    def __hash__(self):
        return hash((self.prime, self.kind, self.val, self.digits))

    def __repr__(self):
        if self.kind == "z":
            return "0"
        if self.kind == "u":
            return f"O(pi^{self.val})"
        parts = [f"({poly_to_str(d)})*pi^{self.val + i}"
                 for i, d in enumerate(self.digits) if not d.is_zero()]
        return " + ".join(parts) + f" + O(pi^{self.abs_prec})"

    def to_json(self) -> dict:
        prime = poly_to_str(self.prime.poly)
        if self.kind == "z":
            return {"prime": prime, "valuation": "inf", "digits": [],
                    "precision": 0}
        if self.kind == "u":
            return {"prime": prime, "valuation": None, "bound": self.val,
                    "digits": [], "precision": 0}
        return {"prime": prime, "valuation": self.val,
                "digits": [poly_to_str(d) for d in self.digits],
                "precision": len(self.digits)}


def _trim_digits(digits: Tuple[Poly, ...]) -> Tuple[Poly, ...]:
    n = len(digits)
    while n > 0 and digits[n - 1].is_zero():
        n -= 1
    return digits[:n]


def _normalize(prime: Prime, val: int, raw: List[Poly], abs_prec: int,
               exact: bool = False) -> DigitElement:
    """Carry-normalize raw digit accumulators for positions val..; the
    result is known modulo pi^abs_prec (everywhere, when exact)."""
    digits: List[Poly] = []
    carry = Poly.zero(prime.field)
    for f in raw:
        digit, carry2 = _digit_divmod(prime, f + carry)
        digits.append(digit)
        carry = carry2
    while exact and not carry.is_zero():
        digit, carry = _digit_divmod(prime, carry)
        digits.append(digit)
    if not exact:
        digits = digits[:max(0, abs_prec - val)]
    lead = 0
    while lead < len(digits) and digits[lead].is_zero():
        lead += 1
    if lead == len(digits):
        if exact:
            return DigitElement.zero(prime)
        return DigitElement.unknown(prime, abs_prec)
    out = digits[lead:]
    if exact:
        # keep the construction-time window as stored precision
        want = abs_prec - (val + lead)
        while len(out) < want:
            out.append(Poly.zero(prime.field))
    return DigitElement(prime, "n", val + lead, tuple(out), exact)
