"""The packed A/p^k kernel against Poly arithmetic, and the packed
LocalElement against the digit-tuple oracle in `digit_oracle.py`."""

import random

import coeff_oracle
import pytest
from hypothesis import example, given, settings, strategies as st

from drinlat._chainring import ChainRing, _clmul, _kernel
from drinlat.errors import DrinlatError
from drinlat.ffpoly import (FiniteField, Poly, Prime, ord_at, prime_from_str,
                            primes_of_degree, residue_field)
from drinlat.localfield import LocalElement

from digit_oracle import DigitElement
from element_queries import residue_poly, same_fields

# q = 2, 3, 4, 5, 9, 8, 16, 27, 81; F_81 is above ffpoly's
# _KERNEL_TABLE_LIMIT, so it gets no q x q tables and the coefficient-list
# arithmetic calls its methods per coefficient
FIELDS = [FiniteField.of_order(p, e) for p, e in
          ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3), (2, 4), (3, 3),
           (3, 4))]
# per field: t, another degree-1 prime (t + 1), and the first of degree 2
PRIMES = [pr for F in FIELDS for pr in
          (prime_from_str("t", F), prime_from_str("t+1", F),
           primes_of_degree(F, 2)[0])]
PRIME_IDS = [f"q={pr.field.size}:{pr}" for pr in PRIMES]


def _poly(F, coeffs):
    return Poly(F, [c % F.size for c in coeffs])


@st.composite
def ring_case(draw):
    """(prime, k, f, g): two polynomials of degree below 2 deg(p) k."""
    prime = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, 30))
    n = 2 * prime.degree * k
    F = prime.field
    coeffs = st.lists(st.integers(0, F.size - 1), max_size=n)
    return prime, k, _poly(F, draw(coeffs)), _poly(F, draw(coeffs))


SETTINGS = settings(max_examples=150, deadline=None)


# odd prime fields, where division by p^j at primes of degree >= 2 is
# Barrett's; t^2 + 1 over F_3 is the sparse case
BARRETT_PRIMES = [pr for q in (3, 5, 7) for d in (2, 3)
                  for pr in primes_of_degree(FiniteField.of_order(q), d)[:2]]


@st.composite
def division_case(draw):
    """(prime, j, f): f of degree up to six times deg(p^j), so that the
    division runs over several blocks."""
    prime = draw(st.sampled_from(BARRETT_PRIMES))
    j = draw(st.integers(0, 12))
    F = prime.field
    coeffs = st.lists(st.integers(0, F.size - 1),
                      max_size=6 * prime.degree * j + 2)
    return prime, j, _poly(F, draw(coeffs))


class TestKernelAgainstPoly:
    @SETTINGS
    @given(ring_case())
    def test_reduce_add_sub_neg_mul(self, case):
        prime, k, f, g = case
        ring = ChainRing(prime, k)
        M = prime.poly ** k
        a, b = ring.reduce(f), ring.reduce(g)
        assert ring.lift(a) == f % M
        assert ring.lift(ring.add(a, b)) == (f + g) % M
        assert ring.lift(ring.sub(a, b)) == (f - g) % M
        assert ring.lift(ring.kernel.neg(a)) == (-f) % M
        assert ring.lift(ring.mul(a, b)) == (f * g) % M
        kr = _kernel(prime)
        assert kr.to_poly(kr.mul(kr.from_poly(f), kr.from_poly(g))) == f * g
        assert kr.to_poly(kr.add(kr.from_poly(f), kr.from_poly(g))) == f + g

    @SETTINGS
    @given(ring_case())
    def test_valuation_and_unit_part(self, case):
        prime, k, f, _ = case
        ring = ChainRing(prime, k)
        M = prime.poly ** k
        fr = f % M
        a = ring.reduce(f)
        if fr.is_zero():
            assert a == 0 and ring.val(a) == k
            return
        v = ord_at(prime, fr)
        assert ring.val(a) == v
        assert ring.is_unit(a) == (v == 0)
        assert ring.lift(ring.unit_part(a, v)) == fr // prime.poly ** v
        kr = _kernel(prime)
        unit = kr.from_poly(fr // prime.poly ** v)
        assert kr.ndigits(unit) == (fr // prime.poly ** v).degree // prime.degree + 1
        quot, rem = ring.kernel.divmod_p(a, v)
        assert ring.lift(quot) == fr // prime.poly ** v and rem == 0
        if v < k - 1:
            with pytest.raises(AssertionError, match="inexact chain-ring"):
                ring.unit_part(a, v + 1)

    @SETTINGS
    @given(ring_case())
    def test_inverse(self, case):
        prime, k, f, _ = case
        ring = ChainRing(prime, k)
        M = prime.poly ** k
        fr = f % M
        a = ring.reduce(f)
        if fr.is_zero() or (fr % prime.poly).is_zero():
            with pytest.raises(ZeroDivisionError):
                ring.inv(a)
            return
        # the inverse mod M is unique, so a canonical residue (degree
        # below deg M) with product 1 pins it
        inv = ring.lift(ring.inv(a))
        assert inv == inv % M
        assert (inv * f) % M == Poly.one(prime.field)

    @SETTINGS
    @given(ring_case())
    def test_residue_field_round_trip(self, case):
        prime, k, f, _ = case
        ring = ChainRing(prime, k)
        kp = residue_field(prime)
        c = ring.to_residue(ring.reduce(f))
        assert c == kp.reduce(f)
        assert ring.lift(ring.kernel.from_residue(c)) == kp.lift(c)

    @SETTINGS
    @given(division_case())
    def test_division_by_prime_powers(self, case):
        prime, j, f = case
        kr = _kernel(prime)
        quot, rem = kr.divmod_p(kr.from_poly(f), j)
        want_quot, want_rem = divmod(f, prime.poly ** j)
        assert kr.to_poly(quot) == want_quot
        assert kr.to_poly(rem) == want_rem
        assert kr.to_poly(kr.mod(kr.from_poly(f), j)) == want_rem

    def test_elements_in_the_old_order(self):
        for prime in PRIMES:
            if prime.residue_size ** 2 > 100:
                continue
            ring = ChainRing(prime, 2)
            got = [ring.lift(x) for x in ring.elements()]
            n = prime.degree * 2
            F = prime.field
            want = []
            counters = [0] * n
            for _ in range(F.size ** n):
                want.append(Poly(F, tuple(counters)))
                i = 0
                while i < n:
                    counters[i] += 1
                    if counters[i] < F.size:
                        break
                    counters[i] = 0
                    i += 1
            assert got == want


def _first_quadratic(F):
    """The first irreducible t^2 + t + c over F."""
    return next(Prime(f, check=False) for f in
                (Poly(F, (c, 1, 1)) for c in range(F.size))
                if f.is_irreducible())


# p = t and a prime of degree 2 over each field of every kind that the
# coefficient-list functions of ffpoly tell apart
COEFF_PRIMES = [pr for F in coeff_oracle.coefficient_fields()
                for pr in (Prime(Poly(F, (0, 1)), check=False),
                           _first_quadratic(F))]


@st.composite
def packed_case(draw):
    """(prime, A, B, k, j): two coefficient lists of length 0-40, a depth
    for `mulmod` and an exponent for `divmod_p`."""
    prime = draw(st.sampled_from(COEFF_PRIMES))
    elems = st.lists(st.integers(0, prime.field.size - 1), max_size=40)
    return (prime, draw(elems), draw(elems), draw(st.integers(1, 12)),
            draw(st.integers(0, 6)))


@SETTINGS
@given(packed_case())
def test_packed_operations_match_coefficient_oracle(case):
    """The kernel's packed add, sub, mul, mulmod and divmod_p against the
    per-term loops of `coeff_oracle`."""
    prime, A, B, k, j = case
    F, kr = prime.field, _kernel(prime)
    a, b = kr.pack(A), kr.pack(B)
    prod = coeff_oracle.mul_coeffs(F, A, B)
    assert kr.add(a, b) == kr.pack(coeff_oracle.add_coeffs(F, A, B))
    assert kr.sub(a, b) == kr.pack(
        coeff_oracle.add_coeffs(F, A, [F.neg(y) for y in B]))
    assert kr.mul(a, b) == kr.pack(prod)

    def power(e):
        out = [1]
        for _ in range(e):
            out = coeff_oracle.mul_coeffs(F, out, prime.poly.coeffs)
        return out
    if kr.linear:  # p = t, packed as it is: p^k is a shift by k
        assert kr.mulmod(a, b, k) == kr.pack(prod[:k])
        want = A[j:], A[:j]
    else:
        assert kr.mulmod(a, b, k) == kr.pack(
            coeff_oracle.divmod_coeffs(F, prod, power(k))[1])
        want = coeff_oracle.divmod_coeffs(F, A, power(j))
    assert kr.divmod_p(a, j) == (kr.pack(want[0]), kr.pack(want[1]))


def test_equal_primes_share_one_kernel(monkeypatch):
    """Equal Prime objects find one kernel without comparing polynomials,
    whichever of them built it."""
    F = FiniteField.of_order(3)
    for text in ("t+2", "t^2+1"):
        p1 = Prime(Poly(F, prime_from_str(text, F).poly.coeffs))
        p2 = Prime(Poly(F, p1.poly.coeffs))
        assert p1 is not p2 and p1 == p2
        kr = _kernel(p1)
        compared = []
        monkeypatch.setattr(Prime, "__eq__",
                            lambda a, b: compared.append(1) or a is b)
        assert _kernel(p2) is kr and _kernel(p1) is kr
        f = _poly(F, [1, 2, 0, 1, 1])
        assert same_fields(LocalElement.from_poly(p1, f, 3),
                           LocalElement.from_poly(p2, f, 3))
        assert not compared
        monkeypatch.undo()


def test_kernel_builds_residue_field_tables():
    """k(p) builds its log/exp tables with the kernel, not inside the
    first timed inverse at the prime."""
    from drinlat._chainring import _Kernel
    F4 = FiniteField.of_order(2, 2)
    prime = prime_from_str("t^2+t+2", F4)
    kp = residue_field(prime)
    kp._log = kp._exp = None
    kr = _Kernel(prime)
    assert kr.kp is kp and kp._log is not None and kp._exp is not None


@pytest.mark.parametrize("k", (1, 2, 12, 30))
@pytest.mark.parametrize("prime", PRIMES, ids=PRIME_IDS)
def test_constant_units_invert_in_the_base_field(prime, k):
    """Every c in F_q^x inverts to the constant c^-1 at every precision,
    at primes of degree 1 and 2 (hypothesis seldom draws a constant unit
    at k > 1)."""
    F = prime.field
    ring = ChainRing(prime, k)
    M = prime.poly ** k
    for c in range(1, F.size):
        inv = ring.inv(ring.reduce(Poly(F, [c])))
        assert inv == ring.reduce(Poly(F, [F.inv(c)]))
        assert (ring.lift(inv) * Poly(F, [c])) % M == Poly.one(F)


@pytest.mark.parametrize("prime", PRIMES, ids=PRIME_IDS)
def test_constant_inverse_takes_no_products(prime, monkeypatch):
    """A constant unit is inverted in F_q, without a Newton step."""
    F = prime.field
    ring = ChainRing(prime, 30)

    def no_products(*args):
        raise AssertionError("Newton step on a constant unit")

    monkeypatch.setattr(ring.kernel, "mulmod", no_products)
    assert ring.inv(1) == 1
    assert ring.inv(F.size - 1) == F.inv(F.size - 1)
    assert LocalElement.one(prime, 30).inv().unit == 1
    with pytest.raises(ZeroDivisionError):
        ring.inv(0)


# degree-1 primes over odd prime fields, where a non-constant unit is
# inverted as a power series on coefficient lists
SERIES_PRIMES = [prime_from_str(text, FiniteField.of_order(q))
                 for q in (3, 5, 7) for text in ("t", "t+1", "t+2")]


@pytest.mark.parametrize("k", (1, 2, 12, 30))
@pytest.mark.parametrize("prime", SERIES_PRIMES,
                         ids=[f"q={pr.field.size}:{pr}" for pr in SERIES_PRIMES])
def test_series_inverse_at_degree_one(prime, k, monkeypatch):
    """50 seeded non-constant units: the inverse times the unit is 1 mod
    p^k, it is canonical, and it takes no packed product."""
    F = prime.field
    ring = ChainRing(prime, k)
    M = prime.poly ** k
    rng = random.Random(f"series:{F.size}:{prime}:{k}")
    units = []
    while len(units) < 50:
        f = _poly(F, [rng.randrange(F.size) for _ in range(k + 1)])
        if f.degree >= 1 and not (f % prime.poly).is_zero():
            units.append(f)

    def no_products(*args):
        raise AssertionError("Newton step on coefficient lists expected")

    monkeypatch.setattr(ring.kernel, "mulmod", no_products)
    for f in units:
        inv = ring.lift(ring.inv(ring.reduce(f)))
        assert inv == inv % M
        assert (inv * f) % M == Poly.one(F)


def _clmul_bit_loop(a: int, b: int) -> int:
    """Oracle for `_clmul`: shift-xor, one bit of b at a time."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


OPERANDS = st.integers(0, (1 << 300) - 1) | st.integers(0, 1 << 20)


@settings(max_examples=400, deadline=None)
@given(OPERANDS, OPERANDS)
@example(0, 0)
@example(1, 1)
@example(0, (1 << 300) - 1)
@example(1, (1 << 300) - 1)
def test_clmul_against_bit_loop(a, b):
    want = _clmul_bit_loop(a, b)
    assert _clmul(a, b) == want
    assert _clmul(b, a) == want


def test_clmul_on_both_sides_of_the_window_threshold():
    """Every bit length from 0 to 40 against every other, so that both
    the bit loop (at most 6 bits) and the window run, in both argument
    orders."""
    rng = random.Random("clmul")
    lengths = range(0, 41)
    for m in lengths:
        for n in lengths:
            a = rng.getrandbits(m) | (1 << m >> 1)
            b = rng.getrandbits(n) | (1 << n >> 1)
            assert _clmul(a, b) == _clmul(b, a) == _clmul_bit_loop(a, b)


def _exact_unit(prime, rng):
    F = prime.field
    while True:
        f = _poly(F, [rng.randrange(F.size) for _ in range(2 * prime.degree)])
        if not (f % prime.poly).is_zero():
            return f


def test_arithmetic_at_its_precision_builds_no_powers():
    """Elements built at precision k leave no power of p and no Barrett
    inverse for their arithmetic mod p^k to build, so that the first
    inverse at a prime costs what the later ones do.  (An exact product's
    window can outgrow k; its powers are built when it does.)"""
    rng = random.Random("reserve")
    for prime in PRIMES + BARRETT_PRIMES:
        kr = _kernel(prime)
        for prec in (12, 30, 41, 57):
            x, y = (LocalElement.from_poly(prime, _exact_unit(prime, rng), prec)
                    for _ in range(2))
            assert x.exact and x.prec == prec
            pows, tabs = kr._pows, kr._barrett_tabs
            x.inv().mul(y).add(x).sub(y.inv())
            assert kr._pows is pows and kr._barrett_tabs is tabs


# ---------------------------------------------------------------------------
# Packed LocalElement against the digit-tuple oracle


def _same(new, old):
    assert (new.kind, new.val, new.digits, new.exact) == \
        (old.kind, old.val, old.digits, old.exact), (new, old)
    assert new.to_json() == old.to_json()
    assert repr(new) == repr(old)


def _outcome(f):
    try:
        return f(), None
    except (ArithmeticError, ValueError, IndexError, DrinlatError) as exc:
        return None, type(exc)


def _random_pair(prime, rng):
    """The same random element in both classes."""
    F = prime.field
    d = prime.degree
    roll = rng.random()
    if roll < 0.06:
        return LocalElement.zero(prime), DigitElement.zero(prime)
    if roll < 0.12:
        v = rng.randrange(-3, 6)
        return LocalElement(prime, "u", v, ()), DigitElement.unknown(prime, v)
    prec = rng.randrange(1, 31)
    val = rng.randrange(-3, 4)
    if roll < 0.5:
        # through from_poly: exact when the expansion fits, else truncated
        deg = rng.randrange(0, d * (prec + 4))
        f = Poly(F, [rng.randrange(F.size) for _ in range(deg + 1)])
        if f.is_zero():
            f = Poly.one(F)
        return (LocalElement.from_poly(prime, f, prec).shift(val),
                DigitElement.from_poly(prime, f, prec).shift(val))
    digits = [Poly(F, [rng.randrange(F.size) for _ in range(d)])
              for _ in range(prec)]
    while digits[0].is_zero():
        digits[0] = Poly(F, [rng.randrange(F.size) for _ in range(d)])
    if rng.random() < 0.5:  # trailing zeros in the stored window
        cut = rng.randrange(1, prec + 1)
        digits[cut:] = [Poly.zero(F)] * (prec - cut)
    exact = rng.random() < 0.5
    return (LocalElement(prime, "n", val, tuple(digits), exact),
            DigitElement(prime, "n", val, tuple(digits), exact))


def _check_residue(new, old, k):
    got, got_err = _outcome(lambda: residue_poly(new, k))
    want, want_err = _outcome(lambda: old.residue_poly(k))
    if want_err is None:
        assert got_err is None and got == want
        return
    if want_err is IndexError:
        # the oracle reads past an exact element's stored window; the
        # packed class returns the class of the exact value
        assert got_err is None
        pi = old.prime.poly
        value = sum((dg * pi ** (old.val + i) for i, dg in enumerate(old.digits)),
                    Poly.zero(old.prime.field))
        assert got == value % pi ** k
        return
    assert got_err is want_err


@pytest.mark.parametrize("prime", PRIMES, ids=PRIME_IDS)
def test_operations_match_digit_oracle(prime):
    rng = random.Random(f"packed-vs-digits:{prime.field.size}:{prime}")
    for _ in range(60):
        xn, xo = _random_pair(prime, rng)
        yn, yo = _random_pair(prime, rng)
        _same(xn, xo)
        _same(xn.add(yn), xo.add(yo))
        _same(xn.sub(yn), xo.sub(yo))
        _same(xn.neg(), xo.neg())
        _same(xn.mul(yn), xo.mul(yo))
        k = rng.randrange(-4, 5)
        _same(xn.shift(k), xo.shift(k))
        got, got_err = _outcome(xn.inv)
        want, want_err = _outcome(xo.inv)
        assert got_err is want_err
        if want_err is None:
            _same(got, want)
            _same(yn.mul(got), yo.mul(want))
        _check_residue(xn, xo, rng.randrange(0, 8))
        assert same_fields(xn, yn) == (xo == yo and xo.exact == yo.exact)


@pytest.mark.parametrize("prime", PRIMES, ids=PRIME_IDS)
def test_chained_products_match_digit_oracle(prime):
    # long chains mix exact and inexact operands and reach cancellations
    rng = random.Random(f"chains:{prime.field.size}:{prime}")
    for _ in range(6):
        an, ao = _random_pair(prime, rng)
        for _ in range(8):
            bn, bo = _random_pair(prime, rng)
            op = rng.choice(("add", "sub", "mul"))
            an, ao = getattr(an, op)(bn), getattr(ao, op)(bo)
            _same(an, ao)
        _same(an.sub(an), ao.sub(ao))


def test_constructor_and_from_poly_round_trip():
    for prime in PRIMES:
        rng = random.Random(f"ctor:{prime.field.size}:{prime}")
        F = prime.field
        for _ in range(20):
            prec = rng.randrange(1, 31)
            f = Poly(F, [rng.randrange(F.size)
                         for _ in range(rng.randrange(1, prime.degree * prec + 3))])
            _same(LocalElement.from_poly(prime, f, prec),
                  DigitElement.from_poly(prime, f, prec))
            old = DigitElement.from_poly(prime, f, prec)
            if old.kind == "n":
                again = LocalElement(prime, "n", old.val, old.digits, old.exact)
                _same(again, old)
                assert same_fields(again, LocalElement.from_poly(prime, f, prec))
