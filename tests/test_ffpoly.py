import random
import time

import coeff_oracle
import pytest
import root_oracle
from hypothesis import given, settings, strategies as st
from irreducible_oracle import is_irreducible_rabin

from drinlat.errors import MalformedInput, ZeroPolynomial
from drinlat import ffpoly
from drinlat.ffpoly import (
    _KERNEL_TABLE_LIMIT, _TABLE_LIMIT, FiniteField, Poly, Prime, _monic_polys,
    count_irreducibles, enumerate_primes, field_from_str, poly_factor,
    poly_from_str, poly_to_str, power_residue_symbol, prime_from_str,
    primes_of_degree, residue_field,
)

F2 = FiniteField.of_order(2)
F3 = FiniteField.of_order(3)
F4 = FiniteField.of_order(2, 2)
F5 = FiniteField.of_order(5)
F8 = FiniteField.of_order(2, 3)
F9 = FiniteField.of_order(3, 2)


def random_poly(field, degree, rng):
    """Uniform polynomial of degree <= degree (may be zero)."""
    return Poly(field, [rng.randrange(field.size) for _ in range(degree + 1)])


def P(s, field):
    return poly_from_str(s, field)


class TestFiniteField:
    def test_prime_field_ops(self):
        assert F5.add(3, 4) == 2
        assert F5.mul(3, 4) == 2
        assert F5.inv(2) == 3
        assert F5.neg(1) == 4

    def test_extension_size(self):
        assert F9.size == 9 and F9.p == 3 and F9.e == 2
        assert F8.size == 8 and F8.e == 3

    @pytest.mark.parametrize("field", [F2, F3, F4, F5, F8, F9,
                                       FiniteField.of_order(3, 4)])
    def test_frobenius_fixes_field(self, field):
        # x^q = x for every element, q <= 81
        assert field.size <= 81
        for x in field.elements():
            assert field.pow(x, field.size) == x

    @pytest.mark.parametrize("field", [F4, F8, F9])
    def test_field_axioms_sampled(self, field):
        rng = random.Random(0)
        for _ in range(200):
            a = rng.randrange(field.size)
            b = rng.randrange(field.size)
            c = rng.randrange(field.size)
            assert field.mul(a, field.add(b, c)) == \
                field.add(field.mul(a, b), field.mul(a, c))
            if a:
                assert field.mul(a, field.inv(a)) == 1

    def test_primitive_element_generates(self):
        for field in (F2, F4, F5, F9):
            g = field._element_of_order(field.size - 1)
            seen = set()
            x = 1
            for _ in range(field.size - 1):
                seen.add(x)
                x = field.mul(x, g)
            assert len(seen) == field.size - 1


def _digit_add(field, a, b):
    """Addition digit by digit over the tower of base fields."""
    if field.base is None:
        return (a + b) % field.p
    bb = field.base.size
    out, mult = 0, 1
    while a or b:
        a, da = divmod(a, bb)
        b, db = divmod(b, bb)
        out += _digit_add(field.base, da, db) * mult
        mult *= bb
    return out


def _digit_neg(field, a):
    if field.base is None:
        return (-a) % field.p
    bb = field.base.size
    out, mult = 0, 1
    while a:
        a, da = divmod(a, bb)
        out += _digit_neg(field.base, da) * mult
        mult *= bb
    return out


# (base, prime) pairs whose residue fields build tables: sizes 2 and 3
# (q - 1 = 1 and 2), towers over F_4 and F_9, and the 256-element field.
TABLE_RESIDUE_PRIMES = [
    ((2, 1), "t"), ((2, 1), "t+1"), ((2, 1), "t^2+t+1"), ((2, 1), "t^5+t^2+1"),
    ((2, 1), "t^8+t^4+t^3+t^2+1"),
    ((3, 1), "t"), ((3, 1), "t+2"), ((3, 1), "t^2+1"), ((3, 1), "t^5+2*t+1"),
    ((2, 2), "t+1"), ((2, 2), "t^2+t+2"), ((2, 2), "t^3+t+1"),
    ((5, 1), "t+3"), ((5, 1), "t^2+2"), ((5, 1), "t^3+t+1"),
    ((3, 2), "t+1"), ((3, 2), "t^2+t+3"),
]


def _table_fields():
    fields = [FiniteField.of_order(p, e) for p in (2, 3, 5, 7, 11, 13)
              for e in range(2, 9) if p ** e <= 256]
    for (p, e), text in TABLE_RESIDUE_PRIMES:
        fields.append(residue_field(prime_from_str(text,
                                                   FiniteField.of_order(p, e))))
    return fields


def _field_id(field):
    prime = getattr(field, "prime", None)
    return f"{field}" if prime is None else f"{field.base}[t]/({prime})"


def _poly_product(field, a, b):
    """Oracle for a product in an extension field: multiply the two
    coordinate polynomials as Polys, reduce by the modulus, encode."""
    base = field.base
    fa = Poly(base, field._split(a))
    fb = Poly(base, field._split(b))
    r = (fa * fb) % field.modulus
    return sum(c * base.size ** i for i, c in enumerate(r.coeffs))


class TestFieldTables:
    @pytest.mark.parametrize("field", _table_fields(), ids=_field_id)
    def test_tables_match_raw_arithmetic(self, field):
        q = field.size
        assert q <= _TABLE_LIMIT
        for a in range(q):
            for b in range(a, q):
                v = _poly_product(field, a, b)
                assert field._mul_raw(a, b) == v, (a, b)
                assert field.mul(a, b) == v and field.mul(b, a) == v, (a, b)
        for a in range(1, q):
            inv = field.inv(a)
            assert inv == field._inv_raw(a), a
            assert _poly_product(field, a, inv) == 1, a

    @pytest.mark.parametrize("field", _table_fields(), ids=_field_id)
    def test_tables_hold_fewer_than_3q_entries(self, field):
        field.inv(1)  # builds the log/exp tables
        # the q x q coefficient tables are counted apart: a packed kernel
        # over the field fills them, only up to their own size limit
        coefficient_tables = ("_at", "_mt", "_nt")
        entries = sum(len(v) for k, v in vars(field).items()
                      if isinstance(v, list)
                      and k not in ("_weights", *coefficient_tables))
        assert 0 < entries < 3 * field.size
        held = [getattr(field, k) for k in coefficient_tables]
        if held != [None, None, None]:
            q = field.size
            assert q <= _KERNEL_TABLE_LIMIT
            assert sum(map(len, held)) == 2 * q * q + q

    def test_walk_refuses_a_reducible_modulus(self):
        # t^2 + 1 = (t + 1)^2 over F_2: the "field" has zero divisors, so
        # no element's powers return to 1 after exactly q - 1 steps
        bogus = F2.extension(P("t^2+1", F2))
        with pytest.raises(AssertionError):
            bogus.mul(1, 1)

    @pytest.mark.parametrize("field", [
        F4, F8,
        residue_field(prime_from_str("t^8+t^4+t^3+t^2+1", F2)),
        residue_field(prime_from_str("t^3+t+1", F4)),
        FiniteField.of_order(2, 10),
    ], ids=_field_id)
    def test_char2_add_matches_digit_loop(self, field):
        rng = random.Random(field.size)
        for _ in range(2000):
            a = rng.randrange(field.size)
            b = rng.randrange(field.size)
            assert field.add(a, b) == _digit_add(field, a, b)
            assert field.neg(a) == _digit_neg(field, a)
            assert field.sub(a, b) == _digit_add(field, a, _digit_neg(field, b))


def _fermat_inverse(field, a):
    """Oracle: a^(q-2) by square-and-multiply on raw products."""
    result, n = 1, field.size - 2
    while n:
        if n & 1:
            result = field._mul_raw(result, a)
        a = field._mul_raw(a, a)
        n >>= 1
    return result


@pytest.mark.parametrize("field", [
    FiniteField.of_order(5, 4), FiniteField.of_order(3, 6),
    FiniteField.of_order(2, 9),
    residue_field(prime_from_str("t^3+3*t^2+3", F9)),
], ids=_field_id)
def test_euclid_inverse_matches_fermat(field):
    assert field.size > _TABLE_LIMIT
    for a in range(1, field.size):
        assert field._inv_raw(a) == _fermat_inverse(field, a), a


class TestInvariantsSurviveOptimize:
    """Checks that guard field construction and reduction raise
    ValueError, which `python -O` keeps."""

    def test_modulus_must_be_over_the_base(self):
        with pytest.raises(ValueError):
            FiniteField(2, base=F2)
        with pytest.raises(ValueError):
            FiniteField(3, base=F3, modulus=P("t^2+1", F5))

    def test_modulus_must_be_monic_of_positive_degree(self):
        with pytest.raises(ValueError):
            FiniteField(3, base=F3, modulus=P("2*t^2+1", F3))
        with pytest.raises(ValueError):
            FiniteField(3, base=F3, modulus=P("1", F3))

    def test_reduce_refuses_a_polynomial_over_another_field(self):
        kp = residue_field(prime_from_str("t^2+1", F3))
        with pytest.raises(ValueError):
            kp.reduce(P("t+1", F5))
        assert kp.reduce(P("t^2+t+1", F3)) == kp.reduce(P("t", F3))


# Residue fields on both sides of _TABLE_LIMIT over F_2, F_3, F_5, F_4 and
# F_9; the larger ones take every product by _mul_raw.
RAW_RESIDUE_PRIMES = [
    ((2, 1), "t^5+t^2+1"), ((2, 1), "t^9+t^4+1"), ((2, 1), "t^12+t^6+t^4+t+1"),
    ((3, 1), "t^4+t+2"), ((3, 1), "t^6+t+2"),
    ((5, 1), "t^3+t+1"), ((5, 1), "t^6+t+2"),
    ((2, 2), "t^3+t+1"), ((2, 2), "t^5+t^4+t^3+3*t+3"),
    ((3, 2), "t^2+t+3"), ((3, 2), "t^3+3*t^2+3"),
]


class TestRawProduct:
    @pytest.mark.parametrize("field", [
        residue_field(prime_from_str(text, FiniteField.of_order(p, e)))
        for (p, e), text in RAW_RESIDUE_PRIMES], ids=_field_id)
    def test_raw_product_matches_poly_product(self, field):
        rng = random.Random(field.size)
        q = field.size
        samples = [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]
        samples += [(0, rng.randrange(q)), (q - 1, q - 1), (1, q - 1)]
        for a, b in samples:
            assert field._mul_raw(a, b) == _poly_product(field, a, b), (a, b)
        for a, _ in samples[:20]:
            if a:
                assert field._mul_raw(a, field.inv(a)) == 1
        assert field.inv(1) == 1

    def test_reduce_matches_poly_remainder(self):
        rng = random.Random(11)
        for (p, e), text in RAW_RESIDUE_PRIMES:
            F = FiniteField.of_order(p, e)
            k = residue_field(prime_from_str(text, F))
            for _ in range(30):
                f = random_poly(F, 3 * k.modulus.degree, rng)
                r = f % k.modulus
                assert k.lift(k.reduce(f)) == r


COEFF_FIELDS = coeff_oracle.coefficient_fields()


@st.composite
def coeff_case(draw):
    """(F, A, B, c, n): two coefficient lists of length 0-40, a scalar and
    a cut of the product, over one of the coefficient fields."""
    F = draw(st.sampled_from(COEFF_FIELDS))
    elems = st.lists(st.integers(0, F.size - 1), max_size=40)
    return (F, draw(elems), draw(elems), draw(st.integers(0, F.size - 1)),
            draw(st.integers(0, 80)))


class TestCoefficientArithmetic:
    """The coefficient-list functions of ffpoly, on every kind of base
    field, against the per-term loops of `coeff_oracle`."""

    def test_fields_cover_every_kind(self):
        tabled = [F for F in COEFF_FIELDS if F._mt is not None]
        assert [F.size for F in tabled] == [4, 9]
        assert sorted(F.size for F in COEFF_FIELDS if F.base is None) == [
            2, 3, 5, 7]
        assert all(F._mt is None for F in COEFF_FIELDS
                   if isinstance(F, ffpoly.ResidueField))

    @given(coeff_case())
    @settings(max_examples=300, deadline=None)
    def test_sum_negation_and_scale(self, case):
        F, A, B, c, _ = case
        assert ffpoly._add_coeffs(F, A, B) == coeff_oracle.add_coeffs(F, A, B)
        assert ffpoly._neg_coeffs(F, A) == [F.neg(x) for x in A]
        assert ffpoly._scale_coeffs(F, c, A) == [F.mul(c, x) for x in A]

    @given(coeff_case())
    @settings(max_examples=300, deadline=None)
    def test_product_cut_to_n_terms(self, case):
        F, A, B, _, n = case
        want = coeff_oracle.mul_coeffs(F, A, B)
        assert ffpoly._mul_coeffs(F, A, B, n) == want[:n]
        assert (Poly(F, A) * Poly(F, B)).coeffs == Poly(F, want).coeffs

    @pytest.mark.parametrize("field", COEFF_FIELDS, ids=_field_id)
    def test_product_with_the_largest_coefficient_sums(self, field):
        # all coefficients q - 1: over a prime field every coefficient of
        # the integer product takes its largest value, which the slots of
        # the Kronecker product must hold without a carry
        for la in (1, 3, 4, 5, 8, 17, 40):
            for lb in (la, 40):
                A, B = [field.size - 1] * la, [field.size - 1] * lb
                want = coeff_oracle.mul_coeffs(field, A, B)
                for n in (1, la, la + lb - 1):
                    assert ffpoly._mul_coeffs(field, A, B, n) == want[:n]

    @given(coeff_case())
    @settings(max_examples=300, deadline=None)
    def test_division_by_a_monic_divisor(self, case):
        F, A, B, _, _ = case
        M = B[:8] + [1]
        quot, rem = ffpoly._divmod_coeffs(F, list(A), ffpoly._reducer(F, M))
        want_q, want_r = coeff_oracle.divmod_coeffs(F, A, M)
        assert len(rem) == len(M) - 1
        assert Poly(F, quot) == Poly(F, want_q)
        assert Poly(F, rem) == Poly(F, want_r)

    @given(coeff_case())
    @settings(max_examples=300, deadline=None)
    def test_poly_divmod_by_any_divisor(self, case):
        F, A, B, c, _ = case
        divisor = Poly(F, B + [c or 1])  # not monic unless c is 0 or 1
        quot, rem = divmod(Poly(F, A), divisor)
        want_q, want_r = coeff_oracle.divmod_coeffs(F, A, divisor.coeffs)
        assert quot == Poly(F, want_q) and rem == Poly(F, want_r)

    @pytest.mark.parametrize("field", COEFF_FIELDS, ids=_field_id)
    def test_derivative_scales_by_the_exponent(self, field):
        rng = random.Random(field.size)
        for _ in range(50):
            f = random_poly(field, rng.randrange(0, 30), rng)
            want = []
            for k, c in enumerate(f.coeffs[1:], 1):
                kc = 0
                for _ in range(k % field.p):
                    kc = field.add(kc, c)
                want.append(kc)
            assert f.derivative() == Poly(field, want)


class TestPolyArithmetic:
    def test_product_degree_adds(self):
        rng = random.Random(1)
        for field in (F2, F3, F9):
            for _ in range(100):
                f = random_poly(field, rng.randrange(1, 6), rng)
                g = random_poly(field, rng.randrange(1, 6), rng)
                if f.is_zero() or g.is_zero():
                    continue
                assert (f * g).degree == f.degree + g.degree

    def test_divmod_roundtrip(self):
        rng = random.Random(2)
        for field in (F2, F3, F5):
            for _ in range(200):
                f = random_poly(field, 7, rng)
                g = random_poly(field, 3, rng)
                if g.is_zero():
                    continue
                q, r = divmod(f, g)
                assert q * g + r == f
                assert r.is_zero() or r.degree < g.degree

    def test_gcd_divides(self):
        rng = random.Random(3)
        for _ in range(100):
            f = random_poly(F3, 6, rng)
            g = random_poly(F3, 4, rng)
            if f.is_zero() or g.is_zero():
                continue
            h = f.gcd(g)
            assert (f % h).is_zero() and (g % h).is_zero()

    def test_derivative_char_p(self):
        f = P("t^3+2*t+1", F3)
        assert f.derivative() == P("2", F3)  # 3t^2 vanishes
        g = P("t^2+1", F2)
        assert g.derivative().is_zero()

    def test_trailing_zeros_strip_in_linear_time(self):
        # stripping one zero per slice took about 80 s for 200000 zeros
        t0 = time.perf_counter()
        assert Poly(F2, [1] + [0] * 200000).is_one()
        t20000 = Poly.monomial(F2, 1, 20000)
        assert t20000.derivative().is_zero()
        assert Poly(F3, (0, 2, 0, 0)).coeffs == (0, 2)
        assert time.perf_counter() - t0 < 1.0


class TestGrammar:
    def test_canonical_examples(self):
        f = P("t^3+2*t+1", F3)
        assert f.coeffs == (1, 2, 0, 1)
        assert poly_to_str(f) == "t^3+2*t+1"

    def test_minus_tolerated_on_parse(self):
        assert P("t^3-t", F3) == P("t^3+2*t", F3)

    def test_roundtrip(self):
        rng = random.Random(4)
        for field in (F2, F3, F5, F9):
            for _ in range(50):
                f = random_poly(field, 5, rng)
                assert poly_from_str(poly_to_str(f), field) == f

    def test_field_spec(self):
        assert field_from_str("3^2") is F9
        assert field_from_str("2") is F2
        with pytest.raises(MalformedInput):
            field_from_str("4")  # 4 is not prime

    def test_bad_poly(self):
        with pytest.raises(MalformedInput):
            P("t^^2", F2)
        with pytest.raises(MalformedInput):
            P("", F2)

    def test_exponent_bound(self):
        top = ffpoly.MAX_EXPONENT
        assert P(f"t^{top}+1", F2).degree == top
        for text in (f"t^{top + 1}", "t^100000000"):
            with pytest.raises(MalformedInput, match=f"exceeds {top}"):
                P(text, F2)
        with pytest.raises(MalformedInput):  # past int()'s digit limit
            P("t^" + "9" * 5000, F2)


class TestEnumeratePrimes:
    def test_q2_d1(self):
        got = [str(p) for p in enumerate_primes(F2, 1)]
        assert got == ["t", "t+1"]

    def test_q2_d2(self):
        got = [str(p) for p in enumerate_primes(F2, 2)]
        assert got == ["t", "t+1", "t^2+t+1"]

    def test_degree2_count_over_f3(self):
        assert len(primes_of_degree(F3, 2)) == 3
        assert count_irreducibles(3, 2) == 3

    @pytest.mark.parametrize("q,field", [(2, F2), (3, F3), (4, F4), (5, F5),
                                         (7, FiniteField.of_order(7)),
                                         (8, F8), (9, F9)])
    def test_moebius_count_matches_sieve(self, q, field):
        # every degree-d slice, q <= 9 and d <= 4
        for d in range(1, 5):
            assert len(primes_of_degree(field, d)) == count_irreducibles(q, d)

    @pytest.mark.parametrize("q,e,d_max", [(2, 1, 11), (3, 1, 7), (2, 2, 5),
                                           (5, 1, 4), (7, 1, 4), (3, 2, 3),
                                           (5, 2, 2)])
    def test_sieve_matches_irreducibility_filter(self, q, e, d_max):
        # the same primes in the same order as _monic_polys filtered by
        # the irreducibility test, q^d up to about 2.5k
        field = FiniteField.of_order(q, e)
        for d in range(1, d_max + 1):
            want = [f for f in _monic_polys(field, d) if f.is_irreducible()]
            got = [p.poly for p in primes_of_degree(field, d)]
            assert got == want, d

    @pytest.mark.parametrize("q,e,d_max", [(2, 1, 13), (3, 1, 8), (2, 2, 6),
                                           (5, 1, 5), (7, 1, 4), (3, 2, 4),
                                           (5, 2, 2)])
    def test_sieve_gauss_count(self, q, e, d_max):
        field = FiniteField.of_order(q, e)
        for d in range(1, d_max + 1):
            primes = primes_of_degree(field, d)
            assert len(primes) == count_irreducibles(field.size, d)
            keys = [p.sort_key() for p in primes]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_sieve_refuses_a_wrong_count(self, monkeypatch):
        # a fresh (not interned) field keeps the sieve cache cold
        field = FiniteField(7)
        monkeypatch.setattr(ffpoly, "count_irreducibles", lambda q, d: -1)
        with pytest.raises(AssertionError):
            primes_of_degree(field, 2)

    def test_sorted_by_degree_then_lex(self):
        ps = enumerate_primes(F3, 2)
        keys = [p.sort_key() for p in ps]
        assert keys == sorted(keys)


class TestIrreducibleAgainstRabin:
    """The distinct-degree test against Rabin's test
    (`tests/irreducible_oracle.py`)."""

    @pytest.mark.parametrize("field,d_max", [(F2, 6), (F3, 6)])
    def test_every_monic_polynomial(self, field, d_max):
        for d in range(0, d_max + 1):
            for f in _monic_polys(field, d):
                assert f.is_irreducible() == is_irreducible_rabin(f), f

    @pytest.mark.parametrize("field", [F2, F3, F4, F5])
    def test_seeded_degrees_7_to_12(self, field):
        rng = random.Random(f"rabin:{field.size}")
        irreducible = 0
        for d in range(7, 13):
            for _ in range(12):
                f = Poly(field, [rng.randrange(field.size) for _ in range(d)]
                         + [rng.randrange(1, field.size)])
                got = f.is_irreducible()
                assert got == is_irreducible_rabin(f), f
                irreducible += got
        assert irreducible  # both answers occur

    def test_irreducible_primes_and_their_products(self):
        for field in (F2, F3, F4):
            for d in (4, 5, 6):
                for p in primes_of_degree(field, d)[:3]:
                    assert p.poly.is_irreducible()
                    assert not (p.poly * p.poly).is_irreducible()
                    assert not (p.poly * Poly.t(field)).is_irreducible()

    def test_zero_and_constants_are_not_irreducible(self):
        assert not Poly.zero(F3).is_irreducible()
        assert not Poly.const(F3, 2).is_irreducible()
        assert P("2*t^2+2", F3).is_irreducible()  # 2 (t^2 + 1)


class TestFactor:
    def test_t3_minus_t_over_f3(self):
        f = P("t^3+2*t", F3)  # t^3 - t
        fac = poly_factor(f)
        assert [(poly_to_str(p), m) for p, m in fac] == \
            [("t", 1), ("t+1", 1), ("t+2", 1)]

    def test_t2_plus_1_char2(self):
        fac = poly_factor(P("t^2+1", F2))
        assert [(poly_to_str(p), m) for p, m in fac] == [("t+1", 2)]

    def test_t2_plus_1_over_f3_irreducible(self):
        # oracle: trial division by every monic linear polynomial over F_3
        f = P("t^2+1", F3)
        for c in range(3):
            linear = Poly(F3, (c, 1))
            assert not (f % linear).is_zero()
        assert poly_factor(f) == [(f, 1)]

    def test_zero_refused(self):
        with pytest.raises(ZeroPolynomial):
            poly_factor(Poly.zero(F2))

    @pytest.mark.parametrize("field", [F2, F3, F4, F5, F8, F9])
    def test_roundtrip_1000_random(self, field):
        rng = random.Random(field.size)
        for _ in range(1000):
            f = random_poly(field, rng.randrange(1, 9), rng)
            if f.is_zero():
                continue
            fac = poly_factor(f)
            prod = Poly.const(field, f.lead())
            for p, m in fac:
                assert p.is_monic() and p.is_irreducible()
                prod = prod * p ** m
            assert prod == f

    def test_ddf_path_agrees_with_trial_division(self):
        # force the DDF/EDF path by exceeding the 4096 threshold, then
        # compare against the small-field oracle on the same polynomial
        rng = random.Random(7)
        for _ in range(20):
            f = random_poly(F9, 8, rng)  # 9^8 > 4096 -> DDF path
            if f.is_zero() or f.degree < 2:
                continue
            fac = poly_factor(f)
            assert fac == ffpoly._trial_division(f.monic())
            prod = Poly.const(F9, f.lead())
            for p, m in fac:
                prod = prod * p ** m
            assert prod == f

    @pytest.mark.parametrize("order", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                       (2, 3), (3, 2), (2, 4)])
    def test_trial_division_agrees_with_ddf_below_threshold(self, order):
        # below the 4096 threshold poly_factor takes _trial_division, which
        # stops once the cofactor is too small to split; compare it with
        # the squarefree/DDF/EDF path on seeded monic polynomials, random
        # ones and products of random primes (repeated factors included)
        field = FiniteField.of_order(*order)
        rng = random.Random(f"trial:{field.size}")
        max_degree = 1
        while field.size ** (max_degree + 1) <= 4096:
            max_degree += 1
        for trial in range(300):
            if trial % 2:
                f = Poly.one(field)
                while True:
                    d = rng.randrange(1, max_degree + 1)
                    p = rng.choice(primes_of_degree(field, d)).poly
                    if (f * p).degree > max_degree:
                        break
                    f = f * p
                if f.degree == 0:
                    continue
            else:
                f = random_poly(field, rng.randrange(1, max_degree), rng)
                f = Poly(field, list(f.coeffs) + [1])
            acc = {}
            ffpoly._factor_monic(f, 1, acc)
            want = sorted(acc.items(), key=lambda kv: ffpoly._poly_sort_key(kv[0]))
            assert ffpoly._trial_division(f) == want, poly_to_str(f)


class TestRepr:
    def test_field_poly_and_prime(self):
        assert (repr(F3), str(F3), repr(F9), str(F9)) == \
            ("GF(3)", "3", "GF(3^2)", "3^2")
        assert repr(P("t^3+2*t", F3)) == "Poly('t^3+2*t' over 3)"
        assert repr(prime_from_str("t^2+1", F3)) == "Prime(t^2+1 over 3)"


class TestResidueField:
    def test_prime_t_over_f2(self):
        pr = prime_from_str("t", F2)
        k = residue_field(pr)
        assert k.size == 2
        f = P("t^3+t+1", F2)
        assert k.reduce(f) == f.coeffs[0]  # f mod t is f(0), the constant term

    def test_degree2_prime_over_f2(self):
        pr = prime_from_str("t^2+t+1", F2)
        k = residue_field(pr)
        assert k.size == 4
        assert k.reduce(pr.poly) == 0

    def test_reduction_t3_mod_t2_plus_1_over_f3(self):
        pr = prime_from_str("t^2+1", F3)
        k = residue_field(pr)
        got = k.reduce(P("t^3", F3))
        assert k.lift(got) == P("2*t", F3)  # t^3 = -t mod t^2+1

    def test_reduction_is_ring_map(self):
        pr = prime_from_str("t^2+1", F3)
        k = residue_field(pr)
        rng = random.Random(5)
        for _ in range(100):
            f = random_poly(F3, 4, rng)
            g = random_poly(F3, 4, rng)
            assert k.reduce(f * g) == k.mul(k.reduce(f), k.reduce(g))
            assert k.reduce(f + g) == k.add(k.reduce(f), k.reduce(g))

    def test_residue_size_matches(self):
        for pr in enumerate_primes(F3, 3):
            assert residue_field(pr).size == 3 ** pr.degree


class TestNonSquare:
    @pytest.mark.parametrize("field", [F3, F5, F9], ids=str)
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_full_scan(self, field, degree):
        # the search skips F_p in even degree over F_p, where it is all
        # squares; the smallest non-square must not change
        k = residue_field(primes_of_degree(field, degree)[0])
        half = (k.size - 1) // 2
        full_scan = next(z for z in range(2, k.size)
                         if k.pow(z, half) == k.neg(1))
        assert k._non_residue(2) == full_scan


class TestPowerResidueSymbol:
    @pytest.mark.parametrize("q,e,n,d_max", [(5, 1, 2, 3), (5, 1, 4, 3),
                                             (7, 1, 3, 2), (3, 2, 8, 2),
                                             (13, 1, 4, 2)])
    def test_matches_euler_criterion_at_primes(self, q, e, n, d_max):
        # (a/p)_n = a^((|k(p)| - 1)/n) in k(p), a constant there
        F = FiniteField.of_order(q, e)
        rng = random.Random(q * n)
        for prime in enumerate_primes(F, d_max):
            k = residue_field(prime)
            for _ in range(5):
                a = random_poly(F, 2 * prime.degree + 1, rng)
                c = k.reduce(a)
                if c == 0:
                    continue
                want = k.pow(c, (k.size - 1) // n)
                assert want < F.size  # an element of the constant field
                assert power_residue_symbol(a, prime.poly, n) == want

    def test_multiplicative_in_the_modulus(self):
        # the symbol at a composite modulus is the product over its factors
        F = FiniteField.of_order(7)
        rng = random.Random(3)
        primes = enumerate_primes(F, 2)
        for _ in range(50):
            p1, p2 = rng.sample(primes, 2)
            a = random_poly(F, 4, rng)
            if (a % p1.poly).is_zero() or (a % p2.poly).is_zero():
                continue
            both = power_residue_symbol(a, p1.poly * p2.poly, 6)
            assert both == F.mul(power_residue_symbol(a, p1.poly, 6),
                                 power_residue_symbol(a, p2.poly, 6))

    @pytest.mark.parametrize("q,e,n,b", [(5, 1, 2, "t^3+t"),
                                         (7, 1, 3, "t^3+2*t^2"),
                                         (3, 2, 4, "t^2+1")])
    def test_counts_match_the_symbol(self, q, e, n, b):
        F = FiniteField.of_order(q, e)
        b = P(b, F)
        for d in range(4):
            want = {}
            for f in _monic_polys(F, d):
                if f.gcd(b).is_one():
                    s = power_residue_symbol(f, b, n)
                    want[s] = want.get(s, 0) + 1
            assert ffpoly.power_residue_counts(b, n, d) == want

    def test_refusals(self):
        t = P("t", F5)
        with pytest.raises(MalformedInput):
            power_residue_symbol(P("t+1", F5), t, 3)  # 3 does not divide 4
        with pytest.raises(MalformedInput):
            power_residue_symbol(P("t^2", F5), t, 2)  # not coprime
        with pytest.raises(MalformedInput):
            power_residue_symbol(t, P("2*t+1", F5), 2)  # modulus not monic


# odd fields and residue fields on both sides of _TABLE_LIMIT, with
# q - 1 = m 2^s for s = 1 (3, 7, 3^3, 3^5), 2 (5, 13, 5^3) and 3-5
SQRT_FIELDS = [((3, 1), None), ((5, 1), None), ((7, 1), None),
               ((13, 1), None), ((17, 1), None), ((3, 2), None),
               ((5, 2), None), ((3, 3), None), ((3, 1), 4), ((3, 1), 5),
               ((3, 1), 6), ((5, 1), 3), ((5, 1), 4), ((3, 2), 2),
               ((3, 2), 3)]


def _sqrt_field(spec):
    (p, e), d = spec
    F = FiniteField.of_order(p, e)
    return F if d is None else residue_field(primes_of_degree(F, d)[5])


class TestQuadraticSplit:
    @pytest.mark.parametrize("spec", SQRT_FIELDS, ids=str)
    def test_sqrt_of_squares(self, spec):
        F = _sqrt_field(spec)
        rng = random.Random(F.size)
        xs = range(F.size) if F.size <= 256 else \
            [rng.randrange(F.size) for _ in range(300)]
        squares = set()
        for x in xs:
            a = F.mul(x, x)
            squares.add(a)
            r = F.nth_root(a, 2)
            assert F.mul(r, r) == a, x
        if F.size <= 256:
            for a in set(range(F.size)) - squares:
                with pytest.raises(MalformedInput):
                    F.nth_root(a, 2)

    @pytest.mark.parametrize("spec", SQRT_FIELDS, ids=str)
    def test_two_linear_factors_split_by_the_quadratic_formula(self, spec):
        F = _sqrt_field(spec)
        rng = random.Random(F.size + 1)
        for _ in range(100):
            r1, r2 = rng.sample(range(F.size), 2)
            lin = sorted([Poly(F, (F.neg(r1), 1)), Poly(F, (F.neg(r2), 1))],
                         key=lambda f: tuple(reversed(f.coeffs)))
            g = lin[0] * lin[1]
            assert ffpoly._equal_degree_split(g, 1) == lin
            assert [f for f, _ in poly_factor(g)] == lin

    def test_sqrt_refuses_characteristic_2(self):
        with pytest.raises(MalformedInput):
            F4.nth_root(1, 2)


# (field, n): prime fields and residue fields on both sides of
# _TABLE_LIMIT; n runs over divisors of |F| - 1 with odd prime factors
# and powers of 2, r^s exactly dividing |F| - 1 for s = 1, 2 and 3
ROOT_FIELDS = [((7, 1), None, (3, 6)), ((13, 1), None, (3, 4, 6, 12)),
               ((2, 2), None, (3,)), ((5, 1), 2, (3, 4, 6, 8, 12, 24)),
               ((2, 1), 8, (3, 5, 15, 17, 255)),
               ((3, 1), 4, (2, 4, 5, 8, 10, 16)),
               ((7, 1), 3, (3, 6, 9, 18, 19)), ((2, 1), 6, (3, 7, 9, 21, 63)),
               ((3, 2), 2, (4, 5, 8, 16, 80)), ((5, 1), 4, (3, 4, 12, 13))]


# every (field, n) of ROOT_FIELDS, and n = 2 on SQRT_FIELDS
ROOT_GRID = ([(spec[:2], n) for spec in ROOT_FIELDS for n in spec[2]]
             + [(spec, 2) for spec in SQRT_FIELDS])


def _refusal(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type is compared, whatever it is
        return type(exc)
    return None


def _oracle_root(F, a, r):
    return root_oracle.sqrt(F, a) if r == 2 else root_oracle.amm_root(F, a, r)


class TestNthRoot:
    @pytest.mark.parametrize("spec,n", ROOT_GRID, ids=str)
    def test_matches_the_oracles(self, spec, n):
        # the one r-th root routine against Tonelli-Shanks (r = 2) and
        # Adleman-Manders-Miller (odd r), element for element, on every
        # power, or 80 seeded ones above 256 elements, for n and for each
        # prime r of n; the same refusal on up to 20 non-powers.  The old
        # Adleman-Manders-Miller loop has no level to test when r^2 does
        # not divide |F| - 1, so there only the root^n = a check of
        # nth_root refuses; the routine refuses on its own everywhere.
        F = _sqrt_field(spec)
        rng = random.Random(f"oracle:{F.size}:{n}")
        xs = range(1, F.size) if F.size <= 256 else \
            [rng.randrange(1, F.size) for _ in range(80)]
        primes = [r for r, _ in ffpoly._int_factor(n)]
        for k in [n] + primes:
            roots = F._rth_root if k in primes else F.nth_root
            oracle = _oracle_root if k in primes else root_oracle.nth_root
            for a in sorted({F.pow(x, k) for x in xs}):
                assert roots(a, k) == oracle(F, a, k), (k, a)
            non = [a for a in range(1, F.size)
                   if F.pow(a, (F.size - 1) // k) != 1][:20]
            assert non
            for a in non:
                assert _refusal(roots, a, k) is MalformedInput
                assert _refusal(root_oracle.nth_root, F, a, k) \
                    is MalformedInput

    @pytest.mark.parametrize("spec", ROOT_FIELDS, ids=str)
    def test_roots_of_powers(self, spec):
        F = _sqrt_field(spec[:2])
        rng = random.Random(f"root:{F.size}")
        for n in spec[2]:
            assert (F.size - 1) % n == 0
            powers = set()
            for _ in range(60):
                x = rng.randrange(F.size)
                a = F.pow(x, n)
                powers.add(a)
                r = F.nth_root(a, n)
                assert F.pow(r, n) == a, (n, x)
            if F.size <= 256:
                non = next(a for a in range(1, F.size)
                           if F.pow(a, (F.size - 1) // n) != 1)
                with pytest.raises(MalformedInput):
                    F.nth_root(non, n)

    def test_refuses_n_not_dividing(self):
        with pytest.raises(MalformedInput):
            F5.nth_root(1, 3)

    @pytest.mark.parametrize("p,d", [(2, 6), (3, 4), (5, 3), (2, 8)])
    def test_cold_field_builds_no_table(self, p, d):
        # a fresh residue field, not the cached one
        k = ffpoly.ResidueField(primes_of_degree(FiniteField.of_order(p), d)[1])
        n = next(n for n in (3, 2) if (k.size - 1) % n == 0)
        a = 5
        for _ in range(n - 1):
            a = k._mul_raw(a, 5)
        assert k._mul_raw(k.nth_root(a, n), 1) is not None
        assert k._log is None

    @pytest.mark.parametrize("field", [FiniteField.of_order(7), F9, F4],
                             ids=str)
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_non_residue_matches_full_scan(self, field, degree):
        k = residue_field(primes_of_degree(field, degree)[0])
        for r, _ in ffpoly._int_factor(k.size - 1):
            if r == 2 or r > 7:  # r = 2 is TestNonSquare's
                continue
            full_scan = next(z for z in range(2, k.size)
                             if k.pow(z, (k.size - 1) // r) != 1)
            assert k._non_residue(r) == full_scan


class TestFrobeniusAndTrace:
    @pytest.mark.parametrize("p,e,d", [(2, 1, 5), (3, 1, 4), (2, 2, 3),
                                       (3, 2, 2), (5, 1, 3), (2, 1, 9)])
    def test_frobenius_is_the_p_th_power(self, p, e, d):
        k = residue_field(primes_of_degree(FiniteField.of_order(p, e), d)[2])
        rng = random.Random(f"frob:{k.size}")
        xs = range(k.size) if k.size <= 256 else \
            [rng.randrange(k.size) for _ in range(200)]
        for x in xs:
            assert k.frobenius(x) == k.pow(x, p), x

    @pytest.mark.parametrize("p,e,d", [(2, 1, 5), (2, 1, 6), (2, 1, 8),
                                       (3, 1, 4), (3, 1, 6), (2, 2, 3),
                                       (3, 2, 2), (3, 2, 3), (5, 1, 5)])
    def test_artin_schreier_root(self, p, e, d):
        # p divides [k(p) : F_p] at (2, 1, 6), (2, 1, 8), (3, 1, 6),
        # (2, 2, 3) and (3, 2, 3); the trace and the root are checked
        # against powers in k(p)
        k = residue_field(primes_of_degree(FiniteField.of_order(p, e), d)[1])
        rng = random.Random(f"as-root:{k.size}")
        roots = 0
        for _ in range(60):
            c = rng.randrange(k.size)
            tr, x = 0, c
            for _ in range(k.e):
                tr, x = k.add(tr, x), k.pow(x, p)
            assert k.trace(c) == tr
            if tr:
                continue
            y = k.artin_schreier_root(c)
            assert k.sub(k.pow(y, p), y) == c
            roots += 1
        assert roots > 0

    @pytest.mark.parametrize("p,e,d_max", [(2, 1, 7), (3, 1, 5), (2, 2, 3),
                                           (3, 2, 2), (5, 1, 3)])
    def test_absolute_trace_matches_the_residue_field(self, p, e, d_max):
        F = FiniteField.of_order(p, e)
        rng = random.Random(f"trace:{F.size}")
        for prime in enumerate_primes(F, d_max):
            k = residue_field(prime)
            for _ in range(4):
                a = random_poly(F, 2 * prime.degree + 2, rng)
                tr, x = 0, k.reduce(a)
                for _ in range(k.e):
                    tr, x = k.add(tr, x), k.pow(x, p)
                assert ffpoly.absolute_trace(a, prime) == tr, str(prime)


class TestPrime:
    def test_rejects_reducible(self):
        with pytest.raises(MalformedInput):
            Prime(P("t^2+1", F2))

    def test_rejects_nonmonic(self):
        with pytest.raises(MalformedInput):
            Prime(P("2*t+1", F3))
