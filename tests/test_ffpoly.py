import random

import pytest

from drinlat.errors import MalformedInput, ZeroPolynomial
from drinlat.ffpoly import (
    _TABLE_LIMIT, FiniteField, Poly, Prime, count_irreducibles,
    enumerate_primes, field_from_str, poly_factor, poly_from_str, poly_to_str,
    prime_from_str, primes_of_degree, random_poly, residue_field,
)

F2 = FiniteField.of_order(2)
F3 = FiniteField.of_order(3)
F4 = FiniteField.of_order(2, 2)
F5 = FiniteField.of_order(5)
F8 = FiniteField.of_order(2, 3)
F9 = FiniteField.of_order(3, 2)


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

    def test_multiplicative_generator(self):
        for field in (F2, F4, F5, F9):
            g = field.multiplicative_generator()
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


class TestFieldTables:
    @pytest.mark.parametrize("field", _table_fields(), ids=_field_id)
    def test_tables_match_raw_arithmetic(self, field):
        q = field.size
        assert q <= _TABLE_LIMIT
        field.mul(0, 0)  # builds the tables
        table, inv = field._mul_table, field._inv_table
        assert len(table) == q * q and len(inv) == q
        for a in range(q):
            for b in range(a, q):
                v = field._mul_raw(a, b)
                assert table[a * q + b] == v and table[b * q + a] == v, (a, b)
        for a in range(1, q):
            assert inv[a] == field._inv_raw(a), a
            assert field._mul_raw(a, inv[a]) == 1, a

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

    def test_sorted_by_degree_then_lex(self):
        ps = enumerate_primes(F3, 2)
        keys = [p.sort_key() for p in ps]
        assert keys == sorted(keys)


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
            prod = Poly.const(F9, f.lead())
            for p, m in fac:
                prod = prod * p ** m
            assert prod == f


class TestResidueField:
    def test_prime_t_over_f2(self):
        pr = prime_from_str("t", F2)
        k = residue_field(pr)
        assert k.size == 2
        f = P("t^3+t+1", F2)
        assert k.reduce(f) == f.eval(0)

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


class TestPrime:
    def test_rejects_reducible(self):
        with pytest.raises(MalformedInput):
            Prime(P("t^2+1", F2))

    def test_rejects_nonmonic(self):
        with pytest.raises(MalformedInput):
            Prime(P("2*t+1", F3))
