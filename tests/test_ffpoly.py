import random

import pytest

from drinlat.errors import MalformedInput, ZeroPolynomial
from drinlat import ffpoly
from drinlat.ffpoly import (
    _TABLE_LIMIT, FiniteField, Poly, Prime, _monic_polys, count_irreducibles,
    enumerate_primes, field_from_str, poly_factor, poly_from_str, poly_to_str,
    power_residue_symbol, prime_from_str, primes_of_degree, random_poly,
    residue_field,
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
        field.mul(0, 0)  # builds the tables
        table, inv = field._mul_table, field._inv_table
        assert len(table) == q * q and len(inv) == q
        for a in range(q):
            for b in range(a, q):
                v = _poly_product(field, a, b)
                assert field._mul_raw(a, b) == v, (a, b)
                assert table[a * q + b] == v and table[b * q + a] == v, (a, b)
        for a in range(1, q):
            assert inv[a] == field._inv_raw(a), a
            assert _poly_product(field, a, inv[a]) == 1, a

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

    @pytest.mark.parametrize("q,e,d_max", [(2, 1, 11), (3, 1, 7), (2, 2, 5),
                                           (5, 1, 4), (7, 1, 4), (3, 2, 3),
                                           (5, 2, 2)])
    def test_sieve_matches_irreducibility_filter(self, q, e, d_max):
        # the same primes in the same order as _monic_polys filtered by
        # Rabin's test, q^d up to about 2.5k
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
            r = F.sqrt(a)
            assert F.mul(r, r) == a, x
        if F.size <= 256:
            for a in set(range(F.size)) - squares:
                with pytest.raises(MalformedInput):
                    F.sqrt(a)

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
            F4.sqrt(1)


class TestPrime:
    def test_rejects_reducible(self):
        with pytest.raises(MalformedInput):
            Prime(P("t^2+1", F2))

    def test_rejects_nonmonic(self):
        with pytest.raises(MalformedInput):
            Prime(P("2*t+1", F3))
