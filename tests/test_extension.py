import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from drinlat.errors import (BudgetExceeded, MalformedInput,
                            MultipleInfinitePlaces,
                            ReducibleDefiningPolynomial,
                            UnsupportedRamifiedPrime, UnsupportedShape)
from drinlat import extension
from drinlat.ffpoly import (FiniteField, Poly, _int_factor, _monic_polys,
                            enumerate_primes, field_from_str, poly_factor,
                            poly_from_str, prime_from_str, primes_of_degree)
from drinlat.extension import (Extension, constant_splitting_law, class_number,
                               make_extension, order_at, place_counts,
                               predegree, splitting, zeta_numerator)

F2 = FiniteField.of_order(2)
F3 = FiniteField.of_order(3)
F5 = FiniteField.of_order(5)


def kummer_elliptic():
    # x^2 = t^3 - t over F_3
    return Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))


class TestConstructors:
    def test_constant_over_f3(self):
        e = Extension.constant(F3, 2)
        assert e.genus == 0 and e.q_prime == 9 and e.m == 2

    def test_kummer_elliptic_genus(self):
        e = kummer_elliptic()
        assert e.genus == 1
        assert e.q_prime == 3 and e.m == 2

    def test_artin_schreier_genus(self):
        e = Extension.artin_schreier(F2, poly_from_str("t^3", F2))
        assert e.genus == 1 and e.m == 2

    def test_artin_schreier_reduction(self):
        # x^2 + x = t^2 reduces to x^2 + x = t (substitute x -> x + t)
        e = Extension.artin_schreier(F2, poly_from_str("t^2", F2))
        assert e.params["a"] == poly_from_str("t", F2)
        assert e.genus == 0

    def test_kummer_refuses_matching_degree(self):
        with pytest.raises(UnsupportedShape):
            Extension.kummer(F3, 2, poly_from_str("t^2+1", F3))

    def test_kummer_refuses_char_divisor(self):
        with pytest.raises(UnsupportedShape):
            Extension.kummer(F2, 2, poly_from_str("t", F2))

    def test_generic_inseparable_pure(self):
        e = Extension.generic(F2, [poly_from_str("t", F2).__neg__(),
                                   Poly.zero(F2), Poly.one(F2)], genus=0)
        assert not e.separable

    def test_generic_inseparable_pth_power_refused(self):
        with pytest.raises(ReducibleDefiningPolynomial):
            Extension.generic(F2, [-poly_from_str("t^2", F2), Poly.zero(F2),
                                   Poly.one(F2)], genus=0)

    @pytest.mark.parametrize("p,e,max_degree", [(2, 1, 6), (3, 1, 6),
                                                (2, 2, 6), (3, 2, 3)])
    def test_pth_power_check_matches_the_multiplicities(self, p, e,
                                                       max_degree):
        # a' = 0 against the factoring rule it replaced: every multiplicity
        # divisible by p.  The rule reads the monic part, which c * a
        # shares, so each monic a is factored once and checked with every
        # nonzero multiple; the zero polynomial counts as a p-th power
        F = FiniteField.of_order(p, e)
        assert extension._is_pth_power(Poly.zero(F))
        for d in range(max_degree + 1):
            for m in _monic_polys(F, d):
                want = all(mult % p == 0 for _, mult in poly_factor(m))
                for c in range(1, F.size):
                    assert extension._is_pth_power(m.scale(c)) == want, m

    def test_generic_multiple_infinite_places_refused(self):
        with pytest.raises(MultipleInfinitePlaces):
            Extension.generic(F2, [Poly.one(F2), Poly.one(F2)], genus=0,
                              infinity_places=2)

    def test_json_roundtrip(self):
        specs = [
            {"kind": "constant", "n": 2, "base": "3"},
            {"kind": "kummer", "n": 2, "a": "t^3+2*t", "base": "3"},
            {"kind": "artin_schreier", "a": "t^3", "base": "2"},
        ]
        for spec in specs:
            e = make_extension(spec)
            again = make_extension(e.to_json())
            assert again.to_json() == e.to_json()

    def test_repr(self):
        assert repr(kummer_elliptic()) == \
            "Extension({'kind': 'kummer', 'base': '3', 'n': 2, 'a': 't^3+2*t'})"


class TestSplitting:
    def test_elliptic_at_t_ramified(self):
        e = kummer_elliptic()
        sp = splitting(e, prime_from_str("t", F3))
        assert not sp.unramified
        assert [(pl.e, pl.f) for pl in sp.places] == [(2, 1)]

    def test_elliptic_at_t2_plus_1_splits(self):
        e = kummer_elliptic()
        sp = splitting(e, prime_from_str("t^2+1", F3))
        assert sp.unramified
        assert [(pl.e, pl.f) for pl in sp.places] == [(1, 1), (1, 1)]

    def test_constant_degree1_prime_inert(self):
        e = Extension.constant(F3, 2)
        sp = splitting(e, prime_from_str("t", F3))
        assert [(pl.e, pl.f) for pl in sp.places] == [(1, 2)]

    def test_constant_law_matches_factoring(self):
        for n in (2, 3):
            e = Extension.constant(F2, n)
            for d in range(1, 5):
                count, fdeg = constant_splitting_law(n, d)
                for prime in primes_of_degree(F2, d):
                    sp = splitting(e, prime)
                    assert len(sp.places) == count
                    assert all(pl.f == fdeg and pl.e == 1 for pl in sp.places)

    def test_constant_quadratic_over_f9_at_degree_4(self):
        # a seeded sample of the 1,620 degree-4 primes, where the modulus
        # splits into two linear factors over k(p) = F_9^4
        F9 = FiniteField.of_order(3, 2)
        ext = Extension.constant(F9, 2)
        primes = primes_of_degree(F9, 4)
        assert len(primes) == 1620
        for prime in random.Random(9).sample(primes, 40):
            places = splitting(ext, prime).places
            assert places == _places_by_factoring(ext, prime), str(prime)
            assert [(pl.e, pl.f) for pl in places] == [(1, 1), (1, 1)]

    def test_sum_ef_equals_degree_1000_random_pairs(self):
        rng = random.Random(0)
        exts = [kummer_elliptic(), Extension.constant(F3, 2),
                Extension.constant(F2, 3),
                Extension.artin_schreier(F2, poly_from_str("t^3", F2)),
                Extension.kummer(F5, 2, poly_from_str("t", F5)),
                Extension.kummer(F3, 2, poly_from_str("t^5+t+1", F3)),
                Extension.artin_schreier(F3, poly_from_str("t^2", F3))]
        pools = [(e, enumerate_primes(e.base, 3)) for e in exts]
        checked = 0
        while checked < 1000:
            e, pool = pools[rng.randrange(len(pools))]
            prime = pool[rng.randrange(len(pool))]
            try:
                sp = splitting(e, prime)
            except UnsupportedRamifiedPrime:
                continue
            assert sum(pl.e * pl.f for pl in sp.places) == e.m
            checked += 1

    def test_pattern_agrees_with_factoring(self):
        # the fast residue-test path must match the factor-based splitting
        from drinlat.extension import splitting_pattern
        exts = [Extension.constant(F3, 2), Extension.constant(F2, 3),
                kummer_elliptic(),
                Extension.kummer(F5, 2, poly_from_str("t", F5)),
                Extension.kummer(F3, 2, poly_from_str("t^5+t+1", F3)),
                Extension.artin_schreier(F2, poly_from_str("t^3", F2)),
                Extension.artin_schreier(F3, poly_from_str("t^2", F3))]
        for e in exts:
            for prime in enumerate_primes(e.base, 3):
                try:
                    sp = splitting(e, prime)
                except UnsupportedRamifiedPrime:
                    continue
                want = tuple(sorted((pl.e, pl.f) for pl in sp.places))
                assert splitting_pattern(e, prime) == want, (e.kind, str(prime))

    def test_char2_split_prime_with_even_residue_degree(self):
        # y^2 + y = t^3 splits at this degree-8 prime; the two roots over
        # k(p) = F_256 differ by 1, whose absolute trace is 0, so no monic
        # linear candidate separates them and the splitter needs c*t
        from drinlat.extension import splitting_pattern
        e = Extension.artin_schreier(F2, poly_from_str("t^3", F2))
        prime = prime_from_str("t^8+t^4+t^3+t^2+1", F2)
        sp = splitting(e, prime)
        want = tuple(sorted((pl.e, pl.f) for pl in sp.places))
        assert want == ((1, 1), (1, 1))
        assert splitting_pattern(e, prime) == want

    def test_inseparable_always_ramified(self):
        e = Extension.generic(F2, [-poly_from_str("t", F2), Poly.zero(F2),
                                   Poly.one(F2)], genus=0)
        for prime in enumerate_primes(F2, 4):
            sp = splitting(e, prime)
            assert [(pl.e, pl.f) for pl in sp.places] == [(2, 1)]


class TestKummerPattern:
    # (q, n, radicand, max degree): n | q - 1 in each, so the pattern comes
    # from the power-residue symbol; t^3+t^2 = t^2 (t+1) over F_5 has a
    # factor of multiplicity n
    CASES = [(5, 2, "t^3+t^2", 4), (5, 2, "t^3+t+1", 4), (5, 4, "t^3+t+1", 3),
             (7, 3, "t^2+1", 3), (7, 6, "t+3", 3), (9, 4, "t^3+t", 3),
             (9, 8, "t", 2), (13, 4, "t^3+2", 2)]

    @pytest.mark.parametrize("q,n,a,d_max", CASES)
    def test_symbol_matches_root_count_ladder(self, q, n, a, d_max):
        from drinlat.extension import (_kummer_pattern,
                                       _kummer_pattern_ladder,
                                       splitting_pattern)
        p = next(p for p in range(2, q + 1) if q % p == 0)
        F = FiniteField.of_order(p, round(math.log(q, p)))
        ext = Extension.kummer(F, n, poly_from_str(a, F))
        assert (F.size - 1) % n == 0
        checked = 0
        for prime in enumerate_primes(F, d_max):
            if prime in ext.ram_support:
                continue
            want = _kummer_pattern_ladder(ext, prime)
            assert _kummer_pattern(ext, prime) == want, str(prime)
            assert splitting_pattern(ext, prime) == want, str(prime)
            checked += 1
        assert checked > 0

    def test_prime_of_multiplicity_n(self):
        # t divides a = t^2 (t+1) twice: x^2 - (t+1) at t is x^2 - 1
        from drinlat.extension import splitting_pattern
        ext = Extension.kummer(F5, 2, poly_from_str("t^3+t^2", F5))
        prime = prime_from_str("t", F5)
        assert prime not in ext.ram_support
        assert splitting_pattern(ext, prime) == ((1, 1), (1, 1))
        assert splitting(ext, prime).places[0].f == 1

    def test_symbol_path_builds_no_residue_field(self):
        from drinlat.extension import _kummer_pattern
        from drinlat.ffpoly import residue_field
        F13 = FiniteField.of_order(13)
        ext = Extension.kummer(F13, 4, poly_from_str("t^3+5", F13))
        before = residue_field.cache_info().misses
        for prime in primes_of_degree(F13, 3)[:40]:
            _kummer_pattern(ext, prime)
        assert residue_field.cache_info().misses == before

    def test_ladder_decides_when_n_does_not_divide_q_minus_1(self):
        from drinlat.extension import _kummer_pattern, _kummer_pattern_ladder
        ext = Extension.kummer(F5, 3, poly_from_str("t^2+2", F5))
        for prime in enumerate_primes(F5, 2):
            if prime in ext.ram_support:
                continue
            sp = splitting(ext, prime)
            want = tuple(sorted((pl.e, pl.f) for pl in sp.places))
            assert _kummer_pattern(ext, prime) == want
            assert _kummer_pattern_ladder(ext, prime) == want


class TestInertSplitting:
    """`splitting` builds its factors from the pattern it knows: inert
    primes keep the reduced polynomial, split Kummer (n | q - 1) and
    Artin-Schreier primes take root formulas, and constant extensions
    take equal-degree splitting at the known degree.  At every unramified
    prime up to the degree bound the places and factor coefficients must
    be those of factoring the reduced defining polynomial with
    `poly_factor`.  Over F_5, t^3+2*t^2 = t^2 (t+2) has the unramified
    prime t, where b = t+2 is inert and differs from a.  The grid has
    Kummer n in {2, 3, 4, 6} over F_3 to F_13 with m > 1 (n/m factors of
    degree m), the ladder where n does not divide q - 1, Artin-Schreier
    over F_2, F_3 and F_4 at p dividing [k(p) : F_p] and not, and
    constant extensions over F_2 to F_9."""
    CASES = [
        ({"kind": "kummer", "n": 2, "a": "t^3+2*t", "base": "3"}, 6),
        ({"kind": "kummer", "n": 2, "a": "t^3+2*t^2", "base": "5"}, 4),
        ({"kind": "kummer", "n": 4, "a": "t^3+t+1", "base": "5"}, 4),
        ({"kind": "kummer", "n": 3, "a": "t^2+1", "base": "7"}, 4),
        ({"kind": "kummer", "n": 2, "a": "t^3+t", "base": "3^2"}, 3),
        ({"kind": "kummer", "n": 4, "a": "t^3+t", "base": "3^2"}, 3),
        ({"kind": "kummer", "n": 3, "a": "t^2+2", "base": "5"}, 4),  # ladder
        ({"kind": "artin_schreier", "a": "t^3", "base": "2"}, 9),
        ({"kind": "artin_schreier", "a": "t^2", "base": "3"}, 6),
        ({"kind": "kummer", "n": 4, "a": "t^3+2*t", "base": "3"}, 4),  # ladder
        ({"kind": "kummer", "n": 3, "a": "t^2+t", "base": "2^2"}, 4),
        ({"kind": "kummer", "n": 2, "a": "t^3+t", "base": "7"}, 3),
        ({"kind": "kummer", "n": 6, "a": "t+3", "base": "7"}, 3),
        ({"kind": "kummer", "n": 3, "a": "t", "base": "2^3"}, 3),  # ladder
        ({"kind": "kummer", "n": 2, "a": "t^3+t+4", "base": "11"}, 2),
        ({"kind": "kummer", "n": 4, "a": "t^3+2", "base": "11"}, 2),  # ladder
        ({"kind": "kummer", "n": 3, "a": "t^2+2", "base": "13"}, 2),
        ({"kind": "kummer", "n": 4, "a": "t^3+2", "base": "13"}, 2),
        ({"kind": "kummer", "n": 6, "a": "t+5", "base": "13"}, 2),
        ({"kind": "artin_schreier", "a": "t^3", "base": "2^2"}, 4),
        ({"kind": "constant", "n": 2, "base": "2"}, 8),
        ({"kind": "constant", "n": 3, "base": "2"}, 6),
        ({"kind": "constant", "n": 4, "base": "3"}, 4),
        ({"kind": "constant", "n": 2, "base": "2^2"}, 4),
        ({"kind": "constant", "n": 3, "base": "5"}, 3),
        ({"kind": "constant", "n": 2, "base": "7"}, 3),
        ({"kind": "constant", "n": 2, "base": "2^3"}, 2),
        ({"kind": "constant", "n": 2, "base": "3^2"}, 3),
    ]

    @pytest.mark.parametrize("spec,d_max", CASES,
                             ids=["-".join(str(c[k]) for k in ("kind", "base", "n")
                                           if k in c) for c, _ in CASES])
    def test_matches_factoring_the_reduced_polynomial(self, spec, d_max):
        ext = make_extension(spec)
        inert = split = 0
        for prime in enumerate_primes(ext.base, d_max):
            if prime in ext.ram_support:
                continue
            want = _places_by_factoring(ext, prime)
            sp = splitting(ext, prime)
            assert sp.unramified and sp.places == want, str(prime)
            inert += len(want) == 1
            split += len(want) > 1
        assert inert > 0 and split > 0

    KNOWN = [(spec, d_max) for spec, d_max in CASES
             if spec["kind"] != "kummer"
             or (field_from_str(spec["base"]).size - 1) % spec["n"] == 0]

    @pytest.mark.parametrize("spec,d_max", KNOWN)
    def test_known_patterns_do_not_factor(self, spec, d_max, monkeypatch):
        # poly_factor stays only where no pattern is known: the Kummer
        # ladder (n not dividing q - 1) and generic extensions
        from drinlat import extension

        def refuse(f):
            raise AssertionError("poly_factor called")
        ext = make_extension(spec)
        monkeypatch.setattr(extension, "poly_factor", refuse)
        for prime in enumerate_primes(ext.base, min(d_max, 3)):
            if prime not in ext.ram_support:
                splitting(ext, prime)

    @pytest.mark.parametrize("spec,degree", [
        ({"kind": "kummer", "n": 2, "a": "t^3+2*t", "base": "3"}, 4),
        ({"kind": "kummer", "n": 3, "a": "t^2+t", "base": "2^2"}, 3),
        ({"kind": "kummer", "n": 6, "a": "t+3", "base": "7"}, 2),
        ({"kind": "artin_schreier", "a": "t^3", "base": "2"}, 7),
        ({"kind": "artin_schreier", "a": "t^3", "base": "2"}, 6),
        ({"kind": "artin_schreier", "a": "t^3", "base": "2^2"}, 3),
        ({"kind": "artin_schreier", "a": "t^2", "base": "3"}, 4)])
    def test_root_formulas_fill_no_table(self, spec, degree):
        # a cold residue field of at most 256 elements builds no log/exp
        # tables for the root formulas
        from drinlat.extension import splitting_pattern
        from drinlat.ffpoly import residue_field
        ext = make_extension(spec)
        split = [prime for prime in primes_of_degree(ext.base, degree)
                 if prime not in ext.ram_support
                 and len(splitting_pattern(ext, prime)) > 1]
        assert split
        residue_field.cache_clear()
        for prime in split[:5]:
            splitting(ext, prime)
            k = residue_field(prime)
            assert k.size <= 256 and k._log is None, str(prime)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (4, 3),
                            (9, 4), (13, 6), (5, 3), (3, 4)]),
           st.lists(st.integers(0, 12), min_size=1, max_size=5),
           st.integers(1, 12))
    def test_random_radicands(self, qn, tail, lead):
        q, n = qn
        p = next(p for p in range(2, q + 1) if q % p == 0)
        F = FiniteField.of_order(p, round(math.log(q, p)))
        a = Poly(F, [c % q for c in tail] + [lead % (q - 1) + 1])
        assume(math.gcd(n, a.degree) == 1)
        ext = Extension.kummer(F, n, a)
        for prime in enumerate_primes(F, 2 if q > 5 else 3):
            if prime in ext.ram_support:
                continue
            assert splitting(ext, prime).places == \
                _places_by_factoring(ext, prime), str(prime)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(2, 6), (3, 4), (4, 3)]),
           st.lists(st.integers(0, 3), min_size=1, max_size=5),
           st.integers(1, 3))
    def test_random_artin_schreier_radicands(self, qd, tail, lead):
        q, d_max = qd
        F = FiniteField.of_order(2, 2) if q == 4 else FiniteField.of_order(q)
        a = Poly(F, [c % q for c in tail] + [lead % (q - 1) + 1])
        try:
            ext = Extension.artin_schreier(F, a)
        except UnsupportedShape:
            assume(False)
        for prime in enumerate_primes(F, d_max):
            assert splitting(ext, prime).places == \
                _places_by_factoring(ext, prime), str(prime)


def _places_by_factoring(ext, prime):
    """The sorted places from `poly_factor` of the reduced defining
    polynomial, each factor simple."""
    from drinlat.extension import PlaceFactor, _reduced_defining_poly
    from drinlat.ffpoly import poly_factor, residue_field
    reduced = _reduced_defining_poly(ext, prime, residue_field(prime))
    pairs = poly_factor(reduced)
    assert all(mult == 1 for _, mult in pairs), str(prime)
    return tuple(sorted((PlaceFactor(1, f.degree, tuple(f.coeffs))
                         for f, _ in pairs),
                        key=lambda pl: (pl.e, pl.f, pl.factor)))


def _roots_of_unity_walk(F, k):
    """Oracle: the w of F with w^k = 1, by a walk over all of F."""
    return tuple(w for w in range(1, F.size) if F.pow(w, k) == 1)


class TestRootsOfUnity:
    """The k-th roots of unity are the powers of one element of order k,
    found without walking F or filling its tables."""

    @pytest.mark.parametrize("q", (4, 5, 7, 8, 9, 13, 16, 25))
    def test_roots_match_the_walk(self, q):
        from drinlat import extension
        (p, e), = _int_factor(q)
        F = FiniteField.of_order(p, e)
        for k in (k for k in range(1, q) if (q - 1) % k == 0):
            w = F._element_of_order(k)
            assert F.pow(w, k) == 1
            assert all(F.pow(w, k // r) != 1 for r, _ in _int_factor(k))
            got = extension._roots_of_unity.__wrapped__(F, k)
            assert got == _roots_of_unity_walk(F, k), (q, k)

    def test_no_table_is_filled(self):
        from drinlat import extension
        F16 = FiniteField.of_order(2, 4)
        fresh = FiniteField(2, base=F2, modulus=F16.modulus)
        assert extension._roots_of_unity.__wrapped__(fresh, 5) == (
            _roots_of_unity_walk(F16, 5))
        assert fresh._log is None and fresh._mt is None


class TestSplittingGuards:
    """Each closed-form root is checked before `splitting` returns it, so
    a wrong root of unity or a root formula without its 1/e raises
    instead of returning wrong factors."""

    def test_wrong_root_of_unity_raises(self, monkeypatch):
        from drinlat import extension
        ext = Extension.kummer(F5, 2, poly_from_str("t^3+t", F5))
        prime = next(pr for pr in primes_of_degree(F5, 2)
                     if len(extension.splitting_pattern(ext, pr)) == 2)
        assert extension._roots_of_unity(F5, 2) == (1, 4)
        monkeypatch.setattr(extension, "_roots_of_unity", lambda F, k: (1, 2))
        with pytest.raises(AssertionError, match="roots of unity"):
            splitting(ext, prime)

    def test_missing_one_over_e_raises(self, monkeypatch):
        # [k(p) : F_3] = 2 at a degree-2 prime: without 1/e the formula
        # gives 2y, and (2y)^3 - 2y = 2c, not c
        from drinlat.extension import splitting_pattern
        from drinlat.ffpoly import ResidueField
        ext = Extension.artin_schreier(F3, poly_from_str("t^2", F3))
        prime = next(pr for pr in primes_of_degree(F3, 2)
                     if len(splitting_pattern(ext, pr)) == 3)
        right = ResidueField.artin_schreier_root
        monkeypatch.setattr(
            ResidueField, "artin_schreier_root",
            lambda kp, c: kp.scale(kp.e % kp.p, right(kp, c)))
        with pytest.raises(AssertionError, match="y\\^p - y"):
            splitting(ext, prime)


class TestArtinSchreierTrace:
    @pytest.mark.parametrize("spec,d_max", [
        ({"kind": "artin_schreier", "a": "t^3", "base": "2"}, 9),
        ({"kind": "artin_schreier", "a": "t^5+t^3+t", "base": "2"}, 7),
        ({"kind": "artin_schreier", "a": "t^2", "base": "3"}, 5),
        ({"kind": "artin_schreier", "a": "t^4+2*t", "base": "3"}, 4),
        ({"kind": "artin_schreier", "a": "t^3", "base": "2^2"}, 4),
        ({"kind": "artin_schreier", "a": "t^4+t", "base": "5"}, 3),
        ({"kind": "artin_schreier", "a": "t^2+t", "base": "3^2"}, 2)])
    def test_matches_the_residue_field_trace(self, spec, d_max):
        from trace_oracle import artin_schreier_pattern_in_kp
        from drinlat.extension import _artin_schreier_pattern
        ext = make_extension(spec)
        for prime in enumerate_primes(ext.base, d_max):
            assert _artin_schreier_pattern(ext, prime) == \
                artin_schreier_pattern_in_kp(ext, prime), str(prime)

    def test_builds_no_residue_field(self):
        from drinlat.extension import _artin_schreier_pattern
        from drinlat.ffpoly import residue_field
        ext = Extension.artin_schreier(F2, poly_from_str("t^3", F2))
        before = residue_field.cache_info().misses
        for prime in primes_of_degree(F2, 9):
            _artin_schreier_pattern(ext, prime)
        assert residue_field.cache_info().misses == before


class TestZeta:
    def test_genus0_class_number_one(self):
        assert class_number(Extension.constant(F3, 2)) == 1
        assert class_number(Extension.kummer(F5, 2, poly_from_str("t", F5))) == 1

    def test_elliptic_curve_over_f3(self):
        e = kummer_elliptic()
        z = zeta_numerator(e)
        assert z.point_counts == [4]
        assert z.coefficients == [1, 0, 3]
        assert z.h == 4

    def test_elliptic_oracle_affine_count(self):
        # independent brute-force point count of y^2 = t^3 - t over F_3,
        # plus the single point at infinity
        count = 0
        for t in range(3):
            rhs = (t ** 3 - t) % 3
            for y in range(3):
                if (y * y) % 3 == rhs:
                    count += 1
        assert count + 1 == 4

    def test_divisor_class_oracle_genus1(self):
        # genus 1: degree-0 divisor classes biject with degree-1 places
        for e in (kummer_elliptic(),
                  Extension.artin_schreier(F2, poly_from_str("t^3", F2))):
            assert class_number(e) == place_counts(e, 1)[0]

    def test_functional_equation(self):
        for e in (kummer_elliptic(),
                  Extension.artin_schreier(F2, poly_from_str("t^3", F2)),
                  Extension.kummer(F3, 2, poly_from_str("t^5+t+1", F3))):
            z = zeta_numerator(e)
            g = e.genus
            assert len(z.coefficients) == 2 * g + 1
            for i in range(g + 1):
                assert z.coefficients[2 * g - i] == \
                    e.q_prime ** (g - i) * z.coefficients[i]

    def test_genus_bound_from_class_number(self):
        for e in (kummer_elliptic(),
                  Extension.artin_schreier(F2, poly_from_str("t^3", F2))):
            h = class_number(e)
            assert e.genus <= 8 + 2 * math.log(h, e.base.size)

    def test_matches_the_oracle_on_a_seeded_grid(self):
        """The one-pass census and the integer Newton recurrence against
        the per-degree scans and the exponential series of
        `zeta_oracle`: every ZetaData field, or the refusal's type and
        message.  Kummer (n = 2-5) and Artin-Schreier curves over F_2 to
        F_9 with deg a <= 6, genus <= 6 and q'^g <= 2000, about half of
        the radicands of degree >= 3 of the shape u^2 v, so mixed tame
        primes are refused; then curves whose place count is over the
        budget, with and without an unsupported ramified prime below it."""
        import zeta_oracle
        rng = random.Random(32)
        exts = []
        for name in ("2", "3", "2^2", "5", "7", "3^2"):
            F = field_from_str(name)

            def monic(k):
                return Poly(F, [rng.randrange(F.size) for _ in range(k)] + [1])
            for n in (2, 3, 4, 5, None):
                if n is not None and n % F.p == 0:
                    continue
                for d in range(1, 7):
                    for _ in range(4):
                        a = (monic(1) ** 2 * monic(d - 2)
                             if d >= 3 and rng.random() < 0.5 else
                             monic(d) * Poly.const(F, rng.randrange(1, F.size)))
                        try:
                            ext = (Extension.artin_schreier(F, a) if n is None
                                   else Extension.kummer(F, n, a))
                        except (UnsupportedShape, MalformedInput):
                            continue
                        if ext.genus <= 6 and ext.q_prime ** ext.genus <= 2000:
                            exts.append(ext)
        assert {e.genus for e in exts} == {0, 1, 2, 3, 4, 6}
        exts += [make_extension(spec) for spec in (
            # over F_101 the degree-3 primes are past the budget, and over
            # F_1009 and F_(2^10) the degree-2 ones
            {"kind": "kummer", "n": 2, "a": "t^7+t+1", "base": "101"},
            {"kind": "kummer", "n": 4, "a": "t^5+t^2", "base": "101"},
            {"kind": "kummer", "n": 4, "a": "t^5+2*t^3+t", "base": "1009"},
            # (t^3+t+1)^2 t: the mixed tame prime has degree 3, past the
            # degree-2 scan that comes before the refusal
            {"kind": "kummer", "n": 4, "a": "t^7+2*t^5+2*t^4+t^3+2*t^2+t",
             "base": "101"},
            {"kind": "artin_schreier", "a": "t^5+t", "base": "2^10"})]

        def outcome(zeta, ext):
            try:
                return "ZetaData", zeta(ext)
            except (BudgetExceeded, UnsupportedRamifiedPrime) as exc:
                return type(exc).__name__, str(exc)
        kinds = set()
        for ext in exts:
            got = outcome(zeta_numerator, ext)
            assert got == outcome(zeta_oracle.zeta_numerator, ext), ext
            kinds.add(got[0])
        assert kinds == {"ZetaData", "BudgetExceeded",
                         "UnsupportedRamifiedPrime"}


class TestCountPlaces:
    def test_elliptic_b1(self):
        assert place_counts(kummer_elliptic(), 1)[0] == 4

    def test_place_budget_refuses_before_enumerating(self):
        # genus 1 over F_(2^20): the 2^20 degree-1 primes exceed 10^6
        F = field_from_str("2^20")
        ext = Extension.kummer(F, 3, poly_from_str("t^2+t+1", F))
        assert ext.genus == 1
        with pytest.raises(BudgetExceeded, match="enumerating primes of "
                           "degree up to 1 exceeds the budget"):
            class_number(ext)

    def test_constant_extension_inert_places(self):
        e = Extension.constant(F2, 2)
        # degree-1 places of F_4(t): t-c for c in F_4 plus infinity = 5
        assert place_counts(e, 1)[0] == 5


class TestPredegree:
    def test_genus0(self):
        assert predegree(Extension.constant(F3, 2), 1) == 1

    def test_elliptic(self):
        assert predegree(kummer_elliptic(), 1) == 4
        assert predegree(kummer_elliptic(), 6) == 24

    def test_bad_index(self):
        with pytest.raises(MalformedInput):
            predegree(kummer_elliptic(), 0)


class TestIndexIX:
    def test_standard_datum_index_one(self):
        from drinlat.goodprime import SubvarietyDatum
        from drinlat.extension import index_iX
        datum = SubvarietyDatum(Extension.constant(F2, 2), 2)
        assert index_iX(datum) == 1

    def test_single_twist_orbit_size(self):
        # lattice A_p + p R' inside the unramified quadratic order: index 2,
        # orbit of size 3 under the 12-element unit group of R'/m^2
        from drinlat.goodprime import SubvarietyDatum
        from drinlat.extension import index_iX
        from drinlat.ffpoly import prime_from_str
        from drinlat.localfield import LocalMatrix
        prime = prime_from_str("t", F2)
        ext = Extension.constant(F2, 2)
        g = LocalMatrix.from_polys(prime, [[poly_from_str("1", F2),
                                            Poly.zero(F2)],
                                           [Poly.zero(F2),
                                            poly_from_str("t", F2)]])
        datum = SubvarietyDatum(ext, 2, {prime: g})
        assert index_iX(datum) == 3

    def test_unsaturated_twist_normalized(self):
        # p * (A_p + p R') normalizes back to the same orbit: index 3
        from drinlat.goodprime import SubvarietyDatum
        from drinlat.extension import index_iX
        from drinlat.ffpoly import prime_from_str
        from drinlat.localfield import LocalMatrix
        prime = prime_from_str("t", F2)
        ext = Extension.constant(F2, 2)
        g = LocalMatrix.from_polys(prime, [[poly_from_str("t", F2),
                                            Poly.zero(F2)],
                                           [Poly.zero(F2),
                                            poly_from_str("t^2", F2)]])
        datum = SubvarietyDatum(ext, 2, {prime: g})
        assert index_iX(datum) == 3

    def test_scalar_twist_is_trivial(self):
        from drinlat.goodprime import SubvarietyDatum
        from drinlat.extension import index_iX
        from drinlat.ffpoly import prime_from_str
        from drinlat.localfield import LocalMatrix
        prime = prime_from_str("t", F3)
        ext = Extension.constant(F3, 2)
        g = LocalMatrix.from_polys(prime, [[poly_from_str("t", F3),
                                            Poly.zero(F3)],
                                           [Poly.zero(F3),
                                            poly_from_str("t", F3)]])
        datum = SubvarietyDatum(ext, 2, {prime: g})
        assert index_iX(datum) == 1

    def test_product_over_two_primes(self):
        from drinlat.goodprime import SubvarietyDatum
        from drinlat.extension import index_iX
        from drinlat.ffpoly import prime_from_str
        from drinlat.localfield import LocalMatrix
        ext = Extension.constant(F2, 2)
        p1 = prime_from_str("t", F2)
        p2 = prime_from_str("t+1", F2)
        def twist(prime):
            return LocalMatrix.from_polys(prime, [[poly_from_str("1", F2),
                                                   Poly.zero(F2)],
                                                  [Poly.zero(F2),
                                                   prime.poly]])
        datum = SubvarietyDatum(ext, 2, {p1: twist(p1), p2: twist(p2)})
        assert index_iX(datum) == 9

    @pytest.mark.parametrize("exponents, index", [
        ((0, 0), 1), ((-1, 0), 8), ((0, 1), 8), ((1, 2), 8), ((-2, -1), 8)])
    def test_homothety_invariance(self, exponents, index):
        # diag(pi^a, pi^b) and diag(pi^(a+c), pi^(b+c)) give one index; a
        # negative exponent takes saturate_lattice's scaling branch
        from drinlat.goodprime import SubvarietyDatum
        from drinlat.extension import index_iX
        from drinlat.localfield import LocalElement, LocalMatrix
        prime = prime_from_str("t^2+1", F3)
        g = LocalMatrix.diagonal(
            prime, [LocalElement.pi_power(prime, e) for e in exponents])
        datum = SubvarietyDatum(kummer_elliptic(), 2, {prime: g})
        assert index_iX(datum) == index


class TestOrderAt:
    def test_split_prime_gives_product_order(self):
        e = kummer_elliptic()
        order = order_at(e, prime_from_str("t^2+1", F3), 1)
        assert order.factors == ((1, 1), (1, 1))
        assert order.m == 2

    def test_eisenstein_prime_gives_ramified_order(self):
        e = kummer_elliptic()
        order = order_at(e, prime_from_str("t", F3), 1)
        assert order.factors == ((2, 1),)

    def test_inert_prime(self):
        e = Extension.constant(F3, 2)
        order = order_at(e, prime_from_str("t", F3), 1)
        assert order.factors == ((1, 2),)

    def test_inseparable_refused(self):
        e = Extension.generic(F2, [-poly_from_str("t", F2), Poly.zero(F2),
                                   Poly.one(F2)], genus=0)
        with pytest.raises(UnsupportedRamifiedPrime):
            order_at(e, prime_from_str("t", F2), 1)


def _shape_by_factoring(ext, prime):
    """The (e, f) multiset that `order_at` took from `splitting` before it
    read `splitting_pattern`, or "refused" where it raised."""
    if not ext.separable or prime in ext.maximality_bad:
        return "refused"
    try:
        places = splitting(ext, prime).places
    except UnsupportedRamifiedPrime:
        return "refused"
    shape = sorted((pl.e, pl.f) for pl in places)
    return "refused" if any(e > 1 and f > 1 for e, f in shape) else shape


class TestOrderAtShape:
    """`order_at` reads its shape off `splitting_pattern`: at every prime
    up to degree 4 the (e, f) multiset and the refusals must be those of
    factoring.  The radicands put ramified primes in the support, with a
    closed form (e.g. t of x^2 = t^3+2*t), without one (the mixed tame
    prime t of x^4 = t^3+t^2 over F_5, or t of the generic x^2 = t), or
    off the certified-maximal locus (t of x^2 = t^3+t^2 over F_3)."""
    SPECS = [
        {"kind": "constant", "n": 2, "base": "2"},
        {"kind": "constant", "n": 3, "base": "3"},
        {"kind": "constant", "n": 3, "base": "2^2"},
        {"kind": "kummer", "n": 2, "a": "t^3+2*t", "base": "3"},
        {"kind": "kummer", "n": 2, "a": "t^3+t^2", "base": "3"},
        {"kind": "kummer", "n": 4, "a": "t^3+t^2", "base": "5"},
        {"kind": "kummer", "n": 3, "a": "t^2+1", "base": "7"},
        {"kind": "kummer", "n": 2, "a": "t", "base": "3^2"},
        {"kind": "kummer", "n": 3, "a": "t", "base": "2"},          # ladder
        {"kind": "kummer", "n": 3, "a": "t^2+t+1", "base": "5"},    # ladder
        {"kind": "kummer", "n": 5, "a": "t^2+t", "base": "2^2"},    # ladder
        {"kind": "kummer", "n": 3, "a": "t", "base": "2^3"},        # ladder
        {"kind": "artin_schreier", "a": "t^3", "base": "2"},
        {"kind": "artin_schreier", "a": "t^2+t", "base": "3"},
        {"kind": "artin_schreier", "a": "t^3", "base": "2^2"},
        {"kind": "generic", "f": ["t", "t", "0", "1"], "genus": 1,
         "base": "2"},
        {"kind": "generic", "f": ["-t", "0", "1"], "genus": 0, "base": "3"},
        {"kind": "generic", "f": ["1", "t", "1"], "genus": 0, "base": "2^2"},
    ]

    @pytest.mark.parametrize(
        "spec", SPECS,
        ids=["-".join(str(s.get(k, "")) for k in ("kind", "base", "n", "a"))
             for s in SPECS])
    def test_shape_and_refusals_match_factoring(self, spec):
        ext = make_extension(spec)
        for prime in enumerate_primes(ext.base, 4):
            want = _shape_by_factoring(ext, prime)
            try:
                got = sorted(order_at(ext, prime, 1).factors)
            except UnsupportedRamifiedPrime:
                got = "refused"
            assert got == want, str(prime)

    def test_specs_cover_every_kind_of_ramified_prime(self):
        seen = set()
        for spec in self.SPECS:
            ext = make_extension(spec)
            for prime, closed in ext.ram_support.items():
                seen.add("closed form" if closed else "no closed form")
            if ext.maximality_bad - set(ext.ram_support):
                seen.add("not maximal")
            seen.add(ext.base.size)
        assert seen == {"closed form", "no closed form", "not maximal",
                        2, 3, 4, 5, 7, 8, 9}
