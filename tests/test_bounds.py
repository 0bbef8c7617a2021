import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drinlat.bounds import (CebotarevParams, bezout, castelnuovo_normal_closure,
                            castelnuovo_pairwise, cebotarev_bound,
                            cebotarev_check, cebotarev_main_term,
                            clg_lower_bound, count_split_primes,
                            count_split_primes_enumerated,
                            genus_bound_holds, genus_upper_from_classnumber,
                            hecke_pullback, induction_threshold, separable_N)
from drinlat import bounds
from drinlat.errors import (BudgetExceeded, GenusZero, InapplicableDegree,
                            NotNormal)
from drinlat.extension import Extension, class_number, make_extension
from drinlat.ffpoly import FiniteField, Poly, poly_from_str

F2 = FiniteField.of_order(2)
F3 = FiniteField.of_order(3)
F5 = FiniteField.of_order(5)


class TestClgBound:
    def test_formula_q3_g1(self):
        # (3-1)(3^2 - 2*3 + 1) / (2 (3^2 - 1)) = 2*4/16 = 1/2
        assert clg_lower_bound(3, 1) == Fraction(1, 2)

    def test_formula_q2_g1(self):
        assert clg_lower_bound(2, 1) == Fraction(1, 6)

    def test_genus_zero_refused(self):
        with pytest.raises(GenusZero):
            clg_lower_bound(3, 0)

    def test_elliptic_class_number_respects_bound(self):
        e = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
        h = class_number(e)
        assert h == 4
        assert Fraction(h) >= clg_lower_bound(3, 1)

    def test_positive_for_reasonable_range(self):
        for q in (2, 3, 4, 5, 9):
            for g in range(1, 6):
                assert clg_lower_bound(q, g) > 0


class TestGenusUpper:
    def test_h_one(self):
        assert genus_upper_from_classnumber(2, 1) == 8.0

    def test_q3_h4(self):
        val = genus_upper_from_classnumber(3, 4)
        assert abs(val - 10.52) < 0.01
        assert genus_bound_holds(3, 4, 1)

    def test_q2_h_1024(self):
        assert genus_upper_from_classnumber(2, 2 ** 10) == 28.0

    def test_joint_with_clg_on_computed_class_numbers(self):
        exts = [
            Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3)),
            Extension.artin_schreier(F2, poly_from_str("t^3", F2)),
            Extension.kummer(F3, 2, poly_from_str("t^5+t+1", F3)),
        ]
        for e in exts:
            h = class_number(e)
            if e.genus >= 1:
                assert Fraction(h) >= clg_lower_bound(e.q_prime, e.genus)
            assert genus_bound_holds(e.base.size, h, e.genus)


class TestCastelnuovo:
    def test_r1(self):
        assert castelnuovo_normal_closure(1, 7) == 7

    def test_r2_g1(self):
        assert castelnuovo_normal_closure(2, 1) == 8

    def test_pairwise_step(self):
        assert castelnuovo_pairwise(2, 1) == 8
        assert castelnuovo_pairwise(3, 2) == 21


class TestCebotarevBound:
    def test_q5_example(self):
        p = CebotarevParams(q=5, i=2, n=2, k=1, g=0, d=1)
        assert cebotarev_main_term(p) == Fraction(25, 2)
        assert abs(cebotarev_bound(p) - 8.236) < 0.001

    def test_inapplicable_degree(self):
        p = CebotarevParams(q=5, i=3, n=2, k=1, g=0, d=1)
        with pytest.raises(InapplicableDegree):
            cebotarev_bound(p)

    def test_positive(self):
        for i in (1, 2, 3, 4, 6):
            p = CebotarevParams(q=3, i=i, n=1, k=2, g=1, d=1)
            assert cebotarev_bound(p) > 0

    def test_relative_error_vanishes(self):
        # bound / main term -> 0 for growing i with g = 0, k = 1, d = 1
        prev = None
        for i in (2, 4, 6, 8, 10):
            p = CebotarevParams(q=2, i=i, n=1, k=1, g=0, d=1)
            ratio = cebotarev_bound(p) / float(cebotarev_main_term(p))
            if prev is not None:
                assert ratio < prev
            prev = ratio
        assert prev < 0.5


class TestCountSplitPrimes:
    def test_constant2_f5_all_quadratics(self):
        e = Extension.constant(F5, 2)
        assert count_split_primes(e, 2) == 10

    def test_constant2_f5_odd_degree_zero(self):
        e = Extension.constant(F5, 2)
        assert count_split_primes(e, 1) == 0

    def test_kummer_sqrt_t_f5_linear(self):
        e = Extension.kummer(F5, 2, poly_from_str("t", F5))
        assert count_split_primes(e, 1) == 2  # t-1 and t-4

    def test_kummer_needs_normality(self):
        e = Extension.kummer(F2.of_order(3), 2, poly_from_str("t", F2.of_order(3)))
        # q = 3: 2 | q - 1: normal, fine
        count_split_primes(e, 1)
        bad = Extension.artin_schreier(F2, poly_from_str("t^3", F2))
        with pytest.raises(NotNormal):
            count_split_primes(bad, 2)


# the differential tests compare every degree i with q^i <= this budget
DIFF_BUDGET = 4000
# q -> (p, e)
DIFF_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
               9: (3, 2), 13: (13, 1)}
# (q, n) with n | q - 1, n in {2, 3, 4, 6}
KUMMER_FIELDS = [(3, 2), (5, 2), (7, 2), (9, 2), (5, 4), (9, 4), (4, 3),
                 (7, 3), (7, 6), (13, 3), (13, 4), (13, 6)]
# the radicands the closed form was first checked on: (q, n, a)
PROTOTYPE_RADICANDS = [(5, 2, "t"), (5, 2, "t^3+t"), (5, 2, "2*t^5+t+1"),
                       (5, 4, "t^3+2"), (3, 2, "t^3+2*t"),
                       (3, 2, "t^3+t^2"), (7, 3, "t^4+t+3"),
                       (7, 3, "t^4+2*t^3"), (7, 6, "3*t^5+1")]


def _field(q):
    return FiniteField.of_order(*DIFF_FIELDS[q])


def _assert_counts_agree(ext):
    """The library count and the Kummer closed form (also where the
    library takes the sieve) equal the sieve at every degree the budget
    allows, and both library paths refuse the next degree."""
    q = ext.base.size
    i = 1
    while q ** i <= DIFF_BUDGET:
        want = count_split_primes_enumerated(ext, i, DIFF_BUDGET)
        assert count_split_primes(ext, i, DIFF_BUDGET) == want, i
        if ext.kind == "kummer":
            assert bounds._kummer_split_count(ext, i) == want, i
        i += 1
    for count in (count_split_primes, count_split_primes_enumerated):
        with pytest.raises(BudgetExceeded, match=f"degree-{i} scan"):
            count(ext, i, DIFF_BUDGET)


@st.composite
def kummer_extensions(draw):
    """x^n = a with a non-monic and a product of random monic factors of
    degree 1-2 with multiplicities 1..n+1 (so both n | v and n does not
    divide v occur), padded by linear factors until n and deg a are
    coprime."""
    q, n = draw(st.sampled_from(KUMMER_FIELDS))
    F = _field(q)
    a = Poly.const(F, draw(st.integers(1, q - 1)))
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 2))
        tail = draw(st.lists(st.integers(0, q - 1), min_size=degree,
                             max_size=degree))
        a = a * Poly(F, tail + [1]) ** draw(st.integers(1, n + 1))
    while math.gcd(n, a.degree) != 1:
        a = a * Poly(F, [draw(st.integers(0, q - 1)), 1])
    return Extension.kummer(F, n, a)


class TestSplitCountAgainstSieve:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_constant_extensions(self, q, n):
        _assert_counts_agree(Extension.constant(_field(q), n))

    @pytest.mark.parametrize("q,n,a", PROTOTYPE_RADICANDS, ids=str)
    def test_prototype_radicands(self, q, n, a):
        F = _field(q)
        _assert_counts_agree(Extension.kummer(F, n, poly_from_str(a, F)))

    @settings(max_examples=60, deadline=None)
    @given(kummer_extensions())
    def test_random_kummer_radicands(self, ext):
        _assert_counts_agree(ext)

    def test_criterion_7_counts_without_a_sieve(self, monkeypatch):
        cases = []
        for spec in ({"kind": "constant", "n": 2, "base": "5"},
                     {"kind": "constant", "n": 2, "base": "2"},
                     {"kind": "constant", "n": 3, "base": "2"},
                     {"kind": "kummer", "n": 2, "a": "t", "base": "5"}):
            ext = make_extension(spec)
            for i in range(ext.const_degree, 7, ext.const_degree):
                cases.append((ext, i, count_split_primes_enumerated(ext, i)))
        assert len(cases) == 14

        def no_sieve(*args):
            raise AssertionError("the library path enumerated primes")
        monkeypatch.setattr(bounds, "primes_of_degree", no_sieve)
        for ext, i, want in cases:
            assert count_split_primes(ext, i) == want

    def test_long_radicand_takes_the_sieve(self, monkeypatch):
        # deg a = 5 > i: the sieve is the faster path there
        F = FiniteField.of_order(7)
        ext = Extension.kummer(F, 6, poly_from_str("3*t^5+1", F))
        monkeypatch.setattr(bounds, "_kummer_split_count", None)
        assert count_split_primes(ext, 3) == 18


class TestCebotarevCheck:
    def test_constant2_f5_i2_reproduces_values(self):
        e = Extension.constant(F5, 2)
        rep = cebotarev_check(e, 2)
        assert rep.count == 10
        assert rep.main_term == Fraction(25, 2)
        assert abs(rep.bound - 8.236) < 0.001
        assert rep.holds

    @pytest.mark.parametrize("spec,imax", [
        ({"kind": "constant", "n": 2, "base": "5"}, 6),
        ({"kind": "constant", "n": 2, "base": "2"}, 6),
        ({"kind": "constant", "n": 3, "base": "2"}, 6),
        ({"kind": "kummer", "n": 2, "a": "t", "base": "5"}, 6),
    ])
    def test_holds_on_matrix(self, spec, imax):
        from drinlat.extension import make_extension
        e = make_extension(spec)
        checked = 0
        for i in range(1, imax + 1):
            if i % e.const_degree != 0:
                continue
            rep = cebotarev_check(e, i)
            assert rep.holds, (spec, i, rep)
            checked += 1
        assert checked >= 2


class TestThresholds:
    def test_induction_examples(self):
        assert induction_threshold(2, 2, 1, 1) == 2
        assert induction_threshold(2, 3, 2, 3) == 5184 == 2 ** 6 * 3 ** 4

    def test_separable_examples(self):
        assert separable_N(2, 1) == 18
        assert separable_N(2, 0) == 8
        assert separable_N(3, 2) == 84

    def test_separable_identity(self):
        for r in range(1, 6):
            for s in range(0, 6):
                assert separable_N(r, s) == \
                    2 * (r - 1) * (2 ** s - 1) + 2 * r * r * 2 ** s

    def test_monotone_in_each_argument(self):
        base = induction_threshold(2, 2, 1, 2)
        assert induction_threshold(3, 2, 1, 2) >= base
        assert induction_threshold(2, 3, 1, 2) >= base
        assert induction_threshold(2, 2, 2, 2) >= base
        assert induction_threshold(2, 2, 1, 3) >= base

    def test_recursion_consistency(self):
        # threshold(s) = kp^(r-1) * threshold(s-1)^2
        for kp in (2, 3, 4):
            for r in (2, 3):
                for degz in (1, 2, 3):
                    for s in range(2, 5):
                        assert induction_threshold(kp, r, s, degz) == \
                            kp ** (r - 1) * induction_threshold(kp, r, s - 1,
                                                                degz) ** 2

    def test_bezout_and_pullback(self):
        assert bezout(3, 5) == 15
        assert hecke_pullback(4, 6) == 24

    def test_intersection_ledger_inequality(self):
        # deg(Z cap T_g Z) <= deg Z^2 |k(p)|^(r-1) via the composition
        rng = random.Random(0)
        for _ in range(1000):
            degz = rng.randrange(1, 50)
            kp = rng.choice([2, 3, 4, 5, 8, 9])
            r = rng.randrange(2, 5)
            ledger = bezout(degz, hecke_pullback(degz, kp ** (r - 1)))
            assert ledger == degz * degz * kp ** (r - 1)
