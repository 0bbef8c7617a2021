import random
from fractions import Fraction

import pytest
from element_queries import certified_val, same_fields
from hecke_oracle import (char_poly_elements, char_poly_expanded,
                          hecke_degree_enumerated, random_congruence_matrix,
                          sample_char_poly, unboundedness_sample_matrix)
from hypothesis import given, settings, strategies as st

from drinlat import _chainring, acceptance, hecke, localfield
from drinlat.errors import PrecisionExhausted, QuotientInsufficient
from drinlat.ffpoly import (FiniteField, Poly, poly_from_str, prime_from_str,
                            primes_of_degree)
from drinlat.hecke import (HeckeElement, _packed_sample, _sample_rng,
                           char_poly, companion_matrix, hecke_degree,
                           newton_polygon, projectively_bounded,
                           standard_hecke_matrix, unboundedness_sample_check)
from drinlat.localfield import LocalElement, LocalMatrix

F2 = FiniteField.of_order(2)
F3 = FiniteField.of_order(3)
T2 = prime_from_str("t", F2)
T3 = prime_from_str("t", F3)
T4 = prime_from_str("t", FiniteField.of_order(2, 2))
P2_OMEGA = prime_from_str("t^2+t+1", F2)


def pi_pow(prime, k, prec=12):
    return LocalElement.pi_power(prime, k, prec)


class TestCharPoly:
    def test_diag_pi_inverse_one(self):
        g = standard_hecke_matrix(T2, 2)
        cp = char_poly(g)
        # lambda^2 - (pi^-1 + 1) lambda + pi^-1
        assert certified_val(cp[0]) == -1
        assert certified_val(cp[1]) == -1
        assert certified_val(cp[2]) == 0

    def test_identity_r2(self):
        g = LocalMatrix.identity(T2, 2)
        cp = char_poly(g)
        # char 2: lambda^2 - 2 lambda + 1 = lambda^2 + 1
        assert certified_val(cp[0]) == 0
        assert cp[1].kind == "z"
        assert certified_val(cp[2]) == 0

    def test_companion_of_lambda2_minus_pi(self):
        g = companion_matrix(T2, [pi_pow(T2, 1).neg(), LocalElement.zero(T2)])
        cp = char_poly(g)
        assert certified_val(cp[0]) == 1  # a_0 = -pi
        assert cp[1].kind == "z"

    def test_trace_and_det_against_direct(self):
        rng = random.Random(0)
        for _ in range(50):
            polys = [[poly_from_str(str(rng.randrange(1, 8)), F3) +
                      Poly(F3, [0, rng.randrange(3)]) for _ in range(2)]
                     for _ in range(2)]
            g = LocalMatrix.from_polys(T3, polys)
            cp = char_poly(g)
            tr = g.rows[0][0].add(g.rows[1][1])
            det = g.rows[0][0].mul(g.rows[1][1]).sub(
                g.rows[0][1].mul(g.rows[1][0]))
            assert cp[1].add(tr).kind != "n"  # a_1 = -trace
            assert cp[0].sub(det).kind != "n"  # a_0 = det for r = 2


def _same_elements(a, b):
    return len(a) == len(b) and all(map(same_fields, a, b))


def _consistent(x, y):
    """Two truncated results for the same true value never contradict
    each other; None when they agree, else the reason."""
    if x.kind == "n" and y.kind == "n":
        if x.val != y.val:
            return "certified valuations differ"
        common = min(x.abs_prec, y.abs_prec) - x.val
        if x.digits[:common] != y.digits[:common]:
            return "digits differ below the shared precision"
    if x.exact and y.exact and x.sub(y).kind != "z":
        return "exact values differ"
    for a, b in ((x, y), (y, x)):
        if a.kind == "u" and b.kind == "n" and a.val > b.val:
            return "bound above the certified valuation"
        if a.kind == "z" and b.kind == "n":
            return "exact zero against a certified value"
    return None


def _mixed_element(prime, rng):
    """Exact zero, O(pi^k), an exact polynomial with a short or long
    stored window, or an inexact element with random digits."""
    kind = rng.randrange(10)
    if kind < 2:
        return LocalElement.zero(prime)
    if kind < 3:
        return LocalElement(prime, "u", rng.randrange(-1, 4), ())
    F = prime.field
    val = rng.randrange(-1, 3)
    if kind < 6:
        f = Poly(F, [rng.randrange(1, F.size)] +
                 [rng.randrange(F.size) for _ in range(rng.randrange(4))])
        return LocalElement.from_poly(
            prime, f, rng.choice((3, 5, 12))).shift(val)
    digits = [Poly(F, [rng.randrange(F.size) for _ in range(prime.degree)])
              for _ in range(rng.randrange(2, 13))]
    if digits[0].is_zero():
        digits[0] = Poly.one(F)
    return LocalElement(prime, "n", val, tuple(digits))


class TestCharPolyAgainstExpansion:
    """The shared-minor programme against the permutation expansion
    `char_poly_expanded`."""

    def test_product_count(self, monkeypatch):
        # dense r = 6 matrix of inexact units: 633 products, where the
        # expansion takes 7,830; both count the tuple rule, which
        # char_poly calls directly and LocalElement.mul wraps
        rng = random.Random(0)
        g = LocalMatrix(T2, [[LocalElement(T2, "n", 0, tuple(
            Poly(F2, [1 if k == 0 else rng.randrange(2)]) for k in range(6)))
            for _ in range(6)] for _ in range(6)])
        calls = []
        orig = localfield._mul_fields

        def counting_mul(kr, a, b):
            calls.append(1)
            return orig(kr, a, b)

        monkeypatch.setattr(hecke, "_mul_fields", counting_mul)
        monkeypatch.setattr(localfield, "_mul_fields", counting_mul)
        char_poly(g)
        fast = len(calls)
        calls.clear()
        char_poly_expanded(g)
        assert (fast, len(calls)) == (633, 7830)

    def test_sampled_hecke_matrices_equal(self):
        # k2^-1 diag(pi^-1, 1, ..., 1) k1^-1, as in the sampled check
        for prime, ranks, prec in ((T2, range(1, 7), 12), (T3, range(1, 5), 12),
                                   (T2, range(2, 5), 30)):
            rng = random.Random(f"{prime}/{prec}")
            for r in ranks:
                core = standard_hecke_matrix(prime, r, prec)
                for _ in range(1 if r >= 5 else 3):
                    k1 = random_congruence_matrix(prime, r, rng, prec)
                    k2 = random_congruence_matrix(prime, r, rng, prec)
                    g = k2.inverse() @ core @ k1.inverse()
                    assert _same_elements(char_poly(g), char_poly_expanded(g))

    def test_criterion5_matrices_equal(self):
        rng = random.Random(5)
        for _ in range(60):
            g = acceptance._random_invertible(T2, 2, rng, prec=30)
            assert _same_elements(char_poly(g), char_poly_expanded(g))

    def test_exact_matrices_same_values(self):
        # criterion 5's entries at r = 3: all exact, so the values agree;
        # after cancellation the programme may keep a longer stored window
        rng = random.Random(5)
        for _ in range(10):
            g = acceptance._random_invertible(T2, 3, rng, prec=30)
            for x, y in zip(char_poly(g), char_poly_expanded(g)):
                assert x.exact and y.exact
                assert x.sub(y).kind == "z"
                assert len(x.digits) >= len(y.digits)

    def test_companion_matrices_equal(self):
        for prime in (T2, T3, T4):
            rng = random.Random(str(prime.field.size))
            F = prime.field
            for r in range(1, 6):
                coeffs = []
                for _ in range(r):
                    f = Poly(F, [rng.randrange(F.size) for _ in range(3)])
                    f = f * prime.poly ** rng.randrange(3)
                    coeffs.append(LocalElement.from_poly(prime, f, 12))
                comp = companion_matrix(prime, coeffs)
                u = _random_unit_matrix(prime, r, rng)
                for g in (comp, u @ comp @ u.inverse()):
                    assert _same_elements(char_poly(g), char_poly_expanded(g))

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_mixed_precision_results_consistent(self, q):
        F = FiniteField.of_order(*{2: (2, 1), 3: (3, 1), 4: (2, 2),
                                   5: (5, 1)}[q])
        kinds = set()
        for prime_text in ("t", "t+1"):
            prime = prime_from_str(prime_text, F)
            rng = random.Random(f"{q}/{prime_text}")
            for r in range(1, 6):
                for _ in range(12 if r < 5 else 2):
                    g = LocalMatrix(prime, [[_mixed_element(prime, rng)
                                             for _ in range(r)]
                                            for _ in range(r)])
                    fast, slow = char_poly(g), char_poly_expanded(g)
                    for i, (x, y) in enumerate(zip(fast, slow)):
                        assert _consistent(x, y) is None, (i, x, y)
                        kinds.add(x.kind)
        assert kinds == {"n", "u", "z"}


# per field q = 2, 3, 4, 5: t, t + 1 and the first prime of degree 2
TUPLE_PRIMES = [pr for F in (FiniteField.of_order(p, e)
                             for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)))
                for pr in (prime_from_str("t", F), prime_from_str("t+1", F),
                           primes_of_degree(F, 2)[0])]
TUPLE_PRIME_IDS = [f"q={pr.field.size}:{pr}" for pr in TUPLE_PRIMES]


@st.composite
def doubled_matrix(draw):
    """(prime, rows at precision P, the same rows with every inexact entry's
    digits extended to 2P): exact zeros and inexact entries of valuation
    -1 to 2, the first P digits shared."""
    prime = draw(st.sampled_from(TUPLE_PRIMES))
    r = draw(st.integers(1, 4))
    P = draw(st.integers(1, 8))
    F = prime.field
    digit = st.lists(st.integers(0, F.size - 1), min_size=prime.degree,
                     max_size=prime.degree).map(lambda c: Poly(F, c))
    low, high = [], []
    for _ in range(r):
        row_low, row_high = [], []
        for _ in range(r):
            if draw(st.integers(0, 6)) == 0:
                row_low.append(LocalElement.zero(prime))
                row_high.append(LocalElement.zero(prime))
                continue
            val = draw(st.integers(-1, 2))
            digits = draw(st.lists(digit, min_size=2 * P, max_size=2 * P))
            if digits[0].is_zero():
                digits[0] = Poly.one(F)
            row_low.append(LocalElement(prime, "n", val, tuple(digits[:P])))
            row_high.append(LocalElement(prime, "n", val, tuple(digits)))
        low.append(row_low)
        high.append(row_high)
    return prime, low, high


class TestCharPolyOnFieldTuples:
    """`char_poly` runs `_minor_sums` on field tuples; the same programme
    in `LocalElement` arithmetic is the oracle `char_poly_elements`."""

    @pytest.mark.parametrize("prime", TUPLE_PRIMES, ids=TUPLE_PRIME_IDS)
    def test_matches_element_programme(self, prime):
        rng = random.Random(f"fields:{prime.field.size}:{prime}")
        entries = set()
        for r in range(1, 6):
            for _ in range(10 if r < 5 else 2):
                g = LocalMatrix(prime, [[_mixed_element(prime, rng)
                                         for _ in range(r)]
                                        for _ in range(r)])
                entries.update((x.kind, x.exact) for row in g.rows
                               for x in row)
                assert _same_elements(char_poly(g), char_poly_elements(g))
        # exact zeros, O(pi^k), exact and inexact nonzero entries
        assert entries == {("z", True), ("u", False), ("n", True),
                           ("n", False)}

    @settings(max_examples=150, deadline=None)
    @given(doubled_matrix())
    def test_doubling_precision_keeps_certified_coefficients(self, case):
        # a coefficient certified at precision P is certified at 2P, with
        # the same valuation and the same digits below its precision
        prime, low, high = case
        at_p = char_poly(LocalMatrix(prime, low))
        at_2p = char_poly(LocalMatrix(prime, high))
        for i, (x, y) in enumerate(zip(at_p, at_2p)):
            assert _consistent(x, y) is None, (i, x, y)
            assert x.kind != "n" or y.kind == "n", (i, x, y)


class TestNewtonPolygon:
    def test_linear_minus_pi(self):
        # lambda - pi: one segment, slope -1, root valuation 1
        np_ = newton_polygon([pi_pow(T2, 1).neg(), pi_pow(T2, 0)])
        assert np_.segments == ((Fraction(-1), 1),)
        assert [-s for s, n in np_.segments for _ in range(n)] == [Fraction(1)]

    def test_lambda2_minus_pi(self):
        np_ = newton_polygon([pi_pow(T2, 1).neg(), LocalElement.zero(T2),
                              pi_pow(T2, 0)])
        assert np_.segments == ((Fraction(-1, 2), 2),)
        assert [-s for s, n in np_.segments for _ in range(n)] == \
            [Fraction(1, 2), Fraction(1, 2)]

    def test_two_segments_for_diag(self):
        cp = char_poly(standard_hecke_matrix(T2, 2))
        np_ = newton_polygon(cp)
        assert np_.segment_count == 2
        assert np_.segments == ((Fraction(0), 1), (Fraction(1), 1))

    def test_lengths_sum_to_degree(self):
        rng = random.Random(1)
        for _ in range(40):
            g = _random_invertible(T3, 3, rng)
            np_ = newton_polygon(char_poly(g))
            assert sum(l for _, l in np_.segments) == 3

    def test_slope_sum_is_minus_det_valuation(self):
        rng = random.Random(2)
        for _ in range(40):
            g = _random_invertible(T2, 2, rng)
            np_ = newton_polygon(char_poly(g))
            total = sum(s * l for s, l in np_.segments)
            assert total == -sum(g.elementary_divisors())

    def test_conjugation_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            g = _random_invertible(T2, 2, rng)
            u = _random_unit_matrix(T2, 2, rng)
            np1 = newton_polygon(char_poly(g))
            np2 = newton_polygon(char_poly(u @ g @ u.inverse()))
            assert np1.segments == np2.segments

    def test_uncertified_coefficient_outside_hull_refused(self):
        # O(pi^12) at x = 0, left of the certified hull (1, 0) -> (2, 0):
        # any nonzero value there adds a vertex
        coeffs = [LocalElement(T3, "u", 12, ()), LocalElement.one(T3),
                  LocalElement.one(T3)]
        with pytest.raises(PrecisionExhausted):
            newton_polygon(coeffs)
        with pytest.raises(PrecisionExhausted):
            newton_polygon([LocalElement.one(T3), LocalElement.one(T3),
                            LocalElement(T3, "u", 5, ())])

    def test_uncertified_coefficient_on_hull_tolerated(self):
        np_ = newton_polygon([LocalElement.one(T3), LocalElement(T3, "u", 3, ()),
                              LocalElement.one(T3)])
        assert np_.segments == ((Fraction(0), 2),)

    def test_cancelled_determinant_refused(self):
        # det = t^20 / (t+1)^2 cancels to O(pi^12) at precision 12, the
        # trace has valuation 0: two segments, not provably one
        def ratio(num):
            return LocalElement.from_ratio(T3, poly_from_str(num, F3),
                                           poly_from_str("t+1", F3))
        g = LocalMatrix(T3, [[ratio("1"), ratio("1")],
                             [ratio("1"), ratio("t^20+1")]])
        cp = char_poly(g)
        assert cp[0].kind == "u" and cp[1].kind == "n"
        with pytest.raises(PrecisionExhausted):
            projectively_bounded(g)


def _random_invertible(prime, r, rng, prec=12):
    from drinlat.errors import PrecisionExhausted, Singular
    while True:
        rows = []
        for _ in range(r):
            row = []
            for _ in range(r):
                v = rng.randrange(-2, 3)
                digits = [rng.randrange(prime.field.size) for _ in range(3)]
                f = Poly(prime.field, digits)
                row.append(LocalElement.zero(prime) if f.is_zero()
                           else LocalElement.from_poly(prime, f, prec).shift(v))
            rows.append(row)
        m = LocalMatrix(prime, rows)
        try:
            m.elementary_divisors()
            return m
        except (Singular, PrecisionExhausted):
            continue


def _random_unit_matrix(prime, r, rng, prec=12):
    from drinlat.errors import PrecisionExhausted, Singular
    while True:
        polys = [[Poly(prime.field,
                       [rng.randrange(prime.field.size) for _ in range(2)])
                  for _ in range(r)] for _ in range(r)]
        m = LocalMatrix.from_polys(prime, polys, prec)
        try:
            if sum(m.elementary_divisors()) == 0:
                return m
        except (Singular, PrecisionExhausted):
            continue


class TestProjectivelyBounded:
    def test_companion_pi_swap_bounded(self):
        # [[0, pi], [1, 0]]: square is pi * identity
        g = companion_matrix(T2, [pi_pow(T2, 1).neg(), LocalElement.zero(T2)])
        assert projectively_bounded(g)

    def test_diag_unbounded(self):
        assert not projectively_bounded(standard_hecke_matrix(T2, 2))

    def test_scalar_bounded(self):
        for r in (2, 3):
            g = LocalMatrix.diagonal(T3, [pi_pow(T3, 2)] * r)
            assert projectively_bounded(g)

    def test_spread_growth_cross_check(self):
        # bounded <=> SNF spread of powers not strictly increasing at r, 2r, 3r
        rng = random.Random(4)
        for _ in range(60):
            g = _random_invertible(T2, 2, rng, prec=30)
            bounded = projectively_bounded(g)
            spreads = []
            power = LocalMatrix.identity(T2, 2, 30)
            for n in range(1, 7):
                power = power @ g
                if n in (2, 4, 6):
                    e = power.elementary_divisors()
                    spreads.append(e[-1] - e[0])
            increasing = spreads[0] < spreads[1] < spreads[2]
            assert bounded == (not increasing)


class TestHeckeDegree:
    def test_r2_q2_depth1(self):
        assert hecke_degree(standard_hecke_matrix(T2, 2)) == 2

    def test_identity_degree_one(self):
        assert hecke_degree(LocalMatrix.identity(T2, 2)) == 1

    def test_r3_q2(self):
        # formula |k(p)|^(r-1) cross-checked by the 512-element enumeration
        assert hecke_degree(standard_hecke_matrix(T2, 3)) == 4

    def test_r2_q3(self):
        assert hecke_degree(standard_hecke_matrix(T3, 2)) == 3

    def test_inverse_symmetry(self):
        g = standard_hecke_matrix(T2, 2)
        assert hecke_degree(g) == hecke_degree(g.inverse())
        g3 = standard_hecke_matrix(T3, 3)
        assert hecke_degree(g3) == hecke_degree(g3.inverse())

    def test_conjugated_element_same_degree(self):
        rng = random.Random(5)
        for _ in range(5):
            s = _random_unit_matrix(T2, 2, rng)
            g = s @ standard_hecke_matrix(T2, 2) @ s.inverse()
            assert hecke_degree(g) == 2

    def test_depth_insufficient_refused(self):
        g = LocalMatrix.diagonal(T2, [pi_pow(T2, -2), pi_pow(T2, 0)])
        with pytest.raises(QuotientInsufficient):
            hecke_degree(g, depth=1)

    def test_depth2_value(self):
        # membership forces v(M_{1j}) >= 1 for j != 1 and nothing else, so
        # the depth-2 index is again |k(p)|^(r-1)
        g = standard_hecke_matrix(T2, 2)
        assert hecke_degree(g, depth=2) == 2
        g3 = standard_hecke_matrix(T3, 2)
        assert hecke_degree(g3, depth=2) == 3

    def test_degree2_prime(self):
        p = prime_from_str("t^2+1", F3)
        assert hecke_degree(standard_hecke_matrix(p, 2)) == 9

    # (prime, r, depth, precision, elementary divisors); every case walks
    # at most 512 cosets in the oracle
    DIFFERENTIAL_CASES = [
        (T2, 2, 1, 12, (-1, 0)),
        (T2, 2, 1, 30, (2, 2)),
        (T2, 2, 2, 12, (0, 2)),
        (T2, 2, 2, 30, (-1, 0)),
        (T2, 3, 1, 12, (-1, -1, 0)),
        (T3, 2, 1, 30, (1, 2)),
        (T4, 2, 1, 12, (-2, -1)),
        (P2_OMEGA, 2, 1, 30, (0, 1)),
    ]

    @pytest.mark.parametrize(
        "prime, r, depth, prec, exps", DIFFERENTIAL_CASES,
        ids=[f"q{p.field.size}-{p}-r{r}-d{d}-prec{n}"
             for p, r, d, n, _ in DIFFERENTIAL_CASES])
    def test_closed_form_matches_enumeration(self, prime, r, depth, prec,
                                             exps):
        rng = random.Random(f"{prime}/{r}/{depth}/{prec}")
        diag = LocalMatrix.diagonal(
            prime, [LocalElement.pi_power(prime, e, prec) for e in exps])
        g = (_random_unit_matrix(prime, r, rng, prec) @ diag
             @ _random_unit_matrix(prime, r, rng, prec))
        assert g.elementary_divisors() == exps
        assert hecke_degree(g, depth) == hecke_degree_enumerated(g, depth)
        if exps[-1] - exps[0] <= 1:
            assert hecke_degree(g, 1) == hecke_degree(g, 2, budget=2 ** 20)

    def test_enumeration_refuses_insufficient_depth(self):
        g = LocalMatrix.diagonal(T2, [pi_pow(T2, -2), pi_pow(T2, 0)])
        with pytest.raises(QuotientInsufficient):
            hecke_degree_enumerated(g, 1)


class TestUnboundednessSamples:
    def test_r2_q2_hundred_pass(self):
        elem = HeckeElement(T2, 2, standard_hecke_matrix(T2, 2),
                            LocalMatrix.identity(T2, 2), 2)
        report = unboundedness_sample_check(elem, samples=100, seed=0)
        assert report.all_pass

    def test_r3_q3_hundred_pass(self):
        elem = HeckeElement(T3, 3, standard_hecke_matrix(T3, 3),
                            LocalMatrix.identity(T3, 3), 9)
        report = unboundedness_sample_check(elem, samples=100, seed=0)
        assert report.all_pass

    def test_adversarial_companion_reported(self):
        # the bounded companion matrix fails every sample of the oracle;
        # the library sampler accepts only a HeckeElement
        g = companion_matrix(T2, [pi_pow(T2, 1).neg(), LocalElement.zero(T2)])
        report = unboundedness_sample_matrix(g, samples=5, seed=0)
        assert report.passes == 0
        assert all(o.segments == 1 for o in report.outcomes)

    def test_matrix_refused_before_any_draw(self, monkeypatch):
        # a LocalMatrix has .prime and .r, so without the guard it would be
        # sampled as the diagonal model
        def refuse(*args):
            raise AssertionError("sampled a matrix")

        monkeypatch.setattr(hecke, "_packed_sample", refuse)
        with pytest.raises(TypeError):
            unboundedness_sample_check(LocalMatrix.identity(T2, 2))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_refused(self, samples):
        # no sample certifies nothing: all_pass would be vacuously true
        elem = HeckeElement(T2, 2, standard_hecke_matrix(T2, 2),
                            LocalMatrix.identity(T2, 2), 2)
        with pytest.raises(ValueError):
            unboundedness_sample_check(elem, samples=samples)

    @pytest.mark.parametrize("prime,r", [(T2, 2), (T2, 3), (T3, 2), (T4, 3)],
                             ids=["q=2:r=2", "q=2:r=3", "q=3:r=2", "q=4:r=3"])
    def test_report_matches_oracle(self, prime, r):
        elem = HeckeElement(prime, r, standard_hecke_matrix(prime, r),
                            LocalMatrix.identity(prime, r),
                            prime.residue_size ** (r - 1))
        for seed in (0, 7):
            assert unboundedness_sample_check(elem, 5, seed) == \
                unboundedness_sample_matrix(standard_hecke_matrix(prime, r),
                                            5, seed)

    def test_seed_changes_but_verdict_stable(self):
        elem = HeckeElement(T2, 2, standard_hecke_matrix(T2, 2),
                            LocalMatrix.identity(T2, 2), 2)
        r1 = unboundedness_sample_check(elem, samples=20, seed=1)
        r2 = unboundedness_sample_check(elem, samples=20, seed=2)
        assert r1.all_pass and r2.all_pass

    def test_deterministic_for_fixed_seed(self):
        elem = HeckeElement(T3, 2, standard_hecke_matrix(T3, 2),
                            LocalMatrix.identity(T3, 2), 3)
        r1 = unboundedness_sample_check(elem, samples=10, seed=7)
        r2 = unboundedness_sample_check(elem, samples=10, seed=7)
        assert [(o.v_a0, o.v_atop, o.segments) for o in r1.outcomes] == \
            [(o.v_a0, o.v_atop, o.segments) for o in r2.outcomes]

    def test_samples_without_inverting(self, monkeypatch):
        # k_2 D k_1 has the distribution of k_2^-1 D k_1^-1 over K(p)
        def refuse(self):
            raise AssertionError("unboundedness sampling inverted a matrix")

        monkeypatch.setattr(LocalMatrix, "inverse", refuse)
        elem = HeckeElement(T3, 2, standard_hecke_matrix(T3, 2),
                            LocalMatrix.identity(T3, 2), 3)
        assert unboundedness_sample_check(elem, samples=20, seed=5).all_pass

    @pytest.mark.parametrize("prime", [
        prime_from_str("t^2+1", F3),
        primes_of_degree(FiniteField.of_order(2, 2), 2)[0]], ids=str)
    def test_degrees_of_exact_conjugates_without_inverting(self, prime,
                                                           monkeypatch):
        # the elementary divisors of an exact matrix come from the packed
        # elimination, which multiplies by pivot units and inverts none
        rng = random.Random(f"conjugates:{prime}")
        cases = [(r, prec, _exact_conjugate(prime, r, prec, rng))
                 for r in (2, 3) for prec in (12, 30) for _ in range(3)]

        def refuse(*args):
            raise AssertionError("Hecke degree inverted a unit")

        monkeypatch.setattr(LocalElement, "inv", refuse)
        monkeypatch.setattr(_chainring._Kernel, "inv", refuse)
        for r, prec, g in cases:
            assert g.elementary_divisors() == (-1,) + (0,) * (r - 1)
            assert (hecke_degree(g, budget=prime.residue_size ** (r * r))
                    == prime.residue_size ** (r - 1))


def _exact_conjugate(prime, r, prec, rng):
    """k_1 diag(pi^-1, 1, ..., 1) k_2 with k_1, k_2 in GL_r(A): products of
    a unit lower and a unit upper triangular matrix with entries of degree
    <= 2 in t, each conjugated by a random permutation."""
    F = prime.field

    def unimodular():
        def tri(lower):
            return [[Poly.one(F) if i == j else
                     Poly(F, [rng.randrange(F.size) for _ in range(3)])
                     if (i > j) == lower else Poly.zero(F)
                     for j in range(r)] for i in range(r)]
        perm = list(range(r))
        rng.shuffle(perm)
        lo, up = (LocalMatrix.from_polys(prime, tri(s), prec)
                  for s in (True, False))
        m = lo @ up
        return LocalMatrix(prime, [[m.rows[perm[i]][perm[j]]
                                    for j in range(r)] for i in range(r)])

    return unimodular() @ standard_hecke_matrix(prime, r, prec) @ unimodular()


# the packed sampler of a HeckeElement against the oracle's raw-matrix
# sampler on the standard matrix, which draws the same k_i and computes in
# LocalMatrix arithmetic: per field, t, t + 1 and the first prime of degree 2
SAMPLER_FIELDS = [FiniteField.of_order(p, e)
                  for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))]
SAMPLER_PRIMES = [pr for F in SAMPLER_FIELDS
                  for pr in (prime_from_str("t", F), prime_from_str("t+1", F),
                             primes_of_degree(F, 2)[0])]
SAMPLER_PRECISIONS = (2, 4, 12, 30)
SAMPLER_CASES = [(prime, r, SAMPLER_PRECISIONS[(i + r) % 4])
                 for i, prime in enumerate(SAMPLER_PRIMES)
                 for r in (2, 3, 4, 5)]


@pytest.mark.parametrize(
    "prime,r,precision", SAMPLER_CASES,
    ids=[f"q={pr.field.size}:{pr}:r={r}:prec={prec}"
         for pr, r, prec in SAMPLER_CASES])
def test_packed_sampler_matches_matrix_branch(prime, r, precision):
    # every coefficient, not only the verdict: v(a_0) = v(a_{r-1}) = -1 and
    # two segments hold for every sample, so a report compares nothing of
    # the middle coefficients
    raw = standard_hecke_matrix(prime, r, precision)
    samples = 1 if r * precision * prime.degree > 60 else 3
    for seed in (0, 11, 2012):
        for idx in range(samples):
            packed = _packed_sample(prime, r, _sample_rng(seed, idx),
                                    precision)
            oracle = sample_char_poly(raw, _sample_rng(seed, idx), precision)
            assert _kinds_and_vals(packed) == _kinds_and_vals(oracle), \
                (seed, idx)


def _kinds_and_vals(coeffs):
    return [(x.kind, None if x.kind == "z" else x.val) for x in coeffs]


# q = 255 and below are read off the words' top bytes; 256 and above keep
# randrange, which takes several words per try from 2^32 on
DRAW_SIZES = (2, 3, 4, 5, 7, 8, 9, 16, 17, 25, 27, 81, 243, 255, 256, 257,
              2 ** 32, 2 ** 40 + 15)


@pytest.mark.parametrize("q", DRAW_SIZES)
def test_batched_draws_match_randrange(q):
    # the sampler's batch must give what one randrange(q) per coefficient
    # gives, so that every sample, and the oracle that draws with
    # randrange, is unchanged
    for seed in range(4):
        for n in (0, 1, 9, 250, 2000):
            want = random.Random(seed)
            assert hecke._draw_below(random.Random(seed), q, n) == \
                [want.randrange(q) for _ in range(n)], (seed, n)
