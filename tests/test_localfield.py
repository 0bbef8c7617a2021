import itertools
import json
import pathlib
import random
import time

import pytest
from element_queries import certified_val, residue_poly
from howell_oracle import (_chain_matvec, _hom_module, enumerate_module,
                           howell_form, kernel_rows, module_contains,
                           module_size, saturation_holds_chain, vec_scale)
from hypothesis import given, settings, strategies as st
from residue_oracle import _det_residue, _residue_echelon, span_units_walk
import snf_oracle
from stabilizer_oracle import _kernel_elements, stabilizer_index_enumerated

from drinlat import localfield
from drinlat._chainring import ChainRing, smith_form_left
from drinlat.acceptance import (_gitter_structures,
                                count_matrix_group_exhaustive)
from drinlat.errors import (BudgetExceeded, DrinlatError, InvariantError,
                            NotContained, NotSaturated, PrecisionExhausted,
                            Singular)
from drinlat.ffpoly import (FiniteField, Poly, field_from_str, poly_from_str,
                            prime_from_str, primes_of_degree, residue_field)
from drinlat.localfield import (
    DEFAULT_BUDGET, DEFAULT_PRECISION, Lattice, LocalElement, LocalMatrix,
    OrderStructure, count_matrix_group,
    gitter_bound_check, hermite_sublattices, module_orbit_equal,
    saturate_lattice, saturation_holds, stabilizer_index,
)

F2 = FiniteField.of_order(2)
F3 = FiniteField.of_order(3)
T2 = prime_from_str("t", F2)
T3 = prime_from_str("t", F3)
P3 = prime_from_str("t^2+1", F3)


def elem(prime, s, prec=12):
    return LocalElement.from_poly(prime, poly_from_str(s, prime.field), prec)


def pi_pow(prime, k, prec=12):
    return LocalElement.pi_power(prime, k, prec)


def random_poly(field, degree, rng):
    """Uniform polynomial of degree <= degree (may be zero)."""
    return Poly(field, [rng.randrange(field.size) for _ in range(degree + 1)])


def lattice_index(sub, sup):
    """|sup / sub| for sub inside sup, from the elementary divisors of the
    change of basis sup^-1 sub."""
    change = sup.basis.inverse() @ sub.basis
    if not change.is_integral():
        raise NotContained("first lattice is not contained in the second")
    return sub.prime.residue_size ** sum(change.elementary_divisors())


class TestLocalElement:
    def test_from_poly_valuation(self):
        x = elem(T2, "t^3+t^4")
        assert certified_val(x) == 3

    def test_mul_adds_valuations(self):
        rng = random.Random(0)
        for _ in range(100):
            f = random_poly(F3, 5, rng)
            g = random_poly(F3, 5, rng)
            if f.is_zero() or g.is_zero():
                continue
            a = LocalElement.from_poly(T3, f)
            b = LocalElement.from_poly(T3, g)
            assert certified_val(a.mul(b)) == certified_val(a) + certified_val(b)

    def test_product_precision_is_min(self):
        # truncated operand: the expansion of 1+t^6 does not fit in 5 digits
        a = LocalElement.from_poly(T2, poly_from_str("1+t^6", F2), 5)
        b = LocalElement.from_poly(T2, poly_from_str("1", F2), 9)
        assert not a.exact
        assert len(a.mul(b).digits) == 5

    def test_exact_product_keeps_exactness(self):
        a = LocalElement.from_poly(T2, poly_from_str("1+t", F2), 5)
        b = LocalElement.from_poly(T2, poly_from_str("1+t+t^2", F2), 9)
        prod = a.mul(b)
        assert prod.exact
        assert residue_poly(prod, 4) == (poly_from_str("1+t", F2) *
                                         poly_from_str("1+t+t^2", F2)) % \
            poly_from_str("t^4", F2)

    def test_exact_cancellation_gives_true_zero(self):
        a = LocalElement.from_poly(T2, poly_from_str("1+t", F2), 5)
        assert a.sub(a).kind == "z"

    def test_inverse(self):
        for s in ("1+t", "2+t+t^2", "1+2*t^3"):
            x = elem(T3, s)
            one = x.mul(x.inv())
            assert certified_val(one) == 0
            assert one.digits[0].is_one()
            assert all(d.is_zero() for d in one.digits[1:])

    def test_inverse_at_degree2_prime(self):
        x = elem(P3, "t")  # unit at t^2+1
        prod = x.mul(x.inv())
        assert certified_val(prod) == 0 and prod.digits[0].is_one()

    def test_apparent_zero_is_unknown(self):
        x = elem(T2, "1+t").inv()  # inexact: infinite expansion truncated
        z = x.sub(x)
        assert z.kind == "u"
        with pytest.raises(PrecisionExhausted):
            certified_val(z)

    def test_unknown_is_integral_when_bound_nonneg(self):
        x = elem(T2, "1+t").inv()
        z = x.sub(x)
        assert z.is_integral()

    def test_ratio(self):
        x = LocalElement.from_ratio(T2, poly_from_str("1", F2),
                                    poly_from_str("t", F2))
        assert certified_val(x) == -1

    @pytest.mark.parametrize("prime", [T2, P3], ids=str)
    @pytest.mark.parametrize("exact", [True, False])
    def test_product_of_a_non_unit_is_refused(self, prime, exact):
        # a unit field that is divisible by p breaks the element's
        # invariant; the product rule raises, also under python -O
        kr = localfield._kernel(prime)
        broken = localfield._element(kr, ("n", 0, kr.p, 3, exact))
        one = LocalElement.one(prime, 3)
        with pytest.raises(InvariantError, match="leading digits"):
            broken.mul(one)

    def test_residue_poly(self):
        x = elem(T3, "1+t+2*t^2")
        assert residue_poly(x, 2) == poly_from_str("1+t", F3)


class TestSmithNormalForm:
    def test_diag_pi_one(self):
        m = LocalMatrix.diagonal(T2, [pi_pow(T2, 1), pi_pow(T2, 0)])
        assert m.elementary_divisors() == (0, 1)

    def test_triangular_example(self):
        # [[pi, 1], [0, pi]] -> exponents (0, 2)
        m = LocalMatrix(T2, [[pi_pow(T2, 1), pi_pow(T2, 0)],
                             [LocalElement.zero(T2), pi_pow(T2, 1)]])
        assert m.elementary_divisors() == (0, 2)

    def test_identity_any_r(self):
        for r in (1, 2, 3, 4):
            m = LocalMatrix.identity(T3, r)
            assert m.elementary_divisors() == (0,) * r

    def test_decomposition_transforms_are_units(self):
        rng = random.Random(1)
        for _ in range(30):
            m = _random_invertible(T2, 3, rng, val_range=(0, 2))
            exps, u_inv, v_inv = localfield._snf_full(m)
            assert u_inv.is_integral() and v_inv.is_integral()
            assert sum(u_inv.elementary_divisors()) == 0
            assert sum(v_inv.elementary_divisors()) == 0
            assert sum(exps) == sum(m.elementary_divisors())

    def test_exponents_invariant_under_unit_multiplication(self):
        rng = random.Random(2)
        for _ in range(100):
            m = _random_invertible(T2, 2, rng, val_range=(0, 3))
            exps = m.elementary_divisors()
            a = _random_unit_matrix(T2, 2, rng)
            b = _random_unit_matrix(T2, 2, rng)
            assert (a @ m @ b).elementary_divisors() == exps

    def test_singular_matrix_detected(self):
        z = LocalElement.zero(T2)
        m = LocalMatrix(T2, [[pi_pow(T2, 0), z], [z, z]])
        with pytest.raises(Singular):
            m.elementary_divisors()
        with pytest.raises(Singular):
            m.inverse()

    def test_precision_exhaustion_refuses(self):
        x = elem(T2, "1+t", prec=3).inv()  # inexact at precision 3
        noise = x.sub(x)  # O(pi^3), valuation uncertified
        m = LocalMatrix(T2, [[noise, pi_pow(T2, 4)],
                             [pi_pow(T2, 4), LocalElement.zero(T2)]])
        with pytest.raises(PrecisionExhausted):
            m.elementary_divisors()
        with pytest.raises(PrecisionExhausted):
            m.inverse()

    def test_reconstruction_at_working_precision(self):
        # U^-1 M V^-1 = diag(pi^e): no entry of the difference is a
        # certified nonzero at working precision
        rng = random.Random(9)
        for _ in range(25):
            m = _random_invertible(T3, 3, rng, val_range=(-2, 2))
            exps, u_inv, v_inv = localfield._snf_full(m)
            d = LocalMatrix.diagonal(
                T3, [LocalElement.pi_power(T3, e) for e in exps])
            prod = u_inv @ m @ v_inv
            for i in range(3):
                for j in range(3):
                    diff = prod.rows[i][j].sub(d.rows[i][j])
                    assert diff.kind != "n", (i, j, diff)

    def test_inverse_roundtrip(self):
        rng = random.Random(3)
        for _ in range(30):
            m = _random_invertible(T3, 3, rng, val_range=(-1, 2))
            prod = m @ m.inverse()
            for i in range(3):
                for j in range(3):
                    e = prod.rows[i][j]
                    if i == j:
                        assert certified_val(e) == 0
                        assert e.digits[0].is_one()
                        assert all(d.is_zero() for d in e.digits[1:])
                    else:
                        assert e.kind != "n" or e.val >= 8

    def test_row_length_checked(self):
        one = LocalElement.one(T2)
        with pytest.raises(ValueError, match="2 entries per row"):
            LocalMatrix(T2, [[one, one], [one]])


def _golden_entry(prime, spec, prec):
    """A polynomial "f", or ["f", "g"] for the ratio f/g."""
    F = prime.field
    if isinstance(spec, list):
        return LocalElement.from_ratio(prime, poly_from_str(spec[0], F),
                                       poly_from_str(spec[1], F), prec)
    return LocalElement.from_poly(prime, poly_from_str(spec, F), prec)


INVERSE_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "inverse_golden.json").read_text())


class TestInverseGolden:
    """inverse() digits of six fixed matrices at precisions 12 and 30,
    recorded from the Smith form that also built U and V: inverse reads
    only U^-1 and V^-1, so no digit may depend on the others."""

    @pytest.mark.parametrize("case", INVERSE_GOLDEN,
                             ids=[f"{c['prime']}/F{c['field'][0]}^"
                                  f"{c['field'][1]}-{len(c['rows'])}"
                                  for c in INVERSE_GOLDEN])
    def test_digits(self, case):
        prime = prime_from_str(case["prime"],
                               FiniteField.of_order(*case["field"]))
        for prec, want in case["inverse"].items():
            m = LocalMatrix(prime, [[_golden_entry(prime, s, int(prec))
                                     for s in row] for row in case["rows"]])
            got = [[e.to_json() for e in row] for row in m.inverse().rows]
            assert got == want, prec


class TestExponentsOnlySNF:
    """elementary_divisors() skips the transforms; it must agree with the
    Smith form that computes them, answers and refusals alike."""

    @pytest.mark.parametrize("prime,r,seed,val_range,count", [
        (T2, 3, 1, (0, 2), 30), (T2, 2, 2, (0, 3), 100),
        (T3, 3, 9, (-2, 2), 25), (T3, 3, 3, (-1, 2), 30)])
    def test_matches_full_snf_on_random_cases(self, prime, r, seed,
                                              val_range, count):
        rng = random.Random(seed)
        for _ in range(count):
            m = _random_invertible(prime, r, rng, val_range=val_range)
            assert m.elementary_divisors() == localfield._snf_full(m)[0]

    def test_same_outcome_at_low_precision(self):
        # entries mix exact polynomials, truncated inverses and O(pi^3)
        # noise, so answers, Singular and PrecisionExhausted all occur
        rng = random.Random(11)
        z = LocalElement.zero(T2)
        noise = elem(T2, "1+t", prec=3).inv()
        noise = noise.sub(noise)
        pool = [z, noise, elem(T2, "t", 3), elem(T2, "1+t", 3).inv(),
                pi_pow(T2, 2, 3), pi_pow(T2, 0, 3), elem(T2, "1+t^2", 3)]
        seen = set()
        for _ in range(300):
            m = LocalMatrix(T2, [[rng.choice(pool) for _ in range(3)]
                                 for _ in range(3)])
            outcomes = []
            for f in (lambda: localfield._snf_full(m)[0],
                      m.elementary_divisors):
                try:
                    outcomes.append(f())
                except (Singular, PrecisionExhausted) as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
            seen.add(outcomes[0] if isinstance(outcomes[0], type) else tuple)
        assert seen == {tuple, Singular, PrecisionExhausted}

    # all-exact matrices take the packed elimination (`_exact_divisors`)
    # and fall back to `_snf_full` where it cannot certify
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
    def test_exact_matrices_match_full_snf(self, p, e):
        F = FiniteField.of_order(p, e)
        seen = set()
        for prime in (prime_from_str("t", F), prime_from_str("t+1", F),
                      primes_of_degree(F, 2)[0]):
            rng = random.Random(f"exact-snf:{F.size}:{prime}")
            for r in range(1, 7):
                for prec in (1, 2, 3, 12, 30):
                    for _ in range(4 if r <= 4 else 1):
                        m = _random_exact(prime, r, prec, rng)
                        fast = localfield._exact_divisors(m)
                        want = _outcome(
                            lambda: localfield._snf_full(m, False)[0])
                        if fast is not None:
                            assert fast == want
                        assert _outcome(m.elementary_divisors) == want
                        seen.add("packed" if fast is not None
                                 else _refusal(want) or "fallback")
        assert seen == {"packed", "fallback", Singular, PrecisionExhausted}

    def test_exponent_at_the_window_falls_back(self):
        # diag(1, t^2) at precision 2: exponent 2 reaches the window, so the
        # packed elimination cannot certify it and `_snf_full` answers
        m = LocalMatrix.diagonal(T2, [elem(T2, "1", 2), elem(T2, "t^2", 2)])
        assert localfield._exact_divisors(m) is None
        assert m.elementary_divisors() == (0, 2)

    @pytest.mark.parametrize("rows", [[["1", "1"], ["1", "1"]],
                                      [["1+t", "t"], ["1+t", "t"]]])
    @pytest.mark.parametrize("prec", [2, 12, 30])
    def test_exactly_singular_keeps_its_refusal(self, rows, prec):
        # `_snf_full` clears with a truncated pivot inverse, so the exact
        # cancellation comes back as O(pi^m): PrecisionExhausted, not
        # Singular (a refusal kept as it is)
        m = LocalMatrix(T2, [[elem(T2, s, prec) for s in row] for row in rows])
        assert localfield._exact_divisors(m) is None
        with pytest.raises(PrecisionExhausted, match="no certifiable pivot"):
            m.elementary_divisors()

    # the two draws on which the doubling property below failed: a zero
    # column (and row) proves them singular at every precision, where the
    # low-precision elimination used to refuse PrecisionExhausted at P = 1
    @pytest.mark.parametrize("prime,rows", [
        (T2, [["0", "t^2", "0", "0"], ["0", "1", "0", "t^3"],
              ["0", ("1", -2), "0", "t"], ["0", "0", "0", "0"]]),
        (T3, [["0", "0", "0", "0"], ["0", "2t", "1", "2+t"],
              ["0", "0", "t", "t"], ["0", ("2t^2", -1), "2", "0"]])],
        ids=["F2", "F3"])
    @pytest.mark.parametrize("prec", [1, 2, 4, 8])
    def test_zero_line_refuses_singular(self, prime, rows, prec):
        m = LocalMatrix(prime, [[
            elem(prime, s, prec) if isinstance(s, str)
            else elem(prime, s[0], prec).shift(s[1]) for s in row]
            for row in rows])
        for f in (m.elementary_divisors, m.inverse):
            assert _outcome(f) == ZERO_LINE_REFUSAL

    def test_dense_exact_r10_no_slower(self):
        # a D b with dense exact a, b of degree <= 3: entries stay below
        # deg(p^P), so the packed elimination at precision 30 costs no more
        # than the one in LocalElement operations
        F = P3.field
        rng = random.Random("dense-r10")
        a, b = (LocalMatrix(P3, [[LocalElement.from_poly(
            P3, random_poly(F, 3, rng), 30) for _ in range(10)]
            for _ in range(10)]) for _ in range(2))
        d = LocalMatrix.diagonal(P3, [pi_pow(P3, e, 30) for e in
                                      (0, 0, 0, 0, 0, 0, 1, 1, 2, 3)])
        m = a @ d @ b
        packed = localfield._exact_divisors(m)
        assert packed == localfield._snf_full(m, False)[0]
        assert packed == (0, 0, 0, 0, 0, 0, 1, 1, 2, 3)

        def best(f):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                f()
                times.append(time.perf_counter() - t0)
            return min(times)
        assert (best(m.elementary_divisors)
                <= best(lambda: localfield._snf_full(m, False)))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_doubling_precision_keeps_answers(self, data):
        # precision P -> 2P never changes an answer; it can only turn a
        # PrecisionExhausted into an answer
        prime = data.draw(st.sampled_from([T2, T3, P3, prime_from_str(
            "t^2+t+1", F2), prime_from_str("t+1", FiniteField.of_order(5))]))
        r = data.draw(st.integers(1, 4))
        prec = data.draw(st.integers(1, 8))
        q = prime.field.size
        specs = [[data.draw(st.one_of(st.none(), st.tuples(
            st.lists(st.integers(0, q - 1), min_size=1, max_size=5),
            st.integers(-2, 3)))) for _ in range(r)] for _ in range(r)]

        def at(p):
            m = LocalMatrix(prime, [[
                LocalElement.zero(prime) if s is None or not any(s[0])
                else LocalElement.from_poly(
                    prime, Poly(prime.field, s[0]), p).shift(s[1])
                for s in row] for row in specs])
            return _outcome(m.elementary_divisors)

        low, high = at(prec), at(2 * prec)
        if _refusal(low) is PrecisionExhausted:
            assert _refusal(high) in (PrecisionExhausted, None)
        elif _refusal(low):
            assert _refusal(high) is _refusal(low)
        else:
            assert high == low


def _refusal(outcome):
    """The refusal type of an `_outcome`, None for an answer."""
    return outcome[0] if isinstance(outcome[0], type) else None


def _random_exact(prime, r, prec, rng):
    """An r x r matrix of exact entries pi^v f, f of degree <= 2 deg(p)
    and v in -2..3, a quarter of them zero, with a repeated row one time
    in five."""
    F = prime.field
    rows = []
    for _ in range(r):
        row = []
        for _ in range(r):
            f = random_poly(F, 2 * prime.degree, rng)
            if rng.random() < 0.25 or f.is_zero():
                row.append(LocalElement.zero(prime))
            else:
                row.append(LocalElement.from_poly(prime, f, prec)
                           .shift(rng.randrange(-2, 4)))
        rows.append(row)
    if r > 1 and rng.random() < 0.2:
        rows[-1] = list(rows[0])
    return LocalMatrix(prime, rows)


def _random_invertible(prime, r, rng, val_range=(0, 2), prec=12):
    while True:
        rows = []
        for _ in range(r):
            row = []
            for _ in range(r):
                v = rng.randrange(val_range[0], val_range[1] + 1)
                digits = [rng.randrange(prime.field.size)
                          for _ in range(prime.degree)]
                f = Poly(prime.field, digits)
                if f.is_zero():
                    row.append(LocalElement.zero(prime))
                else:
                    row.append(LocalElement.from_poly(prime, f, prec).shift(v))
            rows.append(row)
        m = LocalMatrix(prime, rows)
        try:
            m.elementary_divisors()
            return m
        except (Singular, PrecisionExhausted):
            continue


def _random_unit_matrix(prime, r, rng, prec=12):
    """Random element of GL_r(A_p): unimodular mod p."""
    kp_size = prime.residue_size
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


def _grid_entry(prime, prec, rng):
    """An exact pi^v f (v in -2..3), a ratio f/g, an O(pi^m), an exact
    zero or a nonzero constant, f and g of degree <= 2 deg(p)."""
    F = prime.field
    kind = rng.choice("eeerrouzzc")
    if kind == "u":
        return LocalElement(prime, "u", rng.randrange(-1, 4), ())
    if kind == "c":
        return LocalElement.from_integer(prime, rng.randrange(1, F.size), prec)
    f = random_poly(F, 2 * prime.degree, rng)
    if kind == "z" or f.is_zero():
        return LocalElement.zero(prime)
    if kind == "r":
        g = random_poly(F, 2 * prime.degree, rng)
        return LocalElement.from_ratio(
            prime, f, Poly.one(F) if g.is_zero() else g, prec)
    return LocalElement.from_poly(prime, f, prec).shift(rng.randrange(-2, 4))


def _snf_outcomes(snf, m):
    """`_snf_full` in both modes, `elementary_divisors()` and `inverse()`,
    with `snf` as the library's elimination: exponents and every entry's
    (to_json(), exact), or the refusal's type and message."""
    def fields(mat):
        return mat and [[(e.to_json(), e.exact) for e in row]
                        for row in mat.rows]

    def full(transforms):
        exps, u_inv, v_inv = snf(m, transforms)
        return exps, fields(u_inv), fields(v_inv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localfield, "_snf_full", snf)
        return [_outcome(full, True), _outcome(full, False),
                _outcome(m.elementary_divisors),
                _outcome(lambda: fields(m.inverse()))]


class TestSnfAgainstObjectOracle:
    """`_snf_full` eliminates on field tuples; `tests/snf_oracle.py` keeps
    the same steps on `LocalElement` objects.  Seeded grid: p = t, t+1
    and the first degree-2 prime, r = 1-4, P = 1, 2, 3 and 12, twelve
    matrices each, a repeated row one time in five."""

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
    def test_matches_oracle_on_grid(self, p, e):
        F = FiniteField.of_order(p, e)
        seen = set()
        for prime in (prime_from_str("t", F), prime_from_str("t+1", F),
                      primes_of_degree(F, 2)[0]):
            rng = random.Random(f"snf-oracle:{F.size}:{prime}")
            for r in range(1, 5):
                for prec in (1, 2, 3, 12):
                    for _ in range(12):
                        rows = [[_grid_entry(prime, prec, rng)
                                 for _ in range(r)] for _ in range(r)]
                        if r > 1 and rng.random() < 0.2:
                            rows[-1] = list(rows[0])
                        m = LocalMatrix(prime, rows)
                        got = _snf_outcomes(localfield._snf_full, m)
                        want = _snf_outcomes(snf_oracle._snf_full, m)
                        if got != want:
                            # a line of exact zeros in the trailing
                            # submatrix: Singular where the oracle ran
                            # out of precision
                            assert all(_refusal(w) is PrecisionExhausted
                                       for w in want), m
                            assert got == [ZERO_LINE_REFUSAL] * 4, m
                            assert _structurally_singular(rows), m
                            seen.add("zero line")
                        else:
                            # a zero line of M stays one in every
                            # trailing submatrix
                            assert not (_has_zero_line(rows) and _refusal(
                                want[1]) is PrecisionExhausted), m
                        seen.add(_refusal(got[1]) or "answer")
        assert seen == {"answer", Singular, PrecisionExhausted, "zero line"}


ZERO_LINE_REFUSAL = (Singular, "matrix is singular: zero trailing submatrix")


def _has_zero_line(rows):
    """Whether the matrix has a row or a column of exact zeros."""
    return any(all(e.kind == "z" for e in line)
               for line in list(rows) + list(zip(*rows)))


def _structurally_singular(rows):
    """Whether every term of the determinant's permutation expansion has an
    exact zero factor, so that the matrix is singular whatever its other
    entries are."""
    r = len(rows)
    return all(any(rows[i][s[i]].kind == "z" for i in range(r))
               for s in itertools.permutations(range(r)))


class TestLattice:
    def test_index_p_times_standard(self):
        lam = Lattice(LocalMatrix.diagonal(T2, [pi_pow(T2, 1), pi_pow(T2, 1)]))
        assert lattice_index(lam, Lattice(LocalMatrix.identity(T2, 2))) == 4

    def test_index_single_divisor(self):
        lam = Lattice(LocalMatrix.diagonal(T3, [pi_pow(T3, 1), pi_pow(T3, 0)]))
        assert lattice_index(lam, Lattice(LocalMatrix.identity(T3, 2))) == 3

    def test_index_matches_coset_enumeration(self):
        # exponents (1, 2) over F_2: 8 cosets, counted exhaustively in (A/p^3)^2
        cols = [[poly_from_str("t", F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t^2", F2)]]
        lam = Lattice.from_poly_basis(T2, cols)
        idx = lattice_index(lam, Lattice(LocalMatrix.identity(T2, 2)))
        assert idx == 8
        ring = ChainRing(T2, 3)
        rows = howell_form(ring, [tuple(ring.reduce(c) for c in col)
                                  for col in cols] +
                           [(ring.pi_pow(3), ring.zero), (ring.zero, ring.pi_pow(3))])
        # cosets of the image of the lattice inside (A/p^3)^2
        assert (T2.residue_size ** (2 * 3)) // module_size(ring, rows) == 8

    def test_not_contained(self):
        lam = Lattice(LocalMatrix.diagonal(T2, [pi_pow(T2, -1), pi_pow(T2, 0)]))
        with pytest.raises(NotContained):
            lattice_index(lam, Lattice(LocalMatrix.identity(T2, 2)))

    def test_multiplicative_in_towers(self):
        rng = random.Random(4)
        for _ in range(40):
            a = sorted(rng.randrange(0, 3) for _ in range(2))
            b = sorted(rng.randrange(0, 2) for _ in range(2))
            inner = Lattice(LocalMatrix.diagonal(
                T2, [pi_pow(T2, a[0] + b[0]), pi_pow(T2, a[1] + b[1])]))
            mid = Lattice(LocalMatrix.diagonal(
                T2, [pi_pow(T2, b[0]), pi_pow(T2, b[1])]))
            top = Lattice(LocalMatrix.identity(T2, 2))
            assert (lattice_index(inner, top) ==
                    lattice_index(inner, mid) * lattice_index(mid, top))

    def test_equality_unit_change_of_basis(self):
        rng = random.Random(5)
        for _ in range(20):
            m = _random_unit_matrix(T2, 2, rng)
            # m A_p^2 = A_p^2: the change of basis m^-1 is in GL_2(A_p)
            change = m.inverse()
            assert change.is_integral()
            assert change.elementary_divisors() == (0, 0)

    def test_divisors_not_complete_invariant_for_equality(self):
        a = Lattice(LocalMatrix.diagonal(T2, [pi_pow(T2, 1), pi_pow(T2, 0)]))
        cols = [[poly_from_str("1", F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        b = Lattice.from_poly_basis(T2, cols)
        assert a.elementary_divisors == b.elementary_divisors == (0, 1)
        # yet a != b: the change of basis a^-1 b = diag(pi^-1, pi) is not
        # integral
        change = a.basis.inverse() @ b.basis
        assert not change.is_integral()
        assert change.elementary_divisors() == (-1, 1)

    def test_repr(self):
        m = LocalMatrix.diagonal(T2, [pi_pow(T2, 1, 3), LocalElement.zero(T2)])
        assert repr(m) == "LocalMatrix((((1)*pi^1 + O(pi^4), 0), (0, 0)))"
        lam = Lattice(LocalMatrix.diagonal(T2, [pi_pow(T2, 1), pi_pow(T2, 0)]))
        assert repr(lam) == "Lattice(divisors=(0, 1))"


class TestCountMatrixGroup:
    def test_gl2_f2(self):
        gl, mat = count_matrix_group(2, 2, 1)
        assert gl == 6 and mat == 16

    def test_units_mod_square(self):
        gl, mat = count_matrix_group(1, 2, 2)
        assert gl == 2 and mat == 4

    def test_gl2_f3(self):
        gl, _ = count_matrix_group(2, 3, 1)
        assert gl == 48 == (9 - 1) * (9 - 3)

    def test_formula_matches_exhaustive_small(self):
        cases = [(1, T2, 1), (1, T2, 2), (1, T2, 3), (1, T3, 1), (1, T3, 2),
                 (2, T2, 1), (2, T2, 2), (2, T3, 1), (3, T2, 1)]
        for r, prime, k in cases:
            got = count_matrix_group_exhaustive(prime, r, k)
            want = count_matrix_group(r, prime.residue_size, k)
            assert got == want

    def test_ratio_bound(self):
        for r in (1, 2, 3):
            for q in (2, 3, 4, 5):
                for k in (1, 2):
                    gl, mat = count_matrix_group(r, q, k)
                    assert gl * q ** r >= mat * (q - 1) ** r

    def test_rank_and_depth_checked(self):
        for r, k in ((0, 1), (1, 0), (-1, 2)):
            with pytest.raises(ValueError, match="r >= 1 and k >= 1"):
                count_matrix_group(r, 2, k)


# (field, prime): k(p) of 2, 3, 4, 9 and (degree 2 over F_2) 4 elements
RESIDUE_PRIMES = [(F2, "t"), (F3, "t"), (FiniteField.of_order(2, 2), "t"),
                  (FiniteField.of_order(3, 2), "t"), (F2, "t^2+t+1")]


class TestResidueEchelon:
    """Invertibility over k(p) as a rank test on the forward echelon,
    against the determinant oracle and against brute-force span sizes."""

    @pytest.mark.parametrize("field,prime", RESIDUE_PRIMES,
                             ids=[f"q={F.size},{p}" for F, p in RESIDUE_PRIMES])
    def test_full_rank_iff_det_nonzero(self, field, prime):
        kp = residue_field(prime_from_str(prime, field))
        elems = list(kp.elements())
        rng = random.Random(f"echelon:{kp.size}:{prime}")
        seen = {True: 0, False: 0}
        for _ in range(300):
            n = rng.randint(1, 4)
            mat = [[rng.choice(elems) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                # a row that is a combination of the others: rank-deficient
                src = rng.sample(range(n), 2)
                c = rng.choice(elems)
                mat[src[0]] = [kp.mul(c, x) for x in mat[src[1]]]
            rank = len(_residue_echelon(kp, mat, n))
            assert localfield._residue_rank(kp, mat, n) == rank, mat
            full = rank == n
            assert full == (_det_residue(kp, mat) != 0), mat
            seen[full] += 1
        assert seen[True] and seen[False], seen

    @pytest.mark.parametrize("field,prime", RESIDUE_PRIMES,
                             ids=[f"q={F.size},{p}" for F, p in RESIDUE_PRIMES])
    def test_rank_is_log_of_span_size(self, field, prime):
        kp = residue_field(prime_from_str(prime, field))
        elems = list(kp.elements())
        rng = random.Random(f"span:{kp.size}:{prime}")
        for _ in range(40):
            rows, width = rng.randint(1, 3), rng.randint(1, 3)
            vecs = [[rng.choice(elems) if rng.random() < 0.7 else 0
                     for _ in range(width)] for _ in range(rows)]
            span = set()
            for coeffs in itertools.product(elems, repeat=rows):
                v = [0] * width
                for c, vec in zip(coeffs, vecs):
                    v = [kp.add(a, kp.mul(c, b)) for a, b in zip(v, vec)]
                span.add(tuple(v))
            basis = _residue_echelon(kp, vecs, width)
            assert kp.size ** len(basis) == len(span), vecs

    @pytest.mark.parametrize("field,prime", RESIDUE_PRIMES,
                             ids=[f"q={F.size},{p}" for F, p in RESIDUE_PRIMES])
    def test_rank_matches_echelon_oracle(self, field, prime):
        # over k(p) = F_2 the rank is taken on bit rows, elsewhere on lists
        kp = residue_field(prime_from_str(prime, field))
        elems = list(kp.elements())
        rng = random.Random(f"rank:{kp.size}:{prime}")
        ranks = set()
        for width in range(1, 10):
            for _ in range(25):
                n = rng.randint(0, width + 3)  # more rows than width too
                vecs = [[rng.choice(elems) if rng.random() < 0.6 else 0
                         for _ in range(width)] for _ in range(n)]
                if vecs and rng.random() < 0.4:
                    vecs.append([0] * width)
                    vecs.append(list(rng.choice(vecs)))
                    rng.shuffle(vecs)
                want = len(_residue_echelon(kp, vecs, width))
                assert localfield._residue_rank(kp, vecs, width) == want, vecs
                ranks.add((width, want == min(width, len(vecs))))
        assert {(w, full) for w in (1, 9) for full in (True, False)} <= ranks


class TestHowell:
    def test_canonical_for_equal_modules(self):
        ring = ChainRing(T2, 2)
        a = ring.reduce(poly_from_str("t", F2))
        one = ring.one
        rows1 = [(one, a), (ring.zero, ring.pi_pow(1))]
        rows2 = [(one, ring.add(a, ring.pi_pow(1))), (ring.zero, ring.pi_pow(1))]
        assert howell_form(ring, rows1) == howell_form(ring, rows2)

    def test_module_size_and_membership(self):
        ring = ChainRing(T3, 2)
        rows = howell_form(ring, [(ring.pi_pow(1), ring.one)])
        size = module_size(ring, rows)
        count = 0
        seen = set()
        for v in enumerate_module(ring, rows, 10 ** 6):
            key = v
            assert key not in seen
            seen.add(key)
            assert module_contains(ring, rows, v)
            count += 1
        assert count == size


class TestOrderStructure:
    def test_min_poly_checked(self):
        F = T2.field
        one, t = Poly.one(F), poly_from_str("t", F)
        with pytest.raises(ValueError, match="degree 1 for factors of total "
                                             "degree 2"):
            OrderStructure.from_min_poly(T2, 1, [t, one], [(1, 2)])
        with pytest.raises(ValueError, match="monic"):
            OrderStructure.from_min_poly(T2, 1, [t, one, t], [(1, 2)])

    def test_unramified_quadratic(self):
        S = OrderStructure.unramified(T2, 1, 2)
        assert S.m == 2 and S.factors == ((1, 2),)
        assert S.gl_order(1) == 3  # F_4 units
        assert S.gl_order(2) == 12  # units of R'/m^2, the 12-element group

    def test_ramified(self):
        S = OrderStructure.totally_ramified(T2, 1, 2)
        assert S.factors == ((2, 1),)
        # S/p^k is a chain ring of length 2k with residue F_2
        assert S.gl_order(1) == 2  # units of F_2[pi']/pi'^2

    def test_product_factors_coprime(self):
        S = OrderStructure.product(T2, 1, [("unramified", 1), ("unramified", 2)])
        assert S.m == 3
        assert S.gl_order(1) == 1 * 3  # F_2^* x F_4^*

    def test_companion_satisfies_min_poly(self):
        for S in (OrderStructure.unramified(T3, 1, 2),
                  OrderStructure.totally_ramified(T3, 1, 3),
                  OrderStructure.product(T2, 2, [("unramified", 1),
                                                 ("ramified", 2)])):
            ring = ChainRing(S.prime, 3)
            comp = [[ring.reduce(c) for c in row] for row in S.companion()]
            # evaluate min_poly at the companion matrix: must vanish
            from drinlat.localfield import _chain_identity, _chain_matmul
            acc = [[ring.zero] * S.m for _ in range(S.m)]
            power = _chain_identity(ring, S.m)
            for c in S.min_poly:
                cred = ring.reduce(c)
                for i in range(S.m):
                    for j in range(S.m):
                        acc[i][j] = ring.add(acc[i][j],
                                             ring.mul(cred, power[i][j]))
                power = _chain_matmul(ring, comp, power)
            assert all(x == ring.zero for row in acc for x in row)

    @pytest.mark.parametrize("q,d", [(q, d) for q in ("2", "3", "2^2", "5")
                                     for d in (1, 2)],
                             ids=lambda v: f"F{v}" if isinstance(v, str)
                             else f"d{v}")
    def test_constructor_shapes(self, q, d):
        # unramified: the first monic irreducible of degree m over k(p), in
        # the order of its coefficient tuples, lifted to A; totally
        # ramified: y^m - p
        F = field_from_str(q)
        prime = primes_of_degree(F, d)[0]
        kp = residue_field(prime)
        zero, one = Poly.zero(F), Poly.one(F)
        for m in (2, 3):
            tail = next(c for c in itertools.product(kp.elements(), repeat=m)
                        if Poly(kp, c + (1,)).is_irreducible())
            lift = [kp.lift(c) for c in tail] + [one]
            eisenstein = [-prime.poly] + [zero] * (m - 1) + [one]
            for r_prime in (1, 2):
                for build, min_poly, factors in (
                        (OrderStructure.unramified, lift, ((1, m),)),
                        (OrderStructure.totally_ramified, eisenstein,
                         ((m, 1),))):
                    S = build(prime, r_prime, m)
                    assert S.min_poly == min_poly, (build, m, r_prime)
                    assert S.factors == factors
                    assert (S.m, S.r) == (m, r_prime * m)


class TestStabilizerIndex:
    def test_standard_lattice_is_fixed(self):
        S = OrderStructure.unramified(T2, 1, 2)
        assert stabilizer_index(Lattice(LocalMatrix.identity(T2, 2)), S, k=1) == 1

    def test_quadratic_unramified_example(self):
        # Lambda = A_p + p*R' inside R' (unramified quadratic, q = 2):
        # index 2, orbit under the 12-element unit group of R'/m^2
        S = OrderStructure.unramified(T2, 1, 2)
        cols = [[Poly.one(F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        got = stabilizer_index(cols, S, k=2)
        # oracle: enumerate the unit group action on the lattice directly
        ring = ChainRing(T2, 2)
        lam_rows = howell_form(ring, [tuple(ring.reduce(c) for c in col)
                                      for col in cols])
        orbits = set()
        units = 0
        ypow = S.y_power_blocks(ring)
        for c0 in ring.elements():
            for c1 in ring.elements():
                # u = c0 + c1*y acting on (A/p^2)^2
                mat = [[ring.add(ring.mul(c0, ypow[0][i][j]),
                                 ring.mul(c1, ypow[1][i][j]))
                        for j in range(2)] for i in range(2)]
                from drinlat.ffpoly import residue_field
                kp = residue_field(T2)
                red = [[ring.to_residue(mat[i][j]) for j in range(2)]
                       for i in range(2)]
                if _det_residue(kp, red) == 0:
                    continue
                units += 1
                imgs = [tuple(_chain_matvec(ring, mat, row)) for row in lam_rows]
                orbits.add(howell_form(ring, imgs))
        assert units == 12
        assert got == len(orbits) == 3

    def test_depth_independence(self):
        # the orbit size does not depend on the working depth once the
        # lattice contains p^k times the standard module
        S = OrderStructure.unramified(T2, 1, 2)
        cols = [[Poly.one(F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        assert stabilizer_index(cols, S, k=1) == \
            stabilizer_index(cols, S, k=2) == \
            stabilizer_index(cols, S, k=3) == 3

    def test_ramified_quadratic_hand_computed(self):
        # R' = A[y]/(y^2 - t) at p = t over F_2, Lambda = A + p R' y:
        # u = a + b y stabilizes iff p | b, so the orbit has size 2
        S = OrderStructure.totally_ramified(T2, 1, 2)
        cols = [[Poly.one(F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        assert stabilizer_index(cols, S, k=1) == 2
        assert stabilizer_index(cols, S, k=2) == 2

    def test_unsaturated_refused(self):
        S = OrderStructure.unramified(T2, 1, 2)
        cols = [[poly_from_str("t", F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        with pytest.raises(NotSaturated):
            stabilizer_index(cols, S, k=1)
        # the gates run in order: integrality, depth, saturation, budget
        t = poly_from_str("t", F2)
        deep = [[t, Poly.zero(F2)], [Poly.zero(F2), t * t]]
        outside = Lattice(LocalMatrix.diagonal(T2, [pi_pow(T2, -1)] * 2))
        for f in (stabilizer_index, gitter_bound_check):
            for budget in (1, DEFAULT_BUDGET):
                with pytest.raises(NotSaturated, match=(
                        r"^R'-span of the lattice is not the full module$")):
                    f(cols, S, None, budget)
                with pytest.raises(ValueError, match="depth 1 too small"):
                    f(deep, S, 1, budget)
                with pytest.raises(NotContained):
                    f(outside, S, None, budget)

    def test_gitter_bound_cases(self):
        S = OrderStructure.unramified(T2, 1, 2)
        assert gitter_bound_check(Lattice(LocalMatrix.identity(T2, 2)), S, k=1)
        cols = [[Poly.one(F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        assert gitter_bound_check(cols, S, k=2)
        # index 2, stab 3: 3 >= (1/2)^2 * 2^(1/2) holds comfortably
        assert stabilizer_index(cols, S, k=2) == 3

    def test_gitter_exhaustive_small(self):
        # warm-up slice of the acceptance sweep: q=2, r=2, index <= 4
        for S in (OrderStructure.unramified(T2, 1, 2),
                  OrderStructure.totally_ramified(T2, 1, 2)):
            for exps, cols in hermite_sublattices(T2, 2, 2):
                if not saturation_holds(S, cols):
                    continue
                assert gitter_bound_check(cols, S)


def _saturated_sublattices(order, max_exp):
    """(cols, elementary divisors) of the saturated Hermite sublattices."""
    for _, cols in hermite_sublattices(order.prime, order.r, max_exp):
        if saturation_holds(order, cols):
            yield cols, Lattice.from_poly_basis(order.prime, cols).elementary_divisors


class TestStabilizerAgainstEnumeration:
    """Units counted on H mod p against the walk over all of H."""

    @pytest.mark.parametrize("name,order", _gitter_structures(),
                             ids=[name for name, _ in _gitter_structures()])
    def test_all_saturated_sublattices_exponent_2(self, name, order):
        q, r = order.prime.field.size, order.r
        cases = 0
        for cols, divisors in _saturated_sublattices(order, 2):
            e_max = max(divisors)
            index = order.prime.residue_size ** sum(divisors)
            for k in sorted({max(1, e_max), e_max + 1}):
                want = stabilizer_index_enumerated(cols, order, k)
                assert stabilizer_index(cols, order, k) == want, (cols, k)
                bound = want ** r * q ** (r * r) >= (q - 1) ** (r * r) * index
                assert gitter_bound_check(cols, order, k) == bound, (cols, k)
                cases += 1
        assert cases

    @pytest.mark.parametrize("name,order", _gitter_structures(),
                             ids=[name for name, _ in _gitter_structures()])
    def test_span_units_match_list_walker(self, name, order):
        # every H-bar basis of the census grid (exponent <= 3), plus bases
        # over F_3, where both sides walk entry lists
        cases = [(cols, order) for cols, _ in _saturated_sublattices(order, 3)]
        cases += [(cols, other) for other in _rank_two_orders(T3)[:1]
                  for cols, _ in _saturated_sublattices(other, 1)]
        for cols, o in cases:
            ring, hom, _, _ = localfield._multiplier_ring(
                cols, o, None, DEFAULT_BUDGET)
            basis = localfield._residue_image(o, ring, *hom)
            kp = residue_field(o.prime)
            got = list(localfield._span_units(kp, o.r, basis))
            assert got == list(span_units_walk(kp, o.r, basis)), cols
            assert got

    def test_same_budget_refusal(self):
        S = OrderStructure.unramified(T2, 1, 2)
        cols = [[Poly.one(F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        messages = []
        for f in (stabilizer_index, stabilizer_index_enumerated,
                  gitter_bound_check):
            with pytest.raises(BudgetExceeded) as exc:
                f(cols, S, 2, 4)
            messages.append(str(exc.value))
        assert messages == ["stabilizer ring has 8 elements, budget 4"] * 3

    def test_y_power_blocks_kept_per_depth(self):
        S = OrderStructure.unramified(T2, 1, 3)
        ypow = S.y_power_blocks(ChainRing(T2, 2))
        assert S.y_power_blocks(ChainRing(T2, 2)) is ypow
        assert S.y_power_blocks(ChainRing(T2, 1)) is not ypow
        assert isinstance(ypow, tuple)
        assert all(isinstance(row, tuple) for mat in ypow for row in mat)


def _smith_data(ring, rows, dim):
    """Howell rows of a submodule of (A/p^k)^dim as the Smith data (exps,
    gens) that `_hom_kernel` returns: the span of the rows is U diag(pi^e)
    (A/p^k)^dim, so gens are the columns of U and exps are k - e."""
    if not rows:
        return (0,) * dim, localfield._chain_identity(ring, dim)
    exps, u, _ = smith_form_left(ring, rows)
    return tuple(ring.k - e for e in exps), [list(col) for col in zip(*u)]


def _multiplier_ring_stacked(lattice, order, k, budget):
    """_multiplier_ring as it was before the Smith-form constraint system:
    divisors from the LocalElement SNF, H solved into the lattice's Howell
    form by the stacked `_hom_module`, handed on as Smith data."""
    prime = order.prime
    if isinstance(lattice, Lattice):
        divisors = lattice.elementary_divisors
    else:
        divisors = Lattice.from_poly_basis(prime, lattice).elementary_divisors
    if min(divisors) < 0:
        raise NotContained("lattice must be integral (scale it first)")
    e_max = max(divisors)
    if k is None:
        k = max(1, e_max)
    if k < e_max:
        raise ValueError(
            f"depth {k} too small: p^{e_max} needed to contain the lattice")
    if not saturation_holds(order, lattice):
        raise NotSaturated("R'-span of the lattice is not the full module")
    ring = ChainRing(prime, k)
    cols = localfield._lattice_columns_chain(lattice, ring)
    sol = _hom_module(order, ring, cols, howell_form(ring, cols))
    h_size = module_size(ring, sol)
    if h_size > budget:
        raise BudgetExceeded(
            f"stabilizer ring has {h_size} elements, budget {budget}")
    dim = order.r_prime ** 2 * order.m
    return ring, _smith_data(ring, sol, dim), h_size, divisors


def _module_and_size(ring, hom, h_size, divisors):
    """H as its Howell rows, with |H|: equal for equal modules."""
    return kernel_rows(ring, *hom), h_size


def _outcome(f, *args):
    """f(*args), or the type and message of the refusal it raises."""
    try:
        return f(*args)
    except (DrinlatError, ValueError) as exc:
        return type(exc), str(exc)


def _once(f):
    """f, called once; later calls replay its result or its exception."""
    memo = []

    def replay(*args):
        if not memo:
            try:
                memo.append((True, f(*args)))
            except Exception as exc:
                memo.append((False, exc))
        ok, value = memo[0]
        if ok:
            return value
        raise value
    return replay


def _outcomes(multiplier_ring, lattice, order, k, budget):
    """H's Howell rows with |H|, stabilizer_index and gitter_bound_check
    (or their refusals), with H built once by multiplier_ring."""
    args = (lattice, order, k, budget)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(localfield, "_multiplier_ring", _once(multiplier_ring))
        return [_outcome(f, *args) for f in (
            lambda *a: _module_and_size(*localfield._multiplier_ring(*a)),
            stabilizer_index, gitter_bound_check)]


def _assert_matches_stacked(lattice, order, k=None, budget=DEFAULT_BUDGET):
    """H as a module (the oracle's Howell rows of its generators) with
    |H|, stabilizer_index and gitter_bound_check (or the refusal each
    raises) agree between the Smith-form constraint system and the
    stacked construction; returns them."""
    new = _outcomes(localfield._multiplier_ring, lattice, order, k, budget)
    old = _outcomes(_multiplier_ring_stacked, lattice, order, k, budget)
    assert new == old, (lattice, k)
    return new


F4 = FiniteField.of_order(2, 2)


def _rank_two_orders(prime):
    """The orders of rank 2 over A_p; Mat_2(A_p) only while q_p <= 4, as
    the unit count walks H mod p, up to q_p^4 elements."""
    orders = [OrderStructure.unramified(prime, 1, 2),
              OrderStructure.totally_ramified(prime, 1, 2),
              OrderStructure.product(prime, 1, [("unramified", 1),
                                                ("unramified", 1)])]
    if prime.residue_size <= 4:
        orders.append(OrderStructure.trivial(prime, 2))
    return orders


# (prime, largest Hermite exponent): a non-linear kernel over F_2, shifted
# degree-1 primes and degree-2 primes over F_3 and F_4
OTHER_PRIMES = [(prime_from_str("t^2+t+1", F2), 2),
                (prime_from_str("t+1", F3), 2), (P3, 1),
                (primes_of_degree(F4, 1)[-1], 2), (primes_of_degree(F4, 2)[0], 1)]


def _saturated_from_packed(order, cols):
    """The saturation test as `stabilizer_index` runs it: on the residues
    read off the columns packed for its elementary divisors."""
    packed = localfield._divisors_and_columns(cols, order.prime)[1]
    kr = localfield._kernel(order.prime)
    return localfield._saturated(
        order, [[kr.residue(x) for x in col] for col in packed])


class TestSaturationOverResidueField:
    """saturation_holds in k(p) arithmetic against the depth-1 chain-ring
    construction it replaced."""

    @pytest.mark.parametrize("name,order", _gitter_structures(),
                             ids=[name for name, _ in _gitter_structures()])
    def test_criterion_2_grid(self, name, order):
        seen = {True: 0, False: 0}
        for _, cols in hermite_sublattices(order.prime, order.r, 4):
            want = saturation_holds_chain(order, cols)
            assert saturation_holds(order, cols) == want, cols
            assert _saturated_from_packed(order, cols) == want, cols
            seen[want] += 1
        assert seen[True] and seen[False], seen

    @pytest.mark.parametrize("prime,max_exp", OTHER_PRIMES,
                             ids=[f"q={p.field.size},{p.poly}"
                                  for p, _ in OTHER_PRIMES])
    def test_other_primes_and_lattice_inputs(self, prime, max_exp):
        for order in _rank_two_orders(prime):
            for _, cols in hermite_sublattices(prime, order.r, max_exp):
                lat = Lattice.from_poly_basis(prime, cols)
                want = saturation_holds_chain(order, cols)
                assert _saturated_from_packed(order, cols) == want, cols
                for arg in (cols, lat):
                    assert saturation_holds(order, arg) == \
                        saturation_holds_chain(order, arg) == want, cols


class TestMultiplierRingFromSmithForm:
    """H from one packed Smith form against the stacked construction."""

    @pytest.mark.parametrize("name,order", _gitter_structures(),
                             ids=[name for name, _ in _gitter_structures()])
    def test_criterion_2_grid(self, name, order):
        # every saturated lattice of criterion 2 (exponent <= 4)
        cases = 0
        for _, cols in hermite_sublattices(order.prime, order.r, 4):
            if saturation_holds(order, cols):
                got = _assert_matches_stacked(cols, order)
                assert isinstance(got[1], int)
                cases += 1
        assert cases

    @pytest.mark.parametrize("prime,max_exp", OTHER_PRIMES,
                             ids=[f"q={p.field.size},{p.poly}"
                                  for p, _ in OTHER_PRIMES])
    def test_other_primes(self, prime, max_exp):
        cases = 0
        for order in _rank_two_orders(prime):
            for _, cols in hermite_sublattices(prime, 2, max_exp):
                if not saturation_holds(order, cols):
                    continue
                e_max = max(Lattice.from_poly_basis(prime, cols)
                            .elementary_divisors)
                for k in (None, e_max + 1):
                    _assert_matches_stacked(cols, order, k)
                    cases += 1
        assert cases

    def test_r_prime_2(self):
        # r' = 2 over a quadratic order: H has m r'^2 = 8 coordinates
        cases = 0
        for order in (OrderStructure.unramified(T2, 2, 2),
                      OrderStructure.totally_ramified(T2, 2, 2)):
            for _, cols in hermite_sublattices(T2, 4, 2):
                if saturation_holds(order, cols):
                    _assert_matches_stacked(cols, order)
                    cases += 1
        assert cases

    def test_lattice_inputs_refuse_alike(self):
        # inexact entries, entries known to too low a precision, an
        # uncertified entry, a non-integral basis, a depth below e_max
        S = OrderStructure.unramified(T2, 1, 2)
        one = LocalElement.one(T2)
        zero = LocalElement.zero(T2)
        low = LocalElement.from_poly(T2, poly_from_str("1+t+t^5", F2), 2)
        cases = [
            ([[one, low], [zero, pi_pow(T2, 2)]], (None, 2, 3)),
            ([[one, zero], [low, pi_pow(T2, 1)]], (None, 1, 2, 3)),
            ([[one, LocalElement(T2, "u", 1, ())], [zero, pi_pow(T2, 2)]],
             (None, 2)),
            ([[one, LocalElement(T2, "u", 4, ())], [zero, pi_pow(T2, 2)]],
             (None, 2, 5)),
            ([[one, zero], [LocalElement(T2, "u", 0, ()), one]], (None,)),
            ([[pi_pow(T2, -1), zero], [zero, one]], (None, 1)),
            ([[one, zero], [zero, pi_pow(T2, 3)]], (None, 2, 3, 4)),
            ([[one, zero], [zero, pi_pow(T2, 3, prec=1)]], (None, 3, 4)),
            ([[one, elem(T2, "t+t^3", prec=1)], [zero, pi_pow(T2, 2)]],
             (None, 2, 3)),
        ]
        kinds = set()
        for rows, depths in cases:
            for k in depths:
                lat = Lattice(LocalMatrix(T2, rows))
                got = _assert_matches_stacked(lat, S, k)
                kinds.update(g[0] for g in got if isinstance(g, tuple))
        assert {PrecisionExhausted, NotContained, ValueError} <= kinds

    def test_divisors_near_default_precision(self):
        t, one, zero = poly_from_str("t", F2), Poly.one(F2), Poly.zero(F2)
        N = DEFAULT_PRECISION
        bases = []
        for e in (N - 2, N - 1, N, N + 1):
            bases.append([[one, zero], [zero, t ** e]])
            # the same lattice behind a unimodular change of basis
            bases.append([[one, t ** e + t], [one + t, t ** (e + 1) + one]])
        # det t^13, but the entry 1 + t^13 has more than N digits: the SNF
        # cannot certify the pivot and refuses
        bases.append([[one, one + t ** (N + 1)], [one, one]])
        bases.append([[zero, zero], [zero, one]])  # singular
        kinds = set()
        for cols in bases:
            for order in (OrderStructure.unramified(T2, 1, 2),
                          OrderStructure.trivial(T2, 2)):
                for k in (None, N + 2):
                    got = _assert_matches_stacked(cols, order, k)
                    kinds.update(g[0] if isinstance(g, tuple) else "ok"
                                 for g in got)
        assert {"ok", PrecisionExhausted, Singular, BudgetExceeded} <= kinds

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_integral_bases(self, data):
        prime = data.draw(st.sampled_from([T2, T3,
                                           prime_from_str("t^2+t+1", F2)]))
        order = data.draw(st.sampled_from(
            _rank_two_orders(prime) + [OrderStructure.trivial(prime, 3),
                                       OrderStructure.unramified(prime, 1, 3)]))
        q = prime.field.size
        cols = [[Poly(prime.field, data.draw(st.lists(
                    st.integers(0, q - 1), max_size=4)))
                 for _ in range(order.r)] for _ in range(order.r)]
        k = data.draw(st.one_of(st.none(), st.integers(1, 5)))
        # a budget of 2^10 bounds the walk over H mod p: without it, the
        # 3^9 elements of Mat_3 over F_3 cost seconds per example
        _assert_matches_stacked(cols, order, k, budget=2 ** 10)

    def test_no_snf_or_stacked_hom_for_polynomial_columns(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("old construction reached")
        monkeypatch.setattr(localfield, "_snf_full", refuse)
        S = OrderStructure.unramified(T2, 1, 2)
        cols = [[Poly.one(F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        assert stabilizer_index(cols, S) == 3
        assert gitter_bound_check(cols, S)


TRANSFORM_PRIMES = [prime_from_str(f, F) for F in (F2, F3, F4)
                    for f in ("t", "t+1")] + [
    prime_from_str("t^2+t+1", F2), P3, primes_of_degree(F4, 2)[0]]


class TestMultiplierRingTransforms:
    """U and U^-1 of `_multiplier_ring`, built by `smith_form_left` at
    depth k from the depth-DEFAULT_PRECISION columns reduced mod p^k, are
    those of the columns reduced mod p^k directly."""

    @pytest.mark.parametrize("prime", TRANSFORM_PRIMES,
                             ids=[f"q={p.field.size},{p.poly}"
                                  for p in TRANSFORM_PRIMES])
    def test_masked_columns_match_depth_k(self, prime, monkeypatch):
        calls = []

        def spy(ring, cols):
            out = smith_form_left(ring, cols)
            calls.append((ring.k, [tuple(c) for c in cols], out))
            return out
        monkeypatch.setattr(localfield, "smith_form_left", spy)
        max_exp = 2 if prime.degree == 1 else 1
        cases = 0
        for order in _rank_two_orders(prime):
            for _, cols in hermite_sublattices(prime, 2, max_exp):
                if not saturation_holds(order, cols):
                    continue
                lat = Lattice.from_poly_basis(prime, cols)
                e_max = max(lat.elementary_divisors)
                for k in (None, e_max + 1, DEFAULT_PRECISION + 2):
                    for arg in (cols, lat):
                        calls.clear()
                        try:
                            localfield._multiplier_ring(arg, order, k,
                                                        DEFAULT_BUDGET)
                        except BudgetExceeded:
                            pass
                        depth, got, transforms = calls[0]
                        assert depth == (k or max(1, e_max))
                        ring = ChainRing(prime, depth)
                        want = localfield._lattice_columns_chain(cols, ring)
                        assert got == want, (cols, k)
                        assert transforms == smith_form_left(ring, want)
                        cases += 1
        assert cases


def _random_chain_matrix(ring, rows, width, rng):
    elems = list(ring.elements())
    return [tuple(rng.choice(elems) for _ in range(rows)) for _ in range(width)]


class TestSmithFormLeft:
    @pytest.mark.parametrize("prime", [T2, T3, P3, prime_from_str("t^2+t+1", F2)],
                             ids=["t/F2", "t/F3", "t^2+1/F3", "t^2+t+1/F2"])
    def test_span_and_exponents(self, prime):
        # the column span of B is U diag(pi^e) (A/p^k)^r, and the exponents
        # are the elementary divisors capped at k
        rng = random.Random(7)
        for k in (1, 2, 3):
            ring = ChainRing(prime, k)
            for _ in range(40):
                r, L = rng.choice([(2, 2), (3, 3), (2, 1), (3, 2), (2, 3)])
                cols = _random_chain_matrix(ring, r, L, rng)
                if rng.random() < 0.5:  # more non-unit entries
                    cols = [tuple(ring.mul(ring.pi_pow(1), x) if i % 2 else x
                                  for i, x in enumerate(col)) for col in cols]
                exps, U, U_inv = smith_form_left(ring, cols)
                assert list(exps) == sorted(exps) and len(exps) == r
                span = [tuple(ring.mul(ring.pi_pow(e), U[i][j]) if e < k else 0
                              for i in range(r)) for j, e in enumerate(exps)]
                assert howell_form(ring, span) == howell_form(ring, cols)
                if r == L:
                    lattice = Lattice(LocalMatrix.from_polys(
                        prime, [[ring.lift(cols[j][i]) for j in range(r)]
                                for i in range(r)]))
                    try:
                        divisors = lattice.elementary_divisors
                    except (Singular, PrecisionExhausted):
                        # det vanishes mod p^DEFAULT_PRECISION
                        assert exps[-1] == k
                    else:
                        assert exps == tuple(min(e, k) for e in divisors)

    def test_invariants_raise(self, monkeypatch):
        ring = ChainRing(T2, 2)
        cols = [(1, 2), (2, 1)]
        assert smith_form_left(ring, cols)[0] == (0, 0)
        # a transform update that loses its sum, and valuations that lie
        monkeypatch.setattr(ring, "add", lambda a, b: a)
        with pytest.raises(AssertionError, match="not invertible"):
            smith_form_left(ring, cols)
        monkeypatch.undo()
        vals = iter([1, 1, 0])  # pivot t (valuation 1) first, then 1
        monkeypatch.setattr(ring, "val", lambda a: next(vals))
        with pytest.raises(AssertionError, match="not ascending"):
            smith_form_left(ring, [(2, 0), (0, 1)])

    def test_chain_ring_depth_refused(self):
        with pytest.raises(ValueError, match="k >= 1"):
            ChainRing(T2, 0)

    @pytest.mark.parametrize("q", [3, 5])
    def test_multiplier_one_against_howell(self, q):
        # over F_3 and F_5 sub differs from add; rows cleared by a
        # multiplier c = 1 are subtracted without a product, the U U^-1
        # check skips factors 1, and no product by 1 is made at all
        F = FiniteField.of_order(q)
        rng = random.Random(f"smith-one:{q}")
        unit_steps = 0
        for prime in (prime_from_str("t", F), prime_from_str("t+1", F)):
            for k in (1, 2, 3):
                ring = ChainRing(prime, k)
                elems = list(ring.elements())
                for _ in range(30):
                    r, L = rng.choice([(2, 2), (3, 3), (3, 2), (2, 3)])
                    rows = [[rng.choice(elems) for _ in range(L)]
                            for _ in range(r)]
                    if rng.random() < 0.7:  # a pivot 1 over units u, u + p
                        j = rng.randrange(L)
                        rows[0][j] = 1
                        for row in rows[1:]:
                            row[j] = rng.choice([1, ring.add(1, ring.pi_pow(1))])
                    cols = [tuple(col) for col in zip(*rows)]
                    unit_steps += _first_step_multiplier_is_one(ring, rows)
                    products = []

                    def mul(a, b, _mul=ring.mul):
                        products.append((a, b))
                        return _mul(a, b)
                    with pytest.MonkeyPatch.context() as m:
                        m.setattr(ring, "mul", mul)
                        exps, U, U_inv = smith_form_left(ring, cols)
                    assert all(1 not in pair for pair in products)
                    span = [tuple(ring.mul(ring.pi_pow(e), U[i][j]) if e < k
                                  else 0 for i in range(r))
                            for j, e in enumerate(exps)]
                    assert howell_form(ring, span) == howell_form(ring, cols)
                    ident = localfield._chain_matmul(ring, U, U_inv)
                    assert ident == localfield._chain_identity(ring, r)
                    with pytest.MonkeyPatch.context() as m:
                        m.setattr(ring, "add", lambda a, b: a)
                        with pytest.raises(InvariantError, match="invertible"):
                            smith_form_left(ring, cols)
        assert unit_steps > 20, unit_steps


def _first_step_multiplier_is_one(ring, rows):
    """Whether the first pivot step of `smith_form_left` on the matrix with
    these rows clears some row with the multiplier c = 1, i.e. whether an
    entry under the pivot pi^e u has the unit part u."""
    entries = [(ring.val(x), i, j) for i, row in enumerate(rows)
               for j, x in enumerate(row) if x]
    if not entries:
        return False
    e, i0, j0 = min(entries)  # least valuation, ties row-major
    u = ring.unit_part(rows[i0][j0], e)
    return any(ring.unit_part(row[j0], e) == u
               for i, row in enumerate(rows) if i != i0 and row[j0])


def _orbit_equal_full_search(order, k, cols_a, cols_b):
    """module_orbit_equal as it was before the mod-p search: walk all of
    the hom-module and test each element for invertibility mod p."""
    from drinlat.localfield import _lattice_columns_chain, _x_block_matrix
    ring = ChainRing(order.prime, k)
    ca = _lattice_columns_chain(cols_a, ring)
    cb = _lattice_columns_chain(cols_b, ring)
    rows_a = howell_form(ring, [tuple(c) for c in ca])
    rows_b = howell_form(ring, [tuple(c) for c in cb])
    if module_size(ring, rows_a) != module_size(ring, rows_b):
        return False
    if rows_a == rows_b:
        return True
    sol = _hom_module(order, ring, ca, rows_b)
    kp = residue_field(order.prime)
    ypow_res = order.y_power_residues()
    for x in enumerate_module(ring, sol, 2 ** 16):
        mat = _x_block_matrix(order, kp, ypow_res,
                              [ring.to_residue(c) for c in x])
        if _det_residue(kp, mat) != 0:
            return True
    return False


class TestModuleOrbitEqual:
    def test_mod_p_search_matches_full_search(self):
        # every ordered pair of Hermite sublattices of equal index; pairs
        # whose Howell forms differ reach the search.  The full search
        # walks all of Hom, so the 3 x 3 matrix ring of "trivial r=3" and
        # exponents above 1 at r = 3 are left out to keep it small.
        searched = {True: 0, False: 0}
        for name, order in _gitter_structures():
            if name == "trivial r=3":
                continue
            lats = [(sum(exps), cols) for exps, cols in
                    hermite_sublattices(order.prime, order.r,
                                        2 if order.r == 2 else 1)]
            for k in (1, 2):
                ring = ChainRing(order.prime, k)
                for ea, a in lats:
                    for eb, b in lats:
                        if ea != eb or a is b:
                            continue
                        want = _orbit_equal_full_search(order, k, a, b)
                        assert module_orbit_equal(order, k, a, b) == want
                        rows = [howell_form(ring, [tuple(ring.reduce(c)
                                                         for c in col)
                                                   for col in cols])
                                for cols in (a, b)]
                        if rows[0] != rows[1]:
                            searched[want] += 1
        assert searched[True] >= 20 and searched[False] >= 20, searched

    def test_same_budget_refusal(self):
        # a and b differ by swapping coordinates; at depth 2 the hom-module
        # has 128 elements
        S = OrderStructure.trivial(T2, 2)
        t, one, zero = poly_from_str("t", F2), Poly.one(F2), Poly.zero(F2)
        a, b = [[t, zero], [zero, one]], [[one, zero], [zero, t]]
        assert module_orbit_equal(S, 2, a, b, budget=128)
        with pytest.raises(BudgetExceeded,
                           match="^module of size 128 exceeds enumeration "
                                 "budget 127$"):
            module_orbit_equal(S, 2, a, b, budget=127)

    def test_same_lattice(self):
        S = OrderStructure.unramified(T2, 1, 2)
        cols = [[Poly.one(F2), Poly.zero(F2)],
                [Poly.zero(F2), poly_from_str("t", F2)]]
        assert module_orbit_equal(S, 2, cols, cols)

    def test_unit_twist_same_orbit(self):
        S = OrderStructure.unramified(T2, 1, 2)
        a = [[Poly.one(F2), Poly.zero(F2)],
             [Poly.zero(F2), poly_from_str("t", F2)]]
        # swap basis vectors: same lattice, different matrix
        b = [a[1], a[0]]
        assert module_orbit_equal(S, 2, a, b)

    def test_order_unit_multiple_same_orbit(self):
        # multiplying by the generator y (a unit of the unramified order)
        # moves the lattice within its orbit without equality of lattices
        S = OrderStructure.unramified(T2, 1, 2)
        ring = ChainRing(T2, 2)
        ypow = S.y_power_blocks(ring)
        a = [[Poly.one(F2), Poly.zero(F2)],
             [Poly.zero(F2), poly_from_str("t", F2)]]
        b = [tuple(_chain_matvec(ring, ypow[1], [ring.reduce(c) for c in col]))
             for col in a]
        rows_a = howell_form(ring, [tuple(ring.reduce(c) for c in col)
                                    for col in a])
        rows_b = howell_form(ring, [tuple(c) for c in b])
        assert rows_a != rows_b  # genuinely different lattice
        assert module_orbit_equal(S, 2, a, [[ring.lift(c) for c in col]
                                            for col in b])

    def test_different_index_not_equal(self):
        S = OrderStructure.unramified(T2, 1, 2)
        a = [[Poly.one(F2), Poly.zero(F2)],
             [Poly.zero(F2), poly_from_str("t", F2)]]
        b = [[Poly.one(F2), Poly.zero(F2)],
             [Poly.zero(F2), Poly.one(F2)]]
        assert not module_orbit_equal(S, 2, a, b)

    @pytest.mark.parametrize("prime", [prime_from_str("t^2+t+1", F2),
                                       prime_from_str("t+1", F3)],
                             ids=["t^2+t+1/F2", "t+1/F3"])
    def test_other_primes_match_full_search(self, prime):
        searched = {True: 0, False: 0}
        lats = [(sum(exps), cols)
                for exps, cols in hermite_sublattices(prime, 2, 1)]
        for order in _rank_two_orders(prime):
            for k in (1, 2):
                for ea, a in lats:
                    for eb, b in lats:
                        if ea != eb or a is b:
                            continue
                        want = _orbit_equal_full_search(order, k, a, b)
                        assert module_orbit_equal(order, k, a, b) == want
                        searched[want] += 1
        assert searched[True] and searched[False], searched

    def test_hom_rows_match_stacked(self):
        # Hom(L_a, L_b) from two Smith forms against the stacked
        # construction, on random generator sets of 1 to 3 columns
        rng = random.Random(11)
        for prime in (T2, T3, prime_from_str("t^2+t+1", F2)):
            for order in _rank_two_orders(prime):
                for k in (1, 2, 3):
                    ring = ChainRing(prime, k)
                    for _ in range(6):
                        ca, cb = (_random_chain_matrix(ring, 2,
                                                       rng.randint(1, 3), rng)
                                  for _ in range(2))
                        e_a, u_a, _ = smith_form_left(ring, ca)
                        e_b, _, u_b_inv = smith_form_left(ring, cb)
                        exps, gens = localfield._hom_kernel(
                            order, ring, (e_a, u_a), (e_b, u_b_inv))
                        want = _hom_module(order, ring, ca,
                                           howell_form(ring, cb))
                        assert kernel_rows(ring, exps, gens) == want, (ca, cb)
                        assert prime.residue_size ** sum(exps) == \
                            module_size(ring, want)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_hom_kernels_match_stacked(self, data):
        # Hom(L_a, L_b) for random generator sets: the Smith data span the
        # stacked construction's module, and give its size
        prime = data.draw(st.sampled_from([T2, T3, P3,
                                           prime_from_str("t^2+t+1", F2)]))
        order = data.draw(st.sampled_from(
            _rank_two_orders(prime) + [OrderStructure.unramified(prime, 1, 3),
                                       OrderStructure.totally_ramified(
                                           prime, 1, 3)]))
        ring = ChainRing(prime, data.draw(st.integers(1, 3)))
        entry = st.sampled_from(list(ring.elements()))
        ca, cb = (data.draw(st.lists(st.tuples(*[entry] * order.r),
                                     min_size=1, max_size=3))
                  for _ in range(2))
        e_a, u_a, _ = smith_form_left(ring, ca)
        e_b, _, u_b_inv = smith_form_left(ring, cb)
        exps, gens = localfield._hom_kernel(order, ring, (e_a, u_a),
                                            (e_b, u_b_inv))
        want = _hom_module(order, ring, ca, howell_form(ring, cb))
        assert kernel_rows(ring, exps, gens) == want
        size = prime.residue_size ** sum(exps)
        assert size == module_size(ring, want)
        if size <= 2 ** 10:
            # the walk meets every element once
            walked = [tuple(x) for x in _kernel_elements(
                ring, exps, gens, size)]
            assert len(walked) == size
            # the oracle walks the zero module as the empty vector
            assert set(walked) == (set(enumerate_module(ring, want, size))
                                   if want else {(0,) * len(gens)})


def _saturate_stacked(order, lattice, budget=DEFAULT_BUDGET):
    """saturate_lattice by Howell forms: M is the Howell form of the
    y-power translates of the basis columns, Hom(A^r, M) is solved into
    it by the stacked `_hom_module` and walked for a map onto M."""
    prime, r = order.prime, order.r
    divisors = lattice.elementary_divisors
    if min(divisors) < 0:
        lattice = Lattice(lattice.basis.scale(
            LocalElement.pi_power(prime, -min(divisors))))
    if saturation_holds(order, lattice):
        return lattice
    # the spanning columns, translated in LocalElement arithmetic
    blockm = LocalMatrix.from_polys(prime, order.companion_block())
    cols, spans = [], lattice.basis
    for _ in range(order.m):
        cols.extend([spans.rows[i][j] for i in range(r)] for j in range(r))
        spans = blockm @ spans
    # M contains the lattice, so p^(max divisor) A^r lies in M
    big = ChainRing(prime, max(lattice.elementary_divisors) + 1)
    m_big = howell_form(big, [tuple(x.residue(big.k) for x in c)
                              for c in cols])
    unit_cols = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    depth = next(j for j in range(big.k) if all(
        module_contains(big, m_big, vec_scale(big, big.pi_pow(j), e))
        for e in unit_cols))
    ring = ChainRing(prime, depth + 1)
    m_rows = howell_form(ring, [tuple(x.residue(ring.k) for x in c)
                                for c in cols])
    sol = _hom_module(order, ring, unit_cols, m_rows)
    ypow = order.y_power_blocks(ring)
    for x in enumerate_module(ring, sol, budget):
        block = localfield._x_block_matrix(order, ring, ypow, x)
        if howell_form(ring, [tuple(block[i][j] for i in range(r))
                              for j in range(r)]) == m_rows:
            h = LocalMatrix.from_polys(prime, [[ring.lift(block[i][j])
                                                for j in range(r)]
                                               for i in range(r)])
            return Lattice(h.inverse() @ lattice.basis)
    raise NotSaturated("no normalizing map found below budget")


def _assert_saturates_as_stacked(order, cols, budget):
    """saturate_lattice and the Howell-form search give the same refusal,
    or saturated lattices with the same stabilizer index in one
    GL_{r'}(R')-orbit; returns whether they answered.  The searches run
    over different sets in different orders, so they may stop at
    different normalizing maps."""
    prime = order.prime
    lat = Lattice.from_poly_basis(prime, cols)
    got = _outcome(saturate_lattice, order, lat, budget)
    want = _outcome(_saturate_stacked, order, lat, budget)
    if isinstance(want, tuple):
        assert got == want, cols
        return False
    assert saturation_holds(order, got)
    assert stabilizer_index(got, order) == stabilizer_index(want, order)
    k = max(1, max(got.elementary_divisors))
    assert module_orbit_equal(order, k, got, want,
                              budget=prime.residue_size ** (4 * k))
    return True


class TestSaturateAgainstStacked:
    @pytest.mark.parametrize("prime", [T2, T3, prime_from_str("t^2+t+1", F2)],
                             ids=["t/F2", "t/F3", "t^2+t+1/F2"])
    def test_same_normalized_orbit(self, prime):
        # every unsaturated Hermite sublattice of exponent <= 3
        normalized = 0
        for order in _rank_two_orders(prime):
            for _, cols in hermite_sublattices(prime, 2, 3):
                if not saturation_holds(order, cols):
                    normalized += _assert_saturates_as_stacked(order, cols,
                                                               512)
        assert normalized

    @pytest.mark.parametrize("name,order", _gitter_structures(),
                             ids=[name for name, _ in _gitter_structures()])
    def test_criterion_2_grid(self, name, order):
        # every unsaturated Hermite sublattice of exponent <= 4 at r = 2
        # and <= 3 at r = 3
        normalized = 0
        for _, cols in hermite_sublattices(order.prime, order.r,
                                           4 if order.r == 2 else 3):
            if not saturation_holds(order, cols):
                normalized += _assert_saturates_as_stacked(order, cols,
                                                           DEFAULT_BUDGET)
        assert normalized

    def test_plain_span_normalized(self):
        # diag(t^2, t, t) under the unramified cubic order: its A'-span is
        # t.R'.  The Hermite elimination this replaced refused it with
        # "column entry uncertified in HNF"
        order = OrderStructure.unramified(T2, 1, 3)
        t, t2 = poly_from_str("t", F2), poly_from_str("t^2", F2)
        zero = Poly.zero(F2)
        lat = Lattice.from_poly_basis(T2, [[t2, zero, zero], [zero, t, zero],
                                           [zero, zero, t]])
        got = saturate_lattice(order, lat)
        assert saturation_holds(order, got)
        assert stabilizer_index(got, order) == 7
        assert stabilizer_index_enumerated(got, order) == 7


class TestOrbitEqualFullGroupOracle:
    def test_r_prime_2_against_direct_group_action(self):
        # trivial order, r' = r = 2, depth 1: enumerate all of GL_2(A/p)
        # directly and compare every pairwise orbit decision
        S = OrderStructure.trivial(T2, 2)
        ring = ChainRing(T2, 1)
        kp_elems = list(ring.elements())  # classes of A/p over F_2
        group = []
        from drinlat.ffpoly import residue_field
        kp = residue_field(T2)
        for a in kp_elems:
            for b in kp_elems:
                for c in kp_elems:
                    for d in kp_elems:
                        red = [[ring.to_residue(a), ring.to_residue(b)],
                               [ring.to_residue(c), ring.to_residue(d)]]
                        if _det_residue(kp, red) != 0:
                            group.append([[a, b], [c, d]])
        assert len(group) == 6  # |GL_2(F_2)|
        # all submodules of (A/p)^2, as Howell forms of generator sets
        vec_space = [(x, y) for x in kp_elems for y in kp_elems]
        modules = set()
        for v in vec_space:
            for w in vec_space:
                modules.add(howell_form(ring, [v, w]))
        modules = sorted(modules, key=lambda rows: [list(r) for r in rows])
        assert len(modules) == 5  # 0, three lines, the plane

        def act(mat, rows):
            imgs = []
            for row in rows:
                imgs.append(tuple(
                    ring.add(ring.mul(mat[i][0], row[0]),
                             ring.mul(mat[i][1], row[1]))
                    for i in range(2)))
            return howell_form(ring, imgs) if imgs else rows

        for m1 in modules:
            for m2 in modules:
                direct = any(act(g, m1) == m2 for g in group)
                gens1 = [[ring.lift(c) for c in r] for r in m1] or \
                    [[Poly.zero(F2), Poly.zero(F2)]]
                gens2 = [[ring.lift(c) for c in r] for r in m2] or \
                    [[Poly.zero(F2), Poly.zero(F2)]]
                got = module_orbit_equal(S, 1, gens1, gens2)
                assert got == direct, (m1, m2)


class TestHermiteSublattices:
    def test_count_index_two_rank_two(self):
        lats = [cols for exps, cols in hermite_sublattices(T2, 2, 1)
                if sum(exps) == 1]
        assert len(lats) == 3  # P^1(F_2)

    def test_all_distinct(self):
        seen = set()
        for exps, cols in hermite_sublattices(T2, 2, 3):
            ring = ChainRing(T2, 4)
            key = howell_form(ring, [tuple(ring.reduce(c) for c in col)
                                     for col in cols])
            assert key not in seen
            seen.add(key)

    def test_index_preserved(self):
        for exps, cols in hermite_sublattices(T3, 2, 2):
            lam = Lattice.from_poly_basis(T3, cols)
            assert sum(lam.elementary_divisors) == sum(exps)
