import pytest

from element_queries import certified_val
from goodprime_oracle import find_good_prime_full

from drinlat.acceptance import count_components_enumerated
from drinlat.errors import (Inconclusive, MalformedInput, NotMaximalAtPrime,
                            TowerNotSupported)
from drinlat.extension import Extension, splitting
from drinlat.ffpoly import FiniteField, Poly, enumerate_primes, poly_from_str, \
    prime_from_str
from drinlat.goodprime import (GoodPrimeCertificate,
                               GoodPrimeRefusal, LevelMap, LocalLevel,
                               SubvarietyDatum, count_components,
                               find_good_prime, is_good_prime,
                               local_matrix_from_json,
                               local_matrix_to_json, same_subvariety,
                               shrink_level, transfer_good_prime)
from drinlat.hecke import exhecke_element, hecke_degree, projectively_bounded
from drinlat.localfield import (LocalElement, LocalMatrix,
                                count_matrix_group)

F2 = FiniteField.of_order(2)
F3 = FiniteField.of_order(3)


def elliptic_datum(level=None):
    ext = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
    return SubvarietyDatum(ext, 2, {}, level)


def congruence_level(prime, r, depth=1):
    return LevelMap(r, {prime: LocalLevel("congruence", depth)})


def diagonal_twist(prime, exponents):
    return LocalMatrix.diagonal(
        prime, [LocalElement.pi_power(prime, e) for e in exponents])


def kummer_tower():
    """x^4 = t over F_5 and its certificate at t+4 (t = 1 there, so the
    4th roots exist), above x^2 = t."""
    F5 = FiniteField.of_order(5)
    prime = prime_from_str("t+4", F5)
    outer = SubvarietyDatum(Extension.kummer(F5, 4, poly_from_str("t", F5)),
                            4, {}, congruence_level(prime, 4))
    return outer, is_good_prime(outer, prime)


class TestIsGoodPrime:
    def test_maximal_level_refused_with_tag_a(self):
        datum = elliptic_datum()
        res = is_good_prime(datum, prime_from_str("t^2+1", F3))
        assert isinstance(res, GoodPrimeRefusal) and res.tag == "a"

    def test_inseparable_refused_with_tag_b(self):
        ext = Extension.generic(F2, [-poly_from_str("t", F2), Poly.zero(F2),
                                     Poly.one(F2)], genus=0)
        for prime in enumerate_primes(F2, 6):
            datum = SubvarietyDatum(ext, 2, {},
                                    congruence_level(prime, 2))
            res = is_good_prime(datum, prime)
            assert isinstance(res, GoodPrimeRefusal) and res.tag == "b"

    def test_split_prime_certified(self):
        prime = prime_from_str("t^2+1", F3)
        datum = elliptic_datum(congruence_level(prime, 2))
        cert = is_good_prime(datum, prime)
        assert isinstance(cert, GoodPrimeCertificate)
        assert cert.witness.e * cert.witness.f == 1
        assert cert.stability_witness.is_integral()
        assert cert.recheck()

    def test_inert_prime_refused_with_tag_b(self):
        ext = Extension.constant(F2, 2)
        prime = prime_from_str("t", F2)  # odd degree: inert
        datum = SubvarietyDatum(ext, 2, {}, congruence_level(prime, 2))
        res = is_good_prime(datum, prime)
        assert isinstance(res, GoodPrimeRefusal) and res.tag == "b"

    def test_bad_twist_refused_with_tag_c(self):
        # twist by diag(pi^-1, 1): the transported lattice is no longer
        # stable under multiplication by the generator
        prime = prime_from_str("t^2+1", F3)
        g = LocalMatrix.diagonal(prime, [LocalElement.pi_power(prime, -1),
                                         LocalElement.pi_power(prime, 0)])
        ext = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
        datum = SubvarietyDatum(ext, 2, {prime: g},
                                congruence_level(prime, 2))
        res = is_good_prime(datum, prime)
        assert isinstance(res, GoodPrimeRefusal) and res.tag == "c"


class TestShrinkLevel:
    def test_index_r2_q2(self):
        prime = prime_from_str("t", F2)
        level = LevelMap(2)
        shrunk, index = shrink_level(level, prime)
        assert index == 6 < 16
        assert shrunk.at(prime).kind == "congruence"
        assert shrunk.at(prime).depth == 1

    def test_index_r2_q3(self):
        prime = prime_from_str("t", F3)
        _, index = shrink_level(LevelMap(2), prime)
        assert index == 48 == (9 - 1) * (9 - 3) < 81

    def test_index_r1(self):
        for prime in enumerate_primes(F3, 2):
            _, index = shrink_level(LevelMap(1), prime)
            assert index == prime.residue_size - 1 < prime.residue_size

    def test_already_congruence_refused(self):
        prime = prime_from_str("t", F2)
        level = congruence_level(prime, 2)
        with pytest.raises(NotMaximalAtPrime):
            shrink_level(level, prime)

    def test_matches_count_matrix_group(self):
        prime = prime_from_str("t^2+t+1", F2)
        _, index = shrink_level(LevelMap(3), prime)
        assert index == count_matrix_group(3, 4, 1)[0]


class TestFindGoodPrime:
    def test_d_too_small_not_found(self):
        datum = elliptic_datum()
        res = find_good_prime(datum, N=1, max_degree=2, i_of_x=1)
        # D = 4: degree-1 primes ramify (fail i), t^2+1 fails (iv): 9 >= 4
        assert not res.found
        assert res.report.counters["i"] == 3
        assert res.report.counters["iv"] >= 1

    def test_found_at_t2_plus_1_with_boost(self):
        datum = elliptic_datum()
        res = find_good_prime(datum, N=1, max_degree=3, i_of_x=25)
        assert res.found
        assert str(res.certificate.prime) == "t^2+1"
        assert res.shrink_index == 5760 == (81 - 1) * (81 - 9)
        assert res.shrink_index < 9 ** 4
        assert res.certificate.recheck()

    def test_negative_N_refused(self):
        # |k(p)|^N < D(X) is condition (iv); N < 0 would make it a fraction
        with pytest.raises(MalformedInput, match="N must be >= 0"):
            find_good_prime(elliptic_datum(), N=-1, max_degree=3, i_of_x=25)
        assert find_good_prime(elliptic_datum(), N=0, max_degree=3,
                               i_of_x=25).found

    def test_counters_sum_to_scanned(self):
        datum = elliptic_datum()
        res = find_good_prime(datum, N=1, max_degree=4, i_of_x=1)
        total = sum(res.report.counters.values())
        accepted = 1 if res.found else 0
        assert total + accepted == res.report.scanned

    def test_constant_extension_parity(self):
        # odd-degree primes stay inert in the constant quadratic extension
        ext = Extension.constant(F2, 2)
        datum = SubvarietyDatum(ext, 2)
        res = find_good_prime(datum, N=1, max_degree=3, i_of_x=10 ** 6)
        assert res.found
        assert res.certificate.prime.degree % 2 == 0
        # and the failures at odd degrees are all condition (i)
        assert res.report.counters["i"] >= 2

    def test_accepted_prime_supports_hecke_element(self):
        datum = elliptic_datum()
        res = find_good_prime(datum, N=1, max_degree=3, i_of_x=25)
        elem = exhecke_element(res.certificate)
        assert elem.degree == 9
        assert hecke_degree(elem.matrix) == 9
        assert not projectively_bounded(elem.matrix)

    def test_every_accepted_instance_matches_degree_formula(self):
        # budget-enumerable instances: certified prime implies the element
        # degree equals |k(p)|^(r-1), across extensions and prime degrees
        data = [
            (elliptic_datum().extension, 2),
            (Extension.constant(F2, 2), 2),
            (Extension.artin_schreier(F2, poly_from_str("t^3", F2)), 2),
        ]
        checked = 0
        for ext, r in data:
            for prime in enumerate_primes(ext.base, 2):
                datum = SubvarietyDatum(ext, r, {},
                                        congruence_level(prime, r))
                verdict = is_good_prime(datum, prime)
                if not isinstance(verdict, GoodPrimeCertificate):
                    continue
                if prime.residue_size ** (r * r) > 2 ** 16:
                    continue
                elem = exhecke_element(verdict)
                assert (hecke_degree(elem.matrix)
                        == prime.residue_size ** (r - 1))
                checked += 1
        assert checked >= 3


def _scan_data():
    """(name, datum, N, max_degree, i_of_x) covering every shape and every
    counter of the scan."""
    F5 = FiniteField.of_order(5)
    F7 = FiniteField.of_order(7)
    F9 = FiniteField.of_order(3, 2)
    p3 = prime_from_str("t^2+1", F3)
    unstable = LocalMatrix.diagonal(p3, [LocalElement.pi_power(p3, -1),
                                         LocalElement.pi_power(p3, 0)])
    unit = LocalMatrix.from_polys(p3, [[Poly.one(F3), poly_from_str("t", F3)],
                                       [Poly.zero(F3), Poly.one(F3)]])
    insep = Extension.generic(F2, [-poly_from_str("t", F2), Poly.zero(F2),
                                   Poly.one(F2)], genus=0)
    generic = Extension.generic(F3, [-poly_from_str("t", F3), Poly.zero(F3),
                                     Poly.one(F3)], genus=0)
    x_json = {"schema": 1,
              "extension": {"kind": "kummer", "n": 2, "a": "t^3+2*t",
                            "base": "3"},
              "r": 2,
              "twists": [{"prime": "t", "matrix": [["1", "0"], ["0", "t"]]}],
              "level": [{"prime": "t^2+1", "kind": "congruence",
                         "depth": 1}]}
    kummer = elliptic_datum().extension
    return [
        ("kummer-accept", elliptic_datum(), 1, 3, 25),
        ("kummer-exhaust", elliptic_datum(), 6, 4, 25),
        ("artin-schreier", SubvarietyDatum(Extension.artin_schreier(
            F2, poly_from_str("t^3", F2)), 2), 10, 6, 1),
        ("artin-schreier-accept", SubvarietyDatum(Extension.artin_schreier(
            F3, poly_from_str("t^2+t", F3)), 3), 1, 3, 10 ** 3),
        ("constant", SubvarietyDatum(Extension.constant(F2, 2), 2),
         1, 3, 10 ** 6),
        ("constant-cubic", SubvarietyDatum(Extension.constant(F3, 3), 3),
         9, 3, 1),
        ("kummer-f5", SubvarietyDatum(Extension.kummer(
            F5, 2, poly_from_str("t^3+t", F5)), 2), 10, 2, 1),
        ("kummer-f9", SubvarietyDatum(Extension.kummer(
            F9, 2, poly_from_str("t", F9)), 2), 3, 2, 1),
        ("kummer-cubic-f7", SubvarietyDatum(Extension.kummer(
            F7, 3, poly_from_str("t^2+1", F7)), 3), 3, 2, 10 ** 3),
        ("kummer-ladder", SubvarietyDatum(Extension.kummer(
            F5, 3, poly_from_str("t^2+t+1", F5)), 3), 4, 2, 1),
        ("kummer-not-maximal", SubvarietyDatum(Extension.kummer(
            F3, 2, poly_from_str("t^3+t^2", F3)), 2), 1, 3, 10 ** 3),
        ("inseparable", SubvarietyDatum(insep, 2), 3, 6, 1),
        ("generic-ramified", SubvarietyDatum(generic, 2), 1, 3, 10 ** 3),
        ("readme-datum", SubvarietyDatum.from_json(x_json), 3, 4, None),
        ("congruence-level", elliptic_datum(congruence_level(p3, 2)),
         1, 3, 25),
        ("twist-fails-iii", SubvarietyDatum(kummer, 2, {p3: unstable}),
         1, 3, 25),
        ("level-matrix-fails-iii", elliptic_datum(LevelMap(2, {
            p3: LocalLevel("maximal", 0, unstable)})), 1, 3, 25),
        ("unit-twist-accept", SubvarietyDatum(kummer, 2, {p3: unit}, LevelMap(
            2, {p3: LocalLevel("maximal", 0, unit)})), 1, 3, 25),
    ]


class TestScanAgainstFullLoop:
    """`find_good_prime` against the loop that factors and conjugates at
    every prime (tests/goodprime_oracle.py): every counter, the scan
    length, the accepted prime, the certificate and the shrunk level."""

    @pytest.mark.parametrize("name,datum,N,max_degree,i_of_x", _scan_data(),
                             ids=[case[0] for case in _scan_data()])
    def test_same_result(self, name, datum, N, max_degree, i_of_x):
        got = find_good_prime(datum, N, max_degree, i_of_x=i_of_x)
        want = find_good_prime_full(datum, N, max_degree, i_of_x=i_of_x)
        for key, count in want.report.counters.items():
            assert got.report.counters[key] == count, key
        assert got.report.counters.keys() == want.report.counters.keys()
        assert got.report.scanned == want.report.scanned
        assert got.report.accepted == want.report.accepted
        assert got.report.predegree == want.report.predegree
        assert got.found == want.found
        assert got.shrink_index == want.shrink_index
        if want.found:
            assert got.certificate.to_json() == want.certificate.to_json()
            assert got.level.to_json() == want.level.to_json()
        else:
            assert got.certificate is None and got.level is None

    def test_every_outcome_is_covered(self):
        seen = set()
        for _, datum, N, max_degree, i_of_x in _scan_data():
            res = find_good_prime_full(datum, N, max_degree, i_of_x=i_of_x)
            seen |= {key for key, count in res.report.counters.items()
                     if count}
            if res.found:
                seen.add("accepted")
        assert seen == {"i", "ii", "iii", "iv", "unsupported", "accepted"}


class TestTransfer:
    def test_trivial_subfield_returns_prime(self):
        prime = prime_from_str("t^2+1", F3)
        datum = elliptic_datum(congruence_level(prime, 2))
        cert = is_good_prime(datum, prime)
        trivial = Extension.constant(F3, 1)
        res = transfer_good_prime(datum, trivial, cert)
        assert res.place.prime == prime
        assert res.place.residue_size == prime.residue_size

    def test_full_extension_returns_witness(self):
        prime = prime_from_str("t^2+1", F3)
        datum = elliptic_datum(congruence_level(prime, 2))
        cert = is_good_prime(datum, prime)
        ext2 = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
        res = transfer_good_prime(datum, ext2, cert)
        assert res.place.residue_size == prime.residue_size
        assert res.place.f == 1 and res.place.e == 1

    def test_constant_tower(self):
        # F in Constant(2) in Constant(4) over F_2, prime of degree 4
        ext4 = Extension.constant(F2, 4)
        prime = prime_from_str("t^4+t+1", F2)
        level = congruence_level(prime, 4)
        outer = SubvarietyDatum(ext4, 4, {}, level)
        cert = is_good_prime(outer, prime)
        assert isinstance(cert, GoodPrimeCertificate)
        inner = Extension.constant(F2, 2)
        res = transfer_good_prime(outer, inner, cert)
        assert res.place.residue_size == prime.residue_size == 16
        assert isinstance(res.certificate, GoodPrimeCertificate)

    def test_kummer_tower(self):
        # x^4 = a contains x^2 = a as the subfield generated by the square
        outer, cert = kummer_tower()
        F5, prime = outer.extension.base, cert.prime
        assert splitting(outer.extension, prime).degree_one_place() is not None
        assert isinstance(cert, GoodPrimeCertificate)
        inner_ext = Extension.kummer(F5, 2, poly_from_str("t", F5))
        res = transfer_good_prime(outer, inner_ext, cert)
        assert res.place.residue_size == prime.residue_size


class TestTransferRefusals:
    """The towers `transfer_good_prime` has no rule for are refused with
    `TowerNotSupported`, never answered."""

    def test_twisted_outer_prime(self):
        prime = prime_from_str("t^2+1", F3)
        datum = elliptic_datum(congruence_level(prime, 2))
        cert = is_good_prime(datum, prime)
        twisted = SubvarietyDatum(datum.extension, 2,
                                  {prime: diagonal_twist(prime, (0, 1))},
                                  datum.level)
        with pytest.raises(TowerNotSupported, match="standard twists"):
            transfer_good_prime(twisted, Extension.constant(F3, 1), cert)

    def test_kind_mismatch(self):
        prime = prime_from_str("t^2+1", F3)
        datum = elliptic_datum(congruence_level(prime, 2))
        cert = is_good_prime(datum, prime)
        with pytest.raises(TowerNotSupported,
                           match="constant is not a constructible subfield"):
            transfer_good_prime(datum, Extension.constant(F3, 2), cert)

    def test_inner_degree_must_divide_outer(self):
        prime = prime_from_str("t^4+t+1", F2)
        outer = SubvarietyDatum(Extension.constant(F2, 4), 4, {},
                                congruence_level(prime, 4))
        cert = is_good_prime(outer, prime)
        assert isinstance(cert, GoodPrimeCertificate)
        with pytest.raises(TowerNotSupported, match="does not divide"):
            transfer_good_prime(outer, Extension.constant(F2, 3), cert)

    def test_kummer_radicand_mismatch(self):
        outer, cert = kummer_tower()
        F5 = outer.extension.base
        inner = Extension.kummer(F5, 2, poly_from_str("t+1", F5))
        with pytest.raises(TowerNotSupported, match="share the radicand"):
            transfer_good_prime(outer, inner, cert)

    def test_witness_not_linear(self):
        # a certificate whose witness carries no linear factor over k(p)
        outer, cert = kummer_tower()
        F5 = outer.extension.base
        bare = cert._replace(witness=cert.witness._replace(factor=None))
        inner = Extension.kummer(F5, 2, poly_from_str("t", F5))
        assert transfer_good_prime(outer, inner, cert).place.f == 1
        with pytest.raises(TowerNotSupported, match="split linear place"):
            transfer_good_prime(outer, inner, bare)

    def test_no_rule_for_artin_schreier(self):
        prime = prime_from_str("t", F2)
        outer = SubvarietyDatum(
            Extension.artin_schreier(F2, poly_from_str("t^3", F2)), 2, {},
            congruence_level(prime, 2))
        cert = is_good_prime(outer, prime)
        assert isinstance(cert, GoodPrimeCertificate)
        inner = Extension.artin_schreier(F2, poly_from_str("t^3+1", F2))
        with pytest.raises(TowerNotSupported,
                           match="no tower rule for kind artin_schreier"):
            transfer_good_prime(outer, inner, cert)


class TestSameSubvariety:
    def test_reflexive(self):
        datum = elliptic_datum()
        assert same_subvariety(datum, datum, depth=2)

    def test_unit_twist_same(self):
        prime = prime_from_str("t^2+1", F3)
        ext = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
        u = LocalMatrix.from_polys(prime, [[poly_from_str("1", F3),
                                            poly_from_str("t", F3)],
                                           [poly_from_str("0", F3),
                                            poly_from_str("1", F3)]])
        x1 = SubvarietyDatum(ext, 2, {}, None)
        x2 = SubvarietyDatum(ext, 2, {prime: u}, None)
        assert same_subvariety(x1, x2, depth=2)

    def test_pi_twist_distinct_when_unstable(self):
        # diag(pi, 1) spans a different orbit: it is not even A'-stable
        prime = prime_from_str("t^2+1", F3)
        ext = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
        g = LocalMatrix.diagonal(prime, [LocalElement.pi_power(prime, 1),
                                         LocalElement.pi_power(prime, 0)])
        x1 = SubvarietyDatum(ext, 2, {}, None)
        x2 = SubvarietyDatum(ext, 2, {prime: g}, None)
        assert not same_subvariety(x1, x2, depth=2)

    def test_different_extensions_differ(self):
        x1 = elliptic_datum()
        ext = Extension.constant(F3, 2)
        x2 = SubvarietyDatum(ext, 2)
        assert not same_subvariety(x1, x2, depth=2)

    def test_inconclusive_below_depth(self):
        prime = prime_from_str("t^2+1", F3)
        ext = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
        g = LocalMatrix.diagonal(prime, [LocalElement.pi_power(prime, 1),
                                         LocalElement.pi_power(prime, 1)])
        x1 = SubvarietyDatum(ext, 2, {prime: g}, None)
        x2 = SubvarietyDatum(ext, 2, {prime: g}, None)
        with pytest.raises(Inconclusive):
            same_subvariety(x1, x2, depth=1)

    def test_negative_divisor_shifts_both_twists(self):
        # diag(pi^-1, 1) and the same lattice on another basis: both are
        # scaled by pi before the orbits are compared
        prime = prime_from_str("t^2+1", F3)
        ext = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
        g = diagonal_twist(prime, (-1, 0))
        u = LocalMatrix.from_polys(prime, [[poly_from_str("1", F3),
                                            poly_from_str("t", F3)],
                                           [poly_from_str("0", F3),
                                            poly_from_str("1", F3)]])
        x1 = SubvarietyDatum(ext, 2, {prime: g}, None)
        x2 = SubvarietyDatum(ext, 2, {prime: g @ u}, None)
        assert same_subvariety(x1, x2, depth=2)
        with pytest.raises(Inconclusive):
            same_subvariety(x1, x2, depth=1)
        x3 = SubvarietyDatum(ext, 2, {prime: diagonal_twist(prime, (0, 1))},
                             None)
        assert not same_subvariety(x1, x3, depth=2)


class TestCountComponents:
    def test_all_maximal(self):
        assert count_components(F2, LevelMap(2)) == 1
        assert count_components(F3, LevelMap(3)) == 1

    def test_depth1_at_t_over_f3(self):
        prime = prime_from_str("t", F3)
        level = congruence_level(prime, 2)
        assert count_components(F3, level) == 1

    def test_depth1_at_quadratic_over_f2(self):
        prime = prime_from_str("t^2+t+1", F2)
        level = congruence_level(prime, 2)
        assert count_components(F2, level) == 3

    def test_oracle_agreement(self):
        cases = [
            (F2, LevelMap(2)),
            (F3, congruence_level(prime_from_str("t", F3), 2)),
            (F2, congruence_level(prime_from_str("t^2+t+1", F2), 2)),
            (F2, LevelMap(2, {prime_from_str("t", F2):
                              LocalLevel("congruence", 2)})),
            (F3, LevelMap(2, {prime_from_str("t", F3):
                              LocalLevel("congruence", 1),
                              prime_from_str("t+1", F3):
                              LocalLevel("congruence", 1)})),
        ]
        for base, level in cases:
            assert count_components(base, level) == \
                count_components_enumerated(base, level)


class TestJsonRoundtrip:
    def test_datum_roundtrip(self):
        prime = prime_from_str("t^2+1", F3)
        ext = Extension.kummer(F3, 2, poly_from_str("t^3+2*t", F3))
        g = LocalMatrix.from_polys(prime, [[poly_from_str("1", F3),
                                            poly_from_str("t", F3)],
                                           [poly_from_str("0", F3),
                                            poly_from_str("1", F3)]])
        datum = SubvarietyDatum(ext, 2, {prime: g},
                                congruence_level(prime, 2))
        blob = datum.to_json()
        again = SubvarietyDatum.from_json(blob)
        assert again.to_json() == blob

    def test_matrix_entry_formats(self):
        prime = prime_from_str("t", F2)
        m = local_matrix_from_json(prime, [["1", {"num": "1", "den": "t"}],
                                           ["0", "t+1"]])
        assert certified_val(m.rows[0][1]) == -1
        blob = local_matrix_to_json(m)
        again = local_matrix_from_json(prime, blob)
        assert local_matrix_to_json(again) == blob
