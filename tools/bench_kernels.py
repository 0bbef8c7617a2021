"""Microbenchmark of the layer-0, truncated-element and stabilizer kernels.

Times `LocalElement.mul` and `LocalElement.inv` on 50 seeded random
units at p = t over F_2, F_3, F_4 and F_5, at precisions 12 and 30;
`Poly.__mul__` and `divmod` on 50 seeded pairs of polynomials of 3, 8
and 26 coefficients (divisors of half as many, at least 2, leading
coefficient arbitrary) over F_2, F_3, F_5 and F_9;
`LocalElement.inv` of the constant units of F_3 at p = t and of F_4 at
its first prime of degree 2, and `hecke_degree` of the standard matrix
diag(pi^-1, 1, ..., 1) at the three degree-1 primes of F_3 (r = 3) and
the six degree-2 primes of F_4 (r = 2), at precisions 12 and 30; a cold
`primes_of_degree(F_5, 6)` (ms per call, caches cleared); a cold residue
field k(p) of 64, 81, 243 and 256 elements, built with its log/exp tables
(ms per field); above the table limit, `FiniteField.mul` on 1000 seeded
pairs in residue fields of 5^6 and 3^6 elements and `FiniteField.inv` on
1000 seeded nonzero elements in residue fields of 5^4 and 3^6 elements;
`nth_root(a, r)` per call on 40 seeded nonzero r-th powers at the first
prime of each degree: r = 2 on a fresh `ResidueField` per call (its
non-residue search included) at 3^4, 3^6, 5^4, 9^2 and 9^3 elements, the
`places-scan` strata, and on the cached field r = 3 at 5^4 and 7^3, r = 5
at 3^4 and 9^2 and r = 7 at 3^6 and 9^3 (rows `nth_root|fresh|...` and
`nth_root|warm|...`);
`splitting_pattern` and `splitting` per prime for the Kummer extension
x^2 = t over F_5 on the 150 primes of degree 4, residue-field cache
cleared; `splitting` per prime at the first 20 split primes (more than
one place) of x^2 = t^3+t over F_5 at degree 4, x^4 = t^3+t+1 over F_5
at degree 3, y^2 + y = t^3 over F_2 at degrees 7 and 6, and the
constant quadratic extension of F_9 at degree 4, residue-field cache
cleared; the split-prime counts of criterion 7's 14 (extension, i) cases,
once by `count_split_primes` and once by the sieve
`count_split_primes_enumerated` (ms for all 14, prime-list and
residue-field caches cleared first); on either side of the rule that
sends a Kummer count to the sieve when deg a > i, the closed form
`_kummer_split_count` against the sieve for x^4 = a over F_5 at i = 5,
deg a = 5 and 7 (ms per count, same caches cleared); `stabilizer_index`
per call on a seeded sample of up to 40 saturated lattices of criterion
2's grid (exponent <= 4) per order, each called 5 times per repeat; on
the same grid, per order, `module_orbit_equal` per call on a seeded sample of up to 40 pairs of distinct lattices of equal
index, at the least depth k >= 1 with p^k inside both, and
`saturate_lattice` per call on a seeded sample of up to 40 unsaturated
lattices, each called 5 times per repeat (at the default budget, so
budget and precision refusals are timed too, as the library raises them);
on the census grid of `perfbench`'s `lattice-census` (criterion 2's orders,
Hermite sublattices of exponent <= 3), per order, `saturation_holds` per
call on every lattice, and per call the unit walk `_span_units` over the
basis of H mod p of every saturated lattice, at the depth
`stabilizer_index` uses; on the saturated lattices of the same grid, per
call, `smith_exponents` of the basis packed at the working precision (12)
and `smith_form_left` of the basis at the depth k = max(1, e_max) that
`stabilizer_index` uses, and, per order of criterion 2, `_multiplier_ring`
per call on the seeded sample of the `stabilizer_index` rows; the rank
over k(p) of 200 seeded 3 x 3 matrices over F_2 (bit rows) and F_3
(entry lists) at p = t, per matrix, by
`_residue_rank`;
`LocalMatrix.inverse` per call on 10 seeded invertible r x r matrices
(r = 2, 3, 4) at p = t over F_2, F_3, F_4 and F_5, at precisions 12 and
30; `LocalMatrix.elementary_divisors` per call on 10 seeded exact
conjugates k_1 diag(pi^-1, 1, ..., 1) k_2, k_i in GL_r(A) with entries of
degree <= 2 (rows `conj`: F_3 and F_4, the first prime of degree 1 and
of degree 2, r = 2 and 3, precisions 12 and 30; exact matrices take the
packed elimination), and on 10 seeded 3 x 3 matrices of ratios f/g at
p = t over F_3, precision 12 (row `ratio`: inexact entries, which take
`_snf_full`); `unboundedness_sample_check` per sample of a HeckeElement
at p = t over F_2 (r = 2-6, precisions 12 and 30) and at t^2+1 over F_3
(r = 2), and `char_poly` of seeded dense inexact r = 6 matrices at p = t
over F_2, precisions 12 and 30, and at t^2+1 over F_3, precision 12; the
carry-less product `_clmul` on 200 seeded pairs of 6, 12, 24 and 72
bits; `Poly.is_irreducible` on the first 20 irreducible
polynomials of degree 4 and 8 over F_2 and F_3;
cold good-prime scans (prime-list and residue-field caches cleared
first): `find_good_prime` on the README datum `perfbench/data/X.json`
(x^2 = t^3 - t over F_3, a twist at t, N = 3) at max degree 4 and 6, and `places-scan`'s `exhaust-2`
(x^2 + x = t^3 over F_2, N = 10, max degree 6); `order_at` at the
first split degree-4 prime of x^2 = t over F_5, caches cleared;
`zeta_numerator` per call, prime-list and residue-field caches cleared
before each (rows `zeta|...`), on x^2 = a over F_3 for a = t^7+2t+1,
t^9+t^2+2, t^11+t+2 and t^13+t+1 (genus 3, 4, 4 and 6), x^2 = a over
F_5 for a = t^5+t+2 and t^7+t+2 (genus 2 and 3), x^3 = t^4+t+3 over
F_7 (genus 3), y^2 + y = t^k + t over F_2 for k = 5, 7, 9, 11 and 13
(genus 2-6) and y^3 - y = t^4+t+1 over F_3 (genus 3); and the
CLI layer, each in a fresh interpreter: `import drinlat.cli`, and
`main(["thresholds", ...])` after that import, 15 of each, the two kinds
of process interleaved (ms); and, last, since it empties the field cache,
a cold `FiniteField.of_order(2, 32)` and `(13, 17)` (3 repeats, ms).
Prints one JSON object: per row the median and the minimum of 7 repeats,
in microseconds per call (ms for the prime list, the field builds, the
split counts, the scans and the CLI rows).  On a shared host the median of one run moves by
up to 1.7x between runs; the minimum is the steadier
figure.  Run it against any checkout to compare two versions of the
library:

    python3 tools/bench_kernels.py --src src
    python3 tools/bench_kernels.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import subprocess
import sys
from time import perf_counter

FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1))
PRECISIONS = (12, 30)
UNITS = 50
REPEATS = 7
COLD_FIELD_REPEATS = 3
# per-sample rows of the sampled unboundedness check: (q, prime, ranks)
SAMPLE_ROWS = ((2, "t", (2, 3, 4, 5, 6)), (3, "t^2+1", (2,)))
SAMPLES = 4
# char_poly rows of dense inexact r = 6 matrices: (q, prime, precision)
CHARPOLY_ROWS = ((2, "t", 12), (2, "t", 30), (3, "t^2+1", 12))
CLMUL_BITS = (6, 12, 24, 72)
STABILIZER_SAMPLE = 40
STABILIZER_ROUNDS = 5
INVERSE_RANKS = (2, 3, 4)
INVERSE_SAMPLE = 10
SPLIT_SAMPLE = 20
# (p, e) of the fields and the lengths of the Poly arithmetic rows
POLY_FIELDS = ((2, 1), (3, 1), (5, 1), (3, 2))
POLY_LENGTHS = (3, 8, 26)
POLY_PAIRS = 50
# (p, e, d, r) of the `nth_root` rows at the first prime of degree d over
# F_(p^e): r = 2 on the `places-scan` S| strata 3^4, 3^6, 5^4, 9^2 and
# 9^3, on a fresh residue field per call; odd r on the cached field
ROOT_ROWS = ((3, 1, 4, 2), (3, 1, 6, 2), (5, 1, 4, 2), (3, 2, 2, 2),
             (3, 2, 3, 2), (5, 1, 4, 3), (7, 1, 3, 3), (3, 1, 4, 5),
             (3, 2, 2, 5), (3, 1, 6, 7), (3, 2, 3, 7))
ROOT_SAMPLE = 40
# (extension, prime degree) of the cold split-prime `splitting` rows
SPLIT_ROWS = (
    ({"kind": "kummer", "n": 2, "a": "t^3+t", "base": "5"}, 4),
    ({"kind": "kummer", "n": 4, "a": "t^3+t+1", "base": "5"}, 3),
    ({"kind": "artin_schreier", "a": "t^3", "base": "2"}, 7),
    ({"kind": "artin_schreier", "a": "t^3", "base": "2"}, 6),
    ({"kind": "constant", "n": 2, "base": "3^2"}, 4),
)
# extensions of the cold `zeta_numerator` rows, genus 2-6
ZETA_ROWS = tuple(
    [{"kind": "kummer", "n": 2, "a": a, "base": "3"}
     for a in ("t^7+2*t+1", "t^9+t^2+2", "t^11+t+2", "t^13+t+1")]
    + [{"kind": "kummer", "n": 2, "a": a, "base": "5"}
       for a in ("t^5+t+2", "t^7+t+2")]
    + [{"kind": "kummer", "n": 3, "a": "t^4+t+3", "base": "7"}]
    + [{"kind": "artin_schreier", "a": f"t^{k}+t", "base": "2"}
       for k in (5, 7, 9, 11, 13)]
    + [{"kind": "artin_schreier", "a": "t^4+t+1", "base": "3"}])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", default="src")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from drinlat.ffpoly import FiniteField, Poly, prime_from_str
    from drinlat.localfield import LocalElement

    out = {}
    for p, e in FIELDS:
        F = FiniteField.of_order(p, e)
        prime = prime_from_str("t", F)
        for prec in PRECISIONS:
            rng = random.Random(f"kernels:{F.size}:{prec}")
            units = []
            for _ in range(UNITS):
                digits = [Poly(F, [rng.randrange(F.size)]) for _ in range(prec)]
                digits[0] = Poly(F, [rng.randrange(1, F.size)])
                units.append(LocalElement(prime, "n", 0, tuple(digits)))
            pairs = list(zip(units, units[1:] + units[:1]))
            for op, run in (("mul", lambda: [a.mul(b) for a, b in pairs]),
                            ("inv", lambda: [a.inv() for a in units])):
                out[f"{op}|q={F.size}|prec={prec}"] = _timing(run, UNITS, 1e6)
    out.update(_poly_rows())
    out.update(_constant_rows())
    out.update(_layer0_rows())
    out.update(_root_rows())
    out.update(_stabilizer_rows())
    out.update(_hom_rows())
    out.update(_census_rows())
    out.update(_smith_rows())
    out.update(_inverse_rows())
    out.update(_divisor_rows())
    out.update(_goodprime_rows())
    out.update(_zeta_rows())
    out.update(_cli_rows(args.src))
    out.update(_hecke_sample_rows())
    out.update(_clmul_rows())
    out.update(_irreducible_rows())
    out.update(_cold_field_rows())
    print(json.dumps(out))


def _timing(run, count: int, scale: float, repeats: int = REPEATS) -> dict:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        run()
        times.append((perf_counter() - t0) / count * scale)
    return {"median": round(statistics.median(times), 2),
            "min": round(min(times), 2)}


def _poly_rows() -> dict:
    """Products and divisions of dense polynomials over F_q."""
    from drinlat.ffpoly import FiniteField, Poly

    out = {}
    for p, e in POLY_FIELDS:
        F = FiniteField.of_order(p, e)
        for n in POLY_LENGTHS:
            rng = random.Random(f"poly:{F.size}:{n}")

            def poly(length):
                return Poly(F, [rng.randrange(F.size)
                                for _ in range(length - 1)]
                            + [rng.randrange(1, F.size)])
            pairs = [(poly(n), poly(n)) for _ in range(POLY_PAIRS)]
            divs = [(f, poly(max(2, n // 2))) for f, _ in pairs]
            out[f"poly_mul|q={F.size}|n={n}"] = _timing(
                lambda: [f * g for f, g in pairs], len(pairs), 1e6)
            out[f"poly_divmod|q={F.size}|n={n}"] = _timing(
                lambda: [divmod(f, g) for f, g in divs], len(divs), 1e6)
    return out


def _constant_rows() -> dict:
    """Inverses of the constant units c = 1, ..., q - 1 (the pivots of a
    standard Hecke matrix are 1), and `hecke_degree` of the standard matrix
    at every prime of the two `hecke-newton` block shapes."""
    from drinlat.ffpoly import FiniteField, Poly, primes_of_degree
    from drinlat.hecke import hecke_degree, standard_hecke_matrix
    from drinlat.localfield import LocalElement

    out = {}
    for (p, e), d, r in (((3, 1), 1, 3), ((2, 2), 2, 2)):
        F = FiniteField.of_order(p, e)
        primes = primes_of_degree(F, d)
        for prec in PRECISIONS:
            units = [LocalElement.from_poly(primes[0], Poly(F, [c]), prec)
                     for c in range(1, F.size)]
            out[f"inv_const|q={F.size}|p={primes[0]}|prec={prec}"] = _timing(
                lambda: [u.inv() for u in units], len(units), 1e6)
            mats = [standard_hecke_matrix(prime, r, prec) for prime in primes]
            out[f"hecke_degree|q={F.size}|d={d}|r={r}|prec={prec}"] = _timing(
                lambda: [hecke_degree(g) for g in mats], len(mats), 1e6)
    return out


def _layer0_rows() -> dict:
    from drinlat import bounds, ffpoly
    from drinlat.extension import (Extension, make_extension, splitting,
                                   splitting_pattern)
    from drinlat.ffpoly import (FiniteField, ResidueField, poly_from_str,
                                primes_of_degree, residue_field)

    out = {}
    F5 = FiniteField.of_order(5)

    def cold_primes():
        ffpoly._primes_of_degree_cached.cache_clear()
        primes_of_degree(F5, 6)
    out["primes_of_degree_ms|q=5|d=6"] = _timing(cold_primes, 1, 1e3)

    for p, d in ((2, 6), (3, 4), (3, 5), (2, 8)):
        prime = primes_of_degree(FiniteField.of_order(p), d)[0]
        out[f"residue_field_build_ms|q={p ** d}"] = _timing(
            lambda: ResidueField(prime).inv(1), 1, 1e3)

    for p in (5, 3):
        k = residue_field(primes_of_degree(FiniteField.of_order(p), 6)[0])
        rng = random.Random(f"field-mul:{k.size}")
        pairs = [(rng.randrange(k.size), rng.randrange(k.size))
                 for _ in range(1000)]
        out[f"field_mul|q={k.size}"] = _timing(
            lambda: [k.mul(a, b) for a, b in pairs], len(pairs), 1e6)

    for p, d in ((5, 4), (3, 6)):
        k = residue_field(primes_of_degree(FiniteField.of_order(p), d)[0])
        rng = random.Random(f"field-inv:{k.size}")
        units = [rng.randrange(1, k.size) for _ in range(1000)]
        out[f"field_inv|q={k.size}"] = _timing(
            lambda: [k.inv(a) for a in units], len(units), 1e6)

    ext = Extension.kummer(F5, 2, poly_from_str("t", F5))
    primes = primes_of_degree(F5, 4)
    for name, fn in (("splitting_pattern", splitting_pattern),
                     ("splitting", splitting)):
        def scan():
            residue_field.cache_clear()
            for prime in primes:
                fn(ext, prime)
        out[f"{name}|kummer|q=5|n=2|a=t|d=4"] = _timing(
            scan, len(primes), 1e6)

    for spec, degree in SPLIT_ROWS:
        ext = make_extension(spec)
        split = [prime for prime in primes_of_degree(ext.base, degree)
                 if prime not in ext.ram_support
                 and len(splitting_pattern(ext, prime)) > 1][:SPLIT_SAMPLE]

        def cold_split():
            residue_field.cache_clear()
            for prime in split:
                splitting(ext, prime)
        label = "|".join(f"{k}={v}" for k, v in spec.items() if k != "kind")
        out[f"splitting|split|{spec['kind']}|{label}|d={degree}"] = _timing(
            cold_split, len(split), 1e6)

    cases = []
    for spec in ({"kind": "constant", "n": 2, "base": "5"},
                 {"kind": "constant", "n": 2, "base": "2"},
                 {"kind": "constant", "n": 3, "base": "2"},
                 {"kind": "kummer", "n": 2, "a": "t", "base": "5"}):
        ext = make_extension(spec)
        cases += [(ext, i) for i in range(1, 7) if i % ext.const_degree == 0]
    for name, count in (("count_split_primes", bounds.count_split_primes),
                        ("count_split_primes_enumerated",
                         bounds.count_split_primes_enumerated)):
        def cold_counts():
            ffpoly._primes_of_degree_cached.cache_clear()
            residue_field.cache_clear()
            for ext, i in cases:
                count(ext, i)
        out[f"{name}_ms|criterion7|{len(cases)} cases"] = _timing(
            cold_counts, 1, 1e3)

    for a in (poly_from_str("t^5+t+2", F5), poly_from_str("t^7+t+2", F5)):
        ext = Extension.kummer(F5, 4, a)
        for name, count in (("closed", bounds._kummer_split_count),
                            ("sieve", bounds.count_split_primes_enumerated)):
            def cold_count():
                ffpoly._primes_of_degree_cached.cache_clear()
                residue_field.cache_clear()
                count(ext, 5)
            out[f"split_count_{name}_ms|kummer|q=5|n=4|deg a={a.degree}"
                f"|i=5"] = _timing(cold_count, 1, 1e3)
    return out


def _root_rows() -> dict:
    """`nth_root(a, r)` per call on seeded nonzero r-th powers (ROOT_ROWS):
    at r = 2 each call builds its own `ResidueField`, so the non-residue
    search is timed too, as `places-scan` meets it; at odd r the cached
    field has its non-residue and tables already."""
    from drinlat.ffpoly import (FiniteField, ResidueField, primes_of_degree,
                                residue_field)

    out = {}
    for p, e, d, r in ROOT_ROWS:
        prime = primes_of_degree(FiniteField.of_order(p, e), d)[0]
        k = residue_field(prime)
        rng = random.Random(f"root:{k.size}:{r}")
        powers = [k.pow(rng.randrange(1, k.size), r)
                  for _ in range(ROOT_SAMPLE)]
        if r == 2:
            def run():
                return [ResidueField(prime).nth_root(a, 2) for a in powers]
        else:
            k.nth_root(powers[0], r)

            def run():
                return [k.nth_root(a, r) for a in powers]
        kind = "fresh" if r == 2 else "warm"
        out[f"nth_root|{kind}|q={p ** e}|d={d}|r={r}"] = _timing(
            run, len(powers), 1e6)
    return out


def _stabilizer_rows() -> dict:
    from drinlat.acceptance import _gitter_structures
    from drinlat.localfield import (hermite_sublattices, saturation_holds,
                                    stabilizer_index)

    out = {}
    for name, order in _gitter_structures():
        lattices = [cols for _, cols in
                    hermite_sublattices(order.prime, order.r, 4)
                    if saturation_holds(order, cols)]
        rng = random.Random(f"stabilizer:{name}")
        sample = rng.sample(lattices, min(STABILIZER_SAMPLE, len(lattices)))
        out[f"stabilizer_index|{name}"] = _timing(
            lambda: [stabilizer_index(cols, order)
                     for _ in range(STABILIZER_ROUNDS) for cols in sample],
            STABILIZER_ROUNDS * len(sample), 1e6)
    return out


def _hom_rows() -> dict:
    from drinlat.acceptance import _gitter_structures
    from drinlat.errors import DrinlatError
    from drinlat.localfield import (Lattice, hermite_sublattices,
                                    module_orbit_equal, saturate_lattice,
                                    saturation_holds)

    def refused(fn, *args):
        try:
            fn(*args)
        except DrinlatError:
            pass

    out = {}
    for name, order in _gitter_structures():
        grid = [(sum(exps), cols, Lattice.from_poly_basis(order.prime, cols))
                for exps, cols in hermite_sublattices(order.prime, order.r, 4)]
        rng = random.Random(f"orbit:{name}")
        pairs = [(a, b, max(1, *la.elementary_divisors, *lb.elementary_divisors))
                 for ia, a, la in grid for ib, b, lb in grid
                 if ia == ib and a is not b]
        sample = rng.sample(pairs, min(STABILIZER_SAMPLE, len(pairs)))
        out[f"module_orbit_equal|{name}"] = _timing(
            lambda: [refused(module_orbit_equal, order, k, a, b)
                     for _ in range(STABILIZER_ROUNDS) for a, b, k in sample],
            STABILIZER_ROUNDS * len(sample), 1e6)
        rng = random.Random(f"saturate:{name}")
        lattices = [lat for _, cols, lat in grid
                    if not saturation_holds(order, cols)]
        sample = rng.sample(lattices, min(STABILIZER_SAMPLE, len(lattices)))
        out[f"saturate_lattice|{name}"] = _timing(
            lambda: [refused(saturate_lattice, order, lat)
                     for _ in range(STABILIZER_ROUNDS) for lat in sample],
            STABILIZER_ROUNDS * len(sample), 1e6)
    return out


def _census_rows() -> dict:
    """The k(p) layer of the census: saturation tests, unit walks and
    ranks."""
    from drinlat import localfield
    from drinlat.acceptance import _gitter_structures
    from drinlat.ffpoly import FiniteField, prime_from_str, residue_field
    from drinlat.localfield import (DEFAULT_BUDGET, _multiplier_ring,
                                    _residue_image, _span_units,
                                    hermite_sublattices, saturation_holds)

    out = {}
    for name, order in _gitter_structures():
        grid = [cols for _, cols in hermite_sublattices(order.prime, order.r, 3)]
        out[f"saturation_holds|{name}"] = _timing(
            lambda: [saturation_holds(order, cols) for cols in grid],
            len(grid), 1e6)
        kp = residue_field(order.prime)
        bases = []
        for cols in grid:
            if saturation_holds(order, cols):
                ring, hom, _, _ = _multiplier_ring(cols, order, None,
                                                   DEFAULT_BUDGET)
                bases.append(_residue_image(order, ring, *hom))
        out[f"span_units|{name}"] = _timing(
            lambda: [sum(1 for _ in _span_units(kp, order.r, basis))
                     for basis in bases], len(bases), 1e6)
    rank = localfield._residue_rank
    for q in (2, 3):
        kp = residue_field(prime_from_str("t", FiniteField.of_order(q)))
        rng = random.Random(f"rank:{q}")
        mats = [[[rng.randrange(q) for _ in range(3)] for _ in range(3)]
                for _ in range(200)]
        out[f"residue_rank|q={q}|r=3"] = _timing(
            lambda: [rank(kp, mat, 3) for mat in mats], len(mats), 1e6)
    return out


def _smith_rows() -> dict:
    """The pieces of `_multiplier_ring`: the divisors' elimination at the
    working precision and the transforms' at depth k, on the saturated
    lattices of the census grid, and the whole function per order of
    criterion 2."""
    from drinlat._chainring import ChainRing, smith_exponents, smith_form_left
    from drinlat.acceptance import _gitter_structures
    from drinlat.localfield import (DEFAULT_BUDGET, DEFAULT_PRECISION,
                                    Lattice, _lattice_columns_chain,
                                    _multiplier_ring, hermite_sublattices,
                                    saturation_holds)

    out = {}
    packed, reduced = [], []
    for _, order in _gitter_structures():
        for _, cols in hermite_sublattices(order.prime, order.r, 3):
            if not saturation_holds(order, cols):
                continue
            k = max(1, *Lattice.from_poly_basis(order.prime,
                                                cols).elementary_divisors)
            deep = ChainRing(order.prime, DEFAULT_PRECISION)
            packed.append((deep, list(zip(*_lattice_columns_chain(cols, deep)))))
            ring = ChainRing(order.prime, k)
            reduced.append((ring, _lattice_columns_chain(cols, ring)))
    out[f"smith_exponents|census|depth={DEFAULT_PRECISION}"] = _timing(
        lambda: [smith_exponents(ring, rows) for ring, rows in packed],
        len(packed), 1e6)
    out["smith_form_left|census|depth=k"] = _timing(
        lambda: [smith_form_left(ring, cols) for ring, cols in reduced],
        len(reduced), 1e6)
    for name, order in _gitter_structures():
        lattices = [cols for _, cols in
                    hermite_sublattices(order.prime, order.r, 4)
                    if saturation_holds(order, cols)]
        rng = random.Random(f"stabilizer:{name}")  # the same sample
        sample = rng.sample(lattices, min(STABILIZER_SAMPLE, len(lattices)))
        out[f"multiplier_ring|{name}"] = _timing(
            lambda: [_multiplier_ring(cols, order, None, DEFAULT_BUDGET)
                     for _ in range(STABILIZER_ROUNDS) for cols in sample],
            STABILIZER_ROUNDS * len(sample), 1e6)
    return out


def _inverse_rows() -> dict:
    from drinlat.errors import PrecisionExhausted, Singular
    from drinlat.ffpoly import FiniteField, Poly, prime_from_str
    from drinlat.localfield import LocalElement, LocalMatrix

    out = {}
    for p, e in FIELDS:
        F = FiniteField.of_order(p, e)
        prime = prime_from_str("t", F)
        for r in INVERSE_RANKS:
            for prec in PRECISIONS:
                rng = random.Random(f"inverse:{F.size}:{r}:{prec}")
                mats = []
                while len(mats) < INVERSE_SAMPLE:
                    # entries of degree <= 3, so valuations 0..3 occur
                    m = LocalMatrix(prime, [[LocalElement.from_poly(
                        prime, Poly(F, [rng.randrange(F.size)
                                        for _ in range(4)]), prec)
                        for _ in range(r)] for _ in range(r)])
                    try:
                        m.inverse()
                    except (Singular, PrecisionExhausted):
                        continue
                    mats.append(m)
                out[f"inverse|q={F.size}|r={r}|prec={prec}"] = _timing(
                    lambda: [m.inverse() for m in mats], len(mats), 1e6)
    return out


def _divisor_rows() -> dict:
    """Elementary divisors of exact Hecke conjugates and of a matrix of
    ratios."""
    from drinlat.errors import PrecisionExhausted, Singular
    from drinlat.ffpoly import FiniteField, Poly, primes_of_degree
    from drinlat.hecke import standard_hecke_matrix
    from drinlat.localfield import LocalElement, LocalMatrix

    def unimodular(prime, r, prec, rng):
        # a unit lower times a unit upper triangular matrix over A
        F = prime.field
        tri = [[[Poly.one(F) if i == j else
                 Poly(F, [rng.randrange(F.size) for _ in range(3)])
                 if (i > j) == lower else Poly.zero(F)
                 for j in range(r)] for i in range(r)]
               for lower in (True, False)]
        lo, up = (LocalMatrix.from_polys(prime, m, prec) for m in tri)
        return lo @ up

    out = {}
    for p, e in ((3, 1), (2, 2)):
        F = FiniteField.of_order(p, e)
        for d in (1, 2):
            prime = primes_of_degree(F, d)[0]
            for r in (2, 3):
                for prec in PRECISIONS:
                    rng = random.Random(f"divisors:{F.size}:{d}:{r}:{prec}")
                    core = standard_hecke_matrix(prime, r, prec)
                    mats = [unimodular(prime, r, prec, rng) @ core
                            @ unimodular(prime, r, prec, rng)
                            for _ in range(INVERSE_SAMPLE)]
                    out[f"elementary_divisors|conj|q={F.size}|d={d}|r={r}"
                        f"|prec={prec}"] = _timing(
                        lambda: [m.elementary_divisors() for m in mats],
                        len(mats), 1e6)
    F = FiniteField.of_order(3)
    prime = primes_of_degree(F, 1)[0]
    rng = random.Random("divisors:ratio")

    def ratio():
        num = Poly(F, [rng.randrange(3) for _ in range(3)])
        return LocalElement.from_ratio(prime, num, Poly(F, [1, 1, 2]), 12)

    mats = []
    while len(mats) < INVERSE_SAMPLE:
        m = LocalMatrix(prime, [[ratio() for _ in range(3)] for _ in range(3)])
        try:
            m.elementary_divisors()
        except (Singular, PrecisionExhausted):
            continue
        mats.append(m)
    out["elementary_divisors|ratio|q=3|d=1|r=3|prec=12"] = _timing(
        lambda: [m.elementary_divisors() for m in mats], len(mats), 1e6)
    return out


def _hecke_sample_rows() -> dict:
    """Unboundedness samples of a HeckeElement, per sample, and char_poly
    of dense inexact matrices, per call."""
    from drinlat.ffpoly import FiniteField, Poly, prime_from_str
    from drinlat.hecke import (HeckeElement, char_poly, standard_hecke_matrix,
                               unboundedness_sample_check)
    from drinlat.localfield import LocalElement, LocalMatrix

    out = {}
    for q, text, ranks in SAMPLE_ROWS:
        prime = prime_from_str(text, FiniteField.of_order(q))
        for prec in PRECISIONS:
            for r in ranks:
                elem = HeckeElement(prime, r,
                                    standard_hecke_matrix(prime, r, prec),
                                    LocalMatrix.identity(prime, r, prec),
                                    prime.residue_size ** (r - 1))
                out[f"unboundedness_sample|q={q}|p={text}|r={r}|prec={prec}"] \
                    = _timing(lambda: unboundedness_sample_check(
                        elem, SAMPLES, 0, prec), SAMPLES, 1e6)
    # one generator for all rows, the first row's matrices drawn first, so
    # that row keeps the matrices it had before the other rows were added
    rng = random.Random("char_poly:inexact")
    for q, text, prec in CHARPOLY_ROWS:
        F = FiniteField.of_order(q)
        prime = prime_from_str(text, F)

        def digit():
            return Poly(F, [rng.randrange(q) for _ in range(prime.degree)])

        def entry():
            # a unit of prec digits, leading digit 1, times pi^-1, pi^0 or
            # pi^1
            digits = [Poly(F, [1])] + [digit() for _ in range(prec - 1)]
            return LocalElement(prime, "n", rng.randrange(-1, 2),
                                tuple(digits))

        mats = [LocalMatrix(prime, [[entry() for _ in range(6)]
                                    for _ in range(6)]) for _ in range(5)]
        out[f"char_poly|q={q}|p={text}|r=6|prec={prec}|inexact"] = _timing(
            lambda: [char_poly(m) for m in mats], len(mats), 1e6)
    return out


def _clmul_rows() -> dict:
    from drinlat._chainring import _clmul

    out = {}
    for bits in CLMUL_BITS:
        rng = random.Random(f"clmul:{bits}")
        pairs = [(rng.getrandbits(bits) | 1 << (bits - 1),
                  rng.getrandbits(bits) | 1 << (bits - 1)) for _ in range(200)]
        out[f"clmul|bits={bits}"] = _timing(
            lambda: [_clmul(a, b) for a, b in pairs], len(pairs), 1e6)
    return out


def _irreducible_rows() -> dict:
    """The irreducibility test where it cannot stop early."""
    from drinlat.ffpoly import FiniteField, primes_of_degree

    out = {}
    for q in (2, 3):
        for d in (4, 8):
            polys = [p.poly for p in primes_of_degree(FiniteField.of_order(q),
                                                      d)[:20]]
            out[f"is_irreducible|q={q}|d={d}|irreducible"] = _timing(
                lambda: [f.is_irreducible() for f in polys], len(polys), 1e6)
    return out


def _cold_field_rows() -> dict:
    """Cold field builds (ms).  They empty the field cache, so they run
    after every other row."""
    from drinlat import ffpoly

    out = {}
    for p, e in ((2, 32), (13, 17)):
        def cold():
            ffpoly._field_of_order.cache_clear()
            ffpoly.FiniteField.of_order(p, e)
        out[f"field_of_order_ms|{p}^{e}"] = _timing(cold, 1, 1e3,
                                                     COLD_FIELD_REPEATS)
    return out


README_DATUM = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "data" / "X.json"


def _goodprime_rows() -> dict:
    from drinlat import ffpoly
    from drinlat.extension import (Extension, make_extension, order_at,
                                   splitting_pattern)
    from drinlat.ffpoly import FiniteField, poly_from_str, residue_field
    from drinlat.goodprime import SubvarietyDatum, find_good_prime

    def cold(run):
        def timed():
            ffpoly._primes_of_degree_cached.cache_clear()
            residue_field.cache_clear()
            run()
        return timed

    out = {}
    readme = SubvarietyDatum.from_json(json.loads(README_DATUM.read_text()))
    for max_degree in (4, 6):
        out[f"find_good_prime_ms|readme|N=3|max_degree={max_degree}"] = \
            _timing(cold(lambda: find_good_prime(readme, 3, max_degree)),
                    1, 1e3)
    exhaust = SubvarietyDatum(make_extension(
        {"kind": "artin_schreier", "a": "t^3", "base": "2"}), 2)
    out["find_good_prime_ms|exhaust-2|N=10|max_degree=6"] = _timing(
        cold(lambda: find_good_prime(exhaust, 10, 6, i_of_x=1)), 1, 1e3)

    F5 = FiniteField.of_order(5)
    ext = Extension.kummer(F5, 2, poly_from_str("t", F5))
    split = next(prime for prime in ffpoly.primes_of_degree(F5, 4)
                 if splitting_pattern(ext, prime) == ((1, 1), (1, 1)))
    out[f"order_at|kummer|q=5|n=2|a=t|split {split}"] = _timing(
        cold(lambda: order_at(ext, split, 1)), 1, 1e6)
    return out


def _zeta_rows() -> dict:
    """`zeta_numerator` per call on the ZETA_ROWS extensions, each call
    cold: the prime lists and residue fields it builds are timed too."""
    from drinlat import ffpoly
    from drinlat.extension import make_extension, zeta_numerator

    out = {}
    for spec in ZETA_ROWS:
        ext = make_extension(spec)

        def cold():
            ffpoly._primes_of_degree_cached.cache_clear()
            ffpoly.residue_field.cache_clear()
            zeta_numerator(ext)
        label = "|".join(f"{k}={v}" for k, v in spec.items() if k != "kind")
        out[f"zeta|{spec['kind']}|{label}|g={ext.genus}"] = _timing(
            cold, 1, 1e6)
    return out


CLI_ROUNDS = 15
CLI_ARGS = ["thresholds", "--r", "3", "--s", "2", "--kp", "2", "--degZ", "3"]
# A fresh interpreter imports drinlat.cli from argv[1], runs main(argv[2:])
# when given, and prints the seconds of the import, then of main, last.
CLI_PROBE = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
import drinlat.cli
t1 = perf_counter()
if sys.argv[2:]:
    drinlat.cli.main(sys.argv[2:])
print(t1 - t0, perf_counter() - t1)
"""


def _cli_probe(src: str, args) -> tuple:
    proc = subprocess.run([sys.executable, "-c", CLI_PROBE, src, *args],
                          capture_output=True, text=True, check=True)
    import_s, main_s = proc.stdout.splitlines()[-1].split()
    return float(import_s), float(main_s)


def _cli_rows(src: str) -> dict:
    """Medians of fresh processes, an import-only probe alternating with
    one that runs a command, so host drift reaches both rows alike."""
    imports, mains = [], []
    for _ in range(CLI_ROUNDS):
        imports.append(_cli_probe(src, [])[0])
        mains.append(_cli_probe(src, CLI_ARGS)[1])
    return {name: {"median": round(statistics.median(ts) * 1e3, 2),
                   "min": round(min(ts) * 1e3, 2)}
            for name, ts in (("cli_import_ms", imports),
                             (f"cli_main_ms|{' '.join(CLI_ARGS)}", mains))}


if __name__ == "__main__":
    main()
