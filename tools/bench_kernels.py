"""Microbenchmark of the layer-0, truncated-element and stabilizer kernels.

Times `LocalElement.mul` and `LocalElement.inv` on 50 seeded random
units at p = t over F_2, F_3 and F_4, at precisions 12 and 30; a cold
`primes_of_degree(F_5, 6)` (ms per call, caches cleared); `FiniteField.mul`
on 1000 seeded pairs in residue fields of 5^6 and 3^6 elements, above the
table limit; and `splitting_pattern` per prime for the Kummer extension
x^2 = t over F_5 on the 150 primes of degree 4, residue-field cache
cleared; `stabilizer_index` per call on a seeded sample of up to 40
saturated lattices of criterion 2's grid (exponent <= 4) per order, each
called 5 times per repeat; and `LocalMatrix.inverse` per call on 10
seeded invertible r x r matrices (r = 2, 3, 4) at p = t over F_2, F_3 and
F_4, at precisions 12 and 30.  Prints one JSON object: microseconds per
call (ms for the prime list), the median of 7 repeats.  Run it against
any checkout to compare two versions of the library:

    python3 tools/bench_kernels.py --src src
    python3 tools/bench_kernels.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from time import perf_counter

FIELDS = ((2, 1), (3, 1), (2, 2))
PRECISIONS = (12, 30)
UNITS = 50
REPEATS = 7
STABILIZER_SAMPLE = 40
STABILIZER_ROUNDS = 5
INVERSE_RANKS = (2, 3, 4)
INVERSE_SAMPLE = 10


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
                out[f"{op}|q={F.size}|prec={prec}"] = _median_time(run, UNITS, 1e6)
    out.update(_layer0_rows())
    out.update(_stabilizer_rows())
    out.update(_inverse_rows())
    print(json.dumps(out))


def _median_time(run, count: int, scale: float) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        run()
        times.append((perf_counter() - t0) / count * scale)
    return round(statistics.median(times), 2)


def _layer0_rows() -> dict:
    from drinlat import ffpoly
    from drinlat.extension import Extension, splitting_pattern
    from drinlat.ffpoly import (FiniteField, poly_from_str, primes_of_degree,
                                residue_field)

    out = {}
    F5 = FiniteField.of_order(5)

    def cold_primes():
        ffpoly._primes_of_degree_cached.cache_clear()
        primes_of_degree(F5, 6)
    out["primes_of_degree_ms|q=5|d=6"] = _median_time(cold_primes, 1, 1e3)

    for p in (5, 3):
        k = residue_field(primes_of_degree(FiniteField.of_order(p), 6)[0])
        rng = random.Random(f"field-mul:{k.size}")
        pairs = [(rng.randrange(k.size), rng.randrange(k.size))
                 for _ in range(1000)]
        out[f"field_mul|q={k.size}"] = _median_time(
            lambda: [k.mul(a, b) for a, b in pairs], len(pairs), 1e6)

    ext = Extension.kummer(F5, 2, poly_from_str("t", F5))
    primes = primes_of_degree(F5, 4)

    def patterns():
        residue_field.cache_clear()
        for prime in primes:
            splitting_pattern(ext, prime)
    out["splitting_pattern|kummer|q=5|n=2|a=t|d=4"] = _median_time(
        patterns, len(primes), 1e6)
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
        out[f"stabilizer_index|{name}"] = _median_time(
            lambda: [stabilizer_index(cols, order)
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
                out[f"inverse|q={F.size}|r={r}|prec={prec}"] = _median_time(
                    lambda: [m.inverse() for m in mats], len(mats), 1e6)
    return out


if __name__ == "__main__":
    main()
