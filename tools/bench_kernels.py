"""Microbenchmark of the truncated-element kernels (layers 0 and 1).

Times `LocalElement.mul` and `LocalElement.inv` on 50 seeded random
units at p = t over F_2, F_3 and F_4, at precisions 12 and 30, and
prints one JSON object: microseconds per call, the median of 7 repeats.
Run it against any checkout to compare two versions of the library:

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
                times = []
                for _ in range(REPEATS):
                    t0 = perf_counter()
                    run()
                    times.append((perf_counter() - t0) / UNITS * 1e6)
                out[f"{op}|q={F.size}|prec={prec}"] = round(statistics.median(times), 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
