"""Record the golden answers the benchmark checks against.

    python3 perfbench/record_golden.py      # from the repository root

Writes perfbench/golden/lattice-census.json (saturation, stabilizer index
and Gitter bound of every Hermite sublattice in the census, computed on
its Hermite basis, keyed by structure and "exponents#n") and
perfbench/golden/cli-readme.json (exit code, stdout and stderr of every
README command).  The committed files were recorded at the commit that
introduced the benchmark; re-record only when an answer is meant to
change, and say so in the change.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)


def lattice_table():
    from drinlat.ffpoly import FiniteField, prime_from_str
    from drinlat.localfield import (gitter_bound_check, hermite_sublattices,
                                    saturation_holds, stabilizer_index)
    from workloads import BUDGET, LATTICE_MAX_EXP, gitter_structures
    T2 = prime_from_str("t", FiniteField.of_order(2))
    table = {}
    for name, order in gitter_structures(T2):
        rows = table[name] = {}
        seen = {}
        for exps, cols in hermite_sublattices(T2, order.r, LATTICE_MAX_EXP):
            n = seen.get(exps, 0)
            seen[exps] = n + 1
            lid = f"{','.join(map(str, exps))}#{n}"
            if saturation_holds(order, cols):
                rows[lid] = [True, stabilizer_index(cols, order, None, BUDGET),
                             gitter_bound_check(cols, order, None, BUDGET)]
            else:
                rows[lid] = [False, None, None]
    return table


def cli_table():
    from run import CLI_CASES
    table = {}
    for name, args in CLI_CASES:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_launch.py"), SRC, "-",
             "-", "--"] + args, cwd=ROOT, capture_output=True)
        table[name] = {"returncode": proc.returncode,
                       "stdout": proc.stdout.decode(),
                       "stderr": proc.stderr.decode()}
    return table


def main():
    out_dir = os.path.join(HERE, "golden")
    os.makedirs(out_dir, exist_ok=True)
    for workload, build in (("lattice-census", lattice_table),
                            ("cli-readme", cli_table)):
        with open(os.path.join(out_dir, f"{workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(build(), fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
