"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py        # from the repository root

Each oracle must accept a correct answer and report a corrupted answer,
or an answer checked against a corrupted golden, as a failure.  One real
CLI process is run and compared with its golden output, then again with
one byte of the output and of the golden changed.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import checks  # noqa: E402
from run import CLI_CASES  # noqa: E402


def load_golden():
    out = {}
    for workload in ("lattice-census", "cli-readme"):
        with open(os.path.join(HERE, "golden", f"{workload}.json"),
                  encoding="utf-8") as fh:
            out[workload] = json.load(fh)
    return out


def item(key, answer, oracle=None, error=None):
    return {"key": key, "answer": answer, "oracle": oracle, "error": error,
            "t": 0.0}


GOOD = [
    item("H|conj|prec=12|q=3|d=2|r=2|depth=1", 9),
    item("U|r=3|prec=12|samples=4", [4, 4]),
    item("C|r=2|prec=12", ["t", "t^2+1", "1"], ["t", "t^2+1", "1"]),
    item("B|prec=30|0", False, [1, 2, 3]),
    item("B|prec=30|1", True, [0, 0, 0]),
    item("S|3|d=6|0|t^6+t+2", [[1, 1], [1, 1]], [[1, 1], [1, 1]]),
    item("G|exhaust-3|q=3|N=6|max_degree=4",
         {"found": False, "scanned": 32, "failed_total": 32,
          "accepted": None, "predegree": 100, "shrink_index": None}),
    item("G|accept-3|q=3|N=1|max_degree=3",
         {"found": True, "scanned": 4, "failed_total": 3,
          "accepted": "t^2+1", "predegree": 100, "shrink_index": 5760}),
    item("N|kummer|3|t^3+2*t", 4),
    item("N|artin_schreier|2|t^3", 3),
    item("E|constant|n=2||5|i=2", {"count": 10, "holds": True,
                                   "main_term": "25/2"}),
    item("E|kummer|n=2|t|5|i=3", {"count": 20, "holds": True,
                                  "main_term": "125/6"}),
]

# (index into GOOD, corrupted answer)
CORRUPT = [
    (0, 3), (1, [3, 4]), (2, ["t", "t^2", "1"]), (3, True), (4, False),
    (5, [[1, 2]]), (6, dict(GOOD[6]["answer"], scanned=31)),
    (7, dict(GOOD[7]["answer"], accepted="t^2+2")), (8, 5), (9, 4),
    (10, {"count": 9, "holds": True, "main_term": "25/2"}),
    (11, {"count": 20, "holds": False, "main_term": "125/6"}),
]


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.golden = load_golden()

    def test_correct_answers_pass(self):
        for it in GOOD:
            self.assertIsNone(checks.check_item(it, self.golden), it["key"])

    def test_corrupted_answers_fail(self):
        for idx, bad in CORRUPT:
            it = dict(GOOD[idx], answer=bad)
            self.assertIsNotNone(checks.check_item(it, self.golden),
                                 it["key"])

    def test_raised_and_oracle_errors_fail(self):
        it = dict(GOOD[0], error="PrecisionExhausted: boom")
        self.assertIsNotNone(checks.check_item(it, self.golden))
        it = dict(GOOD[3], oracle={"oracle_error": "Singular: boom"})
        self.assertIsNotNone(checks.check_item(it, self.golden))

    def lattice_items(self):
        table = self.golden["lattice-census"]["unramified cubic"]
        lid = next(k for k, v in table.items() if v[0] and v[1] > 1)
        sat, stab, gitter = table[lid]
        key = f"unramified cubic|{lid}"
        return lid, [item(f"L|sat|{key}", sat),
                     item(f"L|stab|{key}", stab, stab * 7),
                     item(f"L|gitter|{key}", gitter)]

    def test_lattice_golden(self):
        lid, items = self.lattice_items()
        for it in items:
            self.assertIsNone(checks.check_item(it, self.golden), it["key"])
        sat, stab, gitter = (it["answer"] for it in items)
        for it, bad in zip(items, (not sat, stab + 1, not gitter)):
            self.assertIsNotNone(
                checks.check_item(dict(it, answer=bad), self.golden))
        # the divisibility check catches an index that does not divide |GL|
        self.assertIsNotNone(checks.check_item(
            dict(items[1], oracle=stab * 7 + 1), self.golden))
        # a corrupted golden entry turns the same answers into failures
        bad_golden = copy.deepcopy(self.golden)
        bad_golden["lattice-census"]["unramified cubic"][lid] = \
            [not sat, stab + 1, not gitter]
        for it in items:
            self.assertIsNotNone(checks.check_item(it, bad_golden), it["key"])

    def test_cli_golden(self):
        name, args = CLI_CASES[0]
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_launch.py"),
             os.path.join(ROOT, "src"), "-", "-", "--"] + args,
            cwd=ROOT, capture_output=True, timeout=60)
        got = {"returncode": proc.returncode, "stdout": proc.stdout.decode(),
               "stderr": proc.stderr.decode()}
        self.assertIsNone(checks.check_cli(name, got, self.golden))
        flipped = dict(got, stdout=got["stdout"].replace("1", "2", 1))
        self.assertIsNotNone(checks.check_cli(name, flipped, self.golden))
        self.assertIsNotNone(checks.check_cli(
            name, dict(got, returncode=1), self.golden))
        bad_golden = copy.deepcopy(self.golden)
        want = bad_golden["cli-readme"][name]
        want["stdout"] = want["stdout"].replace("1", "2", 1)
        self.assertIsNotNone(checks.check_cli(name, got, bad_golden))


if __name__ == "__main__":
    unittest.main()
