import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st
from xpoly_oracle import parse_x_polynomial as oracle_parse_x_polynomial

import drinlat
from drinlat import errors, ffpoly
from drinlat.cli import COMMANDS, _parse_x_polynomial, build_parser, main
from drinlat.ffpoly import FiniteField, field_from_str, prime_from_str


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


class TestSpecExamples:
    def test_hecke_degree_example(self, capsys):
        data = run_json(["hecke-degree", "--q", "2", "--r", "2",
                         "--prime", "t"], capsys)
        assert data["degree"] == 2

    def test_components_maximal(self, capsys):
        data = run_json(["components", "--base", "2", "--level", "[]"], capsys)
        assert data["components"] == 1

    def test_components_quadratic_congruence(self, capsys):
        level = json.dumps([{"prime": "t^2+t+1", "kind": "congruence",
                             "depth": 1}])
        data = run_json(["components", "--base", "2", "--level", level], capsys)
        assert data["components"] == 3

    def test_newton_polygon_tsv(self, capsys):
        code, out, err = run_cli(["newton-polygon", "--poly", "x^2-(1/t)",
                                  "--prime", "t", "--q", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "segments=1"
        assert lines[0] == "1/2\t2"

    def test_newton_polygon_mixed_coefficient_forms(self, capsys):
        code, out, _ = run_cli(
            ["newton-polygon", "--poly", "x^3+t*x+(t+1)/(t^2)",
             "--prime", "t", "--q", "2", "--output", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        # points (0,-2), (1,1), (3,0): hull (0,-2) -> (3,0)
        assert data["segments"] == [{"slope": "2/3", "length": 3}]

    def test_newton_polygon_two_segments(self, capsys):
        code, out, err = run_cli(
            ["newton-polygon", "--poly", "x^2+((1+t)/t)*x+(1/t)",
             "--prime", "t", "--q", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "segments=2"
        assert lines[0] == "0\t1" and lines[1] == "1\t1"

    def test_cebotarev(self, capsys):
        data = run_json(["cebotarev", "--ext",
                         '{"kind":"constant","n":2,"base":"5"}',
                         "--i", "2"], capsys)
        assert data["count"] == 10
        assert data["main_term_exact"] == "25/2"
        assert data["holds"] is True
        assert abs(data["bound"] - 8.236) < 0.001

    def test_thresholds(self, capsys):
        data = run_json(["thresholds", "--r", "3", "--s", "2", "--kp", "2",
                         "--degZ", "3"], capsys)
        assert data["induction_threshold"] == 5184
        assert data["separable_N"] == 84


class TestCommands:
    def test_primes(self, capsys):
        data = run_json(["primes", "--q", "2", "--max-degree", "2"], capsys)
        assert data["primes"] == ["t", "t+1", "t^2+t+1"]

    def test_factor(self, capsys):
        data = run_json(["factor", "--q", "3", "--poly", "t^3+2*t"], capsys)
        assert data["factors"] == [["t", 1], ["t+1", 1], ["t+2", 1]]

    def test_splitting_tsv(self, capsys):
        code, out, _ = run_cli(
            ["splitting", "--ext", '{"kind":"kummer","n":2,"a":"t^3+2*t","base":"3"}',
             "--prime", "t^2+1", "--output", "tsv"], capsys)
        assert code == 0
        assert out.strip().splitlines() == ["1\t1", "1\t1"]

    def test_class_number(self, capsys):
        data = run_json(
            ["class-number", "--ext",
             '{"kind":"kummer","n":2,"a":"t^3+2*t","base":"3"}'], capsys)
        assert data["class_number"] == 4
        assert data["zeta_numerator"] == [1, 0, 3]

    def test_predegree(self, capsys):
        data = run_json(
            ["predegree", "--ext",
             '{"kind":"kummer","n":2,"a":"t^3+2*t","base":"3"}',
             "--i", "6"], capsys)
        assert data["predegree"] == 24

    def test_good_prime_found(self, capsys):
        datum = json.dumps({
            "extension": {"kind": "kummer", "n": 2, "a": "t^3+2*t",
                          "base": "3"},
            "r": 2})
        data = run_json(["good-prime", "--datum", datum, "--N", "1",
                         "--i-of-x", "25", "--max-degree", "3"], capsys)
        assert data["found"] is True
        assert data["certificate"]["prime"] == "t^2+1"
        assert data["shrink_index"] == 5760

    def test_good_prime_not_found_exit2(self, capsys):
        datum = json.dumps({
            "extension": {"kind": "kummer", "n": 2, "a": "t^3+2*t",
                          "base": "3"},
            "r": 2})
        code, out, err = run_cli(["good-prime", "--datum", datum, "--N", "1",
                                  "--max-degree", "2"], capsys)
        assert code == 2
        data = json.loads(out)
        assert data["found"] is False
        assert data["report"]["failed"]["i"] == 3

    def test_shrink_level(self, capsys):
        data = run_json(["shrink-level", "--q", "2", "--r", "2",
                         "--prime", "t"], capsys)
        assert data["index"] == 6
        assert data["level"][0]["kind"] == "congruence"

    def test_bounded_companion(self, capsys):
        data = run_json(["bounded", "--q", "2", "--prime", "t",
                         "--companion", "x^2-t"], capsys)
        assert data["bounded"] is True

    def test_bounded_matrix(self, capsys):
        matrix = json.dumps([[{"num": "1", "den": "t"}, "0"], ["0", "1"]])
        data = run_json(["bounded", "--q", "2", "--prime", "t",
                         "--matrix", matrix], capsys)
        assert data["bounded"] is False


class TestExitCodes:
    def test_malformed_poly_is_4(self, capsys):
        code, out, err = run_cli(["factor", "--q", "2", "--poly", "t^^"],
                                 capsys)
        assert code == 4
        assert json.loads(err)["error"]["kind"] == "malformed"

    def test_malformed_field_is_4(self, capsys):
        code, _, err = run_cli(["primes", "--q", "6"], capsys)
        assert code == 4

    def test_refusal_is_2(self, capsys):
        # x^4 = t^2 (t+1): multiplicity 2 at t gives gcd(4, 2) = 2, a mixed
        # ramified shape with no closed form
        ext = json.dumps({"kind": "kummer", "n": 4, "a": "t^3+t^2",
                          "base": "5"})
        code, _, err = run_cli(["splitting", "--ext", ext, "--prime", "t"],
                               capsys)
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "refusal"

    def test_budget_is_3(self, capsys):
        code, _, err = run_cli(["hecke-degree", "--q", "3", "--r", "3",
                                "--prime", "t", "--orbit-budget", "5"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "budget"

    def test_uncertified_constant_term_is_2(self, capsys):
        # det = t^20/(t+1)^2 is O(pi^12) at precision 12 and the trace is a
        # unit, so boundedness cannot be decided
        matrix = json.dumps([[{"num": "1", "den": "t+1"},
                              {"num": "1", "den": "t+1"}],
                             [{"num": "1", "den": "t+1"},
                              {"num": "t^20+1", "den": "t+1"}]])
        code, out, err = run_cli(["bounded", "--q", "3", "--prime", "t",
                                  "--matrix", matrix], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "refusal"
        assert error["type"] == "PrecisionExhausted"

    def test_internal_fault_is_5(self, capsys, monkeypatch):
        # a library invariant check raises AssertionError explicitly
        def broken(*args, **kwargs):
            raise AssertionError("orbit-stabilizer must divide")

        monkeypatch.setattr("drinlat.cli.hecke_degree", broken)
        code, out, err = run_cli(["hecke-degree", "--q", "2", "--r", "2",
                                  "--prime", "t"], capsys)
        assert code == 5 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "AssertionError", "kind": "internal",
                         "message": "orbit-stabilizer must divide"}

    def test_invariant_error_is_5(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise errors.InvariantError("orbit-stabilizer must divide")

        monkeypatch.setattr("drinlat.cli.hecke_degree", broken)
        code, out, err = run_cli(["hecke-degree", "--q", "2", "--r", "2",
                                  "--prime", "t"], capsys)
        assert code == 5 and out == ""
        assert json.loads(err)["error"] == {
            "type": "InvariantError", "kind": "internal",
            "message": "orbit-stabilizer must divide"}

    def test_library_value_error_is_5(self, capsys, monkeypatch):
        # a ValueError from the library is a fault, not malformed input
        def broken(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setattr("drinlat.cli.hecke_degree", broken)
        code, out, err = run_cli(["hecke-degree", "--q", "2", "--r", "2",
                                  "--prime", "t"], capsys)
        assert code == 5 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "kind": "internal",
            "message": "math domain error"}

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["hecke-degree", "--help"])
        assert info.value.code == 0
        assert "--depth" in capsys.readouterr().out

    def test_inapplicable_degree_is_2(self, capsys):
        code, _, err = run_cli(["cebotarev", "--ext",
                                '{"kind":"constant","n":2,"base":"5"}',
                                "--i", "3"], capsys)
        assert code == 2


EXT = {"kind": "kummer", "n": 2, "a": "t^3+2*t", "base": "3"}
MISSING = "@" + str(pathlib.Path(__file__).parent / "no-such-file.json")
MALFORMED_INPUTS = {
    "matrix-file-missing": ["hecke-degree", "--q", "2", "--r", "2",
                            "--prime", "t", "--matrix", MISSING],
    "config-file-missing": ["thresholds", "--r", "2", "--s", "1",
                            "--kp", "2", "--degZ", "1",
                            "--config", MISSING[1:]],
    "ext-not-an-object": ["class-number", "--ext", "[1,2]"],
    "poly-zero-denominator": ["newton-polygon", "--q", "2", "--prime", "t",
                              "--poly", "x^2-(1/0)"],
    "poly-bad-exponent": ["newton-polygon", "--q", "2", "--prime", "t",
                          "--poly", "x^a"],
    "poly-signs-only": ["newton-polygon", "--q", "2", "--prime", "t",
                        "--poly", "+-"],
    "companion-zero-denominator": ["bounded", "--q", "2", "--prime", "t",
                                   "--companion", "x^2-(t/(t+t))"],
    "matrix-zero-denominator": [
        "bounded", "--q", "2", "--prime", "t", "--matrix",
        '[[{"num": "1", "den": "0"}, "0"], ["0", "1"]]'],
    "degree-0": ["primes", "--q", "2", "--degree", "0"],
    "degree-negative": ["primes", "--q", "2", "--degree", "-1"],
    "r-0": ["hecke-degree", "--q", "2", "--r", "0", "--prime", "t"],
    "max-degree-0": ["good-prime", "--datum",
                     json.dumps({"extension": EXT, "r": 2}), "--N", "1",
                     "--max-degree", "0"],
    "depth-0": ["hecke-degree", "--q", "2", "--r", "2", "--prime", "t",
                "--depth", "0"],
    "unknown-flag": ["primes", "--q", "2", "--bogus"],
    "unknown-command": ["bogus"],
    "r-not-an-integer": ["hecke-degree", "--q", "2", "--r", "two",
                         "--prime", "t"],
    "ext-missing-key": ["class-number", "--ext",
                        json.dumps({"kind": "kummer", "n": 2, "base": "3"})],
    "ext-bad-integer": ["class-number", "--ext",
                        json.dumps({**EXT, "n": "two"})],
    "ext-poly-not-a-string": ["class-number", "--ext",
                              json.dumps({**EXT, "a": 5})],
    "ext-bad-json": ["class-number", "--ext", "{nope"],
    "datum-missing-key": ["good-prime", "--datum",
                          json.dumps({"extension": EXT}), "--N", "1"],
    "datum-bad-integer": ["good-prime", "--datum",
                          json.dumps({"extension": EXT, "r": "two"}),
                          "--N", "1"],
    "datum-twist-missing-key": [
        "good-prime", "--datum",
        json.dumps({"extension": EXT, "r": 2, "twists": [{"prime": "t"}]}),
        "--N", "1"],
    "level-missing-key": ["components", "--base", "2", "--level",
                          json.dumps([{"kind": "congruence"}])],
    "level-bad-integer": ["components", "--base", "2", "--level",
                          json.dumps([{"prime": "t", "depth": "deep"}])],
    "level-not-a-list": ["shrink-level", "--q", "2", "--r", "2",
                         "--prime", "t", "--level", "7"],
    "predegree-index-zero": ["predegree", "--ext", json.dumps(EXT),
                             "--i", "0"],
    "predegree-index-negative": ["predegree", "--ext", json.dumps(EXT),
                                 "--i", "-2"],
    "good-prime-negative-N": ["good-prime", "--datum",
                              json.dumps({"extension": EXT, "r": 2}),
                              "--N", "-1", "--i-of-x", "25"],
}


class TestMalformedInput:
    """Bad outside input exits 4 with one JSON object on stderr."""

    @pytest.mark.parametrize("argv", MALFORMED_INPUTS.values(),
                             ids=MALFORMED_INPUTS.keys())
    def test_exits_4(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 4 and out == ""
        payload = json.loads(err)
        assert payload["error"]["kind"] == "malformed"
        assert payload["error"]["type"] == "MalformedInput"


def _concrete_errors(cls=errors.DrinlatError):
    for sub in cls.__subclasses__():
        if sub not in (errors.InputError, errors.Refusal):
            yield sub
        yield from _concrete_errors(sub)


class TestErrorCategories:
    def test_each_error_in_one_category(self):
        found = list(_concrete_errors())
        assert len(found) == 18
        for cls in found:
            assert sum(issubclass(cls, cat) for cat in (
                errors.InputError, errors.Refusal,
                errors.BudgetExceeded)) == 1, cls


X_TEXT = st.text(alphabet="x^t()+-*/0123", max_size=16)
COEFFICIENT = st.sampled_from(
    ["", "1", "2", "t", "t^2+1", "(t+1)", "(1/t)", "((1+t)/t)",
     "(t+1)/(t^2)", "t*", "(t^3-t)/(t+2)", "((t))", "(1/(t+t))"])
X_TERM = st.tuples(st.sampled_from(["", "+", "-", "--", "-+-"]), COEFFICIENT,
                   st.sampled_from(["", "x", "*x", "x^2", "*x^3", "x^0"]))
X_POLY = st.lists(X_TERM, min_size=1, max_size=4).map(
    lambda terms: "".join(a + b + c for a, b, c in terms))
X_PRIMES = [prime_from_str("t", FiniteField.of_order(2)),
            prime_from_str("t+1", FiniteField.of_order(3))]


def _parse_outcome(parse, text, prime):
    try:
        return [c.to_json() for c in parse(text, prime, 12)]
    except Exception as exc:
        # the CLI wraps a bare ValueError or ZeroDivisionError
        cause = exc.__cause__ or exc
        return type(cause).__name__, str(cause)


class TestXPolynomialAgainstOracle:
    """The one-scanner x-polynomial parser against the per-task loops it
    replaced: equal coefficients, or the same error."""

    @pytest.mark.parametrize("prime", X_PRIMES, ids=str)
    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(X_TEXT, X_POLY))
    def test_same_outcome(self, prime, text):
        # a long digit run is a huge exponent, and both parsers would
        # build its dense coefficient list
        assume(not re.search(r"\d{4}", text))
        assert _parse_outcome(_parse_x_polynomial, text, prime) == \
            _parse_outcome(oracle_parse_x_polynomial, text, prime)


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, capsys):
        args = ["cebotarev", "--ext", '{"kind":"constant","n":2,"base":"2"}',
                "--i", "4"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_config_echoed(self, capsys):
        data = run_json(["thresholds", "--r", "2", "--s", "1", "--kp", "2",
                         "--degZ", "1", "--seed", "9"], capsys)
        assert data["config"]["seed"] == 9
        assert data["schema"] == 1

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "precision": 16}))
        data = run_json(["thresholds", "--r", "2", "--s", "1", "--kp", "2",
                         "--degZ", "1", "--config", str(cfg)], capsys)
        assert data["config"]["seed"] == 5
        assert data["config"]["precision"] == 16

    def test_datum_roundtrip_fixpoint(self, capsys):
        from drinlat.goodprime import SubvarietyDatum
        datum = {
            "schema": 1,
            "extension": {"kind": "kummer", "n": 2, "a": "t^3+2*t",
                          "base": "3"},
            "r": 2,
            "twists": [],
            "level": [{"prime": "t^2+1", "kind": "congruence", "depth": 1}],
        }
        once = SubvarietyDatum.from_json(datum).to_json()
        twice = SubvarietyDatum.from_json(once).to_json()
        assert once == twice


class TestEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "drinlat.cli", "thresholds", "--r", "2",
             "--s", "0", "--kp", "2", "--degZ", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["separable_N"] == 8

    def test_closed_stdout_exits_1_without_payload(self):
        # the read end is closed before the command writes, as when
        # `| head -c 120` has exited: exit 1, nothing on stderr
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "drinlat.cli", "factor", "--q", "2",
                 "--poly", "t^20000"],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


SRC = str(pathlib.Path(drinlat.__file__).resolve().parents[1])
CHOICES = ("'primes', 'factor', 'splitting', 'class-number', 'predegree', "
           "'hecke-degree', 'newton-polygon', 'bounded', 'good-prime', "
           "'shrink-level', 'components', 'cebotarev', 'thresholds', "
           "'verify-suite'")


class TestParserPerCommand:
    """`main` builds only the sub-parser its first argument names; help
    and usage errors read as from the full parser."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_matches_full_parser(self, command, capsys):
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args([command, "--help"])
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as own:
            main([command, "--help"])
        got = capsys.readouterr()
        assert own.value.code == full.value.code == 0
        assert got.out == want.out and got.err == want.err == ""

    @pytest.mark.parametrize("argv, message", [
        (["bogus"], f"argument command: invalid choice: 'bogus' "
                    f"(choose from {CHOICES})"),
        ([], "the following arguments are required: command"),
        (["--output", "json", "primes", "--q", "2"],
         f"argument command: invalid choice: 'json' (choose from {CHOICES})"),
        (["primes"], "the following arguments are required: --q"),
        (["primes", "--q", "2", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["unknown", "missing", "flag-first", "missing-flag",
            "unknown-flag"])
    def test_usage_errors(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (4, "")
        assert json.loads(err) == {"schema": 1, "error": {
            "type": "MalformedInput", "kind": "malformed",
            "message": message}}

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS)

    def test_import_leaves_out_dataclasses(self):
        # importing `dataclasses` and applying it took about half of
        # `import drinlat.cli`; -S keeps site hooks out of the check
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, drinlat.cli; print(sorted({'dataclasses', "
             "'inspect'} & set(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# Runs argv in a child whose address space is capped, so a parser that
# allocates before checking fails fast instead of exhausting memory, and
# prints how long `main` took.
_CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from drinlat.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - t0)
sys.exit(code)
"""


class TestExponentBound:
    @pytest.mark.parametrize("argv", [
        ["factor", "--q", "2", "--poly", "t^100000000"],
        ["newton-polygon", "--q", "2", "--prime", "t",
         "--poly", "x^100000000"],
        ["bounded", "--q", "2", "--prime", "t",
         "--companion", "x^100000000+t"],
    ], ids=["t", "x", "companion"])
    def test_huge_exponent_exits_4_at_once(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_MAIN, *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["kind"] == "malformed"
        assert "exponent 100000000 exceeds" in error["message"]
        assert float(proc.stdout) < 1.0

    def test_large_exponent_below_the_bound_still_factors(self, capsys):
        data = run_json(["factor", "--q", "2", "--poly", "t^200000"], capsys)
        assert data["factors"] == [["t", 200000]]


GENUS_9_OVER_F7 = ('{"kind": "artin_schreier", '
                   '"a": "10*t^4+1*t^3+10*t^2+10*t+2", "base": "7"}')


class TestFieldAndSieveBounds:
    """An oversized field is malformed input (exit 4) before its
    characteristic is tested for primality, and an oversized prime sieve
    or place count is over budget (exit 3) before it allocates."""

    @pytest.mark.parametrize("argv,code,message,seconds", [
        (["primes", "--q", "2^40", "--degree", "1"], 3,
         "a sieve of 1099511627776^1 polynomials exceeds 1048576", 2.0),
        (["primes", "--q", "2", "--degree", "40"], 3,
         "a sieve of 2^40 polynomials exceeds 1048576", 1.0),
        (["primes", "--q", "2305843009213693951", "--degree", "1"], 4,
         "characteristic 2305843009213693951 exceeds 65536", 1.0),
        (["primes", "--q", "2^100000", "--degree", "1"], 4,
         "field order 2^100000 exceeds 2^64", 1.0),
        # 2^20 degree-1 primes are over the place budget of 10^6
        (["class-number", "--ext",
          '{"kind":"kummer","n":3,"a":"t^2+t+1","base":"2^20"}'], 3,
         "enumerating primes of degree up to 1 exceeds the budget", 1.0),
        # genus 9 over F_7: the degree-8 primes are over the budget, and
        # counting degrees 1-7 before the refusal would take 17 s
        (["class-number", "--ext", GENUS_9_OVER_F7], 3,
         "enumerating primes of degree up to 8 exceeds the budget", 1.0),
        (["predegree", "--i", "1", "--ext", GENUS_9_OVER_F7], 3,
         "enumerating primes of degree up to 8 exceeds the budget", 1.0),
    ], ids=["order-2^40", "degree-40", "characteristic-2^61-1",
            "order-2^100000", "class-number-2^20", "class-number-genus-9",
            "predegree-genus-9"])
    def test_oversized_input_is_refused_at_once(self, argv, code, message,
                                                 seconds):
        # building F_(2^40) itself takes about 0.6 s of the first case
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_MAIN, *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["kind"] == ("budget" if code == 3 else "malformed")
        assert message in error["message"]
        assert float(proc.stdout) < seconds

    def test_unsupported_ramified_prime_comes_before_the_budget(self, capsys):
        # a = t^2 (t^7+t+1) over F_5, genus 10: the degree-9 primes are
        # over the budget, but a scan degree by degree meets the mixed
        # tame prime t first, so that refusal stands
        ext = '{"kind": "kummer", "n": 4, "a": "t^9+t^3+t^2", "base": "5"}'
        code, out, err = run_cli(["class-number", "--ext", ext], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "UnsupportedRamifiedPrime"
        assert error["message"] == "no closed form for the ramified prime t"

    def test_kummer_splitting_over_a_large_field_answers_at_once(self):
        # the roots of unity came from a walk over all of F_q: 5.4 s
        # over F_(2^16), and over F_(2^20) it was stopped after 10 s
        ext = '{"kind":"kummer","n":3,"a":"t","base":"2^20"}'
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_MAIN, "splitting", "--ext", ext,
             "--prime", "t+1"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        payload, seconds = proc.stdout.splitlines()
        assert json.loads(payload)["places"] == [{"e": 1, "f": 1}] * 3
        assert float(seconds) < 1.0

    def test_huge_characteristic_digits_are_malformed(self, capsys):
        code, out, err = run_cli(["primes", "--q", "1" + "0" * 5000], capsys)
        assert code == 4 and out == ""
        assert json.loads(err)["error"]["kind"] == "malformed"

    def test_field_bounds_are_inclusive(self):
        assert ffpoly.MAX_FIELD_ORDER == 2 ** 64
        assert field_from_str("65521").size == 65521  # largest prime <= 2^16
        assert field_from_str("3^40").size == 3 ** 40  # 3^40 < 2^64 < 3^41
        with pytest.raises(errors.MalformedInput, match="exceeds 65536"):
            field_from_str(str(ffpoly.MAX_CHARACTERISTIC + 1))
        with pytest.raises(errors.MalformedInput, match="3\\^41 exceeds"):
            field_from_str("3^41")

    def test_sieve_bound_is_inclusive(self, monkeypatch):
        # the uncached sieve, under a bound of 16 indices
        monkeypatch.setattr(ffpoly, "MAX_SIEVE_SIZE", 16)
        sieve = ffpoly._primes_of_degree_cached.__wrapped__
        F2, F4 = FiniteField.of_order(2), FiniteField.of_order(2, 2)
        assert len(sieve(F2, 4)) == 3 and len(sieve(F4, 2)) == 6
        for field, d in ((F2, 5), (F4, 3), (FiniteField.of_order(17), 1)):
            with pytest.raises(errors.BudgetExceeded, match="exceeds 16"):
                sieve(field, d)

    def test_largest_field_still_answers(self, capsys):
        data = run_json(["components", "--base", "2^64"], capsys)
        assert data["components"] == 1


REPO = pathlib.Path(__file__).resolve().parents[1]


def _readme_cases() -> list:
    """`CLI_CASES` of perfbench/run.py, a literal read off its source (as
    tools/reach.py reads it), so the benchmark is not imported."""
    import ast
    path = REPO / "perfbench" / "run.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CLI_CASES"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CLI_CASES in {path}")


def _launch(*args):
    """One fresh `perfbench/cli_launch.py` process, untraced and
    uncalibrated, as the `cli-readme` workload starts it; -B keeps it from
    writing bytecode under perfbench/."""
    return subprocess.run(
        [sys.executable, "-B", str(REPO / "perfbench" / "cli_launch.py"),
         SRC, "-", "-", "--", *args],
        cwd=REPO, capture_output=True, timeout=120)


class TestReadmeGoldens:
    """Every `cli-readme` command matches `perfbench/golden/cli-readme.json`
    byte for byte: stdout, stderr and exit code."""

    GOLDEN = json.loads((REPO / "perfbench" / "golden" / "cli-readme.json")
                        .read_text(encoding="utf-8"))

    @pytest.mark.parametrize("name,args", [
        pytest.param(name, args, id=name) for name, args in _readme_cases()])
    def test_command_matches_its_golden(self, name, args):
        proc = _launch(*args)
        want = self.GOLDEN[name]
        assert proc.stdout.decode() == want["stdout"]
        assert proc.stderr.decode() == want["stderr"]
        assert proc.returncode == want["returncode"]

    def test_import_only_probe_is_silent(self):
        proc = _launch()
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
