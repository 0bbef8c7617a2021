"""Batch command-line surface.

One command per invocation, deterministic output for a given
(args, config, seed).  Reports are JSON on stdout with the config echoed
verbatim; errors are machine-readable JSON on stderr, with the exit code
given by the error's category (see `errors`): 2 refusal (or nothing
found), 3 budget exceeded, 4 malformed input (usage errors included) and
5 internal fault, any exception outside the three library categories.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import errors
from .acceptance import DEFAULT_CONFIG, run_all
from .bounds import cebotarev_check, induction_threshold, separable_N
from .extension import Extension, class_number, splitting, zeta_numerator
from .ffpoly import (exponent_from_str, field_from_str, poly_factor,
                     poly_from_str, poly_to_str, prime_from_str,
                     enumerate_primes, primes_of_degree)
from .goodprime import (LevelMap, SubvarietyDatum, count_components,
                        find_good_prime, local_matrix_from_json,
                        shrink_level)
from .hecke import (companion_matrix, hecke_degree, newton_polygon,
                    projectively_bounded, standard_hecke_matrix)
from .localfield import LocalElement

SCHEMA = 1


def _load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    path = args.config or os.environ.get("DRINLAT_CONFIG")
    with errors.decoding("config"):
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            for key in DEFAULT_CONFIG:
                if key in data:
                    cfg[key] = data[key]
        for key in DEFAULT_CONFIG:
            val = getattr(args, key, None)
            if val is not None:
                cfg[key] = val
        if cfg["output"] not in ("json", "tsv"):
            raise errors.MalformedInput("output must be json or tsv")
        for key in ("precision", "orbit_budget", "scan_max_degree"):
            if int(cfg[key]) < 1:
                raise errors.MalformedInput(f"config {key} must be positive")
            cfg[key] = int(cfg[key])
        cfg["seed"] = int(cfg["seed"])
    return cfg


def _inline_or_file(text: str):
    with errors.decoding("JSON argument"):
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)


def _emit(payload: dict, cfg: dict) -> None:
    payload = {"schema": SCHEMA, "config": cfg, **payload}
    print(json.dumps(payload, sort_keys=True))


def _emit_tsv(lines) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# Command handlers


def cmd_primes(args, cfg) -> int:
    field = field_from_str(args.q)
    if args.degree is not None:
        primes = primes_of_degree(field, args.degree)
    else:
        primes = enumerate_primes(field, args.max_degree)
    names = [poly_to_str(p.poly) for p in primes]
    if cfg["output"] == "tsv":
        _emit_tsv(names)
    else:
        _emit({"primes": names, "count": len(names)}, cfg)
    return 0


def cmd_factor(args, cfg) -> int:
    field = field_from_str(args.q)
    f = poly_from_str(args.poly, field)
    factors = poly_factor(f)
    payload = {"unit": f.lead(),
               "factors": [[poly_to_str(p), m] for p, m in factors]}
    if cfg["output"] == "tsv":
        _emit_tsv(f"{poly_to_str(p)}\t{m}" for p, m in factors)
    else:
        _emit(payload, cfg)
    return 0


def _extension_from_arg(arg: str) -> Extension:
    return Extension.from_json(_inline_or_file(arg))


def cmd_splitting(args, cfg) -> int:
    ext = _extension_from_arg(args.ext)
    prime = prime_from_str(args.prime, ext.base)
    sp = splitting(ext, prime)
    if cfg["output"] == "tsv":
        _emit_tsv(f"{pl.e}\t{pl.f}" for pl in sp.places)
    else:
        _emit({"places": [{"e": pl.e, "f": pl.f} for pl in sp.places],
               "unramified": sp.unramified}, cfg)
    return 0


def cmd_class_number(args, cfg) -> int:
    ext = _extension_from_arg(args.ext)
    z = zeta_numerator(ext)
    _emit({"class_number": z.h, "genus": ext.genus,
           "zeta_numerator": z.coefficients,
           "point_counts": z.point_counts}, cfg)
    return 0


def cmd_predegree(args, cfg) -> int:
    ext = _extension_from_arg(args.ext)
    h = class_number(ext)
    _emit({"predegree": h * args.i, "class_number": h, "index": args.i}, cfg)
    return 0


def cmd_hecke_degree(args, cfg) -> int:
    field = field_from_str(args.q)
    prime = prime_from_str(args.prime, field)
    if args.matrix:
        g = local_matrix_from_json(prime, _inline_or_file(args.matrix),
                                   cfg["precision"])
    else:
        g = standard_hecke_matrix(prime, args.r, cfg["precision"])
    degree = hecke_degree(g, depth=args.depth, budget=cfg["orbit_budget"])
    _emit({"degree": degree}, cfg)
    return 0


def _toplevel(s: str, chars: str):
    """Indices of the characters of `chars` in s outside parentheses."""
    depth = 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in chars:
            yield i


def _unwrap(s: str) -> str:
    """s without the parentheses that enclose all of it."""
    while (s[:1] == "(" and s[-1:] == ")"
           and next(_toplevel(s, ")"), len(s) - 1) == len(s) - 1):
        s = s[1:-1]
    return s


def _x_term(term: str, prime, precision):
    """(k, c) for a term c*x^k: its x is the first one outside
    parentheses, and the unwrapped coefficient splits at its first /
    outside parentheses."""
    k, coef = 0, term
    x = next(_toplevel(term, "x"), None)
    if x is not None:
        coef, rest = term[:x].rstrip("*") or "1", term[x + 1:]
        if rest and rest[0] != "^":
            raise errors.MalformedInput(f"bad term {term!r}")
        k = exponent_from_str(rest[1:]) if rest else 1
    coef = _unwrap(coef)
    bar = next(_toplevel(coef, "/"), None)
    if bar is None:
        return k, LocalElement.from_poly(
            prime, poly_from_str(coef, prime.field), precision)
    num, den = (poly_from_str(_unwrap(part), prime.field)
                for part in (coef[:bar], coef[bar + 1:]))
    return k, LocalElement.from_ratio(prime, num, den, precision)


def _parse_x_polynomial(text: str, prime, precision):
    """Polynomial in x with rational-function coefficients, e.g.
    'x^2-(1/t)' or 'x^3+t*x+(t+1)/(t^2)'.  The terms are the runs between
    the signs outside parentheses; a run of signs multiplies out."""
    s = text.replace(" ", "")
    coeffs = {}
    sign, start = 1, 0
    with errors.decoding(f"x-polynomial {text!r}"):
        for end in [*_toplevel(s, "+-"), len(s)]:
            if end > start:
                k, val = _x_term(s[start:end], prime, precision)
                val = val if sign > 0 else val.neg()
                coeffs[k] = coeffs.get(k, LocalElement.zero(prime)).add(val)
                sign = 1
            if s[end:end + 1] == "-":
                sign = -sign
            start = end + 1
    if not coeffs:
        raise errors.MalformedInput(f"empty polynomial {text!r}")
    return [coeffs.get(k, LocalElement.zero(prime))
            for k in range(max(coeffs) + 1)]


def cmd_newton_polygon(args, cfg) -> int:
    field = field_from_str(args.q)
    prime = prime_from_str(args.prime, field)
    coeffs = _parse_x_polynomial(args.poly, prime, cfg["precision"])
    np_ = newton_polygon(coeffs)
    if (args.output or "tsv") == "tsv":
        lines = [f"{s}\t{l}" for s, l in np_.segments]
        lines.append(f"segments={np_.segment_count}")
        _emit_tsv(lines)
    else:
        _emit({"segments": [{"slope": str(s), "length": l}
                            for s, l in np_.segments],
               "count": np_.segment_count}, cfg)
    return 0


def cmd_bounded(args, cfg) -> int:
    field = field_from_str(args.q)
    prime = prime_from_str(args.prime, field)
    if args.matrix:
        g = local_matrix_from_json(prime, _inline_or_file(args.matrix),
                                   cfg["precision"])
    elif args.companion:
        coeffs = _parse_x_polynomial(args.companion, prime, cfg["precision"])
        if not (coeffs[-1].kind == "n" and coeffs[-1].val == 0):
            raise errors.MalformedInput("companion polynomial must be monic")
        g = companion_matrix(prime, coeffs[:-1])
    else:
        raise errors.MalformedInput("need --matrix or --companion")
    _emit({"bounded": projectively_bounded(g)}, cfg)
    return 0


def cmd_good_prime(args, cfg) -> int:
    datum = SubvarietyDatum.from_json(_inline_or_file(args.datum),
                                      cfg["precision"])
    res = find_good_prime(datum, args.N,
                          max_degree=args.max_degree or cfg["scan_max_degree"],
                          budget=cfg["orbit_budget"], i_of_x=args.i_of_x,
                          precision=cfg["precision"])
    if res.found:
        _emit({"found": True, "certificate": res.certificate.to_json(),
               "shrink_index": res.shrink_index,
               "level": res.level.to_json(),
               "report": res.report.to_json()}, cfg)
        return 0
    _emit({"found": False, "report": res.report.to_json()}, cfg)
    return 2


def cmd_shrink_level(args, cfg) -> int:
    field = field_from_str(args.q)
    prime = prime_from_str(args.prime, field)
    if args.level:
        level = LevelMap.from_json(_inline_or_file(args.level), field, args.r,
                                   cfg["precision"])
    else:
        level = LevelMap(args.r)
    shrunk, index = shrink_level(level, prime)
    _emit({"index": index, "level": shrunk.to_json()}, cfg)
    return 0


def cmd_components(args, cfg) -> int:
    field = field_from_str(args.base)
    data = _inline_or_file(args.level) if args.level else []
    level = LevelMap.from_json(data, field, args.r, cfg["precision"])
    _emit({"components": count_components(field, level)}, cfg)
    return 0


def cmd_cebotarev(args, cfg) -> int:
    ext = _extension_from_arg(args.ext)
    rep = cebotarev_check(ext, args.i)
    _emit(rep.to_json(), cfg)
    return 0


def cmd_thresholds(args, cfg) -> int:
    # the induction threshold is stated for s >= 1; N makes sense from s = 0
    thr = induction_threshold(args.kp, args.r, args.s, args.degZ) \
        if args.s >= 1 else None
    _emit({"induction_threshold": thr,
           "separable_N": separable_N(args.r, args.s)}, cfg)
    return 0


def cmd_verify_suite(args, cfg) -> int:
    results = run_all(cfg)
    if cfg["output"] == "json":
        _emit({"results": [r.to_json() for r in results],
               "all_pass": all(r.passed for r in results)}, cfg)
    for r in results:
        print(r.line(), file=sys.stderr if cfg["output"] == "json" else sys.stdout)
    if any(r.budget_exceeded for r in results):
        return 3
    if not all(r.passed for r in results):
        return 2
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input, reported like any other."""

    def error(self, message):
        raise errors.MalformedInput(message)


def positive(text: str) -> int:
    """argparse type of the counts that must be at least 1; argparse
    reports any other value as "invalid positive value"."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--precision", type=int)
    p.add_argument("--orbit-budget", dest="orbit_budget", type=int)
    p.add_argument("--scan-max-degree", dest="scan_max_degree", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", choices=["json", "tsv"])


# Every command's help line and its own flags, in the order `--help`
# lists them; each command also takes the config flags.
COMMANDS = {
    "primes": ("enumerate monic irreducibles", (
        ("--q", {"required": True}),
        ("--max-degree", {"type": positive, "default": 3}),
        ("--degree", {"type": positive}))),
    "factor": ("factor a polynomial over F_q", (
        ("--q", {"required": True}),
        ("--poly", {"required": True}))),
    "splitting": ("splitting type of a prime", (
        ("--ext", {"required": True, "help": "extension JSON or @file"}),
        ("--prime", {"required": True}))),
    "class-number": ("zeta numerator and class number", (
        ("--ext", {"required": True}),)),
    "predegree": ("class number times index", (
        ("--ext", {"required": True}),
        ("--i", {"type": positive, "required": True}))),
    "hecke-degree": ("degree of the correspondence", (
        ("--q", {"required": True}),
        ("--r", {"type": positive, "required": True}),
        ("--prime", {"required": True}),
        ("--depth", {"type": positive, "default": 1}),
        ("--matrix", {"help": "matrix JSON or @file (default diagonal)"}))),
    "newton-polygon": ("Newton polygon of a polynomial", (
        ("--q", {"required": True}),
        ("--prime", {"required": True}),
        ("--poly", {"required": True,
                    "help": "monic polynomial in x, e.g. 'x^2-(1/t)'"}))),
    "bounded": ("projective boundedness predicate", (
        ("--q", {"required": True}),
        ("--prime", {"required": True}),
        ("--matrix", {}),
        ("--companion", {"help": "monic polynomial in x"}))),
    "good-prime": ("search for a good prime", (
        ("--datum", {"required": True, "help": "datum JSON or @file"}),
        ("--N", {"type": int, "required": True}),
        ("--max-degree", {"type": positive}),
        ("--i-of-x", {"dest": "i_of_x", "type": int,
                      "help": "override the datum index i(X)"}))),
    "shrink-level": ("maximal to depth-1 congruence", (
        ("--q", {"required": True}),
        ("--r", {"type": positive, "required": True}),
        ("--prime", {"required": True}),
        ("--level", {"help": "level JSON or @file"}))),
    "components": ("irreducible component count", (
        ("--base", {"required": True}),
        ("--r", {"type": positive, "default": 2}),
        ("--level", {"help": "level JSON or @file, [] for maximal"}))),
    "cebotarev": ("split-prime count vs the bound", (
        ("--ext", {"required": True}),
        ("--i", {"type": int, "required": True}))),
    "thresholds": ("induction threshold and N", (
        ("--r", {"type": positive, "required": True}),
        ("--s", {"type": int, "required": True}),
        ("--kp", {"type": int, "required": True}),
        ("--degZ", {"type": int, "required": True}))),
    "verify-suite": ("run all acceptance criteria", ()),
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser of the named commands, by default all of them.  Each
    handler is looked up when the parser is built, so a wrapper put in
    place of a `cmd_*` function (as a tracer does) is the one called."""
    parser = _Parser(
        prog="drinlat",
        description="Exact arithmetic for function-field lattice, Hecke, "
                    "and good-prime computations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])
        _add_config_flags(p)
    return parser


def _fail(kind: str, code: int, exc: Exception) -> int:
    print(json.dumps({"schema": SCHEMA, "error": {
        "type": type(exc).__name__, "kind": kind, "message": str(exc)}},
        sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command needs only its own sub-parser; without one (no
    # command, an unknown one, a flag first) the full parser lists every
    # command in its help and its errors
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    try:
        args = build_parser(names).parse_args(argv)
        code = args.fn(args, _load_config(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed by its reader (`| head`); devnull quiets the flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except errors.BudgetExceeded as exc:
        return _fail("budget", 3, exc)
    except errors.InputError as exc:
        return _fail("malformed", 4, exc)
    except errors.Refusal as exc:
        return _fail("refusal", 2, exc)
    except Exception as exc:
        return _fail("internal", 5, exc)


if __name__ == "__main__":
    sys.exit(main())
