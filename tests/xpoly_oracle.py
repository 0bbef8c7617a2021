"""The x-polynomial parser the CLI used before its one top-level scanner,
kept as the test oracle of `drinlat.cli._parse_x_polynomial`.

It splits the text into signed terms at the +/- outside parentheses,
finds each term's x outside parentheses, strips parentheses that wrap a
whole coefficient and splits a coefficient at its first / outside
parentheses, each with its own depth-counting loop.  It raises the bare
ValueError or ZeroDivisionError that the CLI now reports as
MalformedInput.
"""

from typing import Optional, Tuple

from drinlat import errors
from drinlat.ffpoly import poly_from_str
from drinlat.localfield import LocalElement


def parse_x_polynomial(text: str, prime, precision):
    s = text.replace(" ", "")
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and depth == 0 and not cur:
            sign = sign if ch == "+" else -sign
        else:
            cur += ch
    if cur:
        terms.append((sign, cur))
    if not terms:
        raise errors.MalformedInput(f"empty polynomial {text!r}")
    coeffs = {}
    for sign, term in terms:
        coef_text, k = _split_x_term(term)
        val = _parse_coefficient(coef_text, prime, precision)
        if sign < 0:
            val = val.neg()
        coeffs[k] = coeffs.get(k, LocalElement.zero(prime)).add(val)
    degree = max(coeffs)
    return [coeffs.get(k, LocalElement.zero(prime))
            for k in range(degree + 1)]


def _split_x_term(term: str) -> Tuple[str, int]:
    idx = _toplevel_x(term)
    if idx is None:
        return term, 0
    coef = term[:idx].rstrip("*")
    rest = term[idx + 1:]
    if rest.startswith("^"):
        return coef or "1", int(rest[1:])
    if rest:
        raise errors.MalformedInput(f"bad term {term!r}")
    return coef or "1", 1


def _toplevel_x(term: str) -> Optional[int]:
    depth = 0
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "x" and depth == 0:
            return i
    return None


def _strip_wrapping_parens(s: str) -> str:
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        wrapped = True
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    wrapped = False
                    break
        if not wrapped:
            return s
        s = s[1:-1]
    return s


def _parse_coefficient(text: str, prime, precision) -> LocalElement:
    field = prime.field
    text = _strip_wrapping_parens(text or "1")
    depth = 0
    split = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split = i
            break
    if split is None:
        return LocalElement.from_poly(prime, poly_from_str(text, field),
                                      precision)
    num = poly_from_str(_strip_wrapping_parens(text[:split]), field)
    den = poly_from_str(_strip_wrapping_parens(text[split + 1:]), field)
    return LocalElement.from_ratio(prime, num, den, precision)
