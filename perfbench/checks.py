"""Answer oracles, applied by run.py outside every timed region.

Pure functions of the JSON a worker or a CLI process returned; nothing
here imports drinlat.  `check_item` returns None for a correct answer and
a short reason otherwise.  Every reason counts toward `failed`.
"""

from __future__ import annotations

from fractions import Fraction


def moebius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def gauss_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q (necklace formula)."""
    return sum(moebius(e) * q ** (d // e) for e in range(1, d + 1)
               if d % e == 0) // d


def _field(key_part: str) -> int:
    return int(key_part.split("=")[1])


def genus1_point_count(kind: str, p: int, coeffs) -> int:
    """#E(F_p) of y^2 = a(t) (p odd) or y^2 + y = a(t) (p = 2), plus the
    point at infinity; for genus 1 this is the class number of A'."""
    def a(t):
        return sum(c * t ** i for i, c in enumerate(coeffs)) % p
    total = 1
    for t in range(p):
        rhs = a(t)
        if kind == "kummer":
            total += sum(1 for y in range(p) if (y * y) % p == rhs)
        else:
            total += sum(1 for y in range(p) if (y * y + y) % p == rhs)
    return total


def parse_poly(text: str, p: int):
    """Coefficients (little-endian) of a drinlat polynomial string over F_p."""
    coeffs = {}
    for term in text.split("+"):
        if "*" in term:
            c, mono = term.split("*")
        elif "t" in term:
            c, mono = "1", term
        else:
            c, mono = term, ""
        k = 0 if not mono else (int(mono[2:]) if mono.startswith("t^") else 1)
        coeffs[k] = (coeffs.get(k, 0) + int(c)) % p
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


# ---------------------------------------------------------------------------
# Library workloads


def check_item(item: dict, golden: dict) -> str:
    if item["error"] is not None:
        return f"raised {item['error']}"
    oracle = item["oracle"]
    if isinstance(oracle, dict) and "oracle_error" in oracle:
        return f"oracle failed: {oracle['oracle_error']}"
    kind, *rest = item["key"].split("|")
    ans = item["answer"]
    if kind == "L":
        return _check_lattice(rest, ans, oracle, golden)
    if kind == "H":
        # H|variant|prec|q|d|r|depth: degree is q_p^(r-1)
        q, d, r = _field(rest[2]), _field(rest[3]), _field(rest[4])
        want = (q ** d) ** (r - 1)
        return None if ans == want else f"degree {ans}, want {want}"
    if kind == "U":
        passes, samples = ans
        return None if passes == samples else f"{passes}/{samples} samples pass"
    if kind == "C":
        return None if ans == oracle else f"char_poly {ans}, want {oracle}"
    if kind == "B":
        s2, s4, s6 = oracle
        want = not (s2 < s4 < s6)
        return None if ans == want else f"bounded={ans}, spreads {oracle}"
    if kind == "S":
        return None if ans == oracle else f"splitting {ans}, pattern {oracle}"
    if kind == "G":
        return _check_good_prime(rest, ans)
    if kind == "N":
        shape, p, a = rest
        want = genus1_point_count(shape, int(p), parse_poly(a, int(p)))
        return None if ans == want else f"h={ans}, point count {want}"
    if kind == "E":
        return _check_cebotarev(rest, ans)
    return f"unknown item kind {kind!r}"


def _check_lattice(rest, ans, oracle, golden):
    call, structure, lid = rest[0], rest[1], "|".join(rest[2:])
    table = golden.get("lattice-census", {}).get(structure, {})
    if lid not in table:
        return f"no golden entry for {structure} {lid}"
    sat, stab, gitter = table[lid]
    if call == "sat":
        return None if ans == sat else f"saturation {ans}, golden {sat}"
    if call == "stab":
        if ans != stab:
            return f"stabilizer index {ans}, golden {stab}"
        if not isinstance(oracle, int) or oracle % ans:
            return f"stabilizer index {ans} does not divide |GL| = {oracle}"
        return None
    if call == "gitter":
        return None if ans == gitter else f"gitter bound {ans}, golden {gitter}"
    return f"unknown lattice call {call!r}"


def _check_good_prime(rest, ans):
    name, q, _, max_degree = rest[0], _field(rest[1]), rest[2], _field(rest[3])
    if ans["failed_total"] + (1 if ans["found"] else 0) != ans["scanned"]:
        return f"failure counters do not add up: {ans}"
    if name.startswith("accept"):
        # criterion 8: accepted at t^2+1 with D = 4 * 25, index |GL_2(F_9)|
        want = {"found": True, "accepted": "t^2+1", "predegree": 100,
                "shrink_index": (81 - 1) * (81 - 9)}
        got = {k: ans[k] for k in want}
        return None if got == want else f"accepted case {got}, want {want}"
    scanned = sum(gauss_count(q, d) for d in range(1, max_degree + 1))
    if ans["found"] or ans["scanned"] != scanned:
        return f"exhaustive scan {ans}, want {scanned} primes scanned"
    return None


def _check_cebotarev(rest, ans):
    kind, n, _, base, i = rest[0], _field(rest[1]), rest[2], int(rest[3]), _field(rest[4])
    if not ans["holds"]:
        return f"Cebotarev bound fails: {ans}"
    # main term q^i / (i * [E' : F_{q'}F]): the geometric degree is 1 for
    # a constant extension and n for a Kummer one
    main = Fraction(base ** i, i * (1 if kind == "constant" else n))
    if Fraction(ans["main_term"]) != main:
        return f"main term {ans['main_term']}, want {main}"
    if kind == "constant":
        # a degree-i prime splits completely in the constant extension
        # of degree n iff n | i, which the grid guarantees
        want = gauss_count(base, i)
        if ans["count"] != want:
            return f"count {ans['count']}, want {want}"
    return None


# ---------------------------------------------------------------------------
# cli-readme


def check_cli(name: str, got: dict, golden: dict) -> str:
    want = golden.get("cli-readme", {}).get(name)
    if want is None:
        return f"no golden for {name}"
    for field in ("returncode", "stdout", "stderr"):
        if got[field] != want[field]:
            return f"{field} differs from golden"
    return None
