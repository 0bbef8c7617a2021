"""Workload inputs and items, built from the seed inside a fresh worker.

Each builder returns a list of `Unit`s.  A unit is one library call (one
item); `follow` may return further units that depend on its result,
which run right after it.  `answer` turns a raw result into JSON after
the timed loop, and `oracle` (computed after the timed loop as well)
gives the data the parent process checks the answers against.

Only the three library workloads live here; `cli-readme` runs processes
and is driven from run.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from drinlat.bounds import cebotarev_check
from drinlat.extension import (Extension, class_number, make_extension,
                               splitting, splitting_pattern)
from drinlat.ffpoly import FiniteField, Poly, Prime, poly_from_str, \
    poly_to_str, prime_from_str
from drinlat.goodprime import SubvarietyDatum, find_good_prime
from drinlat.hecke import (HeckeElement, char_poly, companion_matrix,
                           hecke_degree, projectively_bounded,
                           standard_hecke_matrix, unboundedness_sample_check)
from drinlat.localfield import (Lattice, LocalElement, LocalMatrix,
                                OrderStructure, gitter_bound_check,
                                hermite_sublattices, saturation_holds,
                                stabilizer_index)

BUDGET = 2 ** 16          # the CLI's default orbit budget
CHARPOLY_CHECK_DEPTH = 6  # char_poly coefficients are compared mod p^6


@dataclass
class Unit:
    key: str
    call: Callable[[], object]
    answer: Callable[[object], object] = lambda x: x
    follow: Optional[Callable[[object], List["Unit"]]] = None
    oracle: Optional[Callable[[], object]] = None


# ---------------------------------------------------------------------------
# Seeded input helpers (set-up only; they touch no library cache)


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _random_poly(F: FiniteField, deg: int, rng) -> Poly:
    return Poly(F, [rng.randrange(F.size) for _ in range(deg + 1)])


def random_prime(F: FiniteField, degree: int, rng, avoid=()) -> Prime:
    """A uniformly random monic irreducible of the given degree."""
    while True:
        f = Poly(F, [rng.randrange(F.size) for _ in range(degree)] + [1])
        if f.is_irreducible():
            pr = Prime(f, check=False)
            if pr not in avoid:
                return pr


def _random_linear(F: FiniteField, rng) -> Poly:
    return Poly(F, [rng.randrange(F.size), rng.randrange(1, F.size)])


def _unimodular_polys(F: FiniteField, r: int, rng):
    """L*U with unitriangular L, U over F[t]: an element of GL_r(A).  The
    off-diagonal entries have degree exactly 1, so that every change of
    basis costs about the same."""
    zero, one = Poly.zero(F), Poly.one(F)
    low = [[one if i == j else (_random_linear(F, rng) if i > j else zero)
            for j in range(r)] for i in range(r)]
    up = [[one if i == j else (_random_linear(F, rng) if i < j else zero)
           for j in range(r)] for i in range(r)]
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = zero
            for k in range(r):
                acc = acc + low[i][k] * up[k][j]
            row.append(acc)
        out.append(row)
    return out


def _random_digits_element(prime: Prime, val: int, prec: int, rng) -> LocalElement:
    """A generic (inexact) element with random pi-adic digits."""
    F = prime.field
    d = prime.degree
    digits = [Poly(F, [rng.randrange(F.size) for _ in range(d)])
              for _ in range(prec)]
    while digits[0].is_zero():
        digits[0] = Poly(F, [rng.randrange(F.size) for _ in range(d)])
    return LocalElement(prime, "n", val, tuple(digits))


def _unitriangular(prime, r, prec, rng, lower: bool) -> LocalMatrix:
    one, zero = LocalElement.one(prime, prec), LocalElement.zero(prime)
    rows = [[one if i == j else
             (_random_digits_element(prime, 0, prec, rng)
              if (i > j) == lower else zero)
             for j in range(r)] for i in range(r)]
    return LocalMatrix(prime, rows)


def _unitriangular_inverse(m: LocalMatrix, lower: bool) -> LocalMatrix:
    """Inverse of a unitriangular matrix by substitution (no division)."""
    r = m.r
    prime = m.prime
    a = m.rows if lower else tuple(zip(*m.rows))  # work with lower form
    one, zero = a[0][0], LocalElement.zero(prime)
    inv = [[one if i == j else zero for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(i):
            acc = zero
            for k in range(j, i):
                acc = acc.add(a[i][k].mul(inv[k][j]))
            inv[i][j] = acc.neg()
    rows = inv if lower else [list(col) for col in zip(*inv)]
    return LocalMatrix(prime, rows)


# ---------------------------------------------------------------------------
# lattice-census: criterion 2's structures, exponent <= 3


def gitter_structures(T2):
    return [
        ("trivial r=2", OrderStructure.trivial(T2, 2)),
        ("unramified quadratic", OrderStructure.unramified(T2, 1, 2)),
        ("ramified quadratic", OrderStructure.totally_ramified(T2, 1, 2)),
        ("trivial r=3", OrderStructure.trivial(T2, 3)),
        ("unramified cubic", OrderStructure.unramified(T2, 1, 3)),
        ("ramified cubic", OrderStructure.totally_ramified(T2, 1, 3)),
        ("split x unramified", OrderStructure.product(
            T2, 1, [("unramified", 1), ("unramified", 2)])),
        ("split x ramified", OrderStructure.product(
            T2, 1, [("unramified", 1), ("ramified", 2)])),
    ]


LATTICE_MAX_EXP = 3


def lattice_census(seed: int) -> List[Unit]:
    F2 = FiniteField.of_order(2)
    T2 = prime_from_str("t", F2)
    rng = _rng(seed, "lattice-census")
    units = []
    for name, order in gitter_structures(T2):
        seen = {}
        for exps, cols in hermite_sublattices(T2, order.r, LATTICE_MAX_EXP):
            n = seen.get(exps, 0)
            seen[exps] = n + 1
            lid = f"{name}|{','.join(map(str, exps))}#{n}"
            g = _unimodular_polys(F2, order.r, rng)
            r = order.r
            # new column j = sum_i cols[i] * g[i][j]: the same lattice
            moved = [[sum((cols[i][row] * g[i][j] for i in range(r)),
                          Poly.zero(F2)) for row in range(r)]
                     for j in range(r)]
            units.append(_lattice_unit(lid, order, moved))
    rng.shuffle(units)  # spread every kind of item over the whole pass
    return units


def _lattice_unit(lid, order, cols) -> Unit:
    def follow(saturated):
        if not saturated:
            return []
        return [Unit(f"L|stab|{lid}",
                     lambda: stabilizer_index(cols, order, None, BUDGET),
                     oracle=lambda: _gl_order_for(order, cols)),
                Unit(f"L|gitter|{lid}",
                     lambda: gitter_bound_check(cols, order, None, BUDGET))]
    return Unit(f"L|sat|{lid}", lambda: saturation_holds(order, cols),
                follow=follow)


def _gl_order_for(order, cols):
    """|GL_{r'}(R'/p^k)| at the depth stabilizer_index uses."""
    k = max(1, max(Lattice.from_poly_basis(order.prime, cols).elementary_divisors))
    return order.gl_order(k)


# ---------------------------------------------------------------------------
# hecke-newton: criteria 1, 4 and 5

PRECISIONS = (12, 30)
HD1_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))  # q = 2, 3, 4, 5, 9
UNB_SAMPLES = {12: {2: 6, 3: 4, 4: 3, 5: 2, 6: 1}, 30: {2: 3, 3: 2, 4: 1}}
CHARPOLY_RANKS = (2, 3, 4, 5, 6)
BOUNDED_PER_PRECISION = 10
# Blocks of items of equal cost, sized so that the item median falls among
# 13 ms depth-1 Hecke degrees (q_p = 3, r = 3) and the 90th percentile among
# 0.1 s ones (q_p = 16, r = 2), not among millisecond calls whose timings
# swing most with the machine's speed, nor in a gap between item kinds.
MEDIAN_BLOCK = 40
P90_BLOCK = 16


def _hecke_conjugate(prime, r, prec, rng):
    """k1 * diag(pi^-1, 1, ..., 1) * k2 with k1, k2 in GL_r(A)."""
    F = prime.field
    k1 = LocalMatrix.from_polys(prime, _unimodular_polys(F, r, rng), prec)
    k2 = LocalMatrix.from_polys(prime, _unimodular_polys(F, r, rng), prec)
    return k1 @ standard_hecke_matrix(prime, r, prec) @ k2


def _hecke_unit(tag, prime, r, depth, g) -> Unit:
    key = f"H|{tag}|q={prime.field.size}|d={prime.degree}|r={r}|depth={depth}"
    return Unit(key, lambda: hecke_degree(g, depth, budget=BUDGET))


def hecke_newton(seed: int) -> List[Unit]:
    rng = _rng(seed, "hecke-newton")
    units = []
    # depth 1: the standard matrix and a seeded double-coset conjugate
    for p, e in HD1_FIELDS:
        F = FiniteField.of_order(p, e)
        for d in (1, 2):
            prime = random_prime(F, d, rng)
            for r in (2, 3):
                if prime.residue_size ** (r * r) > BUDGET:
                    continue
                for prec in PRECISIONS:
                    tag = f"prec={prec}"
                    units.append(_hecke_unit(
                        f"std|{tag}", prime, r, 1,
                        standard_hecke_matrix(prime, r, prec)))
                    units.append(_hecke_unit(
                        f"conj|{tag}", prime, r, 1,
                        _hecke_conjugate(prime, r, prec, rng)))
    # depth 2, r = 2: q = 2 at both precisions; q = 3 once, unconjugated
    # at precision 12 (3.5 s per item, 12 s for a conjugate)
    F2, F3 = FiniteField.of_order(2), FiniteField.of_order(3)
    p2 = random_prime(F2, 1, rng)
    for prec in PRECISIONS:
        units.append(_hecke_unit(f"std|prec={prec}", p2, 2, 2,
                                 standard_hecke_matrix(p2, 2, prec)))
        units.append(_hecke_unit(f"conj|prec={prec}", p2, 2, 2,
                                 _hecke_conjugate(p2, 2, prec, rng)))
    p3 = random_prime(F3, 1, rng)
    units.append(_hecke_unit("std|prec=12", p3, 2, 2,
                             standard_hecke_matrix(p3, 2, 12)))
    # sampled unboundedness certification (criterion 4)
    T2 = prime_from_str("t", F2)
    for prec, per_rank in UNB_SAMPLES.items():
        for r, samples in per_rank.items():
            elem = HeckeElement(T2, r, standard_hecke_matrix(T2, r, prec),
                                LocalMatrix.identity(T2, r, prec),
                                T2.residue_size ** (r - 1))
            s = rng.randrange(2 ** 16)
            units.append(Unit(
                f"U|r={r}|prec={prec}|samples={samples}",
                lambda elem=elem, samples=samples, s=s, prec=prec:
                    unboundedness_sample_check(elem, samples, s, prec),
                answer=lambda rep: [rep.passes, rep.samples]))
    for name, F, d, r, count in (
            ("p50", F3, 1, 3, MEDIAN_BLOCK),
            ("p90", FiniteField.of_order(2, 2), 2, 2, P90_BLOCK)):
        for i in range(count):
            prime = random_prime(F, d, rng)
            prec = PRECISIONS[i % 2]
            units.append(_hecke_unit(f"{name}-block{i}|prec={prec}", prime, r,
                                     1, standard_hecke_matrix(prime, r, prec)))
    # characteristic polynomials of P C P^-1, C a companion matrix
    for r in CHARPOLY_RANKS:
        for prec in PRECISIONS:
            units.append(_charpoly_unit(T2, r, prec, rng))
    # boundedness predicate on random invertible 2x2 matrices (criterion 5)
    for prec in PRECISIONS:
        for i in range(BOUNDED_PER_PRECISION):
            g = _random_invertible(T2, rng, prec)
            units.append(Unit(f"B|prec={prec}|{i}",
                              lambda g=g: projectively_bounded(g),
                              oracle=lambda g=g: _power_spreads(g)))
    rng.shuffle(units)  # spread every kind of item over the whole pass
    return units


def _charpoly_unit(prime, r, prec, rng) -> Unit:
    F = prime.field
    coeffs = []
    for i in range(r):
        f = _random_poly(F, 2, rng) * prime.poly ** rng.randrange(3)
        if i == 0 and f.is_zero():
            f = prime.poly
        coeffs.append(f)
    comp = companion_matrix(prime, [LocalElement.from_poly(prime, f, prec)
                                    for f in coeffs])
    low = _unitriangular(prime, r, prec, rng, lower=True)
    up = _unitriangular(prime, r, prec, rng, lower=False)
    p_mat = low @ up
    p_inv = _unitriangular_inverse(up, False) @ _unitriangular_inverse(low, True)
    g = p_mat @ comp @ p_inv
    depth = CHARPOLY_CHECK_DEPTH
    modulus = prime.poly ** depth
    want = [poly_to_str(f % modulus) for f in coeffs] + ["1"]
    return Unit(f"C|r={r}|prec={prec}", lambda: char_poly(g),
                answer=lambda cp: [poly_to_str(_residue(c, depth)) for c in cp],
                oracle=lambda: want)


def _residue(x: LocalElement, depth: int) -> Poly:
    """Class of an integral element mod p^depth, read off its digits."""
    F, pi = x.prime.field, x.prime.poly
    if x.kind == "z" or x.val >= depth:
        return Poly.zero(F)
    if x.kind == "u" or x.val < 0 or (x.abs_prec < depth and not x.exact):
        raise ValueError(f"{x!r} is not known mod p^{depth}")
    acc = Poly.zero(F)
    for i, d in enumerate(x.digits[:depth - x.val]):
        acc = acc + d * pi ** (x.val + i)
    return acc


def _random_invertible(prime, rng, prec):
    """A 2x2 matrix in criterion 5's style: each entry a random 3-digit
    polynomial (nonzero constant term) shifted by a valuation, the four
    valuations a permutation of (-1, 0, 1, 2).  Fixing that multiset,
    instead of drawing each valuation from [-2, 2], keeps the cost of
    every item alike, so the item median does not depend on the seed."""
    while True:
        vals = [-1, 0, 1, 2]
        rng.shuffle(vals)
        rows = [[LocalElement.from_poly(
                    prime, Poly(prime.field, [1] + [rng.randrange(prime.field.size)
                                                    for _ in range(2)]),
                    prec).shift(vals[2 * i + j]) for j in range(2)]
                for i in range(2)]
        det = rows[0][0].mul(rows[1][1]).sub(rows[0][1].mul(rows[1][0]))
        if det.kind == "n":
            return LocalMatrix(prime, rows)


def _power_spreads(g):
    """Elementary-divisor spreads of g^2, g^4, g^6 (criterion 5's oracle,
    at criterion 5's precision 30; the entries are exact polynomials)."""
    spreads = []
    power = LocalMatrix.identity(g.prime, g.r, 30)
    for n in range(1, 7):
        power = power @ g
        if n in (2, 4, 6):
            e = power.elementary_divisors()
            spreads.append(e[-1] - e[0])
    return spreads


# ---------------------------------------------------------------------------
# places-scan: criteria 6, 7 and 8 plus splitting across the table cliff

# base -> (extension, {degree: splitting types of the sampled primes}).
# Residue fields of up to 256 elements build full multiplication tables
# (ffpoly._TABLE_LIMIT), larger ones do not, so every base has degrees on
# both sides.  Sampling a fixed mix of split (S) and inert (I) primes keeps
# a pass's cost independent of the seed.  A split prime of degree 8 over
# F_2 is left out: it costs about 5 s (the characteristic-2 equal-degree
# splitter finds no degree-1 splitter when [k(p) : F_2] is even); degree
# 6 takes that path for about 40 ms.
SPLIT_EXTENSIONS = {
    "2": ({"kind": "artin_schreier", "a": "t^3", "base": "2"},
          {6: "SI", 7: "SI", 8: "I", 9: "SISI"}),
    "3": ({"kind": "kummer", "n": 2, "a": "t^3+2*t", "base": "3"},
          {4: "SI", 5: "S", 6: "SISI"}),
    "5": ({"kind": "kummer", "n": 2, "a": "t^3+t", "base": "5"},
          {3: "SI", 4: "S" + "I" * 11}),
    "3^2": ({"kind": "kummer", "n": 2, "a": "t", "base": "3^2"},
            {2: "SI", 3: "SISI"}),
}
# The eleven inert degree-4 primes over F_5 (about 5 ms each) and the
# sub-millisecond class numbers below are sized so that the item median
# falls inside a block of items of equal cost.


def _splits(ext, prime) -> bool:
    """Whether the prime splits, by the quadratic residue test (Kummer,
    n = 2) or the absolute trace (Artin-Schreier over F_2), computed in
    F_q[t] so that set-up builds no residue field."""
    c = ext.params["a"] % prime.poly
    if ext.kind == "artin_schreier":
        acc = x = c
        for _ in range(prime.degree * ext.base.e - 1):
            x = (x * x) % prime.poly
            acc = acc + x
        return acc.is_zero()
    return c.pow_mod((prime.residue_size - 1) // 2, prime.poly).is_one()


# (name, extension spec, N, max_degree, i_of_x); the first is criterion 8's
# accepted case, the others scan every prime up to max_degree.
GOOD_PRIME_SCANS = [
    ("accept-3", SPLIT_EXTENSIONS["3"][0], 1, 3, 25),
    ("exhaust-3", SPLIT_EXTENSIONS["3"][0], 6, 4, 25),
    ("exhaust-2", SPLIT_EXTENSIONS["2"][0], 10, 6, 1),
    ("exhaust-5", SPLIT_EXTENSIONS["5"][0], 10, 2, 1),
]

CEBOTAREV_SPECS = [
    {"kind": "constant", "n": 2, "base": "5"},
    {"kind": "constant", "n": 2, "base": "2"},
    {"kind": "constant", "n": 3, "base": "2"},
    {"kind": "kummer", "n": 2, "a": "t", "base": "5"},
]

CLASS_NUMBER_FIELDS = (3, 5, 7)
CURVES_PER_FIELD = 6


def places_scan(seed: int) -> List[Unit]:
    rng = _rng(seed, "places-scan")
    units = []
    for base, (spec, plan) in SPLIT_EXTENSIONS.items():
        ext = make_extension(spec)
        for degree, types in plan.items():
            chosen = []
            for i, kind in enumerate(types):
                while True:
                    prime = random_prime(ext.base, degree, rng, avoid=chosen)
                    if _splits(ext, prime) == (kind == "S"):
                        break
                chosen.append(prime)
                units.append(Unit(
                    f"S|{base}|d={degree}|{i}|{prime}",
                    lambda ext=ext, prime=prime: splitting(ext, prime),
                    answer=lambda sp: sorted([pl.e, pl.f] for pl in sp.places),
                    oracle=lambda ext=ext, prime=prime: sorted(
                        list(x) for x in splitting_pattern(ext, prime))))
    # genus-1 class numbers: criterion 6's curve and seeded cubic radicands
    F3 = FiniteField.of_order(3)
    curves = [(3, poly_from_str("t^3+2*t", F3))]
    for p in CLASS_NUMBER_FIELDS:
        F = FiniteField.of_order(p)
        for _ in range(CURVES_PER_FIELD):
            curves.append((p, _squarefree_cubic(F, rng)))
    for p, a in curves:
        ext = Extension.kummer(FiniteField.of_order(p), 2, a)
        units.append(Unit(f"N|kummer|{p}|{poly_to_str(a)}",
                          lambda ext=ext: class_number(ext)))
    F2 = FiniteField.of_order(2)
    for c0, c1 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        a = Poly(F2, [c0, c1, 0, 1])
        ext = Extension.artin_schreier(F2, a)
        units.append(Unit(f"N|artin_schreier|2|{poly_to_str(a)}",
                          lambda ext=ext: class_number(ext)))
    for name, spec, N, max_degree, i_of_x in GOOD_PRIME_SCANS:
        datum = SubvarietyDatum(make_extension(spec), 2)
        units.append(Unit(
            f"G|{name}|q={datum.extension.base.size}|N={N}|max_degree={max_degree}",
            lambda datum=datum, N=N, max_degree=max_degree, i_of_x=i_of_x:
                find_good_prime(datum, N, max_degree, BUDGET, i_of_x),
            answer=_find_answer))
    for spec in CEBOTAREV_SPECS:
        ext = make_extension(spec)
        for i in range(1, 7):
            if i % ext.const_degree:
                continue
            units.append(Unit(
                f"E|{spec['kind']}|n={spec['n']}|{spec.get('a', '')}|"
                f"{spec['base']}|i={i}",
                lambda ext=ext, i=i: cebotarev_check(ext, i),
                answer=lambda rep: {"count": rep.count, "holds": rep.holds,
                                    "main_term": str(rep.main_term)}))
    return _places_order(units, rng)


# Splittings at these (base, degree) build residue fields that the scans
# and Cebotarev counts reuse, so they run first.
SCANNED_STRATA = {("2", 6), ("3", 4), ("5", 3)}


def _places_order(units, rng):
    """Seeded order that spreads every kind of item over the pass.

    The good-prime scans and Cebotarev counts share cached prime lists and
    residue fields, so they keep their order, and the splittings whose
    residue fields they reuse come first.  The other splittings and the
    class numbers share nothing with them and are interleaved at random.
    """
    first, free, fixed = [], [], []
    for unit in units:
        kind, *rest = unit.key.split("|")
        if kind in "GE":
            fixed.append(unit)
        elif kind == "S" and (rest[0], int(rest[1][2:])) in SCANNED_STRATA:
            first.append(unit)
        else:
            free.append(unit)
    rng.shuffle(first)
    rng.shuffle(free)
    merged = []
    while free or fixed:
        if rng.randrange(len(free) + len(fixed)) < len(free):
            merged.append(free.pop())
        else:
            merged.append(fixed.pop(0))
    return first + merged


def _find_answer(res):
    rep = res.report
    return {"found": res.found, "scanned": rep.scanned,
            "failed_total": sum(rep.counters.values()),
            "accepted": rep.accepted, "predegree": rep.predegree,
            "shrink_index": res.shrink_index}


def _squarefree_cubic(F, rng) -> Poly:
    while True:
        a = Poly(F, [rng.randrange(F.size) for _ in range(3)] + [1])
        if a.gcd(a.derivative()).is_one():
            return a


BUILDERS = {
    "lattice-census": lattice_census,
    "hecke-newton": hecke_newton,
    "places-scan": places_scan,
}
