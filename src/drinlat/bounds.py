"""Closed-form bounds and induction thresholds, plus the effective
Cebotarev count check with its brute-force counterpart.

Real-valued bounds are handled in exact rational arithmetic; square and
fourth roots are bracketed by integer-root intervals that get refined
until the comparison is decided, so acceptance never depends on floating
point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

from .errors import (BudgetExceeded, GenusZero, InapplicableDegree,
                     InvariantError, MalformedInput, NotNormal,
                     UnsupportedRamifiedPrime)
from .extension import Extension, splits_completely
from .ffpoly import (Prime, count_irreducibles, power_residue_counts,
                     primes_of_degree)

SPLIT_SCAN_BUDGET = 10 ** 6


def clg_lower_bound(q_prime: int, genus: int) -> Fraction:
    """(q'-1)(q'^2g - 2g q'^g + 1) / (2g (q'^(g+1) - 1)), exact."""
    if genus < 1:
        raise GenusZero("the class-number bound is stated for genus >= 1")
    num = (q_prime - 1) * (q_prime ** (2 * genus)
                           - 2 * genus * q_prime ** genus + 1)
    den = 2 * genus * (q_prime ** (genus + 1) - 1)
    return Fraction(num, den)


def genus_upper_from_classnumber(q: int, h: int) -> float:
    """8 + 2 log_q(h)."""
    if h < 1:
        raise MalformedInput("class number must be >= 1")
    return 8.0 + 2.0 * math.log(h, q)


def genus_bound_holds(q: int, h: int, genus: int) -> bool:
    """genus <= 8 + 2 log_q(h), decided exactly: q^(genus-8) <= h^2."""
    if genus <= 8:
        return True
    return q ** (genus - 8) <= h * h


def castelnuovo_normal_closure(r: int, genus_fprime: int) -> int:
    """(r-1) r^r + r^r g(F'), the genus bound for the normal closure of a
    degree-r separable extension."""
    if r < 1:
        raise MalformedInput("r must be >= 1")
    return (r - 1) * r ** r + r ** r * genus_fprime


def castelnuovo_pairwise(r_prime: int, genus: int) -> int:
    """Single compositum step: 2 r' g + r'^2."""
    return 2 * r_prime * genus + r_prime ** 2


# ---------------------------------------------------------------------------
# Effective Cebotarev


class CebotarevParams(NamedTuple):
    q: int          # base constant field size
    i: int          # target prime degree
    n: int          # constant-extension degree of E'/F
    k: int          # geometric extension degree
    g: int          # genus of E'
    d: int = 1      # [F : F_q(theta)], 1 for F = F_q(t) with theta = t

    def check_applicable(self) -> None:
        if min(self.q, self.i, self.n, self.k, self.d) < 1 or self.g < 0:
            raise MalformedInput("Cebotarev parameters must be nonnegative")
        if self.i % self.n != 0:
            raise InapplicableDegree(
                f"the bound needs n | i; n = {self.n}, i = {self.i}")


def _iroot4(n: int) -> int:
    return math.isqrt(math.isqrt(n))


def _root_bounds(n: int, quarter: bool, scale_digits: int) -> Tuple[Fraction, Fraction]:
    """Rational bracket for n^(1/2) (or n^(1/4) when quarter)."""
    s = 10 ** scale_digits
    if quarter:
        lo = _iroot4(n * s ** 4)
    else:
        lo = math.isqrt(n * s * s)
    return Fraction(lo, s), Fraction(lo + 1, s)


def _power_bounds(q: int, i: int, denom: int,
                  scale_digits: int) -> Tuple[Fraction, Fraction]:
    """Bracket for q^(i/denom), denom in {2, 4}."""
    if i % denom == 0:
        v = Fraction(q ** (i // denom))
        return v, v
    if denom == 2:
        return _root_bounds(q ** i, False, scale_digits)
    if i % 2 == 0:
        return _root_bounds(q ** (i // 2), False, scale_digits)
    return _root_bounds(q ** i, True, scale_digits)


def cebotarev_bound(params: CebotarevParams) -> float:
    """(2/(ik)) ((k+g) q^(i/2) + k (2g+1) q^(i/4) + g + dk), as a float for
    display; the decision in cebotarev_check is exact."""
    params.check_applicable()
    lo, hi = _bound_interval(params, 12)
    return float((lo + hi) / 2)


def cebotarev_main_term(params: CebotarevParams) -> Fraction:
    return Fraction(params.q ** params.i, params.i * params.k)


def _bound_interval(params: CebotarevParams,
                    scale_digits: int) -> Tuple[Fraction, Fraction]:
    q, i, k, g, d = params.q, params.i, params.k, params.g, params.d
    half_lo, half_hi = _power_bounds(q, i, 2, scale_digits)
    quart_lo, quart_hi = _power_bounds(q, i, 4, scale_digits)
    factor = Fraction(2, i * k)
    lo = factor * ((k + g) * half_lo + k * (2 * g + 1) * quart_lo + g + d * k)
    hi = factor * ((k + g) * half_hi + k * (2 * g + 1) * quart_hi + g + d * k)
    return lo, hi


def cebotarev_deviation_below_bound(params: CebotarevParams,
                                    count: int) -> bool:
    """|count - q^i/(ik)| < bound, decided in exact rational arithmetic by
    refining the root brackets until the comparison separates."""
    params.check_applicable()
    dev = abs(Fraction(count) - cebotarev_main_term(params))
    for scale in (6, 12, 24, 48, 96):
        lo, hi = _bound_interval(params, scale)
        if dev < lo:
            return True
        if dev >= hi:
            return False
    raise InvariantError("root refinement failed to separate the comparison")


# ---------------------------------------------------------------------------
# Split-prime counting


def cebotarev_params_for(ext: Extension, i: int) -> CebotarevParams:
    n = ext.const_degree
    k = ext.m // n
    return CebotarevParams(ext.base.size, i, n, k, ext.genus, 1)


def _require_normal(ext: Extension) -> None:
    if ext.kind == "constant":
        return
    if ext.kind == "kummer":
        n = ext.params["n"]
        if (ext.base.size - 1) % n == 0:
            return
        raise NotNormal(
            f"Kummer degree {n} needs q = 1 mod n for normality")
    raise NotNormal(f"{ext.kind} extensions are not normal by construction")


def count_split_primes(ext: Extension, i: int,
                       budget: int = SPLIT_SCAN_BUDGET) -> int:
    """Number of degree-i primes that split completely in E'/F (and are
    unramified over F_q(theta) = F, which is automatic here), in closed
    form wherever that is less work than the sieve.

    In the constant extension of degree n a degree-i prime splits
    completely iff n | i (`constant_splitting_law`), so the count is
    Gauss's.  A Kummer extension is counted by its power residue
    character (`_kummer_split_count`), unless deg a > i, where
    `count_split_primes_enumerated`, the sieve that is this function's
    oracle, is faster.  The q^i > budget gate holds for both paths.
    """
    _require_normal(ext)
    q = ext.base.size
    if q ** i > budget:
        raise BudgetExceeded(f"degree-{i} scan exceeds the budget")
    if ext.kind == "constant":
        return count_irreducibles(q, i) if i % ext.m == 0 else 0
    # measured: the sieve is 2-5x faster once deg a > i, the closed form
    # as fast or faster below (tools/bench_kernels.py times both sides)
    if ext.params["a"].degree > i:
        return count_split_primes_enumerated(ext, i, budget)
    return _kummer_split_count(ext, i)


def count_split_primes_enumerated(ext: Extension, i: int,
                                  budget: int = SPLIT_SCAN_BUDGET) -> int:
    """`count_split_primes` by sieving every degree-i prime and asking
    `splits_completely` about each."""
    _require_normal(ext)
    if ext.base.size ** i > budget:
        raise BudgetExceeded(f"degree-{i} scan exceeds the budget")
    count = 0
    for prime in primes_of_degree(ext.base, i):
        try:
            if splits_completely(ext, prime):
                count += 1
        except UnsupportedRamifiedPrime:
            continue  # ramified primes never split completely
    return count


def _kummer_split_count(ext: Extension, i: int) -> int:
    """The split count of x^n = a, n | q - 1, from the distribution of a
    power residue character over the primes of degree i.

    Write a = c.a0 with a0 monic and e = (q-1)/n.  For a prime P not
    dividing a, reciprocity (Rosen, Number Theory in Function Fields, Thm
    3.3) gives (a/P)_n = w^(deg P) chi(P), with w = c^e (-1)^(e deg a0)
    and chi(f) = (f/a0)_n, and P splits completely iff (a/P)_n = 1.

    Distributions of chi values are vectors over Z/n, the exponents of a
    primitive n-th root of unity zeta, multiplied as in the group ring.
    N_d, chi's distribution over the monic f of degree d prime to a0, is
    q^(d - deg a0) times its distribution R over (A/a0)^x once
    d >= deg a0 (Rosen, Prop. 4.3), so only the lower degrees are
    enumerated.  With a0 = prod P_j^(v_j), chi's image is mu_m for
    m = n / gcd(n, v_1, ..., v_k), each value taken Phi(a0)/m times.

    Unique factorisation gives sum N_d u^d = prod over P not dividing a0
    of (1 - [chi(P)] u^(deg P))^-1.  Its logarithmic derivative yields
    Newton's identity c_k = k N_k - sum_(j<k) c_j N_(k-j), and
    c_i = sum over d | i of d psi_(i/d)(Pi_d), where Pi_d is chi's
    distribution over the degree-d primes prime to a0 and psi_m sends
    [z] to [z^m].  Solved for Pi_i by exact division, its entry at
    w^(-i) counts the split primes prime to a; `splits_completely`
    decides the degree-i primes that divide a0.
    """
    F = ext.base
    q, n, a = F.size, ext.params["n"], ext.params["a"]
    a0 = a.monic()
    deg_a0 = a0.degree
    e = (q - 1) // n
    zeta = F._element_of_order(n)
    log = {}
    z = 1
    for k in range(n):
        log[z] = k
        z = F.mul(z, zeta)
    w = F.pow(a.lead(), e)
    if e * deg_a0 % 2:
        w = F.neg(w)

    factors = ext.params["factors"]
    g = n
    phi = 1
    for f, v in factors:
        g = math.gcd(g, v)
        phi *= (q ** f.degree - 1) * q ** (f.degree * (v - 1))
    residues = [phi * g // n if k % g == 0 else 0 for k in range(n)]

    dists = [[1] + [0] * (n - 1)]
    for d in range(1, i + 1):
        if d >= deg_a0:
            scale = q ** (d - deg_a0)
            dists.append([scale * r for r in residues])
        else:
            dist = [0] * n
            for s, count in power_residue_counts(a0, n, d).items():
                dist[log[s]] = count
            dists.append(dist)

    power_sums = [None]
    for k in range(1, i + 1):
        c = [k * x for x in dists[k]]
        for j in range(1, k):
            for idx, x in enumerate(_group_ring_mul(power_sums[j],
                                                    dists[k - j])):
                c[idx] -= x
        power_sums.append(c)

    prime_dists: dict = {}
    for d in range(1, i + 1):
        if i % d:
            continue
        acc = list(power_sums[d])
        for d0, dist in prime_dists.items():
            if d % d0 == 0:
                for k, x in enumerate(dist):
                    acc[k * (d // d0) % n] -= d0 * x
        if any(x % d for x in acc):
            raise InvariantError(
                f"prime distribution of degree {d} is not integral: {acc}")
        prime_dists[d] = [x // d for x in acc]

    count = prime_dists[i][-i * log[w] % n]
    for f, _ in factors:
        if f.degree != i:
            continue
        try:
            if splits_completely(ext, Prime(f, check=False)):
                count += 1
        except UnsupportedRamifiedPrime:
            continue  # ramified primes never split completely
    return count


def _group_ring_mul(x: list, y: list) -> list:
    """The product in Z[Z/n] of two coefficient vectors of length n."""
    n = len(x)
    out = [0] * n
    for j, xj in enumerate(x):
        if xj:
            for k, yk in enumerate(y):
                out[(j + k) % n] += xj * yk
    return out


class CebotarevReport(NamedTuple):
    count: int
    main_term: Fraction
    bound: float
    holds: bool

    def to_json(self) -> dict:
        return {"schema": 1, "count": self.count,
                "main_term": float(self.main_term),
                "main_term_exact": str(self.main_term),
                "bound": self.bound, "holds": self.holds}


def cebotarev_check(ext: Extension, i: int) -> CebotarevReport:
    params = cebotarev_params_for(ext, i)
    params.check_applicable()
    count = count_split_primes(ext, i)
    holds = cebotarev_deviation_below_bound(params, count)
    return CebotarevReport(count, cebotarev_main_term(params),
                           cebotarev_bound(params), holds)


# ---------------------------------------------------------------------------
# Induction thresholds


def induction_threshold(kp_size: int, r: int, s: int, deg_z: int) -> int:
    """|k(p)|^((r-1)(2^s - 1)) * deg(Z)^(2^s), exact."""
    if s < 1:
        raise MalformedInput("the induction threshold needs s >= 1")
    if kp_size < 2 or r < 1 or deg_z < 1:
        raise MalformedInput("arguments must be positive")
    return kp_size ** ((r - 1) * (2 ** s - 1)) * deg_z ** (2 ** s)


def separable_N(r: int, s: int) -> int:
    """N = 2(r-1)(2^s - 1) + r^2 2^(s+1), exact."""
    if s < 0 or r < 1:
        raise MalformedInput("need r >= 1 and s >= 0")
    return 2 * (r - 1) * (2 ** s - 1) + r * r * 2 ** (s + 1)


def bezout(deg_v: int, deg_w: int) -> int:
    """deg(V cap W) <= deg V * deg W: the ledger value."""
    if deg_v < 1 or deg_w < 1:
        raise MalformedInput("degrees must be positive")
    return deg_v * deg_w


def hecke_pullback(deg: int, index: int) -> int:
    """deg T_g(X) <= index * deg X: the ledger value."""
    if deg < 1 or index < 1:
        raise MalformedInput("arguments must be positive")
    return deg * index
