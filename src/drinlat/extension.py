"""Finite extensions F'/F with one place over infinity: construction,
prime splitting, one place census for the zeta numerator and class
number, and the predegree machinery.

Four shapes are constructible.  Constant extensions adjoin constants,
Kummer extensions adjoin x with x^n = a(t) (n prime to the
characteristic and to deg a, so infinity is totally ramified and the
defining polynomial is irreducible by the Eisenstein criterion at
infinity), Artin-Schreier extensions adjoin x with x^p - x = a(t)
(pole order at infinity prime to p after the standard reduction), and
the generic shape trusts caller-supplied genus and infinity data.

Splitting at an unramified prime returns the monic irreducible factors
of the defining polynomial over the residue field.  `splitting_pattern`
knows their degrees without factoring: the constant-extension law, the
n-th power residue symbol for a Kummer extension with n | q - 1, and
the absolute trace for an Artin-Schreier one, the last two computed in
F_q[t].  `splitting` builds the factors from that pattern.  A split
Kummer prime takes one root of the radicand (`FiniteField.nth_root`,
one r-th root routine per prime factor r) times the roots of unity of
F_q; a split Artin-Schreier prime takes the trace-one solution of
y^p - y = c; each root is checked before it is returned.  A constant
extension splits its modulus by equal-degree splitting at the known
degree.  `poly_factor` remains for the Kummer ladder (n not dividing
q - 1) and generic extensions.  Ramified primes are handled by the
constructor's closed form or refused.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (BudgetExceeded, InvariantError, MalformedInput,
                     MultipleInfinitePlaces, ReducibleDefiningPolynomial,
                     UnsupportedRamifiedPrime, UnsupportedShape, decoding)
from .ffpoly import (FiniteField, Poly, Prime, _equal_degree_split,
                     absolute_trace, field_from_str, ord_at, poly_factor,
                     poly_from_str, poly_to_str, power_residue_symbol,
                     primes_of_degree, residue_field)
from .localfield import (DEFAULT_BUDGET, Lattice, OrderStructure,
                         saturate_lattice, stabilizer_index)

PLACE_BUDGET = 10 ** 6


class PlaceFactor(NamedTuple):
    """One place above a prime: ramification index e, residue degree f
    (both over F), and the defining factor over k(p) when available."""
    e: int
    f: int
    factor: Optional[tuple] = None  # coefficient tuple over k(p)

    @property
    def local_degree(self) -> int:
        return self.e * self.f


class SplittingType(NamedTuple):
    prime: Prime
    places: Tuple[PlaceFactor, ...]
    unramified: bool

    def degree_one_place(self) -> Optional[PlaceFactor]:
        for pl in self.places:
            if pl.local_degree == 1:
                return pl
        return None


class Extension:
    """A finite extension F'/F = F_q(t) with exactly one place over
    infinity, presented by the minimal polynomial of a generator y."""

    def __init__(self, kind: str, base: FiniteField, m: int, genus: int,
                 q_prime: int, x_coeffs: Sequence[Poly],
                 ram_support: Dict[Prime, Tuple[Tuple[int, int], ...]],
                 maximality_bad: frozenset, inf_ram: Tuple[int, int],
                 separable: bool, const_degree: int, params: dict):
        self.kind = kind
        self.base = base
        self.m = m
        self.genus = genus
        self.q_prime = q_prime
        self.x_coeffs = tuple(x_coeffs)  # monic in x, coefficients in A
        self.ram_support = dict(ram_support)
        self.maximality_bad = maximality_bad
        self.inf_ram = inf_ram  # (e, f) over F at the unique infinite place
        self.separable = separable
        self.const_degree = const_degree  # [F_{q'} : F_q]
        self.params = params
        if self.inf_ram[1] % self.const_degree:
            raise InvariantError(
                "infinite residue degree must be a multiple of the constant "
                "field degree")

    @property
    def infinite_place_degree(self) -> int:
        """Degree of the unique infinite place over F_{q'}."""
        return self.inf_ram[1] // self.const_degree

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(base: FiniteField, n: int) -> "Extension":
        if n < 1:
            raise MalformedInput("constant degree must be >= 1")
        if n == 1:
            coeffs = [-Poly.one(base), Poly.one(base)]
        else:
            modulus = _first_irreducible(base, n)
            coeffs = [Poly.const(base, c) for c in modulus.coeffs]
        return Extension("constant", base, n, 0, base.size ** n, coeffs,
                         {}, frozenset(), (1, n), True, n, {"n": n})

    @staticmethod
    def kummer(base: FiniteField, n: int, a: Poly) -> "Extension":
        p = base.p
        if n < 2:
            raise MalformedInput("Kummer degree must be >= 2")
        if n % p == 0:
            raise UnsupportedShape("Kummer degree must be prime to q")
        if a.degree < 1:
            raise UnsupportedShape("Kummer radicand must be non-constant")
        import math
        if math.gcd(n, a.degree) != 1:
            raise UnsupportedShape(
                "only deg(a) prime to n is supported (certifies a single "
                "totally ramified place over infinity)")
        fac = poly_factor(a)
        ram: Dict[Prime, Tuple[Tuple[int, int], ...]] = {}
        bad = set()
        genus_sum = 0
        for f, mult in fac:
            pr = Prime(f, check=False)
            mres = mult % n
            if mres != 0:
                g = math.gcd(n, mres)
                if g == 1:
                    ram[pr] = ((n, 1),)
                else:
                    ram[pr] = None  # mixed tame case: refuse at use site
                genus_sum += g * (n // g - 1) * pr.degree
            if mult >= 2:
                bad.add(pr)
        genus_sum += n - 1  # totally ramified infinite place
        two_g = -2 * n + genus_sum
        if two_g % 2 or two_g < -2:
            raise InvariantError(f"Riemann-Hurwitz gives 2g - 2 = {two_g}")
        genus = (two_g + 2) // 2
        coeffs = [-a] + [Poly.zero(base)] * (n - 1) + [Poly.one(base)]
        return Extension("kummer", base, n, genus, base.size, coeffs,
                         ram, frozenset(bad), (n, 1), True, 1,
                         {"n": n, "a": a, "factors": fac})

    @staticmethod
    def artin_schreier(base: FiniteField, a: Poly) -> "Extension":
        p = base.p
        a = _artin_schreier_reduce(base, a)
        if a.degree < 1:
            raise UnsupportedShape(
                "radicand reduces to a constant; use a constant extension")
        if a.degree % p == 0:
            raise UnsupportedShape(
                "pole order at infinity stays divisible by p after reduction")
        genus = (p - 1) * (a.degree - 1) // 2
        coeffs = [-a, -Poly.one(base)] + [Poly.zero(base)] * (p - 2) + \
            [Poly.one(base)]
        return Extension("artin_schreier", base, p, genus, base.size, coeffs,
                         {}, frozenset(), (p, 1), True, 1, {"a": a})

    @staticmethod
    def generic(base: FiniteField, x_coeffs: Sequence[Poly], genus: int,
                infinity_places: int = 1,
                inf_ram: Tuple[int, int] = (1, 1),
                q_prime: Optional[int] = None) -> "Extension":
        if infinity_places != 1:
            raise MultipleInfinitePlaces(
                "the datum requires exactly one place over infinity")
        coeffs = list(x_coeffs)
        if not coeffs or not coeffs[-1].is_one():
            raise MalformedInput("defining polynomial must be monic in x")
        m = len(coeffs) - 1
        if m < 1:
            raise ReducibleDefiningPolynomial("degree must be >= 1")
        # separable iff the formal x-derivative is nonzero
        deriv_nonzero = any(not coeffs[i].is_zero() and i % base.p != 0
                            for i in range(1, m + 1))
        qp = q_prime or base.size
        n_const = 1
        while base.size ** n_const < qp:
            n_const += 1
        if base.size ** n_const != qp:
            raise MalformedInput("q_prime must be a power of the base size")
        if deriv_nonzero:
            disc_primes = _discriminant_support(base, coeffs)
            ram = {pr: None for pr in disc_primes}
            return Extension("generic", base, m, genus, qp, coeffs, ram,
                             frozenset(disc_primes), inf_ram, True, n_const, {})
        # inseparable: only the pure shape x^(p^s) = a is supported
        inner = [i for i in range(1, m) if not coeffs[i].is_zero()]
        if inner or not _is_prime_power(m, base.p):
            raise UnsupportedShape(
                "inseparable defining polynomials are supported only in the "
                "pure form x^(p^s) - a")
        a = -coeffs[0]
        if _is_pth_power(a):
            raise ReducibleDefiningPolynomial("a is a p-th power in F")
        return Extension("generic", base, m, genus, qp, coeffs, {},
                         frozenset(), (m, 1), False, n_const, {"a": a})

    # -- serialization -------------------------------------------------------

    @staticmethod
    def from_json(spec: dict) -> "Extension":
        with decoding("extension spec"):
            kind = spec["kind"]
            base = field_from_str(str(spec["base"]))
            if kind == "constant":
                return Extension.constant(base, int(spec["n"]))
            if kind == "kummer":
                return Extension.kummer(base, int(spec["n"]),
                                        poly_from_str(spec["a"], base))
            if kind == "artin_schreier":
                return Extension.artin_schreier(base,
                                                poly_from_str(spec["a"], base))
            if kind == "generic":
                coeffs = [poly_from_str(s, base) for s in spec["f"]]
                inf_ram = tuple(spec.get("infinity_ram", (1, 1)))
                return Extension.generic(base, coeffs, int(spec["genus"]),
                                         int(spec.get("infinity_places", 1)),
                                         (int(inf_ram[0]), int(inf_ram[1])),
                                         spec.get("q_prime"))
        raise MalformedInput(f"unknown extension kind {kind!r}")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "base": str(self.base)}
        if self.kind == "constant":
            out["n"] = self.params["n"]
        elif self.kind == "kummer":
            out["n"] = self.params["n"]
            out["a"] = poly_to_str(self.params["a"])
        elif self.kind == "artin_schreier":
            out["a"] = poly_to_str(self.params["a"])
        else:
            out["f"] = [poly_to_str(c) for c in self.x_coeffs]
            out["genus"] = self.genus
            out["infinity_places"] = 1
            out["infinity_ram"] = list(self.inf_ram)
            if self.q_prime != self.base.size:
                out["q_prime"] = self.q_prime
        return out

    def __repr__(self):
        return f"Extension({self.to_json()!r})"


def make_extension(spec: dict) -> Extension:
    return Extension.from_json(spec)


def _first_irreducible(field: FiniteField, degree: int) -> Poly:
    from .ffpoly import _monic_polys
    for f in _monic_polys(field, degree):
        if f.is_irreducible():
            return f
    raise InvariantError("no irreducible polynomial found")


def _artin_schreier_reduce(base: FiniteField, a: Poly) -> Poly:
    """Subtract c^p - c terms until the degree is prime to p or the
    radicand is constant."""
    p = base.p
    root_exp = base.size // p
    while a.degree >= 1 and a.degree % p == 0:
        d = a.degree
        c = base.pow(a.lead(), root_exp)  # p-th root of the leading coeff
        corr = Poly.monomial(base, c, d // p)
        a = a - corr ** p + corr
        if a.degree >= d:
            raise InvariantError("Artin-Schreier reduction must lower the degree")
    return a


def _is_prime_power(m: int, p: int) -> bool:
    while m % p == 0:
        m //= p
    return m == 1


def _is_pth_power(a: Poly) -> bool:
    """Whether a is a p-th power in F_q[t]: over the perfect F_q, a' = 0."""
    return a.derivative().is_zero()


def _discriminant_support(base: FiniteField, coeffs: Sequence[Poly]) -> frozenset:
    """Prime factors of res_x(f, df/dx) for a separable defining polynomial."""
    m = len(coeffs) - 1
    deriv = []
    for i in range(1, m + 1):
        c = coeffs[i]
        acc = Poly.zero(base)
        for _ in range(i % base.p):
            acc = acc + c
        deriv.append(acc)
    while deriv and deriv[-1].is_zero():
        deriv.pop()
    res = _poly_resultant(base, list(coeffs), deriv)
    if res.is_zero():
        raise ReducibleDefiningPolynomial(
            "vanishing discriminant for a separable polynomial")
    return frozenset(Prime(f, check=False) for f, _ in poly_factor(res)
                     if f.degree >= 1)


def _poly_resultant(base: FiniteField, f: List[Poly], g: List[Poly]) -> Poly:
    """Resultant of two x-polynomials with A-coefficients via the Sylvester
    matrix and fraction-free (Bareiss) elimination over F_q[t]."""
    n = len(f) - 1
    m = len(g) - 1
    size = n + m
    if size == 0:
        return Poly.one(base)
    zero = Poly.zero(base)
    mat = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(reversed(f)):
            mat[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(reversed(g)):
            mat[m + i][i + j] = c
    return _bareiss_det(base, mat)


def _bareiss_det(base: FiniteField, mat: List[List[Poly]]) -> Poly:
    n = len(mat)
    m = [row[:] for row in mat]
    prev = Poly.one(base)
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero()),
                       None)
            if piv is None:
                return Poly.zero(base)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if not r.is_zero():
                    raise InvariantError("Bareiss division must be exact")
                m[i][j] = q
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


# ---------------------------------------------------------------------------
# Splitting

def splitting(ext: Extension, prime: Prime) -> SplittingType:
    """Factorization type of the prime in F'/F.  It starts from the
    pattern that `_known_pattern` reads without factoring; at an
    unramified prime the places are the monic irreducible factors of the
    defining polynomial over k(p) (`_unramified_factors`)."""
    pattern = _known_pattern(ext, prime)
    if not ext.separable or prime in ext.ram_support:
        return SplittingType(prime, tuple(PlaceFactor(e, f)
                                          for e, f in pattern), False)
    places = sorted(PlaceFactor(1, f.degree, tuple(f.coeffs))
                    for f in _unramified_factors(ext, prime, pattern))
    total = sum(pl.e * pl.f for pl in places)
    if total != ext.m:
        raise InvariantError(
            f"local degrees at {prime} sum to {total}, not {ext.m}")
    return SplittingType(prime, tuple(places), True)


def _unramified_factors(ext: Extension, prime: Prime,
                        pattern: Optional[Tuple[Tuple[int, int], ...]]
                        ) -> List[Poly]:
    """The monic irreducible factors of the reduced defining polynomial
    over k(p) at an unramified prime, given its pattern where
    `_known_pattern` knows one.

    - An inert prime keeps the reduced polynomial, unfactored.
    - A constant extension splits its modulus at the known degree by
      equal-degree splitting alone.
    - A Kummer prime with n | q - 1 and pattern n/m factors of degree m
      takes one (n/m)-th root c of b (`FiniteField.nth_root`): x^n - b
      is the product of x^m - omega c over the (n/m)-th roots of unity
      omega of F_q.
    - A split Artin-Schreier prime has the roots y + j, j in F_p, for
      the root y of `FiniteField.artin_schreier_root`.
    - The Kummer ladder (n not dividing q - 1) and generic extensions
      go to `poly_factor`.
    """
    kp = residue_field(prime)
    reduced = _reduced_defining_poly(ext, prime, kp)
    if pattern is not None and len(pattern) == 1:
        return [reduced]  # inert: monic and irreducible over k(p)
    if ext.kind == "constant":
        return _equal_degree_split(reduced, pattern[0][1])
    if ext.kind == "artin_schreier":
        c = kp.neg(reduced.coeffs[0])
        y = kp.artin_schreier_root(c)
        if kp.sub(kp.frobenius(y), y) != c:
            raise InvariantError(
                f"y^p - y != c for the root formula at {prime}")
        return [Poly(kp, (kp.neg(kp.add(y, j)), 1)) for j in range(kp.p)]
    if ext.kind == "kummer" and (ext.base.size - 1) % ext.params["n"] == 0:
        return _kummer_factors(kp, kp.neg(reduced.coeffs[0]),
                               ext.params["n"], pattern[0][1])
    factors = []
    for f, mult in poly_factor(reduced):
        if mult != 1:
            raise InvariantError(
                f"unexpected ramification at {prime} away from the support")
        factors.append(f)
    return factors


def _kummer_factors(kp, b: int, n: int, m: int) -> List[Poly]:
    """x^n - b over k(p) as the k = n/m binomials x^m - omega c, for one
    k-th root c of b and the k-th roots of unity omega of F_q.  The
    omegas are checked to be k distinct k-th roots of unity, so the
    (omega c)^k = b are all the roots of X^k = b and the binomials
    multiply to x^n - b."""
    k = n // m
    F = kp.base
    try:
        c = kp.nth_root(b, k)
    except MalformedInput as exc:
        raise InvariantError(f"the pattern promised a {k}-th power") from exc
    omegas = _roots_of_unity(F, k)
    if len(set(omegas)) != k or any(F.pow(w, k) != 1 for w in omegas):
        raise InvariantError(f"not the {k} distinct {k}-th roots of unity "
                             f"of {F!r}: {omegas}")
    zeros = (0,) * (m - 1)
    return [Poly(kp, (kp.scale(F.neg(w), c),) + zeros + (1,))
            for w in omegas]


@lru_cache(maxsize=None)
def _roots_of_unity(F: FiniteField, k: int) -> Tuple[int, ...]:
    """The k-th roots of unity of F, for k dividing |F| - 1, ascending: the
    powers of one element of order k (`FiniteField._element_of_order`)."""
    w = F._element_of_order(k)
    powers = itertools.accumulate([w] * (k - 1), F._untabled_mul(), initial=1)
    return tuple(sorted(powers))


def _reduced_defining_poly(ext: Extension, prime: Prime, kp) -> Poly:
    if ext.kind == "kummer":
        # a = p^mult * b with n | mult: substitute x -> x * p^(mult/n)
        b = _prime_to_part(ext.params["a"], prime)
        n = ext.params["n"]
        return Poly(kp, [kp.neg(kp.reduce(b))] + [0] * (n - 1) + [1])
    return Poly(kp, [kp.reduce(c) for c in ext.x_coeffs])


def splitting_pattern(ext: Extension, prime: Prime) -> Tuple[Tuple[int, int], ...]:
    """The multiset of (e, f) above a prime, without factor polynomials.

    Uses exact residue tests instead of full factorization, so scans over
    many primes stay cheap (`_known_pattern`).  Only an unramified prime
    of a generic extension is factored, once, by `splitting`.  The result
    agrees with splitting(...) everywhere both are defined.
    """
    pattern = _known_pattern(ext, prime)
    if pattern is None:
        pattern = tuple(sorted((pl.e, pl.f)
                               for pl in splitting(ext, prime).places))
    return pattern


def _known_pattern(ext: Extension, prime: Prime
                   ) -> Optional[Tuple[Tuple[int, int], ...]]:
    """The pattern wherever it is known without factoring: the closed
    forms at ramified primes and of inseparable extensions, the
    constant-extension law, the power residue symbol or the root-count
    ladder for Kummer extensions (see `_kummer_pattern`), the absolute
    trace for Artin-Schreier ones.  None at an unramified prime of a
    generic extension."""
    if prime.field is not ext.base:
        raise MalformedInput("prime and extension base fields differ")
    if not ext.separable:
        return ((ext.m, 1),)
    if prime in ext.ram_support:
        closed = ext.ram_support[prime]
        if closed is None:
            raise UnsupportedRamifiedPrime(
                f"no closed form for the ramified prime {prime}")
        return tuple(sorted(closed))
    if ext.kind == "constant":
        count, f = constant_splitting_law(ext.m, prime.degree)
        return ((1, f),) * count
    if ext.kind == "kummer":
        return _kummer_pattern(ext, prime)
    if ext.kind == "artin_schreier":
        return _artin_schreier_pattern(ext, prime)
    return None


def _kummer_pattern(ext: Extension, prime: Prime) -> Tuple[Tuple[int, int], ...]:
    """Degrees of the irreducible factors of x^n - b over k(p), where
    b = a / p^(v_p(a)).

    When n | q - 1, s = (b/p)_n lies in the n-th roots of unity of F_q.
    x^n = b has a root in the degree-j extension of k(p) iff
    b^((Q^j - 1)/n) = s^j is 1 (Q = |k(p)|), so x^n - b is a product of
    n/m irreducibles of degree m, the order of s.  No residue field is
    built.  Otherwise the root-count ladder decides.
    """
    n = ext.params["n"]
    F = ext.base
    if (F.size - 1) % n:
        return _kummer_pattern_ladder(ext, prime)
    s = power_residue_symbol(_prime_to_part(ext.params["a"], prime),
                             prime.poly, n)
    m, power = 1, s
    while power != 1:
        power = F.mul(power, s)
        m += 1
    return ((1, m),) * (n // m)


def _prime_to_part(a: Poly, prime: Prime) -> Poly:
    """a / p^(v_p(a))."""
    for _ in range(ord_at(prime, a)):
        a = a // prime.poly
    return a


def _kummer_pattern_ladder(ext: Extension,
                           prime: Prime) -> Tuple[Tuple[int, int], ...]:
    """The Kummer pattern from the root-count ladder in k(p): x^n = c has
    gcd(n, Q^j-1) roots in F_{Q^j} iff c^((Q^j-1)/gcd) = 1, else none.
    It decides when n does not divide q - 1, and is the oracle of the
    power-residue path."""
    import math
    kp = residue_field(prime)
    n = ext.params["n"]
    c = kp.reduce(_prime_to_part(ext.params["a"], prime))
    q_res = kp.size
    pattern = []
    strict = {}
    total = 0
    j = 1
    while total < n:
        size_j = q_res ** j - 1
        g = math.gcd(n, size_j)
        if kp.pow(c, size_j // g) == 1:
            roots = g
        else:
            roots = 0
        new = roots - sum(strict.get(d, 0) for d in range(1, j) if j % d == 0)
        strict[j] = new
        if new:
            if new % j:
                raise InvariantError(
                    f"{new} roots of exact degree {j} over k({prime})")
            pattern.extend([(1, j)] * (new // j))
            total += new
        j += 1
    if total != n:
        raise InvariantError(f"x^{n} - c has {total} roots, not {n}")
    return tuple(sorted(pattern))


def _artin_schreier_pattern(ext: Extension, prime: Prime) -> Tuple[Tuple[int, int], ...]:
    """x^p - x - c splits completely iff the absolute trace of c vanishes,
    and is irreducible otherwise.  The trace is taken in F_q[t] mod p
    (`absolute_trace`), so no residue field is built."""
    if absolute_trace(ext.params["a"], prime) == 0:
        return ((1, 1),) * ext.base.p
    return ((1, ext.base.p),)


def splits_completely(ext: Extension, prime: Prime) -> bool:
    pattern = splitting_pattern(ext, prime)
    return pattern == ((1, 1),) * ext.m


def constant_splitting_law(n: int, d: int) -> Tuple[int, int]:
    """(number of places, residue degree) of a degree-d prime in the
    constant extension of degree n."""
    import math
    g = math.gcd(n, d)
    return g, n // g


# ---------------------------------------------------------------------------
# Zeta and class numbers

class ZetaData(NamedTuple):
    q_prime: int
    genus: int
    place_counts: List[int]          # b_d for d = 1..genus
    point_counts: List[int]          # N_i over F_{q'^i}, i = 1..genus
    coefficients: List[int]          # a_0..a_{2g} of the numerator P(u)
    h: int                           # class number of A'


def place_counts(ext: Extension, g: int) -> List[int]:
    """b_1..b_g, the places of F' of degree 1..g over F_{q'}, infinity
    included, from one pass over the primes of degree d <= g.n_const: a
    place (e, f) above one has degree d.f / n_const.  The place budget is
    checked first, and refused as a scan degree by degree would refuse: at
    the first unsupported ramified prime of degree <= (D - 1).n_const in
    scan order, else at the least D whose primes of degree D.n_const are
    past it."""
    n_const = ext.const_degree
    over = next((D for D in range(1, g + 1)
                 if ext.base.size ** (D * n_const) > PLACE_BUDGET), None)
    if over is not None:
        unsupported = [pr for pr, closed in ext.ram_support.items()
                       if closed is None and pr.degree <= (over - 1) * n_const]
        if unsupported:
            _known_pattern(ext, min(unsupported, key=Prime.sort_key))
        raise BudgetExceeded(f"enumerating primes of degree up to "
                             f"{over * n_const} exceeds the budget")
    top = g * n_const
    b = [int(D == ext.infinite_place_degree) for D in range(1, g + 1)]
    for d in range(1, top + 1):
        for prime in primes_of_degree(ext.base, d):
            for e, f in splitting_pattern(ext, prime):
                if (d * f) % n_const == 0 and d * f <= top:
                    b[d * f // n_const - 1] += 1
    return b


def zeta_numerator(ext: Extension) -> ZetaData:
    """Numerator P(u) of the zeta function of F' from the place counts
    b_1..b_g.  With N_i = sum_{d | i} d b_d and S_i = N_i - 1 - q'^i,
    log P(u) = sum S_i u^i / i, so Newton's identity
    k a_k = sum_{i <= k} S_i a_{k-i} gives a_1..a_g by exact division, and
    the functional equation a_{2g-i} = q'^(g-i) a_i the rest.  The class
    number is h = P(1) times the degree of the infinite place (1 for all
    structured shapes)."""
    g = ext.genus
    qp = ext.q_prime
    if g == 0:
        return ZetaData(qp, 0, [], [], [1], 1)
    b = place_counts(ext, g)
    n_counts = [sum(d * b[d - 1] for d in range(1, i + 1) if i % d == 0)
                for i in range(1, g + 1)]
    s = [n - 1 - qp ** i for i, n in enumerate(n_counts, 1)]
    coeffs = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        a_k, rem = divmod(sum(s[i - 1] * coeffs[k - i]
                              for i in range(1, k + 1)), k)
        if rem:
            raise InvariantError(
                f"zeta numerator coefficient a_{k} is not an integer")
        coeffs[k] = a_k
    for i in range(g):
        coeffs[2 * g - i] = qp ** (g - i) * coeffs[i]
    h_order = sum(coeffs) * ext.infinite_place_degree
    from .bounds import clg_lower_bound  # bounds imports this module
    lower = clg_lower_bound(qp, g)
    if h_order < 1 or h_order < lower:
        raise InvariantError(
            f"class number {h_order} is below 1 or the genus bound {lower}")
    return ZetaData(qp, g, b, n_counts, coeffs, h_order)


def class_number(ext: Extension) -> int:
    return zeta_numerator(ext).h


def predegree(ext: Extension, index: int) -> int:
    """D = |Cl(F')| * i for a datum of index i >= 1."""
    if index < 1:
        raise MalformedInput("index must be >= 1")
    return class_number(ext) * index


# ---------------------------------------------------------------------------
# Orders at primes and the datum index

def order_at(ext: Extension, prime: Prime, r_prime: int) -> OrderStructure:
    """The A_p-order A'_p = A_p[y] presented by the defining polynomial,
    valid where A[y] is p-maximal.  Its (e, f) shape, which feeds only m
    and `gl_order`, is `splitting_pattern`'s: nothing is factored."""
    if not ext.separable:
        raise UnsupportedRamifiedPrime(
            "no order machinery for inseparable extensions")
    if prime in ext.maximality_bad:
        raise UnsupportedRamifiedPrime(
            f"A[y] is not certified maximal at {prime}")
    factors = splitting_pattern(ext, prime)
    for e, f in factors:
        if e > 1 and f > 1:
            raise UnsupportedRamifiedPrime(
                "mixed ramified factors are outside the supported shapes")
    return OrderStructure.from_min_poly(prime, r_prime, list(ext.x_coeffs),
                                        factors)


def index_iX(datum, budget: int = DEFAULT_BUDGET) -> int:
    """i(X) = product over the twist support of the local stabilizer
    indices [GL_{r'}(A'_p) : Stab(Lambda_p)], after normalizing each local
    lattice so its A'-span is standard."""
    ext = datum.extension
    total = 1
    for prime, matrix in sorted(datum.twists.items(), key=lambda kv: kv[0].sort_key()):
        order = order_at(ext, prime, datum.r_prime)
        lat = saturate_lattice(order, Lattice(matrix), budget)
        total *= stabilizer_index(lat, order, None, budget)
    return total
