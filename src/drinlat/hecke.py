"""Hecke-correspondence degrees, Newton polygons, and the projective
boundedness predicate.

The degree of the correspondence attached to g at level depth k is the
index [K : K cap g^-1 K g] for K the principal congruence subgroup mod
p^k.  It is read off the elementary divisors e_1 <= ... <= e_r of g as
q_p^(sum over a < b of (e_b - e_a)), valid when the spread e_r - e_1 is
at most k.  The characteristic polynomial sums the principal minors of
each size, all computed in one Laplace programme that shares
sub-determinants between minors (633 products at r = 6), written once
with the arithmetic as a parameter: `char_poly` runs it on the entries'
field tuples with `localfield`'s add, mul and neg rules, and the sampled
check on packed polynomials.  Their brute-force oracles live in
`tests/hecke_oracle.py`: coset counting in the finite quotient
K(p^k)/K(p^2k) ~ Mat_r(A/p^k) (`hecke_degree_enumerated`), the
expansion of each minor over all permutations (`char_poly_expanded`) and
the programme in `LocalElement` arithmetic (`char_poly_elements`).
The boundedness predicate reads the Newton polygon of the characteristic
polynomial: at least two segments certifies an unbounded cyclic image in
PGL_r(F_p); the adopted converse is that a single slope means bounded (a
power scales to an integral matrix with unit determinant, and unipotent
parts have finite order in characteristic p).  The power/SNF-spread
cross-check in the test suite exercises that converse independently.
The sampled unboundedness check of a Hecke element computes each sample
over A, in packed polynomials with exact products, and only the
valuations of its coefficients leave the kernel.  Over fields of fewer
than 2^8 elements its coefficients are read off whole words of the
generator, in one batch per sample; they are the ones that one
`randrange(q)` per coefficient gives.  Its oracle,
`tests/hecke_oracle.py`'s `unboundedness_sample_matrix`, draws them with
`randrange` and computes the samples in `LocalMatrix` arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ._chainring import _kernel
from .errors import (BudgetExceeded, InvariantError, PrecisionExhausted,
                     QuotientInsufficient)
from .ffpoly import Prime
from .localfield import (_ZERO_FIELDS, DEFAULT_BUDGET, DEFAULT_PRECISION,
                         LocalElement, LocalMatrix, _add_fields, _element,
                         _is_zero_fields, _mul_fields, _neg_fields)


# ---------------------------------------------------------------------------
# Characteristic polynomial

def char_poly(g: LocalMatrix) -> List[LocalElement]:
    """Coefficients [a_0, ..., a_{r-1}, 1] of det(lambda*I - g).

    a_{r-i} = (-1)^i e_i, where e_i is the sum of the principal i x i
    minors, all of them from the one Laplace programme `_minor_sums`.  It
    runs on the entries' field tuples (kind, val, unit, prec, exact) with
    `localfield`'s add, mul and neg rules, so that no step builds an
    element, and only the r coefficients are wrapped.  Its products are
    the oracle `char_poly_expanded`'s, in the same left-to-right row
    order, so truncation acts on the same products; the same programme in
    `LocalElement` arithmetic is the oracle `char_poly_elements`.
    """
    prime = g.prime
    kr = _kernel(prime)
    e = _minor_sums([[x._fields for x in row] for row in g.rows],
                    _ZERO_FIELDS, _is_zero_fields,
                    functools.partial(_add_fields, kr),
                    functools.partial(_neg_fields, kr),
                    functools.partial(_mul_fields, kr))
    coeffs = [_element(kr, e[i] if i % 2 == 0 else _neg_fields(kr, e[i]))
              for i in range(g.r, 0, -1)]
    return coeffs + [LocalElement.one(prime, g.working_precision())]


def _minor_sums(rows, zero, is_zero, add, neg, mul) -> list:
    """[zero, e_1, ..., e_r]: e_i is the sum of the principal i x i
    minors of the square matrix `rows`, in the arithmetic that `zero`,
    `is_zero`, `add`, `neg` and `mul` give.

    One Laplace programme shares sub-determinants between the minors:
    D(P, T) = det rows[P][T] for a row set P, which is a prefix of the
    principal index sets it serves, and a column set T of the same size
    inside P and the indices after max P.  Level k+1 expands along the
    new last row m:

        D(P + m, T) = sum over c in T of +-D(P, T - c) * rows[m][c],

    and e_i = sum over |P| = i of D(P, P).  Every product is a
    sub-determinant times the next row's entry, and zeros are skipped.
    A dense r = 6 matrix takes 633 products where the expansion over all
    permutations takes 7,830.
    """
    r = len(rows)
    # column sets are bit masks; a row keeps None where it has a zero
    rows = [[None if is_zero(x) else x for x in row] for row in rows]
    e = [zero] * (r + 1)
    # level[P] maps each column set T to D(P, T), zeros left out; the row
    # sets P come in lexicographic order
    level = {(i,): {1 << c: rows[i][c] for c in range(i, r)
                    if rows[i][c] is not None} for i in range(r)}
    for k in range(1, r + 1):
        for P, minors in level.items():
            d = minors.get(sum(1 << i for i in P))
            if d is not None:
                e[k] = add(e[k], d)
        level = {P + (m,): _next_minors(minors, _expansion(P, m, r),
                                        rows[m], is_zero, add, neg, mul)
                 for P, minors in level.items()
                 for m in range(P[-1] + 1, r)}
    return e


@functools.lru_cache(maxsize=None)
def _expansion(P: Tuple[int, ...], m: int, r: int):
    """The expansion of D(P + m, .) along row m: for each column set T of
    size |P| + 1 inside P and m, ..., r - 1, its mask and its terms (c,
    mask of T - c, whether the sign is -), c ascending.  The plan depends
    only on the indices, so it is made once per shape."""
    k = len(P)
    plan = []
    for T in itertools.combinations(P + tuple(range(m, r)), k + 1):
        mask = sum(1 << c for c in T)
        plan.append((mask, tuple((c, mask ^ (1 << c), (k + j) % 2 == 1)
                                 for j, c in enumerate(T))))
    return tuple(plan)


def _next_minors(minors, plan, row, is_zero, add, neg, mul):
    """D(P + m, T) for every T of the plan, from row m and the minors
    D(P, .)."""
    out = {}
    for mask, terms in plan:
        acc = None
        for c, sub_mask, odd in terms:
            x = row[c]
            if x is None:
                continue
            sub = minors.get(sub_mask)
            if sub is None:
                continue
            term = mul(sub, x)
            if odd:
                term = neg(term)
            acc = term if acc is None else add(acc, term)
        if acc is not None and not is_zero(acc):
            out[mask] = acc
    return out


# ---------------------------------------------------------------------------
# Newton polygons

class NewtonPolygon(NamedTuple):
    """Lower convex hull of (i, v(a_i)); slopes strictly increase and the
    negatives of the slopes are the root valuations with multiplicity."""
    points: Tuple[Tuple[int, Optional[int]], ...]
    vertices: Tuple[Tuple[int, int], ...]
    segments: Tuple[Tuple[Fraction, int], ...]

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def hull_height(self, x: Fraction) -> Fraction:
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            if x1 <= x <= x2:
                return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
        raise ValueError(f"abscissa {x} outside the polygon")


def newton_polygon(coeffs: Sequence[LocalElement]) -> NewtonPolygon:
    """Newton polygon of a monic polynomial given by its coefficient list
    [a_0, ..., a_r] (a_r the leading one).

    Exact-zero coefficients are skipped.  An uncertified coefficient is
    tolerated only when it lies within the x-range of the certified hull
    and its valuation bound already places it on or above the hull;
    otherwise PrecisionExhausted.
    """
    certified: List[Tuple[int, int]] = []
    unknown: List[Tuple[int, int]] = []
    points: List[Tuple[int, Optional[int]]] = []
    for i, c in enumerate(coeffs):
        if c.kind == "n":
            certified.append((i, c.val))
            points.append((i, c.val))
        elif c.kind == "u":
            unknown.append((i, c.val))
            points.append((i, None))
        else:
            points.append((i, None))
    if len(certified) < 2:
        raise PrecisionExhausted("not enough certified coefficients for a hull")

    hull: List[Tuple[int, int]] = []
    for p in certified:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)

    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))

    np = NewtonPolygon(tuple(points), tuple(hull), tuple(segments))
    for i, bound in unknown:
        if not hull[0][0] <= i <= hull[-1][0]:
            # a nonzero coefficient there is a new end vertex of the hull
            raise PrecisionExhausted(
                f"coefficient {i} known only to O(pi^{bound}), outside "
                f"the certified hull")
        if bound < np.hull_height(Fraction(i)):
            raise PrecisionExhausted(
                f"coefficient {i} known only to O(pi^{bound}), below the hull")
    return np


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def projectively_bounded(g: LocalMatrix) -> bool:
    """True iff the Newton polygon of char_poly(g) has a single slope,
    i.e. the cyclic image of g in PGL_r(F_p) is bounded."""
    return newton_polygon(char_poly(g)).segment_count == 1


# ---------------------------------------------------------------------------
# Hecke degrees

def standard_hecke_matrix(prime: Prime, r: int,
                          precision: int = DEFAULT_PRECISION) -> LocalMatrix:
    """diag(pi^-1, 1, ..., 1)."""
    entries = [LocalElement.pi_power(prime, -1, precision)]
    entries += [LocalElement.one(prime, precision) for _ in range(r - 1)]
    return LocalMatrix.diagonal(prime, entries)


class HeckeElement(NamedTuple):
    """Correspondence element g = s diag(pi^-1, 1, ..., 1) s^-1 with its
    declared degree |k(p)|^(r-1)."""
    prime: Prime
    r: int
    matrix: LocalMatrix
    conjugator: LocalMatrix
    degree: int


def exhecke_element(cert) -> HeckeElement:
    """Build the Hecke element attached to a good-prime certificate.

    The element is s diag(pi^-1, 1, ..., 1) s^-1 for the lattice-aligning
    s of the certificate; the congruence group K(p) is normal in
    GL_r(A_p), so any A_p-basis of the lattice yields the same degree and
    unboundedness properties.
    """
    prime = cert.prime
    r = cert.r
    s = cert.s_matrix
    d = standard_hecke_matrix(prime, r)
    g = s @ d @ s.inverse()
    if projectively_bounded(g):
        raise InvariantError("constructed element must be unbounded")
    return HeckeElement(prime, r, g, s, prime.residue_size ** (r - 1))


def hecke_degree(g: LocalMatrix, depth: int = 1,
                 budget: int = DEFAULT_BUDGET) -> int:
    """[K : K cap g^-1 K g] at level K = K(p^depth), in closed form.

    With elementary divisors e_1 <= ... <= e_r of g the degree is
    q_p^(sum over a < b of (e_b - e_a)): writing g = U diag(pi^e) V with
    U, V in GL_r(A_p), 1 + p^depth M lies in g^-1 K g iff N = V M V^-1
    has v(N_ab) >= e_b - e_a, and conjugation by V permutes
    Mat_r(A/p^depth).  The count lives in the finite quotient
    K(p^depth)/K(p^2*depth) ~ Mat_r(A/p^depth), which captures the index
    exactly when the spread e_r - e_1 is <= depth; a larger spread is
    refused with QuotientInsufficient.  A quotient of more than `budget`
    cosets, the number the coset-counting oracle walks, is refused with
    BudgetExceeded.
    """
    exps = _divisors_within(g, depth)
    qres = g.prime.residue_size
    total = qres ** (depth * g.r * g.r)
    if total > budget:
        raise BudgetExceeded(f"{total} cosets exceed budget {budget}")
    return qres ** sum(eb - ea for ea, eb in itertools.combinations(exps, 2))


def _divisors_within(g: LocalMatrix, depth: int) -> Tuple[int, ...]:
    """Sorted elementary divisors of g; QuotientInsufficient when their
    spread exceeds depth."""
    exps = g.elementary_divisors()
    spread = exps[-1] - exps[0]
    if spread > depth:
        raise QuotientInsufficient(
            f"divisor spread {spread} > depth {depth}: the quotient mod "
            f"p^{2 * depth} does not capture the index")
    return exps


# ---------------------------------------------------------------------------
# Sampled unboundedness certification

class SampleOutcome(NamedTuple):
    index: int
    v_a0: Optional[int]
    v_atop: Optional[int]
    segments: int
    passed: bool


class SampleReport(NamedTuple):
    prime_text: str
    r: int
    samples: int
    seed: int
    outcomes: List[SampleOutcome]

    @property
    def passes(self) -> int:
        return sum(1 for o in self.outcomes if o.passed)

    @property
    def all_pass(self) -> bool:
        return self.passes == self.samples


def unboundedness_sample_check(elem: HeckeElement, samples: int = 100,
                               seed: int = 0,
                               precision: int = DEFAULT_PRECISION) -> SampleReport:
    """Sample k_1, k_2 in the depth-1 congruence group and certify that
    the characteristic polynomial of k_2 D k_1 has v(a_0) = -1,
    v(a_{r-1}) = -1 and at least two Newton segments.  The k_i are
    uniform in K(p) mod p^precision, and inversion is a bijection of that
    finite group, so k_2 D k_1 has the distribution of k_2^-1 D k_1^-1
    without inverting anything.

    D is the diagonal model diag(pi^-1, 1, ..., 1) of the element
    (equivalent by normality of K(p) under GL_r(A_p)), and each sample is
    computed over A in the packed kernel (`_packed_sample`): only the
    valuations of the coefficients leave it.  Anything but a HeckeElement
    is refused with TypeError, and fewer than one sample with ValueError,
    before any draw.
    """
    if not isinstance(elem, HeckeElement):
        raise TypeError(f"expected a HeckeElement, got "
                        f"{type(elem).__name__}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    prime, r = elem.prime, elem.r
    outcomes = []
    for idx in range(samples):
        cp = _packed_sample(prime, r, _sample_rng(seed, idx), precision)
        np_ = newton_polygon(cp)
        v0 = cp[0].val if cp[0].kind == "n" else None
        vtop = cp[r - 1].val if cp[r - 1].kind == "n" else None
        passed = (v0 == -1 and vtop == -1 and np_.segment_count >= 2)
        outcomes.append(SampleOutcome(idx, v0, vtop, np_.segment_count, passed))
    return SampleReport(str(prime), r, samples, seed, outcomes)


def _sample_rng(seed: int, idx: int) -> random.Random:
    """The generator of sample idx of a check seeded with seed."""
    return random.Random((seed << 20) ^ (idx * 1000003 + 1))


def _packed_sample(prime: Prime, r: int, rng,
                   precision: int) -> List[LocalElement]:
    """The characteristic polynomial of one sample b = k_2 D k_1, D =
    diag(pi^-1, 1, ..., 1): its coefficients [a_0, ..., a_r] as exact
    powers of pi, since the Newton polygon reads only their valuations.

    The coefficients of k_1, then k_2, are drawn in one batch
    (`_draw_below`), which may leave rng past the last value it returns:
    the generator is made for this one sample and dropped after it.  The
    k_i come from `_packed_congruence_matrix`.  Their entries are
    polynomials, so B = k_2 diag(1, p, ..., p) k_1 = pi b is a matrix over
    A, formed with exact packed products, and e_i(b) = pi^-i e_i(B) gives
    v(a_{r-i}) = v(e_i(B)) - i.  The products run on the packed
    coefficients in t: multiplication does not depend on the variable,
    and only the r sums e_i(B) are translated to the kernel's variable for
    their valuation.
    """
    kr = _kernel(prime)
    add, mul = kr.add, kr.mul
    p_t = kr.pack(prime.poly.coeffs)
    n = kr.d * (precision - 1)
    coeffs = _draw_below(rng, kr.q, 2 * r * r * n)
    k1 = _packed_congruence_matrix(kr, r, coeffs[:r * r * n], n, p_t)
    k2 = _packed_congruence_matrix(kr, r, coeffs[r * r * n:], n, p_t)
    dk1 = [k1[0]] + [[mul(x, p_t) if x else 0 for x in row]
                     for row in k1[1:]]
    B = []
    for row in k2:
        out = []
        for col in zip(*dk1):
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            out.append(acc)
        B.append(out)
    e = _minor_sums(B, 0, operator.not_, add, kr.neg, mul)
    one = LocalElement.one(prime, precision)
    cp = [one] * (r + 1)
    for i in range(1, r + 1):
        x = kr.translate(e[i], kr.shift) if kr.shift else e[i]
        cp[r - i] = one.shift(kr.val(x) - i) if x else LocalElement.zero(prime)
    return cp


def _packed_congruence_matrix(kr, r: int, coeffs: Sequence[int], n: int,
                              p_t: int) -> List[List[int]]:
    """The element 1 + p*M of K(p) mod p^precision, over A and packed in t,
    whose r^2 entries of M take the r^2 n coefficients `coeffs` in runs
    of n = d(precision - 1), row by row, each run constant term first;
    uniform coefficients give a uniform element.  The oracle in
    `tests/hecke_oracle.py` draws the same entries as `LocalElement`s."""
    if len(coeffs) != r * r * n:
        raise InvariantError("congruence matrix needs r^2 n coefficients")
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            start = (i * r + j) * n
            f = kr.pack(coeffs[start:start + n])
            x = kr.mul(f, p_t) if f else 0
            row.append(kr.add(x, 1) if i == j else x)
        rows.append(row)
    return rows


def _draw_below(rng, q: int, n: int) -> List[int]:
    """[rng.randrange(q) for _ in range(n)], read off whole 32-bit words.

    For q < 2^32, each try of randrange(q) takes the next 32-bit output of
    the generator, keeps its top k = q.bit_length() bits and rejects a
    value >= q.  rng.getrandbits(32 m) returns the next m outputs, the
    first in the lowest bits, so the same values come off its words in
    the same order, a batch at a time.  For q < 2^8 the k bits are the
    top bits of a word's last byte, and one `bytes.translate` maps and
    rejects them all.  The words of the last batch after the n-th value
    are drawn and dropped, so rng ends further along than n calls of
    randrange would leave it: draw everything a generator must give in
    one call.  Larger q, whose samples no caller draws in bulk, keep
    randrange."""
    if q >> 8:
        return [rng.randrange(q) for _ in range(n)]
    k = q.bit_length()
    out: List[int] = []
    while len(out) < n:
        # the expected number of words, and an eighth more, so that a
        # second batch is rare
        need = n - len(out)
        m = (need << k) // q * 9 // 8 + 8
        words = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        out += words[3::4].translate(*_top_bits_tables(q))
    del out[n:]
    return out


@functools.lru_cache(maxsize=None)
def _top_bits_tables(q: int) -> Tuple[bytes, bytes]:
    """For q < 2^8, the `bytes.translate` tables that map a byte to its top
    q.bit_length() bits and delete the bytes whose top bits are >= q."""
    s = 8 - q.bit_length()
    return (bytes(b >> s for b in range(256)),
            bytes(b for b in range(256) if b >> s >= q))


def companion_matrix(prime: Prime, coeffs: Sequence[LocalElement]) -> LocalMatrix:
    """Companion matrix of the monic polynomial with coefficient list
    [a_0, ..., a_{r-1}] (the lambda^r coefficient is implicit)."""
    r = len(coeffs)
    zero = LocalElement.zero(prime)
    one = LocalElement.one(prime)
    rows = [[zero for _ in range(r)] for _ in range(r)]
    for i in range(1, r):
        rows[i][i - 1] = one
    for i in range(r):
        rows[i][r - 1] = coeffs[i].neg()
    return LocalMatrix(prime, rows)
