"""The Hecke-side brute-force oracles, kept test-only.

`char_poly_expanded` is the characteristic polynomial with every
principal minor expanded over all permutations, and
`hecke_degree_enumerated` counts the cosets of K(p^depth) that g
conjugates back into it.  They were `drinlat.hecke` functions until the
library read both answers in closed form; `tests/test_hecke.py` compares
`char_poly` and `hecke_degree` with them.  `char_poly_elements` is
`char_poly`'s Laplace programme in `LocalElement` arithmetic, as the
library ran it before it moved to field tuples.

`unboundedness_sample_matrix` is the sampled unboundedness check of a raw
matrix in `LocalMatrix` arithmetic.  On the standard matrix it draws the
k_i of `unboundedness_sample_check`, which computes over A in the packed
kernel and accepts only a `HeckeElement`; on any other matrix, such as a
bounded companion matrix, it exercises the failure path.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from element_queries import has_val_at_least

from drinlat._chainring import ChainRing
from drinlat.ffpoly import Poly, Prime
from drinlat.hecke import (SampleOutcome, SampleReport, _divisors_within,
                           _minor_sums, _sample_rng, char_poly,
                           newton_polygon)
from drinlat.localfield import DEFAULT_PRECISION, LocalElement, LocalMatrix


def char_poly_expanded(g: LocalMatrix) -> List[LocalElement]:
    """Oracle for `char_poly`: every principal minor expanded over all
    permutations, each product multiplied out in row order."""
    prime = g.prime
    r = g.r
    coeffs = [LocalElement.zero(prime) for _ in range(r)]
    sign = -1
    for i in range(1, r + 1):
        e_i = LocalElement.zero(prime)
        for subset in itertools.combinations(range(r), i):
            e_i = e_i.add(_minor_det(g, subset))
        # a_{r-i} = (-1)^i e_i
        coeffs[r - i] = e_i if sign > 0 else e_i.neg()
        sign = -sign
    one = LocalElement.one(prime, g.working_precision())
    return coeffs + [one]


def char_poly_elements(g: LocalMatrix) -> List[LocalElement]:
    """Oracle for `char_poly`: the same programme `_minor_sums`, with an
    element built at every step."""
    prime = g.prime
    e = _minor_sums(g.rows, LocalElement.zero(prime), lambda x: x.kind == "z",
                    LocalElement.add, LocalElement.neg, LocalElement.mul)
    coeffs = [e[i] if i % 2 == 0 else e[i].neg() for i in range(g.r, 0, -1)]
    return coeffs + [LocalElement.one(prime, g.working_precision())]


def _minor_det(g: LocalMatrix, subset: Sequence[int]) -> LocalElement:
    prime = g.prime
    acc = LocalElement.zero(prime)
    idx = list(subset)
    for perm in itertools.permutations(range(len(idx))):
        term = None
        for row_pos, col_pos in enumerate(perm):
            e = g.rows[idx[row_pos]][idx[col_pos]]
            term = e if term is None else term.mul(e)
        if _parity(perm) < 0:
            term = term.neg()
        acc = acc.add(term)
    return acc


def _parity(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def hecke_degree_enumerated(g: LocalMatrix, depth: int) -> int:
    """Oracle for `hecke_degree`: count the members of K(p^depth) that
    g conjugates into K(p^depth) by lifting each class of
    Mat_r(A/p^depth), conjugating and testing mod p^depth.  It walks
    q_p^(depth r^2) cosets with no budget."""
    _divisors_within(g, depth)
    prime = g.prime
    r = g.r
    g_inv = g.inverse()
    ring = ChainRing(prime, depth)
    elems = [ring.lift(x) for x in ring.elements()]
    prec = max(DEFAULT_PRECISION, 3 * depth + 4)
    ident = LocalMatrix.identity(prime, r, prec)
    count = 0
    for entries in itertools.product(elems, repeat=r * r):
        mat = [[LocalElement.from_poly(prime, entries[i * r + j], prec).shift(depth)
                if not entries[i * r + j].is_zero() else LocalElement.zero(prime)
                for j in range(r)] for i in range(r)]
        h = LocalMatrix(prime, [[ident.rows[i][j].add(mat[i][j])
                                 for j in range(r)] for i in range(r)])
        w = g @ h @ g_inv
        ok = True
        for i in range(r):
            for j in range(r):
                e = w.rows[i][j].sub(ident.rows[i][j])
                if not has_val_at_least(e, depth):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return prime.residue_size ** (depth * r * r) // count


def unboundedness_sample_matrix(g: LocalMatrix, samples: int = 100,
                                seed: int = 0,
                                precision: int = DEFAULT_PRECISION
                                ) -> SampleReport:
    """Oracle for `unboundedness_sample_check`: the same verdicts on
    char_poly(k_2 g k_1), with the k_i of each sample drawn by
    `random_congruence_matrix` from the sampler's generator."""
    r = g.r
    outcomes = []
    for idx in range(samples):
        cp = sample_char_poly(g, _sample_rng(seed, idx), precision)
        segments = newton_polygon(cp).segment_count
        v0 = cp[0].val if cp[0].kind == "n" else None
        vtop = cp[r - 1].val if cp[r - 1].kind == "n" else None
        passed = v0 == -1 and vtop == -1 and segments >= 2
        outcomes.append(SampleOutcome(idx, v0, vtop, segments, passed))
    return SampleReport(str(g.prime), r, samples, seed, outcomes)


def sample_char_poly(g: LocalMatrix, rng,
                     precision: int) -> List[LocalElement]:
    """char_poly(k_2 g k_1) for k_1, then k_2, drawn from rng."""
    k1 = random_congruence_matrix(g.prime, g.r, rng, precision)
    k2 = random_congruence_matrix(g.prime, g.r, rng, precision)
    return char_poly(k2 @ g @ k1)


def random_congruence_matrix(prime: Prime, r: int, rng,
                             precision: int) -> LocalMatrix:
    """Uniform element of K(p) mod p^precision: 1 + p*M with M integral,
    its entries drawn as `_packed_congruence_matrix` draws them."""
    depth = precision - 1
    d = prime.degree
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            coeffs = [rng.randrange(prime.field.size) for _ in range(d * depth)]
            f = Poly(prime.field, coeffs)
            entry = (LocalElement.zero(prime) if f.is_zero()
                     else LocalElement.from_poly(prime, f, precision).shift(1))
            if i == j:
                entry = entry.add(LocalElement.one(prime, precision))
            row.append(entry)
        rows.append(row)
    return LocalMatrix(prime, rows)
