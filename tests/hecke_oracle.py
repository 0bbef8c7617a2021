"""The Hecke-side brute-force oracles, kept test-only.

`char_poly_expanded` is the characteristic polynomial with every
principal minor expanded over all permutations, and
`hecke_degree_enumerated` counts the cosets of K(p^depth) that g
conjugates back into it.  They were `drinlat.hecke` functions until the
library read both answers in closed form; `tests/test_hecke.py` compares
`char_poly` and `hecke_degree` with them.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from drinlat._chainring import ChainRing
from drinlat.hecke import _divisors_within
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
                e = w.entry(i, j).sub(ident.rows[i][j])
                if not e.has_val_at_least(depth):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return prime.residue_size ** (depth * r * r) // count
