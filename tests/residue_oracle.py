"""The k(p) determinant and echelon basis, kept as test-only oracles.

`_det_residue` is `drinlat.localfield._det_residue` as it was before
invertibility over k(p) became a rank test.  The brute-force orbit and
group-action checks in `tests/test_localfield.py` call it, so they stay
independent of the elimination under test.  `_residue_echelon` is the
forward elimination on entry lists that `drinlat.localfield._residue_rank`
replaced; its length is the oracle of that rank, bit rows over F_2
included.  `span_units_walk` is `_span_units` on entry lists, the oracle
of its yield sequence.
"""

from __future__ import annotations

import itertools
from typing import List

from drinlat.ffpoly import FiniteField


def _det_residue(field: FiniteField, mat: List[List[int]]) -> int:
    """Determinant over a finite field by Gaussian elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = field.neg(det)
        det = field.mul(det, m[c][c])
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] == 0:
                continue
            f = field.mul(m[i][c], inv)
            m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[c])]
    return det


def _residue_echelon(field: FiniteField, vectors, width: int) -> List[List[int]]:
    """Row echelon basis of the k(p)-span of the vectors, by forward
    elimination; its length is the rank, so a square matrix is invertible
    iff the basis has as many rows as the matrix."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(width):
        if rank == len(rows):
            break
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = field.inv(top[col])
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = field.mul(rows[i][col], inv)
                rows[i] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[i], top)]
        rank += 1
    return rows[:rank]


def span_units_walk(kp: FiniteField, r: int, mats):
    """The coefficient vectors of the invertible matrices in the k(p)-span
    of mats, in `itertools.product` order, each matrix summed entry by
    entry and ranked by `_residue_echelon`."""
    for coeffs in itertools.product(list(kp.elements()), repeat=len(mats)):
        mat = [[0] * r for _ in range(r)]
        for c, b in zip(coeffs, mats):
            if c == 0:
                continue
            for row, brow in zip(mat, b):
                for j, v in enumerate(brow):
                    if v:
                        row[j] = kp.add(row[j], kp.mul(c, v))
        if len(_residue_echelon(kp, mat, r)) == r:
            yield coeffs
