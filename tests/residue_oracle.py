"""The k(p) determinant, kept as a test-only oracle.

This is `drinlat.localfield._det_residue` as it was before invertibility
over k(p) became a rank test on `_residue_echelon`.  The brute-force
orbit and group-action checks in `tests/test_localfield.py` call it, so
they stay independent of the elimination under test.
"""

from __future__ import annotations

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
