"""The Smith normal form on `LocalElement` objects, kept as a test-only
oracle.

`_snf_full` is `drinlat.localfield._snf_full` as it was before the
elimination moved onto the entries' field tuples: every step calls the
element methods `mul`, `add`, `neg`, `shift`, `inv` and `pi_power`, and
the row and column operations are `_elem_add_rowmult` and
`_elem_add_colmult`.  The differential test in `tests/test_localfield.py`
compares the library's tuple elimination with it, digit by digit and
refusal by refusal.
"""

from __future__ import annotations

from typing import List

from drinlat.errors import InvariantError, PrecisionExhausted, Singular
from drinlat.localfield import LocalElement, LocalMatrix


def _elem_add_rowmult(mat: List[List[LocalElement]], dst: int, src: int,
                      c: LocalElement) -> None:
    mat[dst] = [a.add(c.mul(b)) for a, b in zip(mat[dst], mat[src])]


def _elem_add_colmult(mat: List[List[LocalElement]], dst: int, src: int,
                      c: LocalElement) -> None:
    for row in mat:
        row[dst] = row[dst].add(c.mul(row[src]))


def _snf_full(M: LocalMatrix, transforms: bool = True):
    """Smith normal form with the inverse transforms.

    Returns (exps, U_inv, V_inv) with U_inv M V_inv = diag(pi^exps) up to
    M's working precision, at which the transforms and the pivots reset
    to pi^e are built, U_inv and V_inv integral with valuation-0
    determinant.  Pivot rule: minimum certified valuation, ties by
    row-major position.

    With transforms=False only the exponents are computed and the two
    matrices are returned as None.  The column eliminations are skipped
    too: once column k is cleared below the pivot they only change row k,
    which no later pivot search reads, so pivots and refusals are the
    same as with transforms.
    """
    prime = M.prime
    r = M.r
    prec = M.working_precision()
    A = [list(row) for row in M.rows]
    if transforms:
        Li, Ri = ([list(row) for row in
                   LocalMatrix.identity(prime, r, prec).rows]
                  for _ in range(2))
    zero = LocalElement.zero(prime)
    exps: List[int] = []

    def swap_cols(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    for k in range(r):
        # certified minimum-valuation pivot in the trailing submatrix
        best = None
        best_val = None
        uncert_bound = None
        for i in range(k, r):
            for j in range(k, r):
                e = A[i][j]
                if e.kind == "n":
                    if best_val is None or e.val < best_val:
                        best, best_val = (i, j), e.val
                elif e.kind == "u":
                    if uncert_bound is None or e.val < uncert_bound:
                        uncert_bound = e.val
        if best is None:
            if uncert_bound is not None:
                raise PrecisionExhausted("no certifiable pivot in submatrix")
            raise Singular("matrix is singular: zero trailing submatrix")
        if uncert_bound is not None and uncert_bound < best_val:
            raise PrecisionExhausted(
                f"entry O(pi^{uncert_bound}) may undercut pivot pi^{best_val}")
        i0, j0 = best
        if i0 != k:
            A[i0], A[k] = A[k], A[i0]
            if transforms:
                Li[i0], Li[k] = Li[k], Li[i0]
        if j0 != k:
            swap_cols(A, j0, k)
            if transforms:
                swap_cols(Ri, j0, k)
        e = best_val
        pivot = A[k][k]
        unit_inv = pivot.shift(-e).inv()  # inverse of the valuation-0 unit part
        # scale row k so the pivot is exactly pi^e
        A[k] = [x.mul(unit_inv) for x in A[k]]
        A[k][k] = LocalElement.pi_power(prime, e, prec)
        if transforms:
            Li[k] = [x.mul(unit_inv) for x in Li[k]]
        for i in range(k + 1, r):
            x = A[i][k]
            if x.kind == "z":
                continue
            c = x.shift(-e).neg()  # -x/pi^e, integral since val(x) >= e
            _elem_add_rowmult(A, i, k, c)
            A[i][k] = zero
            if transforms:
                _elem_add_rowmult(Li, i, k, c)
        exps.append(e)
        if not transforms:
            continue
        for j in range(k + 1, r):
            x = A[k][j]
            if x.kind == "z":
                continue
            c = x.shift(-e).neg()
            _elem_add_colmult(A, j, k, c)
            A[k][j] = zero
            _elem_add_colmult(Ri, j, k, c)

    # global min-valuation pivoting makes the exponents ascending already
    if any(exps[i] > exps[i + 1] for i in range(r - 1)):
        raise InvariantError(f"elementary divisors not ascending: {exps}")
    if not transforms:
        return tuple(exps), None, None
    return tuple(exps), LocalMatrix(prime, Li), LocalMatrix(prime, Ri)
