"""Truncated arithmetic in the completion F_p, matrices, Smith normal
form over the valuation ring, lattices, and stabilizer-index machinery.

A nonzero element is pi^val times a unit of A_p known modulo pi^prec; the
unit is kept as its canonical residue mod p^prec in the packed-integer
encoding of `_chainring`, so additions and products are packed-polynomial
operations, whose window and truncation rules are written once, on the
plain field tuples (kind, val, unit, prec, exact) that `hecke.char_poly`
computes on too; the inverse of a constant unit is its inverse in F_q, and
any other inverse a Newton iteration.  The elementary divisors of a
matrix of exact entries come from the packed elimination of `_chainring`
(`smith_exponents`), which inverts nothing; any other Smith form, and the
transforms of `inverse`, from `_snf_full`, which eliminates on the field
tuples with the add, mul and neg rules (its form on `LocalElement`
objects is the oracle in `tests/snf_oracle.py`).  The pi-adic digits are
read off the unit only for display (`digits`, `to_json`, `__repr__`).
Any operation that cannot certify a valuation at working precision raises
PrecisionExhausted instead of guessing.  The default precision is 12
significant digits, overridable per constructor call.

All quantities the callers consume (indices, group orders, exponents)
are exact integers; truncation only ever produces a refusal, never a
wrong number.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from ._chainring import ChainRing, _kernel, smith_exponents, smith_form_left
from .errors import (BudgetExceeded, InvariantError, NotContained,
                     NotSaturated, PrecisionExhausted, Singular)
from .ffpoly import (FiniteField, Poly, Prime, poly_to_str, residue_field)

DEFAULT_PRECISION = 12
DEFAULT_BUDGET = 2 ** 16


class LocalElement:
    """Element of F_p known to finite pi-adic precision.

    kind 'n': nonzero, value = pi^val * unit, where unit (a packed int,
              see `_chainring`) is the canonical residue mod p^prec of a
              unit of A_p; the value is known modulo pi^(val + prec).
    kind 'z': exactly zero.
    kind 'u': O(pi^val): congruent to 0 mod pi^val, true valuation
              uncertified (apparent zero after cancellation).

    ``exact`` marks elements whose value is exactly pi^val * unit, a
    polynomial with at most prec digits (all later digits zero); ``prec``
    is then the stored window, kept from construction.  Sums and products
    of exact elements stay exact, so cancellation to a true zero is
    recognized instead of degrading to an uncertified O(pi^m).

    The constructor takes the digits of the stored window (residue-field
    representatives, lowest first); ``digits`` reads them back.  The
    element also keeps its fields as one tuple (kind, val, unit, prec,
    exact), which the add, mul and neg rules below take and return.
    """

    __slots__ = ("prime", "kind", "val", "unit", "prec", "exact", "_kr",
                 "_fields")

    def __init__(self, prime: Prime, kind: str, val: int,
                 digits: Tuple[Poly, ...], exact: bool = False):
        kr = _kernel(prime)
        self.prime = prime
        self._kr = kr
        self.kind = kind
        self.val = val
        self.prec = len(digits) if kind == "n" else 0
        kr.reserve(self.prec)
        self.unit = kr.mod(kr.from_digits([kr.from_poly(d) for d in digits]),
                           self.prec) if kind == "n" else 0
        self.exact = exact if kind == "n" else (kind == "z")
        self._fields = (kind, val, self.unit, self.prec, self.exact)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(prime: Prime) -> "LocalElement":
        return _element(_kernel(prime), _ZERO_FIELDS)

    @staticmethod
    def from_poly(prime: Prime, f: Poly, precision: int = DEFAULT_PRECISION) -> "LocalElement":
        kr = _kernel(prime)
        kr.reserve(precision)
        a = kr.from_poly(f)
        if not a:
            return _element(kr, _ZERO_FIELDS)
        val = kr.val(a)
        unit = kr.shr(a, val)
        if kr.ndigits(unit) <= precision:
            return _element(kr, ("n", val, unit, precision, True))
        return _element(kr, ("n", val, kr.mod(unit, precision), precision,
                             False))

    @staticmethod
    def from_ratio(prime: Prime, num: Poly, den: Poly,
                   precision: int = DEFAULT_PRECISION) -> "LocalElement":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return LocalElement.zero(prime)
        a = LocalElement.from_poly(prime, num, precision)
        b = LocalElement.from_poly(prime, den, precision)
        return a.mul(b.inv())

    @staticmethod
    def from_integer(prime: Prime, c: int, precision: int = DEFAULT_PRECISION) -> "LocalElement":
        return LocalElement.from_poly(prime, Poly.const(prime.field, c), precision)

    @staticmethod
    def one(prime: Prime, precision: int = DEFAULT_PRECISION) -> "LocalElement":
        return LocalElement.from_integer(prime, 1, precision)

    @staticmethod
    def pi_power(prime: Prime, k: int, precision: int = DEFAULT_PRECISION) -> "LocalElement":
        return LocalElement.one(prime, precision).shift(k)

    # -- queries -----------------------------------------------------------

    @property
    def digits(self) -> Tuple[Poly, ...]:
        """The pi-adic digits of the stored window, lowest first."""
        if self.kind != "n":
            return ()
        kr = self._kr
        return tuple(kr.to_poly(d) for d in kr.digits(self.unit, self.prec))

    @property
    def abs_prec(self) -> Optional[int]:
        """Element is known modulo pi^abs_prec (None = exact zero)."""
        if self.kind == "n":
            return self.val + self.prec
        if self.kind == "u":
            return self.val
        return None

    def is_integral(self) -> bool:
        """Certified val >= 0 (refuses rather than guessing)."""
        if self.kind == "z":
            return True
        if self.val >= 0:
            return True
        if self.kind == "n":
            return False
        raise PrecisionExhausted("cannot certify integrality")

    # -- arithmetic ----------------------------------------------------------

    # the rules return an operand's own tuple when the result is that
    # operand, which is then returned as it is

    def neg(self) -> "LocalElement":
        a = self._fields
        t = _neg_fields(self._kr, a)
        return self if t is a else _element(self._kr, t)

    def add(self, other: "LocalElement") -> "LocalElement":
        a, b = self._fields, other._fields
        t = _add_fields(self._kr, a, b)
        return self if t is a else other if t is b else _element(self._kr, t)

    def sub(self, other: "LocalElement") -> "LocalElement":
        return self.add(other.neg())

    def mul(self, other: "LocalElement") -> "LocalElement":
        return _element(self._kr, _mul_fields(self._kr, self._fields,
                                              other._fields))

    def inv(self) -> "LocalElement":
        if self.kind == "z":
            raise ZeroDivisionError("inverse of exact zero")
        if self.kind == "u":
            raise PrecisionExhausted("inverse of uncertified element")
        kr = self._kr
        return _element(kr, ("n", -self.val, kr.inv(self.unit, self.prec),
                             self.prec, False))

    def shift(self, k: int) -> "LocalElement":
        if self.kind == "z":
            return self
        return _element(self._kr, (self.kind, self.val + k, self.unit,
                                   self.prec, self.exact))

    def residue(self, k: int) -> int:
        """Packed canonical representative of the class mod p^k (requires
        the element to be certified integral and known to depth k)."""
        if self.kind == "z":
            return 0
        if self.val >= k:
            return 0
        if self.kind == "u":
            raise PrecisionExhausted(f"class mod p^{k} uncertified")
        if self.val < 0:
            raise ValueError("element is not integral")
        if self.abs_prec < k and not self.exact:
            raise PrecisionExhausted(f"known only mod p^{self.abs_prec} < p^{k}")
        kr = self._kr
        return kr.mod(kr.shl(self.unit, self.val), k)

    def __repr__(self):
        if self.kind == "z":
            return "0"
        if self.kind == "u":
            return f"O(pi^{self.val})"
        parts = [f"({poly_to_str(d)})*pi^{self.val + i}"
                 for i, d in enumerate(self.digits) if not d.is_zero()]
        return " + ".join(parts) + f" + O(pi^{self.abs_prec})"

    def to_json(self) -> dict:
        prime = poly_to_str(self.prime.poly)
        if self.kind == "z":
            return {"prime": prime, "valuation": "inf", "digits": [],
                    "precision": 0}
        if self.kind == "u":
            return {"prime": prime, "valuation": None, "bound": self.val,
                    "digits": [], "precision": 0}
        return {"prime": prime, "valuation": self.val,
                "digits": [poly_to_str(d) for d in self.digits],
                "precision": self.prec}


_new = object.__new__


def _element(kr, fields: tuple) -> LocalElement:
    """A LocalElement from its field tuple (kind, val, unit, prec, exact),
    which it keeps (no digit conversion)."""
    e = _new(LocalElement)
    e.prime = kr.prime
    e._kr = kr
    e.kind, e.val, e.unit, e.prec, e.exact = fields
    e._fields = fields
    return e


# ---------------------------------------------------------------------------
# The add, mul and neg rules, on field tuples
#
# They take and return an element's fields (kind, val, unit, prec, exact)
# as a plain tuple, so that a programme of many operations, such as
# `hecke.char_poly`, builds no object per step; `LocalElement.add`, `mul`
# and `neg` wrap them.  A 'u' element keeps prec 0, so val + prec is the
# absolute precision of both 'n' and 'u'.

_ZERO_FIELDS = ("z", 0, 0, 0, True)


def _is_zero_fields(a: tuple) -> bool:
    return a[0] == "z"


def _neg_fields(kr, a: tuple) -> tuple:
    if a[0] != "n":
        return a
    return ("n", a[1], kr.neg(a[2]), a[3], a[4])


def _add_fields(kr, a: tuple, b: tuple) -> tuple:
    ka, va, ua, pa, ea = a
    kb, vb, ub, pb, eb = b
    if ka == "z":
        return b
    if kb == "z":
        return a
    lo = va if va < vb else vb
    ha, hb = va + pa, vb + pb
    if ea and eb:
        # exact sum: the window runs to the longer stored window
        hi = ha if ha > hb else hb
        s = kr.add(kr.shl(ua, va - lo), kr.shl(ub, vb - lo))
        if not s:
            return _ZERO_FIELDS
        v = kr.val(s)
        return ("n", lo + v, kr.shr(s, v), hi - lo - v, True)
    hi = ha if ha < hb else hb
    if ka == "u" or kb == "u":
        kn, vn, un = (kb, vb, ub) if ka == "u" else (ka, va, ua)
        if kn == "u" or vn >= hi:
            return ("u", hi, 0, 0, False)
        return ("n", vn, kr.mod(un, hi - vn), hi - vn, False)
    if hi <= lo:
        return ("u", hi, 0, 0, False)
    width = hi - lo
    s = kr.add(kr.mod(kr.shl(ua, va - lo), width),
               kr.mod(kr.shl(ub, vb - lo), width))
    if not s:
        return ("u", hi, 0, 0, False)
    v = kr.val(s)
    return ("n", lo + v, kr.shr(s, v), width - v, False)


def _mul_fields(kr, a: tuple, b: tuple) -> tuple:
    ka, va, ua, pa, ea = a
    kb, vb, ub, pb, eb = b
    if ka == "z" or kb == "z":
        return _ZERO_FIELDS
    if ka == "u" or kb == "u":
        return ("u", va + vb, 0, 0, False)
    if ea and eb:
        # the window is the longest of both windows and the product
        unit = kr.mul(ua, ub)
        prec = max(pa, pb, kr.ndigits(unit))
    else:
        # the shorter stored window, even when that operand is exact
        prec = pa if pa < pb else pb
        unit = kr.mulmod(ua, ub, prec)
    if not kr.is_unit(unit):
        raise InvariantError("leading digits cannot cancel")
    return ("n", va + vb, unit, prec, ea and eb)


# ---------------------------------------------------------------------------
# Matrices over F_p


class LocalMatrix:
    """Square matrix over F_p with LocalElement entries."""

    __slots__ = ("prime", "r", "rows")

    def __init__(self, prime: Prime, rows: Sequence[Sequence[LocalElement]]):
        self.prime = prime
        self.rows = tuple(tuple(row) for row in rows)
        self.r = len(self.rows)
        if any(len(row) != self.r for row in self.rows):
            raise ValueError(f"a {self.r}-row square matrix needs {self.r} "
                             f"entries per row")

    @staticmethod
    def identity(prime: Prime, r: int, precision: int = DEFAULT_PRECISION) -> "LocalMatrix":
        one = LocalElement.one(prime, precision)
        zero = LocalElement.zero(prime)
        return LocalMatrix(prime, [[one if i == j else zero for j in range(r)]
                                   for i in range(r)])

    @staticmethod
    def diagonal(prime: Prime, entries: Sequence[LocalElement]) -> "LocalMatrix":
        zero = LocalElement.zero(prime)
        r = len(entries)
        return LocalMatrix(prime, [[entries[i] if i == j else zero
                                    for j in range(r)] for i in range(r)])

    @staticmethod
    def from_polys(prime: Prime, entries: Sequence[Sequence[Poly]],
                   precision: int = DEFAULT_PRECISION) -> "LocalMatrix":
        return LocalMatrix(prime, [
            [LocalElement.from_poly(prime, e, precision) for e in row]
            for row in entries])

    def __matmul__(self, other: "LocalMatrix") -> "LocalMatrix":
        r = self.r
        zero = LocalElement.zero(self.prime)
        out = []
        for i in range(r):
            row = []
            for j in range(r):
                acc = zero
                for l in range(r):
                    acc = acc.add(self.rows[i][l].mul(other.rows[l][j]))
                row.append(acc)
            out.append(row)
        return LocalMatrix(self.prime, out)

    def scale(self, c: LocalElement) -> "LocalMatrix":
        return LocalMatrix(self.prime,
                           [[e.mul(c) for e in row] for row in self.rows])

    def is_integral(self) -> bool:
        return all(e.is_integral() for row in self.rows for e in row)

    def elementary_divisors(self) -> Tuple[int, ...]:
        """Ascending exponents of the Smith form.  An exact matrix takes
        them from the packed elimination (`_exact_divisors`); any other
        matrix, and any exact one that elimination cannot certify, from
        `_snf_full`."""
        exps = _exact_divisors(self)
        if exps is None:
            exps = _snf_full(self, transforms=False)[0]
        return exps

    def working_precision(self) -> int:
        """Fewest stored digits of a nonzero certified entry
        (DEFAULT_PRECISION when there is none)."""
        precs = [e.prec for row in self.rows for e in row if e.kind == "n"]
        return min(precs) if precs else DEFAULT_PRECISION

    def inverse(self) -> "LocalMatrix":
        exps, u_inv, v_inv = _snf_full(self)
        prec = self.working_precision()
        d_inv = LocalMatrix.diagonal(
            self.prime, [LocalElement.pi_power(self.prime, -e, prec) for e in exps])
        return v_inv @ d_inv @ u_inv

    def __repr__(self):
        return f"LocalMatrix({self.rows!r})"


def _exact_divisors(M: LocalMatrix) -> Optional[Tuple[int, ...]]:
    """The elementary divisors of an all-exact M from `smith_exponents`,
    or None where `_snf_full` must decide.

    With e_1 the least entry valuation and P the working precision,
    pi^-e_1 M has entries in A, packed into A/p^P.  Its Smith exponents
    there are min(s_i, P) for the true exponents s_i of pi^-e_1 M, so they
    are certified when all are below P, and e_1 + s_i is the answer.
    `_snf_full` keeps every entry known mod pi^(e_1 + P), so in exactly
    that case it certifies the same exponents; an exponent that reaches P
    (a singular M among them) is left to it, and so are its refusals.
    """
    if not all(e.exact for row in M.rows for e in row):
        return None
    vals = [e.val for row in M.rows for e in row if e.kind == "n"]
    if not vals:
        return None
    e1 = min(vals)
    prec = M.working_precision()
    ring = ChainRing(M.prime, prec)
    kr = ring.kernel
    rows = [[kr.mod(kr.shl(e.unit, e.val - e1), prec)
             if e.kind == "n" and e.val - e1 < prec else 0 for e in row]
            for row in M.rows]
    exps = smith_exponents(ring, rows)
    if exps[-1] >= prec:
        return None
    return tuple(e1 + s for s in exps)


def _snf_full(M: LocalMatrix, transforms: bool = True):
    """Smith normal form with the inverse transforms, on the entries' field
    tuples; only U_inv and V_inv become elements, on return.

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
    kr = _kernel(prime)
    r = M.r
    prec = M.working_precision()
    A = [[x._fields for x in row] for row in M.rows]
    row_mats = [A]  # the row operations act on A and U_inv
    if transforms:
        Li, Ri = ([[("n", 0, 1, prec, True) if i == j else _ZERO_FIELDS
                    for j in range(r)] for i in range(r)] for _ in range(2))
        row_mats.append(Li)
    exps: List[int] = []

    for k in range(r):
        # certified minimum-valuation pivot in the trailing submatrix
        best = None
        best_val = None
        uncert_bound = None
        for i in range(k, r):
            for j in range(k, r):
                kind, val = A[i][j][:2]
                if kind == "n":
                    if best_val is None or val < best_val:
                        best, best_val = (i, j), val
                elif kind == "u":
                    if uncert_bound is None or val < uncert_bound:
                        uncert_bound = val
        exhausted = uncert_bound is not None and (best is None
                                                  or uncert_bound < best_val)
        if exhausted:
            # 'z' arises only from exact zeros, so a row or a column of them
            # in the trailing submatrix proves the matrix singular
            lines = [row[k:] for row in A[k:]]
            if not any(all(x[0] == "z" for x in line)
                       for line in lines + list(zip(*lines))):
                raise PrecisionExhausted(
                    "no certifiable pivot in submatrix" if best is None else
                    f"entry O(pi^{uncert_bound}) may undercut pivot "
                    f"pi^{best_val}")
        if best is None or exhausted:
            raise Singular("matrix is singular: zero trailing submatrix")
        i0, j0 = best
        for mat in row_mats:
            mat[i0], mat[k] = mat[k], mat[i0]
        if j0 != k:
            for row in A + Ri if transforms else A:
                row[j0], row[k] = row[k], row[j0]
        e = best_val
        # inverse of the valuation-0 unit part, in the pivot's own window
        unit, pivot_prec = A[k][k][2:4]
        unit_inv = ("n", 0, kr.inv(unit, pivot_prec), pivot_prec, False)
        # scale row k so the pivot is exactly pi^e
        for mat in row_mats:
            mat[k] = [_mul_fields(kr, x, unit_inv) for x in mat[k]]
        A[k][k] = ("n", e, 1, prec, True)
        for i in range(k + 1, r):
            x = A[i][k]
            if x[0] == "z":
                continue
            # -x/pi^e, integral since val(x) >= e
            c = _neg_fields(kr, (x[0], x[1] - e) + x[2:])
            for mat in row_mats:
                mat[i] = [_add_fields(kr, a, _mul_fields(kr, c, b))
                          for a, b in zip(mat[i], mat[k])]
            A[i][k] = _ZERO_FIELDS
        exps.append(e)
        if not transforms:
            continue
        for j in range(k + 1, r):
            x = A[k][j]
            if x[0] == "z":
                continue
            c = _neg_fields(kr, (x[0], x[1] - e) + x[2:])
            for row in A + Ri:
                row[j] = _add_fields(kr, row[j], _mul_fields(kr, c, row[k]))
            A[k][j] = _ZERO_FIELDS

    # global min-valuation pivoting makes the exponents ascending already
    if any(exps[i] > exps[i + 1] for i in range(r - 1)):
        raise InvariantError(f"elementary divisors not ascending: {exps}")
    if not transforms:
        return tuple(exps), None, None
    u_inv, v_inv = (LocalMatrix(prime, [[_element(kr, t) for t in row]
                                        for row in mat]) for mat in (Li, Ri))
    return tuple(exps), u_inv, v_inv


# ---------------------------------------------------------------------------
# Lattices


class Lattice:
    """Full-rank A_p-lattice in F_p^r given by a basis (columns)."""

    __slots__ = ("prime", "r", "basis", "_divisors")

    def __init__(self, basis: LocalMatrix):
        self.prime = basis.prime
        self.r = basis.r
        self.basis = basis
        self._divisors: Optional[Tuple[int, ...]] = None

    @staticmethod
    def from_poly_basis(prime: Prime,
                        cols: Sequence[Sequence[Poly]]) -> "Lattice":
        """Columns given as A-polynomial vectors."""
        return Lattice(LocalMatrix.from_polys(prime, zip(*cols)))

    @property
    def elementary_divisors(self) -> Tuple[int, ...]:
        """Exponents relative to the standard lattice A_p^r."""
        if self._divisors is None:
            self._divisors = self.basis.elementary_divisors()
        return self._divisors

    def __repr__(self):
        return f"Lattice(divisors={self.elementary_divisors})"


def count_matrix_group(r: int, q_res: int, k: int) -> Tuple[int, int]:
    """(|GL_r(R/m^k)|, |Mat_r(R/m^k)|) over a chain ring with residue
    field of size q_res, by the closed form."""
    if r < 1 or k < 1:
        raise ValueError(f"matrix group over R/m^{k} of rank {r} needs "
                         f"r >= 1 and k >= 1")
    gl = q_res ** ((k - 1) * r * r)
    for i in range(r):
        gl *= q_res ** r - q_res ** i
    mat = q_res ** (k * r * r)
    return gl, mat


# ---------------------------------------------------------------------------
# Orders A'_p and stabilizer indices


class OrderStructure:
    """A_p-algebra R' = A'_p presented by the minimal polynomial of a
    generator y, acting on A_p^r via the block companion matrix.

    factors lists the (ramification e, residue degree f) of each local
    factor; the factor polynomials are pairwise coprime mod p and their
    product is the minimal polynomial.
    """

    def __init__(self, prime: Prime, r_prime: int,
                 factor_polys: Optional[Sequence[Sequence[Poly]]],
                 factors: Sequence[Tuple[int, int]],
                 min_poly: Optional[Sequence[Poly]] = None):
        self.prime = prime
        self.r_prime = r_prime
        self.factors = tuple(factors)
        self.m = sum(e * f for e, f in self.factors)
        self.r = r_prime * self.m
        if min_poly is not None:
            self.min_poly = list(min_poly)
        else:
            self.min_poly = _ypoly_product(prime.field, factor_polys)
        if len(self.min_poly) != self.m + 1:
            raise ValueError(f"minimal polynomial of degree "
                             f"{len(self.min_poly) - 1} for factors of total "
                             f"degree {self.m}")
        if not self.min_poly[-1].is_one():
            raise ValueError("minimal polynomial must be monic")
        self._y_powers = {}  # k -> y_power_blocks over A/p^k
        self._y_residues = None  # y_power_blocks over k(p)
        self._y_masks = None  # y_power_residues as row masks over F_2

    @staticmethod
    def from_min_poly(prime: Prime, r_prime: int, coeffs: Sequence[Poly],
                      factors: Sequence[Tuple[int, int]]) -> "OrderStructure":
        """Order presented by a caller-supplied generator minimal polynomial
        (e.g. the defining polynomial of a global extension localized at p);
        the factor shape list feeds the group-order formula only."""
        return OrderStructure(prime, r_prime, None, factors, min_poly=coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def trivial(prime: Prime, r_prime: int) -> "OrderStructure":
        one = Poly.one(prime.field)
        return OrderStructure(prime, r_prime, [[-one, one]], [(1, 1)])

    @staticmethod
    def unramified(prime: Prime, r_prime: int, m: int) -> "OrderStructure":
        """A_p[y] for the first monic irreducible lift of degree m."""
        if m == 1:
            return OrderStructure.trivial(prime, r_prime)
        return OrderStructure.product(prime, r_prime, [("unramified", m)])

    @staticmethod
    def totally_ramified(prime: Prime, r_prime: int, m: int) -> "OrderStructure":
        """A_p[y] with y^m = p: `product` shifts its first ramified part
        by the residue 0."""
        if m == 1:
            return OrderStructure.trivial(prime, r_prime)
        return OrderStructure.product(prime, r_prime, [("ramified", m)])

    @staticmethod
    def product(prime: Prime, r_prime: int,
                parts: Sequence[Tuple[str, int]]) -> "OrderStructure":
        """parts: list of ('unramified'|'ramified', m_i); factor polynomials
        are chosen pairwise coprime mod p."""
        F = prime.field
        kp = residue_field(prime)
        used_linear: List[int] = []  # residues already used as y = c shapes
        used_unram: List[Tuple] = []
        polys = []
        facts = []
        for kind, mi in parts:
            if kind == "ramified" and mi > 1:
                c = next(x for x in kp.elements() if x not in used_linear)
                used_linear.append(c)
                shift = kp.lift(c)
                # (y - c)^m - p, Eisenstein at p after the shift
                coeffs = _ypoly_product(F, [[-shift, Poly.one(F)]] * mi)
                coeffs[0] = coeffs[0] - prime.poly
                polys.append(coeffs)
                facts.append((mi, 1))
            else:
                if mi == 1:
                    c = next(x for x in kp.elements() if x not in used_linear)
                    used_linear.append(c)
                    polys.append([-kp.lift(c), Poly.one(F)])
                    facts.append((1, 1))
                else:
                    fp = _unramified_factor(prime, mi, avoid=tuple(used_unram))
                    used_unram.append(tuple(fp))
                    polys.append(fp)
                    facts.append((1, mi))
        return OrderStructure(prime, r_prime, polys, facts)

    # -- derived data -------------------------------------------------------

    def companion(self) -> List[List[Poly]]:
        """Multiplication-by-y matrix on A_p^m (columns convention)."""
        F = self.prime.field
        m = self.m
        zero = Poly.zero(F)
        one = Poly.one(F)
        mat = [[zero for _ in range(m)] for _ in range(m)]
        for j in range(m - 1):
            mat[j + 1][j] = one
        for i in range(m):
            mat[i][m - 1] = -self.min_poly[i]
        return mat

    def companion_block(self) -> List[List[Poly]]:
        """Block-diagonal y-action on A_p^r = (A_p^m)^(r')."""
        m, rp = self.m, self.r_prime
        comp = self.companion()
        zero = Poly.zero(self.prime.field)
        n = m * rp
        mat = [[zero for _ in range(n)] for _ in range(n)]
        for b in range(rp):
            for i in range(m):
                for j in range(m):
                    mat[b * m + i][b * m + j] = comp[i][j]
        return mat

    def gl_order(self, k: int) -> int:
        """|GL_{r'}(R'/p^k R')| by the closed form, factor by factor."""
        total = 1
        for e, f in self.factors:
            q_res = self.prime.residue_size ** f
            total *= count_matrix_group(self.r_prime, q_res, k * e)[0]
        return total

    def y_power_blocks(self, ring: ChainRing) -> Tuple[Tuple[Tuple[Poly, ...], ...], ...]:
        """rho(y)^j mod p^k for j = 0..m-1, as m x m chain-ring matrices.

        Computed once per depth k and kept; tuples, so callers cannot
        change the kept copy."""
        powers = self._y_powers.get(ring.k)
        if powers is None:
            comp = [[ring.reduce(c) for c in row] for row in self.companion()]
            mats = [_chain_identity(ring, self.m)]
            for _ in range(self.m - 1):
                mats.append(_chain_matmul(ring, comp, mats[-1]))
            powers = tuple(tuple(map(tuple, mat)) for mat in mats)
            self._y_powers[ring.k] = powers
        return powers

    def y_power_residues(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """rho(y)^j mod p for j = 0..m-1, entries in k(p); computed once."""
        if self._y_residues is None:
            ring = ChainRing(self.prime, 1)
            self._y_residues = tuple(
                tuple(tuple(ring.to_residue(c) for c in row) for row in mat)
                for mat in self.y_power_blocks(ring))
        return self._y_residues

    def y_power_masks(self) -> Tuple[Tuple[int, ...], ...]:
        """rho(y)^j mod p over k(p) = F_2, each row packed into one int
        (`_pack_bits`); computed once."""
        if self._y_masks is None:
            self._y_masks = tuple(tuple(_pack_bits(row) for row in mat)
                                  for mat in self.y_power_residues())
        return self._y_masks


def _unramified_factor(prime: Prime, m: int, avoid: Tuple) -> List[Poly]:
    """Lift of the first monic irreducible of degree m over k(p) not in
    ``avoid``; coefficients are canonical A-representatives."""
    kp = residue_field(prime)
    for tail in itertools.product(kp.elements(), repeat=m):
        f = [kp.lift(c) for c in tail] + [Poly.one(prime.field)]
        if tuple(f) in avoid:
            continue
        rf = Poly(kp, tuple(tail) + (1,))
        if rf.is_irreducible():
            return f
    raise InvariantError("no irreducible factor available")


def _ypoly_product(F: FiniteField, factor_polys) -> List[Poly]:
    out = [Poly.one(F)]
    for fp in factor_polys:
        new = [Poly.zero(F) for _ in range(len(out) + len(fp) - 1)]
        for i, a in enumerate(out):
            for j, b in enumerate(fp):
                new[i + j] = new[i + j] + a * b
        out = new
    return out


def _chain_identity(ring: ChainRing, n: int):
    return [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]


def _chain_matmul(ring: ChainRing, a, b):
    n = len(a)
    m = len(b[0])
    inner = len(b)
    out = [[ring.zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for l in range(inner):
            x = a[i][l]
            if not x:
                continue
            for j, y in enumerate(b[l]):
                if y:
                    out[i][j] = ring.add(out[i][j], y if x == 1 else x if y == 1
                                         else ring.mul(x, y))
    return out


def _lattice_columns_chain(lattice, ring: ChainRing) -> List[Tuple[int, ...]]:
    """Lattice basis columns as canonical vectors over A/p^k."""
    if isinstance(lattice, Lattice):
        r = lattice.r
        cols = []
        for j in range(r):
            col = tuple(lattice.basis.rows[i][j].residue(ring.k)
                        for i in range(r))
            cols.append(col)
        return cols
    # already a sequence of A-polynomial columns
    return [tuple(ring.reduce(c) for c in col) for col in lattice]


def saturation_holds(order: OrderStructure, lattice) -> bool:
    """Nakayama test of R'.Lambda = R'^(r'): the y-power translates of the
    basis columns must span k(p)^r; the columns are reduced mod p once
    and tested by `_saturated`."""
    ring = ChainRing(order.prime, 1)
    return _saturated(order, [[ring.to_residue(x) for x in col]
                              for col in _lattice_columns_chain(lattice, ring)])


def _saturated(order: OrderStructure, cols) -> bool:
    """Whether the y-power translates of the columns over k(p) span
    k(p)^r.  rho(y)^j acts block by block on k(p)^r = (k(p)^m)^(r').  Over
    F_2 a block of a column and a row of rho(y)^j are bit masks, and a
    translated coordinate is the parity of their meet."""
    kp = residue_field(order.prime)
    m, r = order.m, order.r
    vectors = []
    if kp.size == 2:
        full = (1 << m) - 1
        masks = order.y_power_masks()
        for col in cols:
            bits = _pack_bits(col)
            blocks = [(bits >> b) & full for b in range(0, r, m)]
            for pw in masks:
                vec, j = 0, 0
                for blk in blocks:
                    for prow in pw:
                        vec |= ((prow & blk).bit_count() & 1) << j
                        j += 1
                vectors.append(vec)
        return _bit_rank(vectors, r) == r
    for res in cols:
        for pw in order.y_power_residues():
            vec = []
            for b in range(0, r, m):
                blk = res[b:b + m]
                for prow in pw:
                    acc = 0
                    for a, x in zip(prow, blk):
                        if a and x:
                            acc = kp.add(acc, kp.mul(a, x))
                    vec.append(acc)
            vectors.append(vec)
    return _residue_rank(kp, vectors, r) == r


def _residue_rank(field: FiniteField, vectors, width: int) -> int:
    """Rank over k(p) of the vectors of length width, so a square matrix
    is invertible iff its rank is its size.  Over F_2 each vector is
    packed into one int (`_pack_bits`) and ranked as an xor basis
    (`_bit_rank`); over any other k(p) by forward elimination."""
    if field.size == 2:
        return _bit_rank([_pack_bits(v) for v in vectors], width)
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
    return rank


def _pack_bits(vec) -> int:
    """A vector over F_2 as one int, bit j for coordinate j."""
    return sum(1 << j for j, x in enumerate(vec) if x)


def _bit_rank(rows, width: int) -> int:
    """Rank over F_2 of packed rows of width bits: each row is reduced by
    the kept rows, keyed by their leading bit, and kept if nonzero."""
    basis = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = v
                if len(basis) == width:
                    return width
                break
            v ^= b
    return len(basis)


def _hom_kernel(order: OrderStructure, ring: ChainRing, src, dst):
    """Hom = {x in Mat_{r'}(R'/p^k) : x . L_src subset of L_dst}, x given
    by its dim = m*r'^2 chain-ring coordinates, as Smith data (exps, G):
    Hom is spanned by the rows of G, row i scaled by pi^(k - exps[i]), and
    the scaled rows are independent, so |Hom| = q_p^sum(exps).

    src = (e_src, U_src) and dst = (e_dst, U_dst^-1) come from Smith forms
    L = U diag(pi^e) A^r over A/p^k (`smith_form_left`).  With Y = U_dst^-1
    X U_src, x . L_src lies in L_dst iff v(Y_ij) >= e_dst_i - e_src_j, so
    Hom is the kernel of the constraint matrix C sending x to
    pi^(k - e_dst_i + e_src_j) Y_ij at the positions where e_dst_i >
    e_src_j.  The Smith form C^T = U D V gives it: x C^T = 0 iff y = U^T x
    has v(y_i) >= k - exps[i] (exps padded with k to length dim), so G is
    U^-1.  The stacked construction this replaces is kept as a test
    oracle.
    """
    (e_src, u_src), (e_dst, u_dst_inv) = src, dst
    m, rp, r, k = order.m, order.r_prime, order.r, ring.k
    dim = rp * rp * m
    spots = [(i, j, k - e_dst[i] + e_src[j])
             for i in range(r) for j in range(r) if e_dst[i] > e_src[j]]
    if not spots:  # no constraint: all of Mat_{r'}
        return (k,) * dim, _chain_identity(ring, dim)
    kr = ring.kernel
    ypow = order.y_power_blocks(ring)
    # x = y^j in block (a, b) maps block b through rho(y)^j into block a, so
    # X U_src is rho(y)^j times the rows of U_src in block b, put in block
    # a; rho(y)^0 = I leaves the rows as they are
    xu = [[blk] + [_chain_matmul(ring, pw, blk) for pw in ypow[1:]]
          for blk in (u_src[b * m:(b + 1) * m] for b in range(rp))]
    images = []
    for a in range(rp):
        left = [row[a * m:(a + 1) * m] for row in u_dst_inv]
        for b in range(rp):
            for w in xu[b]:
                img = []
                for i, col, s in spots:
                    acc = 0
                    for x, wrow in zip(left[i], w):
                        y = wrow[col]
                        if x and y:
                            acc = ring.add(acc, y if x == 1 else x if y == 1
                                           else ring.mul(x, y))
                    img.append(kr.mod(kr.shl(acc, s), k) if acc else 0)
                images.append(img)
    # images[s] is the row of C^T for coordinate s; its columns are C's rows
    exps, _, gens = smith_form_left(ring, list(zip(*images)))
    return exps, gens


def _residue_image(order: OrderStructure, ring: ChainRing, exps, gens):
    """Basis over k(p) of the hom-module with Smith data (exps, gens)
    reduced mod p, as r x r block matrices over k(p): the rows of gens
    with exps[i] = k, reduced mod p.  The other rows are scaled by a
    positive power of pi, and gens is invertible, so these reductions are
    independent."""
    kp = residue_field(order.prime)
    ypow_res = order.y_power_residues()
    return [_x_block_matrix(order, kp, ypow_res,
                            [ring.to_residue(c) for c in row])
            for e, row in zip(exps, gens) if e == ring.k]


def _span_units(kp: FiniteField, r: int, mats):
    """The coefficients c over k(p) of every invertible matrix
    sum c_i mats[i] in the k(p)-span of the r x r matrices mats, one per
    coefficient vector in `itertools.product` order, found by a rank
    check (`_residue_rank`).  Over F_2 each matrix is packed into row ints
    once, and the matrix of c is the xor of the selected ones."""
    coefficients = itertools.product(list(kp.elements()), repeat=len(mats))
    if kp.size == 2:
        packed = [[_pack_bits(row) for row in b] for b in mats]
        for coeffs in coefficients:
            rows = [0] * r
            for c, b in zip(coeffs, packed):
                if c:
                    rows = [x ^ y for x, y in zip(rows, b)]
            if _bit_rank(rows, r) == r:
                yield coeffs
        return
    for coeffs in coefficients:
        mat = [[0] * r for _ in range(r)]
        for c, b in zip(coeffs, mats):
            if c == 0:
                continue
            for row, brow in zip(mat, b):
                for j, v in enumerate(brow):
                    if v:
                        row[j] = kp.add(row[j], kp.mul(c, v))
        if _residue_rank(kp, mat, r) == r:
            yield coeffs


def _divisors_and_columns(lattice, prime: Prime):
    """(elementary divisors, basis columns mod p^DEFAULT_PRECISION or None)
    of an integral basis.  `smith_exponents` certifies the divisors on the
    packed columns, inverting nothing.  Where it cannot (an exponent
    reaches the depth), and for a Lattice, whose divisors are cached and
    which has no packed columns here, they come from
    `Lattice.elementary_divisors`, so its refusals stand."""
    if isinstance(lattice, Lattice):
        return lattice.elementary_divisors, None
    ring = ChainRing(prime, DEFAULT_PRECISION)
    cols = _lattice_columns_chain(lattice, ring)
    exps = smith_exponents(ring, list(zip(*cols)))
    if exps[-1] < ring.k:
        return exps, cols
    return Lattice.from_poly_basis(prime, lattice).elementary_divisors, cols


def _multiplier_ring(lattice, order: OrderStructure, k: Optional[int],
                     budget: int):
    """(A/p^k, Smith data of H, |H|, elementary divisors) for the
    multiplier ring H = {x : x.Lambda subset Lambda} mod p^k, after the
    integrality, depth, saturation and budget checks.

    The divisors, and the residues the saturation test reads, come from
    the columns packed by `_divisors_and_columns`.  H is the kernel of a
    constraint system read off the Smith form Lambda = U diag(pi^e) A^r
    that `smith_form_left` builds at depth k, on those columns reduced mod
    p^k: x is in H iff v((U^-1 X U)_ab) >= e_a - e_b (`_hom_kernel`),
    which also gives |H|."""
    prime = order.prime
    divisors, cols = _divisors_and_columns(lattice, prime)
    if min(divisors) < 0:
        raise NotContained("lattice must be integral (scale it first)")
    e_max = max(divisors)
    if k is None:
        k = max(1, e_max)
    if k < e_max:
        raise ValueError(f"depth {k} too small: p^{e_max} needed to contain the lattice")
    ring = ChainRing(prime, k)
    kr = ring.kernel
    if not (saturation_holds(order, lattice) if cols is None else _saturated(
            order, [[kr.residue(x) for x in col] for col in cols])):
        raise NotSaturated("R'-span of the lattice is not the full module")
    if cols is None or k > DEFAULT_PRECISION:
        cols = _lattice_columns_chain(lattice, ring)
    else:
        cols = [tuple(kr.mod(x, k) for x in col) for col in cols]
    exps, u, u_inv = smith_form_left(ring, cols)
    if exps != divisors:
        raise InvariantError(
            f"Smith exponents {exps} mod p^{k} disagree with {divisors}")
    hom = _hom_kernel(order, ring, (divisors, u), (divisors, u_inv))
    h_size = prime.residue_size ** sum(hom[0])
    if h_size > budget:
        raise BudgetExceeded(
            f"stabilizer ring has {h_size} elements, budget {budget}")
    return ring, hom, h_size, divisors


def _orbit_index(order: OrderStructure, k: int, units: int) -> int:
    """[GL_{r'}(R'/p^k) : stabilizer] from the number of units."""
    gl = order.gl_order(k)
    if not (units > 0 and gl % units == 0):
        raise InvariantError("orbit-stabilizer must divide")
    return gl // units


def _stabilizer(lattice, order: OrderStructure, k: Optional[int],
                budget: int) -> Tuple[int, Tuple[int, ...]]:
    """(stabilizer index, elementary divisors of the lattice)."""
    ring, hom, h_size, divisors = _multiplier_ring(lattice, order, k, budget)
    kp = residue_field(order.prime)
    basis = _residue_image(order, ring, *hom)
    h_bar = kp.size ** len(basis)
    if h_size % h_bar != 0:
        raise InvariantError("|H mod p| must divide |H|")
    units = h_size // h_bar * sum(1 for _ in _span_units(kp, order.r, basis))
    return _orbit_index(order, ring.k, units), divisors


def stabilizer_index(lattice, order: OrderStructure, k: Optional[int] = None,
                     budget: int = DEFAULT_BUDGET) -> int:
    """[GL_{r'}(R') : Stab(Lambda)] for a saturated lattice, computed by
    orbit-stabilizer: the stabilizer is the unit group of the finite
    multiplier ring H = {x : x.Lambda subset Lambda} mod p^k.

    H is the kernel of a small linear system over A/p^k read off one
    packed Smith form Lambda = U diag(pi^e) A^r (`_multiplier_ring`): the
    elementary divisors e come from `smith_exponents` at the working
    precision, U and U^-1 from `smith_form_left` at depth k.  x in H is a
    unit iff x mod p is invertible, so the units are counted on the image
    H-bar of H mod p, a k(p)-space whose basis the Smith form of H's
    constraints gives (`_residue_image`): |H^x| = |H| / |H-bar| times the
    number of invertible elements of H-bar.  Only H-bar is enumerated; the
    gate |H| <= budget is kept.
    """
    return _stabilizer(lattice, order, k, budget)[0]


def gitter_bound_check(lattice, order: OrderStructure, k: Optional[int] = None,
                       budget: int = DEFAULT_BUDGET) -> bool:
    """stab_index >= (1 - 1/q)^r * index^(1/r), compared in exact integers
    (both sides raised to the r-th power)."""
    prime = order.prime
    q = prime.field.size
    r = order.r
    stab, divisors = _stabilizer(lattice, order, k, budget)
    index = prime.residue_size ** sum(divisors)
    return stab ** r * q ** (r * r) >= (q - 1) ** (r * r) * index


def module_orbit_equal(order: OrderStructure, k: int, cols_a, cols_b,
                       budget: int = DEFAULT_BUDGET) -> bool:
    """Whether two integral lattices lie in one GL_{r'}(R'/p^k)-orbit,
    decided by searching the hom-module Hom(L_a, L_b) for an invertible
    map.  Hom is the kernel of the constraint system of the two packed
    Smith forms (`_hom_kernel`).

    The same Smith forms decide equal lattices first: L_a = U_a
    diag(pi^e_a) A^r and L_b have equal size iff sum(e_a) = sum(e_b), and
    L_b lies in L_a iff row i of U_a^-1 L_b is divisible by pi^(e_a_i).
    Invertibility depends on x mod p only, so the search runs over the
    image of the hom-module mod p; the gate on its full size is kept."""
    ring = ChainRing(order.prime, k)
    e_a, u_a, u_a_inv = smith_form_left(
        ring, _lattice_columns_chain(cols_a, ring))
    cb = _lattice_columns_chain(cols_b, ring)
    e_b, _, u_b_inv = smith_form_left(ring, cb)
    if sum(e_a) != sum(e_b):
        return False
    inside = _chain_matmul(ring, u_a_inv, list(zip(*cb)))
    if all(ring.val(x) >= e for e, row in zip(e_a, inside) for x in row):
        return True
    exps, gens = _hom_kernel(order, ring, (e_a, u_a), (e_b, u_b_inv))
    size = order.prime.residue_size ** sum(exps)
    if size > budget:
        raise BudgetExceeded(
            f"module of size {size} exceeds enumeration budget {budget}")
    kp = residue_field(order.prime)
    units = _span_units(kp, order.r, _residue_image(order, ring, exps, gens))
    return next(units, None) is not None


def saturate_lattice(order: OrderStructure, lattice: Lattice,
                     budget: int = DEFAULT_BUDGET) -> Lattice:
    """Transform a full-rank lattice by an element of GL_{r'}(F'_p) so that
    its R'-span becomes the standard module (the stabilizer index is
    invariant under this normalization, which matches the convention that
    indices are measured inside GL_{r'}(R')).

    One packed Smith form of the m*r spanning columns of the A'-span M
    gives M = U D A^r, D = diag(pi^e), at depth k = max(e) + 1, where p^k
    A^r lies in pM.  The normalizing map x is sought in Hom(A^r, M)
    (`_hom_kernel`) by Nakayama's lemma: x.A^r = M iff x.A^r + pM = M,
    i.e. iff Y(x) = D^-1 U^-1 X mod p is invertible over k(p), X the block
    matrix of x.  Y is k(p)-linear on Hom/pHom, so only the k(p)-span of
    the Y of Hom's generators is searched (`_span_units`); the gate on
    |Hom| is kept.
    """
    prime, r = order.prime, order.r
    divisors = lattice.elementary_divisors
    shift = max(0, -min(divisors))
    if shift:
        lattice = Lattice(lattice.basis.scale(
            LocalElement.pi_power(prime, shift)))
    if saturation_holds(order, lattice):
        return lattice
    # the y-power translates of the basis columns span M; M contains the
    # lattice, so its exponents lie below max(divisors) + shift + 1
    span = ChainRing(prime, max(divisors) + shift + 1)
    rows = list(zip(*_lattice_columns_chain(lattice, span)))
    cols = []
    for pw in order.y_power_blocks(span):
        moved = [row for b in range(0, r, order.m)
                 for row in _chain_matmul(span, pw, rows[b:b + order.m])]
        cols.extend(zip(*moved))
    e_m, _, u_inv = smith_form_left(span, cols)
    k = max(e_m) + 1
    ring = ChainRing(prime, k)
    u_inv = [[ring.kernel.mod(x, k) for x in row] for row in u_inv]
    # Hom(A^r, M): the source is standard, U = I and e = 0
    exps, gens = _hom_kernel(order, ring, ((0,) * r, _chain_identity(ring, r)),
                             (e_m, u_inv))
    size = prime.residue_size ** sum(exps)
    if size > budget:
        raise BudgetExceeded(
            f"module of size {size} exceeds enumeration budget {budget}")
    ypow = order.y_power_blocks(ring)
    terms, images = [], []
    for e, g in zip(exps, gens):
        if not e:
            continue
        x = [ring.mul(ring.pi_pow(k - e), c) for c in g]
        y = _chain_matmul(ring, u_inv, _x_block_matrix(order, ring, ypow, x))
        terms.append(x)
        images.append([[ring.to_residue(ring.unit_part(a, ei)) for a in row]
                       for ei, row in zip(e_m, y)])
    coeffs = next(_span_units(residue_field(prime), r, images), None)
    if coeffs is None:
        raise NotSaturated("no normalizing map found below budget")
    x = [0] * len(gens)
    for c, term in zip(coeffs, terms):
        if c:
            c = ring.kernel.from_residue(c)
            x = [ring.add(a, ring.mul(c, b)) for a, b in zip(x, term)]
    block = _x_block_matrix(order, ring, ypow, x)
    h = LocalMatrix.from_polys(prime, [[ring.lift(v) for v in row]
                                       for row in block])
    out = Lattice(h.inverse() @ lattice.basis)
    if not saturation_holds(order, out):
        raise InvariantError("normalized lattice must be saturated")
    return out


def _x_block_matrix(order: OrderStructure, ring, ypow, x_coords):
    """Full r x r block matrix of x in Mat_{r'}(R'/p^k) from its m*r'^2
    coordinates: over A/p^k (ring a ChainRing, ypow its y_power_blocks)
    or, for k = 1, over k(p) (ring the residue field, ypow
    y_power_residues).  Both encode zero as 0."""
    m, rp, r = order.m, order.r_prime, order.r
    mat = [[0] * r for _ in range(r)]
    idx = 0
    for a in range(rp):
        for b in range(rp):
            for j in range(m):
                c = x_coords[idx]
                idx += 1
                if not c:
                    continue
                blk = ypow[j]
                for i in range(m):
                    row = mat[a * m + i]
                    for l, y in enumerate(blk[i]):
                        if y:
                            row[b * m + l] = ring.add(
                                row[b * m + l],
                                y if c == 1 else c if y == 1 else ring.mul(c, y))
    return mat


# ---------------------------------------------------------------------------
# Sublattice enumeration (Hermite forms)


def hermite_sublattices(prime: Prime, r: int, max_exp: int):
    """All sublattices of A_p^r of index p-power exponent <= max_exp,
    each exactly once, as upper-triangular A-polynomial basis columns.

    Column j has pi^(a_j) on the diagonal; the entry in row i < j runs
    over canonical residues mod pi^(a_i).
    """
    for total in range(max_exp + 1):
        for exps in _compositions(total, r):
            ranges = []
            for i in range(r):
                for j in range(i + 1, r):
                    ranges.append((i, j, exps[i]))
            choice_lists = []
            for i, j, a in ranges:
                if a == 0:
                    choice_lists.append([Poly.zero(prime.field)])
                else:
                    ring = ChainRing(prime, a)
                    choice_lists.append([ring.lift(x) for x in ring.elements()])
            for picks in itertools.product(*choice_lists):
                cols = [[Poly.zero(prime.field) for _ in range(r)]
                        for _ in range(r)]
                for idx in range(r):
                    cols[idx][idx] = prime.poly ** exps[idx]
                for (i, j, _), val in zip(ranges, picks):
                    cols[j][i] = val
                yield exps, cols


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
