"""Truncated arithmetic in the completion F_p, matrices, Smith normal
form over the valuation ring, lattices, and stabilizer-index machinery.

A nonzero element is pi^val times a unit of A_p known modulo pi^prec; the
unit is kept as its canonical residue mod p^prec in the packed-integer
encoding of `_chainring`, so additions and products are packed-polynomial
operations and inverses are Newton iterations.  The pi-adic digits are
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

from ._chainring import (ChainRing, _kernel, enumerate_module, howell_form,
                         module_size, smith_form_left, solve_into_module)
from .errors import (BudgetExceeded, NotContained, NotSaturated,
                     PrecisionExhausted, Singular)
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
    representatives, lowest first); ``digits`` reads them back.
    """

    __slots__ = ("prime", "kind", "val", "unit", "prec", "exact", "_kr")

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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(prime: Prime) -> "LocalElement":
        return _zero(_kernel(prime))

    @staticmethod
    def unknown(prime: Prime, bound: int) -> "LocalElement":
        return _unknown(_kernel(prime), bound)

    @staticmethod
    def from_poly(prime: Prime, f: Poly, precision: int = DEFAULT_PRECISION) -> "LocalElement":
        kr = _kernel(prime)
        kr.reserve(precision)
        a = kr.from_poly(f)
        if not a:
            return _zero(kr)
        val = kr.val(a)
        unit = kr.shr(a, val)
        if kr.ndigits(unit) <= precision:
            return _make(kr, "n", val, unit, precision, True)
        return _make(kr, "n", val, kr.mod(unit, precision), precision, False)

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

    def certified_val(self) -> int:
        if self.kind == "n":
            return self.val
        if self.kind == "z":
            raise Singular("exact zero has valuation +infinity")
        raise PrecisionExhausted(
            f"valuation uncertified beyond O(pi^{self.val})")

    def is_integral(self) -> bool:
        """Certified val >= 0 (refuses rather than guessing)."""
        if self.kind == "z":
            return True
        if self.val >= 0:
            return True
        if self.kind == "n":
            return False
        raise PrecisionExhausted("cannot certify integrality")

    def has_val_at_least(self, c: int) -> bool:
        if self.kind == "z":
            return True
        if self.val >= c:
            return True
        if self.kind == "n":
            return False
        raise PrecisionExhausted(f"cannot certify valuation >= {c}")

    # -- arithmetic ----------------------------------------------------------

    def neg(self) -> "LocalElement":
        if self.kind != "n":
            return self
        return _make(self._kr, "n", self.val, self._kr.neg(self.unit),
                     self.prec, self.exact)

    def add(self, other: "LocalElement") -> "LocalElement":
        a, b = self, other
        if a.kind == "z":
            return b
        if b.kind == "z":
            return a
        kr = a._kr
        if a.kind == "n" and b.kind == "n" and a.exact and b.exact:
            # exact sum: the window runs to the longer stored window
            lo = min(a.val, b.val)
            hi = max(a.val + a.prec, b.val + b.prec)
            s = kr.add(kr.shl(a.unit, a.val - lo), kr.shl(b.unit, b.val - lo))
            if not s:
                return _zero(kr)
            v = kr.val(s)
            return _make(kr, "n", lo + v, kr.shr(s, v), hi - lo - v, True)
        hi = min(a.abs_prec, b.abs_prec)
        if a.kind == "u" or b.kind == "u":
            n = b if a.kind == "u" else a
            if n.kind == "u" or n.val >= hi:
                return _unknown(kr, hi)
            return _make(kr, "n", n.val, kr.mod(n.unit, hi - n.val),
                         hi - n.val, False)
        lo = min(a.val, b.val)
        if hi <= lo:
            return _unknown(kr, hi)
        width = hi - lo
        s = kr.add(kr.mod(kr.shl(a.unit, a.val - lo), width),
                   kr.mod(kr.shl(b.unit, b.val - lo), width))
        if not s:
            return _unknown(kr, hi)
        v = kr.val(s)
        return _make(kr, "n", lo + v, kr.shr(s, v), width - v, False)

    def sub(self, other: "LocalElement") -> "LocalElement":
        return self.add(other.neg())

    def mul(self, other: "LocalElement") -> "LocalElement":
        a, b = self, other
        kr = a._kr
        if a.kind == "z" or b.kind == "z":
            return _zero(kr)
        if a.kind == "u" or b.kind == "u":
            return _unknown(kr, a.val + b.val)
        if a.exact and b.exact:
            # the window is the longest of both windows and the product
            unit = kr.mul(a.unit, b.unit)
            prec = max(a.prec, b.prec, kr.ndigits(unit))
            exact = True
        else:
            # the shorter stored window, even when that operand is exact
            prec = min(a.prec, b.prec)
            unit = kr.mulmod(a.unit, b.unit, prec)
            exact = False
        if not kr.is_unit(unit):
            raise AssertionError("leading digits cannot cancel")
        return _make(kr, "n", a.val + b.val, unit, prec, exact)

    def inv(self) -> "LocalElement":
        if self.kind == "z":
            raise ZeroDivisionError("inverse of exact zero")
        if self.kind == "u":
            raise PrecisionExhausted("inverse of uncertified element")
        kr = self._kr
        return _make(kr, "n", -self.val, kr.inv(self.unit, self.prec),
                     self.prec, False)

    def div(self, other: "LocalElement") -> "LocalElement":
        return self.mul(other.inv())

    def shift(self, k: int) -> "LocalElement":
        if self.kind == "z":
            return self
        return _make(self._kr, self.kind, self.val + k, self.unit, self.prec,
                     self.exact)

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

    def residue_poly(self, k: int) -> Poly:
        """Canonical representative of the class mod p^k, as a Poly."""
        return self._kr.to_poly(self.residue(k))

    def __eq__(self, other):
        return (isinstance(other, LocalElement) and self._kr is other._kr
                and self.kind == other.kind and self.val == other.val
                and self.unit == other.unit and self.prec == other.prec)

    def __hash__(self):
        return hash((self.prime, self.kind, self.val, self.unit, self.prec))

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


def _make(kr, kind: str, val: int, unit: int, prec: int,
          exact: bool) -> LocalElement:
    """A LocalElement from its packed fields (no digit conversion)."""
    e = _new(LocalElement)
    e.prime = kr.prime
    e._kr = kr
    e.kind = kind
    e.val = val
    e.unit = unit
    e.prec = prec
    e.exact = exact
    return e


def _zero(kr) -> LocalElement:
    return _make(kr, "z", 0, 0, 0, True)


def _unknown(kr, bound: int) -> LocalElement:
    return _make(kr, "u", bound, 0, 0, False)


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

    def entry(self, i: int, j: int) -> LocalElement:
        return self.rows[i][j]

    def scale(self, c: LocalElement) -> "LocalMatrix":
        return LocalMatrix(self.prime,
                           [[e.mul(c) for e in row] for row in self.rows])

    def is_integral(self) -> bool:
        return all(e.is_integral() for row in self.rows for e in row)

    def elementary_divisors(self) -> Tuple[int, ...]:
        return _snf_full(self, transforms=False)[0]

    def det_valuation(self) -> int:
        return sum(self.elementary_divisors())

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
    working precision, U_inv and V_inv integral with valuation-0
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
    prec = DEFAULT_PRECISION
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
        raise AssertionError(f"elementary divisors not ascending: {exps}")
    if not transforms:
        return tuple(exps), None, None
    return tuple(exps), LocalMatrix(prime, Li), LocalMatrix(prime, Ri)


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
    def standard(prime: Prime, r: int, precision: int = DEFAULT_PRECISION) -> "Lattice":
        return Lattice(LocalMatrix.identity(prime, r, precision))

    @staticmethod
    def from_poly_basis(prime: Prime, cols: Sequence[Sequence[Poly]],
                        precision: int = DEFAULT_PRECISION) -> "Lattice":
        """Columns given as A-polynomial vectors."""
        r = len(cols)
        rows = [[LocalElement.from_poly(prime, cols[j][i], precision)
                 for j in range(r)] for i in range(r)]
        return Lattice(LocalMatrix(prime, rows))

    @property
    def elementary_divisors(self) -> Tuple[int, ...]:
        """Exponents relative to the standard lattice A_p^r."""
        if self._divisors is None:
            self._divisors = self.basis.elementary_divisors()
        return self._divisors

    def __eq__(self, other):
        if not isinstance(other, Lattice) or self.prime != other.prime:
            return False
        change = self.basis.inverse() @ other.basis
        if not change.is_integral():
            return False
        return change.det_valuation() == 0

    def __hash__(self):  # pragma: no cover - lattices are not dict keys
        raise TypeError("Lattice is unhashable; equality is semantic")

    def __repr__(self):
        return f"Lattice(divisors={self.elementary_divisors})"


def lattice_index(sub: Lattice, sup: Lattice) -> int:
    """|sup / sub| for sub contained in sup, as an exact integer."""
    change = sup.basis.inverse() @ sub.basis
    if not change.is_integral():
        raise NotContained("first lattice is not contained in the second")
    exps = change.elementary_divisors()
    return sub.prime.residue_size ** sum(exps)


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


def count_matrix_group_exhaustive(prime: Prime, r: int, k: int) -> Tuple[int, int]:
    """Brute-force counterpart of count_matrix_group over A/p^k."""
    ring = ChainRing(prime, k)
    kp = residue_field(prime)
    # each element reduced to k(p) once; the walk is over all of A/p^k
    elems = [ring.to_residue(x) for x in ring.elements()]
    total = 0
    invertible = 0
    for entries in itertools.product(elems, repeat=r * r):
        total += 1
        red = [entries[i * r:(i + 1) * r] for i in range(r)]
        if len(_residue_echelon(kp, red, r)) == r:
            invertible += 1
    return invertible, total


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
                 factors: Sequence[Tuple[int, int]], kind: str,
                 min_poly: Optional[Sequence[Poly]] = None):
        self.prime = prime
        self.r_prime = r_prime
        self.factors = tuple(factors)
        self.m = sum(e * f for e, f in self.factors)
        self.r = r_prime * self.m
        self.kind = kind
        if min_poly is not None:
            self.min_poly = list(min_poly)
        else:
            self.factor_polys = tuple(tuple(fp) for fp in factor_polys)
            self.min_poly = _ypoly_product(prime.field, self.factor_polys)
        if len(self.min_poly) != self.m + 1:
            raise ValueError(f"minimal polynomial of degree "
                             f"{len(self.min_poly) - 1} for factors of total "
                             f"degree {self.m}")
        if not self.min_poly[-1].is_one():
            raise ValueError("minimal polynomial must be monic")
        self._y_powers = {}  # k -> y_power_blocks over A/p^k
        self._y_residues = None  # y_power_blocks over k(p)

    @staticmethod
    def from_min_poly(prime: Prime, r_prime: int, coeffs: Sequence[Poly],
                      factors: Sequence[Tuple[int, int]],
                      kind: str = "extension") -> "OrderStructure":
        """Order presented by a caller-supplied generator minimal polynomial
        (e.g. the defining polynomial of a global extension localized at p);
        the factor shape list feeds the group-order formula only."""
        return OrderStructure(prime, r_prime, None, factors, kind,
                              min_poly=coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def trivial(prime: Prime, r_prime: int) -> "OrderStructure":
        one = Poly.one(prime.field)
        return OrderStructure(prime, r_prime, [[-one, one]], [(1, 1)], "trivial")

    @staticmethod
    def unramified(prime: Prime, r_prime: int, m: int) -> "OrderStructure":
        if m == 1:
            return OrderStructure.trivial(prime, r_prime)
        fp = _unramified_factor(prime, m, avoid=())
        return OrderStructure(prime, r_prime, [fp], [(1, m)], "unramified")

    @staticmethod
    def totally_ramified(prime: Prime, r_prime: int, m: int) -> "OrderStructure":
        if m == 1:
            return OrderStructure.trivial(prime, r_prime)
        F = prime.field
        coeffs = [-prime.poly] + [Poly.zero(F)] * (m - 1) + [Poly.one(F)]
        return OrderStructure(prime, r_prime, [coeffs], [(m, 1)], "ramified")

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
                coeffs = _ypoly_shifted_power(F, shift, mi)
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
        return OrderStructure(prime, r_prime, polys, facts, "product")

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

    def companion_block_local(self, precision: int = DEFAULT_PRECISION) -> LocalMatrix:
        return LocalMatrix.from_polys(self.prime, self.companion_block(), precision)

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
    raise AssertionError("no irreducible factor available")


def _ypoly_shifted_power(F: FiniteField, shift: Poly, m: int) -> List[Poly]:
    """Coefficients of (y - shift)^m as A-polynomials."""
    coeffs = [Poly.one(F)]
    for _ in range(m):
        new = [Poly.zero(F) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * shift
        coeffs = new
    return coeffs


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
            for j in range(m):
                if b[l][j]:
                    out[i][j] = ring.add(out[i][j], ring.mul(x, b[l][j]))
    return out


def _chain_matvec(ring: ChainRing, a, v):
    n = len(a)
    out = [ring.zero] * n
    for i in range(n):
        acc = ring.zero
        for j, x in enumerate(v):
            if x and a[i][j]:
                acc = ring.add(acc, ring.mul(a[i][j], x))
        out[i] = acc
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
    basis columns must span (A/p)^r over k(p)."""
    prime = order.prime
    ring = ChainRing(prime, 1)
    kp = residue_field(prime)
    m, r = order.m, order.r
    ypow = order.y_power_blocks(ring)
    vectors = []
    for col in _lattice_columns_chain(lattice, ring):
        blocks = [col[b * m:(b + 1) * m] for b in range(order.r_prime)]
        # rho(y)^j acts block by block on (A/p)^r = ((A/p)^m)^(r')
        for pw in ypow:
            vectors.append([ring.to_residue(x) for blk in blocks
                            for x in _chain_matvec(ring, pw, blk)])
    return len(_residue_echelon(kp, vectors, r)) == r


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


def _hom_module(order: OrderStructure, ring: ChainRing, src_cols, dst_rows):
    """Howell form of {x in Mat_{r'}(R'/p^k) : x . src subset of <dst>},
    x given by its m*r'^2 chain-ring coordinates.

    The stacked construction: the m*r'^2 images of src, each r*len(src)
    wide, solved into len(src) copies of dst's Howell rows.  The oracle
    that tests compare `_hom_kernel` against."""
    m, rp, r = order.m, order.r_prime, order.r
    ypow = order.y_power_blocks(ring)
    dim = rp * rp * m
    images = []
    for a in range(rp):
        for b in range(rp):
            for j in range(m):
                # x = y^j in block (a, b): image on column v takes v's block b
                # through rho(y)^j into block a
                img_parts = []
                for col in src_cols:
                    vb = col[b * m:(b + 1) * m]
                    w = _chain_matvec(ring, ypow[j], vb)
                    full = [ring.zero] * r
                    full[a * m:(a + 1) * m] = w
                    img_parts.extend(full)
                images.append(tuple(img_parts))
    L = len(src_cols)
    targets = []
    for slot in range(L):
        for row in dst_rows:
            full = [ring.zero] * (r * L)
            full[slot * r:(slot + 1) * r] = list(row)
            targets.append(tuple(full))
    return solve_into_module(ring, images, targets, dim)


def _hom_kernel(order: OrderStructure, ring: ChainRing, src, dst):
    """Howell form of Hom = {x in Mat_{r'}(R'/p^k) : x . L_src subset of
    L_dst}, x given by its m*r'^2 chain-ring coordinates.

    src = (e_src, U_src) and dst = (e_dst, U_dst^-1) come from Smith forms
    L = U diag(pi^e) A^r over A/p^k (`smith_form_left`).  With Y = U_dst^-1
    X U_src, x . L_src lies in L_dst iff v(Y_ij) >= e_dst_i - e_src_j, so
    Hom is the kernel of the map sending x to pi^(k - e_dst_i + e_src_j)
    Y_ij at the positions where e_dst_i > e_src_j.  `_hom_module` is the
    stacked construction this replaces, kept as the oracle.
    """
    (e_src, u_src), (e_dst, u_dst_inv) = src, dst
    m, rp, r, k = order.m, order.r_prime, order.r, ring.k
    dim = rp * rp * m
    spots = [(i, j, k - e_dst[i] + e_src[j])
             for i in range(r) for j in range(r) if e_dst[i] > e_src[j]]
    if not spots:  # no constraint: all of Mat_{r'}, whose Howell form is I
        return tuple(map(tuple, _chain_identity(ring, dim)))
    kr = ring.kernel
    ypow = order.y_power_blocks(ring)
    # x = y^j in block (a, b) maps block b through rho(y)^j into block a, so
    # X U_src is rho(y)^j times the rows of U_src in block b, put in block a
    xu = [[_chain_matmul(ring, pw, u_src[b * m:(b + 1) * m]) for pw in ypow]
          for b in range(rp)]
    images = []
    for a in range(rp):
        left = [row[a * m:(a + 1) * m] for row in u_dst_inv]
        for b in range(rp):
            for w in xu[b]:
                img = []
                for i, col, s in spots:
                    acc = 0
                    for x, wrow in zip(left[i], w):
                        if x and wrow[col]:
                            acc = ring.add(acc, ring.mul(x, wrow[col]))
                    img.append(kr.mod(kr.shl(acc, s), k) if acc else 0)
                images.append(tuple(img))
    return solve_into_module(ring, images, (), dim)


def _residue_image(order: OrderStructure, ring: ChainRing, kp,
                   sol) -> List[List[int]]:
    """Echelon basis over k(p) of the hom-module with Howell rows sol,
    reduced mod p.  The Howell rows generate the module, so their
    reductions span its image."""
    dim = order.r_prime ** 2 * order.m
    return _residue_echelon(
        kp, [[ring.to_residue(c) for c in row] for row in sol], dim)


def _span_invertible(order: OrderStructure, kp, basis):
    """Whether the block matrix of each element of the k(p)-span of basis
    is invertible, one per element."""
    r = order.r
    ypow_res = order.y_power_residues()
    mats = [_x_block_matrix(order, kp, ypow_res, v) for v in basis]
    for coeffs in itertools.product(list(kp.elements()), repeat=len(basis)):
        mat = [[0] * r for _ in range(r)]
        for c, b in zip(coeffs, mats):
            if c == 0:
                continue
            for row, brow in zip(mat, b):
                for j, v in enumerate(brow):
                    if v:
                        row[j] = kp.add(row[j], kp.mul(c, v))
        yield len(_residue_echelon(kp, mat, r)) == r


def _divisors_and_transforms(lattice, prime: Prime):
    """(elementary divisors, (depth, U, U^-1) or None) of an integral basis.

    Polynomial columns are reduced mod p^DEFAULT_PRECISION and run through
    the packed Smith elimination, which yields the divisors and U with its
    inverse at once.  Where it cannot certify a pivot (an exponent reaches
    the depth), and for a Lattice, whose divisors are cached, the divisors
    come from `Lattice.elementary_divisors`, so its refusals stand."""
    if not isinstance(lattice, Lattice):
        ring = ChainRing(prime, DEFAULT_PRECISION)
        exps, u, u_inv = smith_form_left(
            ring, _lattice_columns_chain(lattice, ring))
        if exps[-1] < ring.k:
            return exps, (ring.k, u, u_inv)
        lattice = Lattice.from_poly_basis(prime, lattice)
    return lattice.elementary_divisors, None


def _multiplier_ring(lattice, order: OrderStructure, k: Optional[int],
                     budget: int):
    """(A/p^k, Howell rows of H, |H|, elementary divisors) for the
    multiplier ring H = {x : x.Lambda subset Lambda} mod p^k, after the
    integrality, depth, saturation and budget checks.

    H is the kernel of a constraint system read off one Smith form
    Lambda = U diag(pi^e) A^r: x is in H iff v((U^-1 X U)_ab) >= e_a - e_b
    (`_hom_kernel`).  The Howell form is unique, so the rows are those of
    the stacked construction `_hom_module`."""
    prime = order.prime
    divisors, snf = _divisors_and_transforms(lattice, prime)
    if min(divisors) < 0:
        raise NotContained("lattice must be integral (scale it first)")
    e_max = max(divisors)
    if k is None:
        k = max(1, e_max)
    if k < e_max:
        raise ValueError(f"depth {k} too small: p^{e_max} needed to contain the lattice")
    if not saturation_holds(order, lattice):
        raise NotSaturated("R'-span of the lattice is not the full module")
    ring = ChainRing(prime, k)
    if snf is not None and snf[0] >= k:
        # the transforms at a greater depth, reduced
        kr = ring.kernel
        u, u_inv = ([[kr.mod(x, k) for x in row] for row in mat]
                    for mat in snf[1:])
    else:
        exps, u, u_inv = smith_form_left(
            ring, _lattice_columns_chain(lattice, ring))
        if exps != divisors:
            raise AssertionError(
                f"Smith exponents {exps} mod p^{k} disagree with {divisors}")
    sol = _hom_kernel(order, ring, (divisors, u), (divisors, u_inv))
    h_size = module_size(ring, sol)
    if h_size > budget:
        raise BudgetExceeded(
            f"stabilizer ring has {h_size} elements, budget {budget}")
    return ring, sol, h_size, divisors


def _orbit_index(order: OrderStructure, k: int, units: int) -> int:
    """[GL_{r'}(R'/p^k) : stabilizer] from the number of units."""
    gl = order.gl_order(k)
    if not (units > 0 and gl % units == 0):
        raise AssertionError("orbit-stabilizer must divide")
    return gl // units


def _stabilizer(lattice, order: OrderStructure, k: Optional[int],
                budget: int) -> Tuple[int, Tuple[int, ...]]:
    """(stabilizer index, elementary divisors of the lattice)."""
    ring, sol, h_size, divisors = _multiplier_ring(lattice, order, k, budget)
    kp = residue_field(order.prime)
    basis = _residue_image(order, ring, kp, sol)
    h_bar = kp.size ** len(basis)
    if h_size % h_bar != 0:
        raise AssertionError("|H mod p| must divide |H|")
    units = h_size // h_bar * sum(_span_invertible(order, kp, basis))
    return _orbit_index(order, ring.k, units), divisors


def stabilizer_index(lattice, order: OrderStructure, k: Optional[int] = None,
                     budget: int = DEFAULT_BUDGET) -> int:
    """[GL_{r'}(R') : Stab(Lambda)] for a saturated lattice, computed by
    orbit-stabilizer: the stabilizer is the unit group of the finite
    multiplier ring H = {x : x.Lambda subset Lambda} mod p^k.

    H is the kernel of a small linear system over A/p^k read off one
    packed Smith form Lambda = U diag(pi^e) A^r, which also gives the
    elementary divisors (`_multiplier_ring`).  x in H is a unit iff x mod
    p is invertible, so the units are counted on the image H-bar of H mod
    p, a k(p)-space spanned by the Howell rows of H reduced mod p: |H^x| =
    |H| / |H-bar| times the number of invertible elements of H-bar.  Only
    H-bar is enumerated; the gate |H| <= budget is kept.
    stabilizer_index_enumerated is the oracle that walks all of H.
    """
    return _stabilizer(lattice, order, k, budget)[0]


def stabilizer_index_enumerated(lattice, order: OrderStructure,
                                k: Optional[int] = None,
                                budget: int = DEFAULT_BUDGET) -> int:
    """Brute-force counterpart of stabilizer_index: tests every element
    of the multiplier ring H for invertibility mod p."""
    ring, sol, _, _ = _multiplier_ring(lattice, order, k, budget)
    kp = residue_field(order.prime)
    ypow_res = order.y_power_residues()
    r = order.r
    units = 0
    for x in enumerate_module(ring, sol, budget):
        mat = _x_block_matrix(order, kp, ypow_res,
                              [ring.to_residue(c) for c in x])
        if len(_residue_echelon(kp, mat, r)) == r:
            units += 1
    return _orbit_index(order, ring.k, units)


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

    Invertibility depends on x mod p only, so the search runs over the
    image of the hom-module mod p; the gate on its full size is kept."""
    ring = ChainRing(order.prime, k)
    ca = _lattice_columns_chain(cols_a, ring)
    cb = _lattice_columns_chain(cols_b, ring)
    rows_a = howell_form(ring, [tuple(c) for c in ca])
    rows_b = howell_form(ring, [tuple(c) for c in cb])
    if module_size(ring, rows_a) != module_size(ring, rows_b):
        return False
    if rows_a == rows_b:
        return True
    e_a, u_a, _ = smith_form_left(ring, ca)
    e_b, _, u_b_inv = smith_form_left(ring, cb)
    sol = _hom_kernel(order, ring, (e_a, u_a), (e_b, u_b_inv))
    size = module_size(ring, sol)
    if size > budget:
        raise BudgetExceeded(
            f"module of size {size} exceeds enumeration budget {budget}")
    kp = residue_field(order.prime)
    basis = _residue_image(order, ring, kp, sol)
    return any(_span_invertible(order, kp, basis))


def hnf_column_basis(prime: Prime, columns: Sequence[Sequence[LocalElement]],
                     r: int) -> LocalMatrix:
    """Reduce a spanning set of integral columns to an r-column basis by
    min-valuation column elimination (Hermite style over A_p)."""
    cols = [list(c) for c in columns]
    basis: List[List[LocalElement]] = []
    for row in range(r):
        live = []
        for c in cols:
            e = c[row]
            if e.kind == "n":
                live.append((e.val, c))
            elif e.kind == "u":
                raise PrecisionExhausted("column entry uncertified in HNF")
        if not live:
            continue
        piv_val = min(v for v, _ in live)
        piv = next(c for v, c in live if v == piv_val)
        cols.remove(piv)
        piv_entry = piv[row]
        inv_unit = piv_entry.shift(-piv_val).inv()
        rest = []
        for c in cols:
            e = c[row]
            if e.kind == "z" or (e.kind == "u" and e.val >= piv_val):
                rest.append(c)
                continue
            q = e.shift(-piv_val).mul(inv_unit)
            newc = [a.sub(q.mul(b)) for a, b in zip(c, piv)]
            newc[row] = LocalElement.zero(prime)
            rest.append(newc)
        cols = rest
        basis.append(piv)
    if len(basis) != r:
        raise Singular("columns do not span a full-rank lattice")
    rows = [[basis[j][i] for j in range(r)] for i in range(r)]
    return LocalMatrix(prime, rows)


def saturate_lattice(order: OrderStructure, lattice: Lattice,
                     budget: int = DEFAULT_BUDGET) -> Lattice:
    """Transform a full-rank lattice by an element of GL_{r'}(F'_p) so that
    its R'-span becomes the standard module (the stabilizer index is
    invariant under this normalization, which matches the convention that
    indices are measured inside GL_{r'}(R')).

    The normalizing map is searched in Hom(A^r, M) for the A'-span M,
    built by `_hom_kernel` from M's packed Smith form.
    """
    prime = order.prime
    r = order.r
    divisors = lattice.elementary_divisors
    if min(divisors) < 0:
        lattice = Lattice(lattice.basis.scale(
            LocalElement.pi_power(prime, -min(divisors))))
    if saturation_holds(order, lattice):
        return lattice
    # A'-span M of the lattice, as an A_p-lattice
    blockm = order.companion_block_local()
    cols = []
    spans = lattice.basis
    for _ in range(order.m):
        for j in range(r):
            cols.append([spans.rows[i][j] for i in range(r)])
        spans = blockm @ spans
    m_basis = hnf_column_basis(prime, cols, r)
    m_lat = Lattice(m_basis)
    k = max(m_lat.elementary_divisors) + 1
    ring = ChainRing(prime, k)
    m_cols = _lattice_columns_chain(m_lat, ring)
    m_rows = howell_form(ring, [tuple(c) for c in m_cols])
    # Hom(A^r, M): the source is standard, U = I and e = 0
    e_m, _, u_m_inv = smith_form_left(ring, m_cols)
    sol = _hom_kernel(order, ring, ((0,) * r, _chain_identity(ring, r)),
                      (e_m, u_m_inv))
    ypow = order.y_power_blocks(ring)
    for x in enumerate_module(ring, sol, budget):
        # does the A'-column span of x equal M mod p^k?
        block = _x_block_matrix(order, ring, ypow, x)
        img = howell_form(ring, [tuple(block[i][j] for i in range(r))
                                 for j in range(r)])
        if img == m_rows:
            h_polys = [[ring.lift(block[i][j]) for j in range(r)]
                       for i in range(r)]
            h = LocalMatrix.from_polys(prime, h_polys)
            new_basis = h.inverse() @ lattice.basis
            out = Lattice(new_basis)
            if not saturation_holds(order, out):
                raise AssertionError("normalized lattice must be saturated")
            return out
    raise NotSaturated("no normalizing map found below budget")


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
                    for l in range(m):
                        if blk[i][l]:
                            mat[a * m + i][b * m + l] = ring.add(
                                mat[a * m + i][b * m + l],
                                ring.mul(c, blk[i][l]))
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
