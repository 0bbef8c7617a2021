"""The level/datum model and the good-prime machinery.

A subvariety datum is an extension F'/F with r = r' * [F':F], a finitely
supported family of local twist matrices (the deviation from the
standard power-basis identification, under which "no twist" means the
standard lattice), and a level map.  A prime is good for the datum when
(a) the level at the prime is a depth-1 congruence group aligned with a
lattice, (b) some place above it in F' has local degree 1, and (c) the
transported lattice is stable under the order A'_p, tested through the
block companion matrix of the extension's generator.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import (Inconclusive, InvariantError, MalformedInput,
                     NotMaximalAtPrime, TowerNotSupported,
                     UnsupportedRamifiedPrime, decoding)
from .extension import (Extension, index_iX, order_at, predegree, splitting,
                        splitting_pattern)
from .ffpoly import (FiniteField, Poly, Prime, enumerate_primes, poly_from_str,
                     poly_to_str, prime_from_str, residue_field)
from .localfield import (DEFAULT_BUDGET, DEFAULT_PRECISION, Lattice,
                         LocalElement, LocalMatrix, count_matrix_group,
                         module_orbit_equal)

# ---------------------------------------------------------------------------
# Levels


class LocalLevel(NamedTuple):
    """Local factor of the level: either the full stabilizer of the
    lattice s*A_p^r, or its depth-k principal congruence kernel."""
    kind: str                     # "maximal" | "congruence"
    depth: int = 0
    s: Optional[LocalMatrix] = None

    def s_matrix(self, prime: Prime, r: int,
                 precision: int = DEFAULT_PRECISION) -> LocalMatrix:
        return self.s if self.s is not None else \
            LocalMatrix.identity(prime, r, precision)


class LevelMap:
    """Finitely supported map prime -> LocalLevel; off support the level
    is Maximal(identity)."""

    def __init__(self, r: int, assignments: Optional[Dict[Prime, LocalLevel]] = None):
        self.r = r
        self.assignments: Dict[Prime, LocalLevel] = dict(assignments or {})
        for lvl in self.assignments.values():
            if lvl.kind not in ("maximal", "congruence"):
                raise MalformedInput(f"unknown level kind {lvl.kind!r}")
            if lvl.kind == "congruence" and lvl.depth < 1:
                raise MalformedInput("congruence depth must be >= 1")

    def at(self, prime: Prime) -> LocalLevel:
        return self.assignments.get(prime, LocalLevel("maximal"))

    def congruence_support(self) -> List[Tuple[Prime, int]]:
        out = [(p, lvl.depth) for p, lvl in self.assignments.items()
               if lvl.kind == "congruence"]
        out.sort(key=lambda kv: kv[0].sort_key())
        return out

    def with_level(self, prime: Prime, lvl: LocalLevel) -> "LevelMap":
        new = dict(self.assignments)
        new[prime] = lvl
        return LevelMap(self.r, new)

    def to_json(self) -> list:
        out = []
        for p, lvl in sorted(self.assignments.items(),
                             key=lambda kv: kv[0].sort_key()):
            entry = {"prime": poly_to_str(p.poly), "kind": lvl.kind}
            if lvl.kind == "congruence":
                entry["depth"] = lvl.depth
            if lvl.s is not None:
                entry["s"] = local_matrix_to_json(lvl.s)
            out.append(entry)
        return out

    @staticmethod
    def from_json(data: list, base: FiniteField, r: int,
                  precision: int = DEFAULT_PRECISION) -> "LevelMap":
        assignments = {}
        with decoding("level map"):
            for entry in data:
                prime = prime_from_str(entry["prime"], base)
                kind = entry.get("kind", "congruence")
                depth = int(entry.get("depth",
                                      1 if kind == "congruence" else 0))
                s = None
                if "s" in entry:
                    s = local_matrix_from_json(prime, entry["s"], precision)
                assignments[prime] = LocalLevel(kind, depth, s)
            return LevelMap(r, assignments)


# ---------------------------------------------------------------------------
# Matrix wire format

def local_matrix_to_json(m: LocalMatrix) -> list:
    return [[e.to_json() for e in row] for row in m.rows]


def local_matrix_from_json(prime: Prime, rows: list,
                           precision: int = DEFAULT_PRECISION) -> LocalMatrix:
    with decoding("matrix"):
        parsed = [[_entry_from_json(prime, cell, precision) for cell in row]
                  for row in rows]
    if len({len(r) for r in parsed}) != 1 or len(parsed[0]) != len(parsed):
        raise MalformedInput("matrix must be square")
    return LocalMatrix(prime, parsed)


def _entry_from_json(prime: Prime, cell,
                     precision: int = DEFAULT_PRECISION) -> LocalElement:
    base = prime.field
    if isinstance(cell, str):
        return LocalElement.from_poly(prime, poly_from_str(cell, base), precision)
    if isinstance(cell, int):
        return LocalElement.from_integer(prime, cell, precision)
    if isinstance(cell, dict):
        if "num" in cell:
            return LocalElement.from_ratio(
                prime, poly_from_str(cell["num"], base),
                poly_from_str(cell.get("den", "1"), base), precision)
        if "valuation" in cell:
            if cell["valuation"] == "inf":
                return LocalElement.zero(prime)
            digits = tuple(poly_from_str(s, base) for s in cell["digits"])
            if not digits or digits[0].is_zero():
                raise MalformedInput("leading digit must be nonzero")
            return LocalElement(prime, "n", int(cell["valuation"]), digits)
    raise MalformedInput(f"cannot parse matrix entry {cell!r}")


# ---------------------------------------------------------------------------
# Subvariety data


class SubvarietyDatum:
    """The pair (F', b) encoded as an extension plus finitely many local
    twist matrices, together with a level map."""

    def __init__(self, extension: Extension, r: int,
                 twists: Optional[Dict[Prime, LocalMatrix]] = None,
                 level: Optional[LevelMap] = None):
        self.extension = extension
        self.r = r
        if r % extension.m != 0:
            raise MalformedInput(
                f"rank {r} is not a multiple of the extension degree {extension.m}")
        self.r_prime = r // extension.m
        self.twists = dict(twists or {})
        self.level = level if level is not None else LevelMap(r)
        for prime, mat in self.twists.items():
            if mat.r != r:
                raise MalformedInput("twist matrix rank mismatch")

    def twist_at(self, prime: Prime,
                 precision: int = DEFAULT_PRECISION) -> LocalMatrix:
        got = self.twists.get(prime)
        return got if got is not None else \
            LocalMatrix.identity(prime, self.r, precision)

    def with_level(self, level: LevelMap) -> "SubvarietyDatum":
        return SubvarietyDatum(self.extension, self.r, self.twists, level)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "extension": self.extension.to_json(),
            "r": self.r,
            "twists": [
                {"prime": poly_to_str(p.poly),
                 "matrix": local_matrix_to_json(m)}
                for p, m in sorted(self.twists.items(),
                                   key=lambda kv: kv[0].sort_key())],
            "level": self.level.to_json(),
        }

    @staticmethod
    def from_json(data: dict, precision: int = DEFAULT_PRECISION) -> "SubvarietyDatum":
        with decoding("datum"):
            ext = Extension.from_json(data["extension"])
            r = int(data["r"])
            twists = {}
            for entry in data.get("twists", []):
                prime = prime_from_str(entry["prime"], ext.base)
                twists[prime] = local_matrix_from_json(prime, entry["matrix"],
                                                       precision)
            level = LevelMap.from_json(data.get("level", []), ext.base, r,
                                       precision)
            return SubvarietyDatum(ext, r, twists, level)


# ---------------------------------------------------------------------------
# Good primes


class PlaceRef(NamedTuple):
    """A chosen place above a prime, with its residue data."""
    prime: Prime
    e: int
    f: int
    factor: Optional[tuple]  # coefficients over k(p), linear for f = 1

    @property
    def residue_size(self) -> int:
        return self.prime.field.size ** (self.prime.degree * self.f)

    def to_json(self) -> dict:
        return {"prime": poly_to_str(self.prime.poly), "e": self.e,
                "f": self.f,
                "factor": list(self.factor) if self.factor else None,
                "residue_size": self.residue_size}


class GoodPrimeCertificate(NamedTuple):
    prime: Prime
    r: int
    r_prime: int
    s_matrix: LocalMatrix
    witness: PlaceRef
    stability_witness: LocalMatrix
    datum: "SubvarietyDatum"

    def recheck(self) -> bool:
        """Re-run conditions (a)-(c) from the stored data."""
        return isinstance(is_good_prime(self.datum, self.prime),
                          GoodPrimeCertificate)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "prime": poly_to_str(self.prime.poly),
            "r": self.r,
            "r_prime": self.r_prime,
            "s": local_matrix_to_json(self.s_matrix),
            "witness": self.witness.to_json(),
            "stability_witness": local_matrix_to_json(self.stability_witness),
        }


class GoodPrimeRefusal(NamedTuple):
    prime: Prime
    tag: str          # 'a' | 'b' | 'c'
    detail: str


def is_good_prime(datum: SubvarietyDatum, prime: Prime,
                  precision: int = DEFAULT_PRECISION
                  ) -> Union[GoodPrimeCertificate, GoodPrimeRefusal]:
    """Check conditions (a)-(c) at the prime; return a certificate or the
    first failing condition."""
    lvl = datum.level.at(prime)
    if lvl.kind != "congruence" or lvl.depth != 1:
        return GoodPrimeRefusal(
            prime, "a", "level is not a depth-1 congruence group at the prime")
    s = lvl.s_matrix(prime, datum.r, precision)
    sp = splitting(datum.extension, prime)
    place = sp.degree_one_place()
    if place is None:
        return GoodPrimeRefusal(
            prime, "b", "no place of local degree 1 above the prime")
    witness = PlaceRef(prime, place.e, place.f, place.factor)
    ok, conj = _stability_witness(datum, prime, s, precision)
    if not ok:
        return GoodPrimeRefusal(
            prime, "c", "transported lattice is not stable under the order")
    return GoodPrimeCertificate(prime, datum.r, datum.r_prime, s, witness,
                                conj, datum)


def _stability_witness(datum: SubvarietyDatum, prime: Prime, s: LocalMatrix,
                       precision: int) -> Tuple[bool, Optional[LocalMatrix]]:
    """Condition (c): s^-1 (g^-1 C_y g) s = (gs)^-1 C_y (gs) integral, C_y
    the block companion matrix of the extension generator."""
    order = order_at(datum.extension, prime, datum.r_prime)
    c_y = LocalMatrix.from_polys(prime, order.companion_block(), precision)
    gs = datum.twist_at(prime, precision) @ s
    conj = gs.inverse() @ c_y @ gs
    return conj.is_integral(), conj


def shrink_level(level: LevelMap, prime: Prime,
                 s: Optional[LocalMatrix] = None,
                 precision: int = DEFAULT_PRECISION) -> Tuple[LevelMap, int]:
    """Replace the maximal level at the prime by its depth-1 congruence
    kernel; the index is exactly |GL_r(k(p))| < |k(p)|^(r^2)."""
    lvl = level.at(prime)
    if lvl.kind != "maximal":
        raise NotMaximalAtPrime(f"level at {prime} is not maximal")
    s_use = s if s is not None else lvl.s
    index = count_matrix_group(level.r, prime.residue_size, 1)[0]
    if index >= prime.residue_size ** (level.r ** 2):
        raise InvariantError("level index must be below |Mat_r(k(p))|")
    shrunk = level.with_level(prime, LocalLevel("congruence", 1, s_use))
    return shrunk, index


class FindReport(NamedTuple):
    scanned: int
    counters: Dict[str, int]
    accepted: Optional[str]
    predegree: int

    def to_json(self) -> dict:
        return {"schema": 1, "scanned": self.scanned,
                "failed": dict(self.counters), "accepted": self.accepted,
                "predegree": self.predegree}


class FindResult(NamedTuple):
    found: bool
    certificate: Optional[GoodPrimeCertificate]
    level: Optional[LevelMap]
    shrink_index: Optional[int]
    report: FindReport


def find_good_prime(datum: SubvarietyDatum, N: int, max_degree: int = 6,
                    budget: int = DEFAULT_BUDGET,
                    i_of_x: Optional[int] = None,
                    precision: int = DEFAULT_PRECISION) -> FindResult:
    """Scan primes in enumeration order for the four conditions: (i) a
    degree-1 place above, (ii) a maximal factored level, (iii) stability
    of the transported maximal lattice, (iv) |k(p)|^N < D(X).

    Accepts the first passing prime, shrinks the level there and
    re-certifies.  Each scanned prime increments exactly one failure
    counter (the first failing condition) or is accepted, so the counts
    add up to the number of primes scanned.

    Condition (i) is read off `splitting_pattern`, unfactored.  With no
    twist and no level matrix at the prime, (iii) needs no linear algebra:
    (gs)^-1 C_y (gs) = C_y has entries in A (`order_at` still runs, for
    its refusals).  Only the accepted prime is factored and conjugated,
    by `is_good_prime`, for its certificate.
    """
    if N < 0:
        raise MalformedInput("N must be >= 0")
    ext = datum.extension
    idx = i_of_x if i_of_x is not None else index_iX(datum, budget)
    if idx < 1:
        raise MalformedInput("datum index must be >= 1")
    d_of_x = predegree(ext, idx)
    counters = {"i": 0, "ii": 0, "iii": 0, "iv": 0, "unsupported": 0}
    scanned = 0
    for prime in enumerate_primes(ext.base, max_degree):
        scanned += 1
        try:
            pattern = splitting_pattern(ext, prime)
        except UnsupportedRamifiedPrime:
            counters["unsupported"] += 1
            continue
        if (1, 1) not in pattern:
            counters["i"] += 1
            continue
        lvl = datum.level.at(prime)
        if lvl.kind != "maximal":
            counters["ii"] += 1
            continue
        try:
            if prime in datum.twists or lvl.s is not None:
                s = lvl.s_matrix(prime, datum.r, precision)
                stable = _stability_witness(datum, prime, s, precision)[0]
            else:  # C_y has entries in A; order_at may still refuse
                order_at(ext, prime, datum.r_prime)
                stable = True
        except UnsupportedRamifiedPrime:
            counters["unsupported"] += 1
            continue
        if not stable:
            counters["iii"] += 1
            continue
        if prime.residue_size ** N >= d_of_x:
            counters["iv"] += 1
            continue
        s = lvl.s_matrix(prime, datum.r, precision)
        shrunk, index = shrink_level(datum.level, prime, s, precision)
        refined = datum.with_level(shrunk)
        cert = is_good_prime(refined, prime, precision)
        if not isinstance(cert, GoodPrimeCertificate):
            raise InvariantError(
                "re-certification after shrinking must succeed")
        report = FindReport(scanned, counters, poly_to_str(prime.poly), d_of_x)
        return FindResult(True, cert, shrunk, index, report)
    report = FindReport(scanned, counters, None, d_of_x)
    return FindResult(False, None, None, None, report)


# ---------------------------------------------------------------------------
# Transfer to an intermediate reflex field


class TransferResult(NamedTuple):
    place: PlaceRef
    inner_datum: SubvarietyDatum
    certificate: GoodPrimeCertificate


def transfer_good_prime(outer: SubvarietyDatum, inner_ext: Extension,
                        cert: GoodPrimeCertificate) -> TransferResult:
    """Push a good prime down to an intermediate reflex field F'' in a
    constructible tower F <= F'' <= F'; the residue field is preserved
    and the inner conditions are re-certified.
    """
    outer_ext = outer.extension
    prime = cert.prime
    if outer.twists.get(prime) is not None:
        raise TowerNotSupported(
            "transfer is implemented for standard twists at the prime")
    rho_inner = _tower_witness_root(outer_ext, inner_ext, cert)
    inner_datum = SubvarietyDatum(inner_ext, outer.r, dict(outer.twists),
                                  outer.level)
    inner_cert = is_good_prime(inner_datum, prime)
    if not isinstance(inner_cert, GoodPrimeCertificate):
        raise TowerNotSupported(
            f"inner datum refused at {prime}: {inner_cert.tag}")
    kp = residue_field(prime)
    if rho_inner is None:
        place = inner_cert.witness
    else:
        factor = (kp.neg(rho_inner), 1)  # x - rho
        place = PlaceRef(prime, 1, 1, factor)
    if place.residue_size != prime.residue_size:
        raise InvariantError("transferred place must keep the residue size")
    return TransferResult(place, inner_datum, inner_cert)


def _tower_witness_root(outer_ext: Extension, inner_ext: Extension,
                        cert: GoodPrimeCertificate) -> Optional[int]:
    """Residue image of the inner generator at the place below the
    certificate's witness, for the constructible towers."""
    prime = cert.prime
    kp = residue_field(prime)
    if inner_ext.kind == "constant" and inner_ext.m == 1:
        return None  # F'' = F: the prime itself
    if outer_ext.to_json() == inner_ext.to_json():
        wit = cert.witness
        if wit.factor is not None and wit.f == 1:
            lin = Poly(kp, wit.factor)
            return kp.neg(lin.coeffs[0]) if lin.degree == 1 else None
        return None
    if outer_ext.kind != inner_ext.kind:
        raise TowerNotSupported(
            f"{inner_ext.kind} is not a constructible subfield of "
            f"{outer_ext.kind}")
    if outer_ext.m % inner_ext.m != 0:
        raise TowerNotSupported("inner degree does not divide the outer degree")
    wit = cert.witness
    if wit.factor is None or wit.f != 1:
        raise TowerNotSupported("outer witness is not a split linear place")
    lin = Poly(kp, wit.factor)
    rho = kp.neg(lin.coeffs[0])  # image of the outer generator in k(p)
    if outer_ext.kind == "kummer":
        if outer_ext.params["a"] != inner_ext.params["a"]:
            raise TowerNotSupported("Kummer tower must share the radicand")
        c = outer_ext.params["n"] // inner_ext.params["n"]
        return kp.pow(rho, c)
    if outer_ext.kind == "constant":
        # embed the inner constant field in the outer one, then push the
        # generator through y' -> rho
        outer_const = outer_ext.base.extension(
            Poly(outer_ext.base, [c.coeffs[0] if c.coeffs else 0
                                  for c in outer_ext.x_coeffs]))
        inner_modulus = [c.coeffs[0] if c.coeffs else 0
                         for c in inner_ext.x_coeffs]
        sigma = None
        for x in outer_const.elements():
            acc = 0
            for coeff in reversed(inner_modulus):
                acc = outer_const.add(outer_const.mul(acc, x), coeff)
            if acc == 0:
                sigma = x
                break
        if sigma is None:
            raise InvariantError("subfield generator must have a root")
        digits = outer_const._split(sigma)
        out = 0
        power = 1
        for dcoef in digits:
            out = kp.add(out, kp.mul(dcoef, power))
            power = kp.mul(power, rho)
        return out
    raise TowerNotSupported(f"no tower rule for kind {outer_ext.kind}")


# ---------------------------------------------------------------------------
# Orbit equality of data


def same_subvariety(x1: SubvarietyDatum, x2: SubvarietyDatum,
                    depth: int) -> bool:
    """Whether the data describe the same subvariety: at every support
    prime the twist lattices must lie in one GL_{r'}(A'_p)-orbit, decided
    exhaustively mod p^depth.

    A negative answer at any depth is conclusive.  A positive answer is
    certified only when depth >= e_max + 1 for the largest elementary
    divisor involved; below that the function raises Inconclusive.
    """
    if x1.extension.to_json() != x2.extension.to_json() or x1.r != x2.r:
        return False
    support = sorted(set(x1.twists) | set(x2.twists),
                     key=lambda p: p.sort_key())
    pending = False
    for prime in support:
        order = order_at(x1.extension, prime, x1.r_prime)
        a = Lattice(x1.twist_at(prime))
        b = Lattice(x2.twist_at(prime))
        shift = -min(0, min(a.elementary_divisors), min(b.elementary_divisors))
        if shift:
            pi_s = LocalElement.pi_power(prime, shift)
            a = Lattice(a.basis.scale(pi_s))
            b = Lattice(b.basis.scale(pi_s))
        if sum(a.elementary_divisors) != sum(b.elementary_divisors):
            return False
        e_max = max(max(a.elementary_divisors), max(b.elementary_divisors))
        if not module_orbit_equal(order, min(depth, max(1, e_max + 1)), a, b):
            return False
        if depth < e_max + 1:
            pending = True
    if pending:
        raise Inconclusive(
            f"orbits agree mod p^{depth} but certification needs depth e_max+1")
    return True


# ---------------------------------------------------------------------------
# Component counting


def count_components(base: FiniteField, level: LevelMap) -> int:
    """|Cl(F)| * |A^* / (F_q^* det K)| for F = F_q(t): the class number is
    1 and the determinant quotient is computed from the congruence
    support."""
    support = level.congruence_support()
    if not support:
        return 1
    units = 1
    for prime, depth in support:
        qp = prime.residue_size
        units *= qp ** depth - qp ** (depth - 1)
    q = base.size
    if units % (q - 1):
        raise InvariantError("unit count must be divisible by q - 1")
    return units // (q - 1)
