"""Queries on a `LocalElement` that only the tests ask, kept test-only.

They were `LocalElement` methods, but no library code called them:
`certified_val` refuses where the valuation is not certified,
`has_val_at_least` certifies a lower bound on it (the coset-counting
oracle of `hecke_oracle.py` tests membership with it), and `residue_poly`
reads the class mod p^k as a Poly.  `same_fields` is the tests' equality
of elements; `LocalElement` itself compares by identity.
"""

from __future__ import annotations

from drinlat.errors import PrecisionExhausted, Singular
from drinlat.ffpoly import Poly
from drinlat.localfield import LocalElement


def certified_val(x: LocalElement) -> int:
    if x.kind == "n":
        return x.val
    if x.kind == "z":
        raise Singular("exact zero has valuation +infinity")
    raise PrecisionExhausted(f"valuation uncertified beyond O(pi^{x.val})")


def has_val_at_least(x: LocalElement, c: int) -> bool:
    if x.kind == "z":
        return True
    if x.val >= c:
        return True
    if x.kind == "n":
        return False
    raise PrecisionExhausted(f"cannot certify valuation >= {c}")


def residue_poly(x: LocalElement, k: int) -> Poly:
    """Canonical representative of the class mod p^k, as a Poly."""
    return x._kr.to_poly(x.residue(k))


def same_fields(x: LocalElement, y: LocalElement) -> bool:
    """Same kernel and same stored (kind, val, unit, prec, exact)."""
    return x._kr is y._kr and ((x.kind, x.val, x.unit, x.prec, x.exact)
                               == (y.kind, y.val, y.unit, y.prec, y.exact))
