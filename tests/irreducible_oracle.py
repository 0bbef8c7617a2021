"""Rabin's irreducibility test, kept as a test-only oracle.

This is `drinlat.ffpoly.Poly.is_irreducible` as it was before the library
took the distinct-degree test.  It computes every Frobenius power
x^(q^i) mod f for i <= d, checks x^(q^d) = x, and then takes one gcd per
prime factor l of d, with x^(q^(d/l)) - x.  `tests/test_ffpoly.py`
compares the two tests.
"""

from __future__ import annotations

from drinlat.ffpoly import Poly, _int_factor


def is_irreducible_rabin(f: Poly) -> bool:
    """Rabin's test: deterministic, exact."""
    d = f.degree
    if d < 1:
        return False
    if not f.is_monic():
        f = f.monic()
    q = f.field.size
    t_poly = Poly.t(f.field)
    xq = t_poly
    powers = {}
    for i in range(1, d + 1):
        xq = xq.pow_mod(q, f)
        powers[i] = xq
    if powers[d] != t_poly % f:
        return False
    for ell in {p for p, _ in _int_factor(d)}:
        g = (powers[d // ell] - t_poly).gcd(f)
        if not g.is_one():
            return False
    return True
