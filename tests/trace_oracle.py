"""The Artin-Schreier splitting test in k(p), kept as a test-only oracle.

This is `drinlat.extension._artin_schreier_pattern` as it was before the
absolute trace moved to F_q[t] (`drinlat.ffpoly.absolute_trace`): it
builds the residue field and sums the conjugates c^(p^i) there, with the
field's own products.
"""

from __future__ import annotations

from typing import Tuple

from drinlat.ffpoly import residue_field


def artin_schreier_pattern_in_kp(ext, prime) -> Tuple[Tuple[int, int], ...]:
    """x^p - x - c splits completely iff the absolute trace of c vanishes,
    and is irreducible otherwise."""
    kp = residue_field(prime)
    p = ext.base.p
    c = kp.reduce(ext.params["a"])
    tr = 0
    x = c
    for _ in range(kp.e):  # [k(p) : F_p]
        tr = kp.add(tr, x)
        x = kp.pow(x, p)
    if tr == 0:
        return ((1, 1),) * p
    return ((1, p),)
