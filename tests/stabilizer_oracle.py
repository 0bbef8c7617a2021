"""The walk over all of the multiplier ring, kept as a test-only oracle.

`stabilizer_index_enumerated` is `drinlat.localfield.stabilizer_index`
by brute force: it tests every element of the multiplier ring H for
invertibility mod p, where the library counts the units on H mod p
only.  `_kernel_elements` walks a module given by the Smith data that
`drinlat.localfield._hom_kernel` returns.
"""

from __future__ import annotations

from typing import Optional

from drinlat._chainring import ChainRing
from drinlat.errors import BudgetExceeded
from drinlat.ffpoly import residue_field
from drinlat.localfield import (DEFAULT_BUDGET, OrderStructure,
                                _multiplier_ring, _orbit_index,
                                _x_block_matrix)
from residue_oracle import _residue_echelon


def _kernel_elements(ring: ChainRing, exps, gens, budget: int):
    """Every element of the module with Smith data (exps, gens), each
    once: the sums of c_i pi^(k - exps[i]) gens[i], c_i over A/p^exps[i].
    Raises BudgetExceeded on the first step if the module has more than
    budget elements."""
    size = ring.prime.residue_size ** sum(exps)
    if size > budget:
        raise BudgetExceeded(
            f"module of size {size} exceeds enumeration budget {budget}")
    k = ring.k
    terms = [(e, [ring.mul(ring.pi_pow(k - e), x) for x in row])
             for e, row in zip(exps, gens) if e]

    def walk(i, acc):
        if i == len(terms):
            yield acc
            return
        e, g = terms[i]
        for c in ring.kernel.elements(ring.prime.degree * e):  # A/p^e
            yield from walk(i + 1, [ring.add(a, ring.mul(c, b)) if c and b
                                    else a for a, b in zip(acc, g)])

    yield from walk(0, [0] * len(gens))


def stabilizer_index_enumerated(lattice, order: OrderStructure,
                                k: Optional[int] = None,
                                budget: int = DEFAULT_BUDGET) -> int:
    """Brute-force counterpart of stabilizer_index: tests every element
    of the multiplier ring H for invertibility mod p."""
    ring, hom, _, _ = _multiplier_ring(lattice, order, k, budget)
    kp = residue_field(order.prime)
    ypow_res = order.y_power_residues()
    r = order.r
    units = 0
    for x in _kernel_elements(ring, *hom, budget):
        mat = _x_block_matrix(order, kp, ypow_res,
                              [ring.to_residue(c) for c in x])
        if len(_residue_echelon(kp, mat, r)) == r:
            units += 1
    return _orbit_index(order, ring.k, units)
