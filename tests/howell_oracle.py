"""Howell normal forms over A/p^k, kept as a test-only oracle.

This is the submodule machinery that `drinlat._chainring` and
`drinlat.localfield` used before every hom-module came from the packed
Smith form: `howell_form` (Howell 1986), module sizes, membership,
enumeration, solving into a submodule, the stacked hom-module
construction `_hom_module` and the depth-1 saturation test
`saturation_holds_chain`.  A Howell form is unique per submodule, so the
tests compare modules by comparing Howell rows, independently of the
elimination under test.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from drinlat._chainring import ChainRing
from drinlat.errors import BudgetExceeded
from drinlat.ffpoly import residue_field
from drinlat.localfield import OrderStructure, _lattice_columns_chain
from residue_oracle import _residue_echelon

Vec = Tuple[int, ...]


def vec_add(ring: ChainRing, u: Vec, v: Vec) -> Vec:
    return tuple(ring.add(a, b) for a, b in zip(u, v))


def vec_sub(ring: ChainRing, u: Vec, v: Vec) -> Vec:
    return tuple(ring.sub(a, b) for a, b in zip(u, v))


def vec_scale(ring: ChainRing, c: int, v: Vec) -> Vec:
    if c == 1:
        return tuple(v)
    return tuple(ring.mul(c, a) if a else 0 for a in v)


def vec_is_zero(v: Vec) -> bool:
    return not any(v)


def _leading_index(v: Vec) -> int:
    for i, a in enumerate(v):
        if a:
            return i
    return len(v)


def div_exact(ring: ChainRing, a: int, b: int) -> int:
    """a/b where val(a) >= val(b); exact in the chain ring."""
    vb = ring.val(b)
    ub = ring.unit_part(b, vb)
    return ring.mul(ring.unit_part(a, vb), ring.inv(ub))


def howell_form(ring: ChainRing, rows: Sequence[Vec]) -> Tuple[Vec, ...]:
    """Unique Howell normal form of the row span.

    Pivots are normalized to exact powers of pi, every other entry in a
    pivot column is reduced to its canonical residue mod that power, and
    annihilator rows are folded in, so equal submodules give equal output.
    """
    k = ring.k
    work: List[Vec] = [r for r in rows if not vec_is_zero(r)]
    n = len(rows[0]) if rows else 0
    pivots: List[Tuple[int, int, Vec]] = []  # (col, val, row)

    for col in range(n):
        eligible = [r for r in work if _leading_index(r) == col]
        work = [r for r in work if _leading_index(r) > col]
        if not eligible:
            continue
        vals = [ring.val(r[col]) for r in eligible]
        best = min(range(len(eligible)), key=lambda i: vals[i])
        a = vals[best]
        pivot = eligible.pop(best)
        # normalize pivot entry to exactly pi^a
        u_inv = ring.inv(ring.unit_part(pivot[col], a))
        pivot = vec_scale(ring, u_inv, pivot)
        for r in eligible:
            if not r[col]:
                work.append(r)
                continue
            c = div_exact(ring, r[col], pivot[col])
            r2 = vec_sub(ring, r, vec_scale(ring, c, pivot))
            if not vec_is_zero(r2):
                work.append(r2)
        if a > 0:
            ann = vec_scale(ring, ring.pi_pow(k - a), pivot)
            if not vec_is_zero(ann):
                work.append(ann)
        pivots.append((col, a, pivot))

    # full reduction: left-to-right, reduce every other row at each pivot col
    for idx, (col, a, prow) in enumerate(pivots):
        for jdx, (jcol, ja, jrow) in enumerate(pivots):
            if jdx == idx:
                continue
            c = jrow[col]
            if not c:
                continue
            q = ring.kernel.divmod_p(c, a)[0]
            if not q:
                continue
            jrow = vec_sub(ring, jrow, vec_scale(ring, q, prow))
            pivots[jdx] = (jcol, ja, jrow)

    return tuple(row for _, _, row in sorted(pivots, key=lambda t: t[0]))


def module_size(ring: ChainRing, howell_rows: Sequence[Vec]) -> int:
    """Cardinality of the module from its Howell form."""
    total = 1
    for row in howell_rows:
        col = _leading_index(row)
        a = ring.val(row[col])
        total *= ring.prime.residue_size ** (ring.k - a)
    return total


def module_contains(ring: ChainRing, howell_rows: Sequence[Vec], v: Vec) -> bool:
    """Membership test by reduction against the Howell form."""
    for row in howell_rows:
        col = _leading_index(row)
        if not v[col]:
            continue
        a = ring.val(row[col])
        if ring.val(v[col]) < a:
            return False
        c = div_exact(ring, v[col], row[col])
        v = vec_sub(ring, v, vec_scale(ring, c, row))
    return vec_is_zero(v)


def enumerate_module(ring: ChainRing, howell_rows: Sequence[Vec],
                     budget: int) -> Iterator[Vec]:
    """All elements of the module; raises BudgetExceeded upfront if the
    cardinality is over budget."""
    size = module_size(ring, howell_rows)
    if size > budget:
        raise BudgetExceeded(
            f"module of size {size} exceeds enumeration budget {budget}")
    n = len(howell_rows[0]) if howell_rows else 0
    zero = (0,) * n
    if not howell_rows:
        yield zero
        return
    pivot_vals = []
    for row in howell_rows:
        col = _leading_index(row)
        pivot_vals.append(ring.val(row[col]))

    def rec(i: int, acc: Vec) -> Iterator[Vec]:
        if i == len(howell_rows):
            yield acc
            return
        # the canonical representatives of A/p^(k - pivot valuation)
        for c in ring.kernel.elements(ring.prime.degree *
                                      (ring.k - pivot_vals[i])):
            if not c:
                yield from rec(i + 1, acc)
            else:
                yield from rec(i + 1, vec_add(ring, acc,
                                              vec_scale(ring, c, howell_rows[i])))

    yield from rec(0, zero)


def solve_into_module(ring: ChainRing, image_rows: Sequence[Vec],
                      target_rows: Sequence[Vec], dim: int) -> Tuple[Vec, ...]:
    """Howell form of {x in R^dim : sum x_s * image_rows[s] in <target>}.

    image_rows[s] is the image of the s-th domain basis vector; the row
    span of target_rows is the allowed submodule of the codomain.
    """
    n = len(image_rows[0]) if image_rows else len(target_rows[0])
    stacked: List[Vec] = []
    for s, img in enumerate(image_rows):
        tag = [0] * dim
        tag[s] = 1
        stacked.append(tuple(img) + tuple(tag))
    for w in target_rows:
        stacked.append(tuple(w) + (0,) * dim)
    reduced = howell_form(ring, stacked)
    solutions = [row[n:] for row in reduced if vec_is_zero(row[:n])]
    if not solutions:
        return ()
    return howell_form(ring, solutions)


def kernel_rows(ring: ChainRing, exps, gens) -> Tuple[Vec, ...]:
    """Howell form of the module spanned by the rows of gens, row i
    scaled by pi^(k - exps[i]): the Smith data `_hom_kernel` returns."""
    k = ring.k
    rows = [tuple(ring.mul(ring.pi_pow(k - e), x) for x in row)
            for e, row in zip(exps, gens) if e]
    return howell_form(ring, rows)


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


def _hom_module(order: OrderStructure, ring: ChainRing, src_cols, dst_rows):
    """Howell form of {x in Mat_{r'}(R'/p^k) : x . src subset of <dst>},
    x given by its m*r'^2 chain-ring coordinates.

    The stacked construction: the m*r'^2 images of src, each r*len(src)
    wide, solved into len(src) copies of dst's Howell rows."""
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


def saturation_holds_chain(order: OrderStructure, lattice) -> bool:
    """The saturation test through a depth-1 chain ring: the y-power
    translates of the basis columns, by `_chain_matvec` mod p, must span
    (A/p)^r over k(p)."""
    prime = order.prime
    ring = ChainRing(prime, 1)
    kp = residue_field(prime)
    m, r = order.m, order.r
    ypow = order.y_power_blocks(ring)
    vectors = []
    for col in _lattice_columns_chain(lattice, ring):
        blocks = [col[b * m:(b + 1) * m] for b in range(order.r_prime)]
        for pw in ypow:
            vectors.append([ring.to_residue(x) for blk in blocks
                            for x in _chain_matvec(ring, pw, blk)])
    return len(_residue_echelon(kp, vectors, r)) == r
