"""The place count and zeta numerator that `extension.place_counts` and the
integer Newton recurrence of `extension.zeta_numerator` replaced, kept as
test oracles: one prime scan per place degree, and the numerator from the
exponential series exp(sum N_i u^i / i) expanded in `Fraction`s."""

from fractions import Fraction

from drinlat.errors import BudgetExceeded, InvariantError
from drinlat.extension import (PLACE_BUDGET, Extension, ZetaData,
                               splitting_pattern)
from drinlat.ffpoly import primes_of_degree


def count_places(ext: Extension, degree: int) -> int:
    """Number of places of F' of degree `degree` over its own constant
    field F_{q'}, including the infinite place."""
    n_const = ext.const_degree
    total = 0
    if degree == ext.infinite_place_degree:
        total += 1  # the unique infinite place
    scan = degree * n_const
    if ext.base.size ** scan > PLACE_BUDGET:
        raise BudgetExceeded(
            f"enumerating primes of degree up to {scan} exceeds the budget")
    for d in range(1, scan + 1):
        for prime in primes_of_degree(ext.base, d):
            for e, f in splitting_pattern(ext, prime):
                if d * f == degree * n_const:
                    total += 1
    return total


def zeta_numerator(ext: Extension) -> ZetaData:
    """Numerator P(u) of the zeta function of F', via the place counts
    b_1..b_g, the exponential-series expansion, and the functional
    equation a_{2g-i} = q'^(g-i) a_i; the class number is h = P(1) times
    the degree of the infinite place (1 for all structured shapes)."""
    g = ext.genus
    qp = ext.q_prime
    if g == 0:
        return ZetaData(qp, 0, [], [], [1], 1)
    b = [count_places(ext, d) for d in range(1, g + 1)]
    n_counts = []
    for i in range(1, g + 1):
        total = 0
        for d in range(1, i + 1):
            if i % d == 0:
                total += d * b[d - 1]
        n_counts.append(total)
    # Z(u) = exp(sum N_i u^i / i); P = Z * (1-u)(1-q'u) up to u^g
    z = [Fraction(1)] + [Fraction(0)] * g
    s = [Fraction(0)] + [Fraction(n_counts[i - 1], i) for i in range(1, g + 1)]
    for k in range(1, g + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += i * s[i] * z[k - i]
        z[k] = acc / k
    low = [Fraction(0)] * (g + 1)
    for k in range(g + 1):
        acc = z[k]
        if k >= 1:
            acc -= (qp + 1) * z[k - 1]
        if k >= 2:
            acc += qp * z[k - 2]
        low[k] = acc
    coeffs = [0] * (2 * g + 1)
    for k in range(g + 1):
        if low[k].denominator != 1:
            raise InvariantError(
                f"zeta numerator coefficient a_{k} = {low[k]} is not an integer")
        coeffs[k] = int(low[k])
    for i in range(g):
        coeffs[2 * g - i] = qp ** (g - i) * coeffs[i]
    if coeffs[0] != 1:
        raise InvariantError(f"zeta numerator has a_0 = {coeffs[0]}, not 1")
    h = sum(coeffs)
    # |Cl(A')| = P(1) * deg(infinity'), and the structured shapes all have
    # an infinite place of degree 1
    h_order = h * ext.infinite_place_degree
    # the class-number lower bound in terms of genus must hold
    lower = Fraction((qp - 1) * (qp ** (2 * g) - 2 * g * qp ** g + 1),
                     2 * g * (qp ** (g + 1) - 1))
    if h_order < 1 or Fraction(h_order) < lower:
        raise InvariantError(
            f"class number {h_order} is below 1 or the genus bound {lower}")
    return ZetaData(qp, g, b, n_counts, coeffs, h_order)
