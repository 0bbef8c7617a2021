"""The two r-th root algorithms that `FiniteField._rth_root` replaced, kept
as test oracles: Tonelli-Shanks for r = 2 and Adleman-Manders-Miller for
odd r, each with the smallest non-residue of the field, so the one
routine can be checked element for element against them."""

from drinlat.errors import MalformedInput
from drinlat.ffpoly import _int_factor, _pow_by


def sqrt(F, a: int) -> int:
    """A square root of a square a, in odd characteristic.

    Tonelli-Shanks with the smallest non-square of the field, found
    once per field: with q - 1 = m 2^s (m odd) the cost is one power
    a^((m-1)/2), which gives both a^((m+1)/2) and a^m, and at most s^2
    squarings, whichever square a is.  Products go through
    `_untabled_mul`, so a cold field builds no table."""
    if F.p == 2:
        raise MalformedInput("sqrt needs odd characteristic")
    if a == 0:
        return 0
    mul = F._untabled_mul()
    n = F.size - 1
    s = (n & -n).bit_length() - 1
    m = n >> s
    w = _pow_by(mul, a, (m - 1) // 2)
    x = mul(w, a)
    t = mul(w, x)
    c = None
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = mul(u, u)
            i += 1
        if i == s:
            raise MalformedInput(f"{a} is not a square in {F!r}")
        if c is None:
            c = _pow_by(mul, F._non_residue(2), m)
        b = c
        for _ in range(s - i - 1):
            b = mul(b, b)
        x = mul(x, b)
        c = mul(b, b)
        t = mul(t, c)
        s = i
    return x


def amm_root(F, a: int, r: int) -> int:
    """An r-th root of a nonzero r-th power a, r an odd prime dividing
    size - 1 = r^s t with r prime to t (Adleman-Manders-Miller, in the
    form of Cao, Sha & Fan, 2011).  a^alpha with r alpha = 1 mod t is
    a root up to a unit b of r-power order; the loop removes b one
    r-adic level at a time, by discrete logarithms in the order-r
    subgroup <z>, z = rho^(r^(s-1) t) for an r-th non-residue rho."""
    mul = F._untabled_mul()
    n = F.size - 1
    s, t = 0, n
    while t % r == 0:
        s, t = s + 1, t // r
    alpha = pow(r, -1, t)
    rho = F._non_residue(r)
    c = _pow_by(mul, rho, t)
    z = _pow_by(mul, c, r ** (s - 1))
    logs = {}
    w = 1
    for j in range(r):
        logs[w] = j
        w = mul(w, z)
    b = _pow_by(mul, a, (r * alpha - 1) % n)
    h = 1
    for i in range(1, s):
        d = _pow_by(mul, b, r ** (s - 1 - i))
        if d not in logs:
            raise MalformedInput(f"{a} is not an {r}-th power in {F!r}")
        j = -logs[d] % r
        if j:
            cj = _pow_by(mul, c, j)
            h = mul(h, cj)
            b = mul(b, _pow_by(mul, cj, r))
        c = _pow_by(mul, c, r)
    return mul(_pow_by(mul, a, alpha), h)


def nth_root(F, a: int, n: int) -> int:
    """The n-th root chain of `FiniteField.nth_root` on the two oracles:
    `sqrt` for each factor 2 of n, `amm_root` for each odd prime factor,
    with the same final check."""
    if n < 1 or (F.size - 1) % n:
        raise MalformedInput(f"{n} does not divide {F.size} - 1")
    x = a
    if a:
        for r, mult in _int_factor(n):
            for _ in range(mult):
                x = sqrt(F, x) if r == 2 else amm_root(F, x, r)
    if _pow_by(F._untabled_mul(), x, n) != a:
        raise MalformedInput(f"{a} is not an {n}-th power in {F!r}")
    return x
