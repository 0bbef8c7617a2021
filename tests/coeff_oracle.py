"""The per-term loops that `Poly.__mul__` and `Poly.__divmod__` ran before
the coefficient-list functions of `drinlat.ffpoly` took over, kept as the
test oracles of `_mul_coeffs` and `_divmod_coeffs`.

Each coefficient goes through the field's own methods (`add`, `sub`,
`mul`, `inv`), one call per term, whatever the kind of field: no
Kronecker product, no q x q table.  `coefficient_fields` lists the fields
the differential tests run on, one or more of each kind.
"""

from drinlat.ffpoly import FiniteField, prime_from_str, residue_field


def coefficient_fields() -> list:
    """F_2, F_3, F_5 and F_7 (prime); F_4 and F_9 with their q x q tables
    filled, as a packed kernel over them fills them; F_81, a k(p) of 81
    elements over F_9 and F_(3^6), which have no such tables."""
    F4, F9 = FiniteField.of_order(2, 2), FiniteField.of_order(3, 2)
    for F in (F4, F9):
        F._fill_coefficient_tables()
    return ([FiniteField.of_order(p) for p in (2, 3, 5, 7)] + [F4, F9]
            + [FiniteField.of_order(3, 4),
               residue_field(prime_from_str("t^2+t+3", F9)),
               FiniteField.of_order(3, 6)])


def add_coeffs(F, a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return out


def mul_coeffs(F, a, b) -> list:
    """All len(a) + len(b) - 1 coefficients of a * b ([] when either is
    empty)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def divmod_coeffs(F, a, b) -> tuple:
    """(quotient, remainder) of a by b, whose last coefficient is nonzero,
    by long division with the inverse of that coefficient; the remainder
    keeps len(a) coefficients when len(a) >= len(b)."""
    rem = list(a)
    d = len(b) - 1
    lead_inv = F.inv(b[-1])
    if len(rem) <= d:
        return [], rem
    quot = [0] * (len(rem) - d)
    for i in reversed(range(len(quot))):
        c = F.mul(rem[i + d], lead_inv)
        if c == 0:
            continue
        quot[i] = c
        for j, y in enumerate(b):
            rem[i + j] = F.sub(rem[i + j], F.mul(c, y))
    return quot, rem
