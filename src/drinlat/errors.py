"""Exception types shared across the library.

Every library error is a distinct class, so callers react without string
matching, and lies in one of three categories, which the CLI maps to its
exit codes:

- `InputError` (4, kind `malformed`): the input does not parse, or what
  it parses to lies outside the accepted shapes;
- `Refusal` (2): the input is well formed but no answer is certified;
- `BudgetExceeded` (3): an enumeration would exceed its budget.

Any other exception is an internal fault (5); a failed invariant check
raises `InvariantError`, which is one.  `decoding` reports the
Python exceptions that bad outside input raises while it is decoded as
`MalformedInput`.
"""

from contextlib import contextmanager


class DrinlatError(Exception):
    """Base class for all library errors."""


class InputError(DrinlatError):
    """The input is malformed or outside the accepted shapes."""


class Refusal(DrinlatError):
    """The library declines to answer rather than risk a wrong one."""


class MalformedInput(InputError):
    """Input text or JSON does not parse against the documented grammar."""


class ZeroPolynomial(InputError):
    """The zero polynomial was passed where a nonzero one is required."""


class PrecisionExhausted(Refusal):
    """A pi-adic valuation could not be certified at working precision."""


class Singular(Refusal):
    """Matrix is singular at working precision (det valuation is +infinity)."""


class NotContained(Refusal):
    """Claimed lattice containment does not hold."""


class NotSaturated(Refusal):
    """The lattice does not span the standard module over the order."""


class InvariantError(AssertionError):
    """An internal invariant that guards a returned number failed.

    Raised explicitly, never by an `assert` statement, so that the check
    survives `python -O`.  Not a DrinlatError: it is a fault of the
    library, not a category of answer, and the CLI exits 5 on it."""


class BudgetExceeded(DrinlatError):
    """A finite enumeration would exceed the configured budget."""


class QuotientInsufficient(Refusal):
    """The finite quotient does not capture the requested index computation."""


class ReducibleDefiningPolynomial(InputError):
    """Defining polynomial of an extension is reducible."""


class MultipleInfinitePlaces(InputError):
    """Extension has more than one place over infinity."""


class UnsupportedShape(InputError):
    """Extension constructor shape outside the supported closed forms."""


class UnsupportedRamifiedPrime(Refusal):
    """Splitting or order data at this prime is not certified by closed form."""


class NotMaximalAtPrime(Refusal):
    """Level is not maximal at the prime where maximality is required."""


class TowerNotSupported(Refusal):
    """Intermediate field is not a constructible sub-extension."""


class Inconclusive(Refusal):
    """Orbit test agrees at working depth but the depth certifies nothing."""


class NotNormal(Refusal):
    """Extension is not normal by construction."""


class InapplicableDegree(Refusal):
    """Degree is incompatible with the constant-extension degree."""


class GenusZero(Refusal):
    """Bound is not stated for genus zero."""


@contextmanager
def decoding(what: str):
    """Report a missing key, a wrong JSON type, a bad number, a zero
    denominator or an unreadable file met while decoding `what` as
    MalformedInput."""
    try:
        yield
    except (LookupError, TypeError, ValueError, ZeroDivisionError,
            OSError) as exc:
        raise MalformedInput(f"{what}: {type(exc).__name__}: {exc}") from exc
