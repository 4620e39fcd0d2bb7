"""Exception hierarchy shared across the package."""

import operator


class BraceKitError(Exception):
    """Base class for all bracekit errors."""


class NotLatinSquare(BraceKitError):
    def __init__(self, row: int, col: int, value: int):
        self.cell = (row, col, value)
        super().__init__(f"table is not a Latin square at cell ({row}, {col}) = {value}")


class NotAssociative(BraceKitError):
    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"associativity fails at triple ({a}, {b}, {c})")


class IdentityNotZero(BraceKitError):
    def __init__(self, row: int, col: int):
        self.cell = (row, col)
        super().__init__(f"index 0 is not an identity: cell ({row}, {col})")


class IndexOutOfRange(BraceKitError):
    def __init__(self, index: int, n: int):
        self.index = index
        self.n = n
        super().__init__(f"element index {index} out of range for order {n}")


class NotNormal(BraceKitError):
    pass


class DistributivityFails(BraceKitError):
    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(
            f"skew left distributivity fails at ({a}, {b}, {c}): "
            f"a∘(b+c) != (a∘b) - a + (a∘c)"
        )


class IdentityMismatch(BraceKitError):
    pass


class BadCyclicParameter(BraceKitError):
    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        super().__init__(f"invalid parameter d={d} for order n={n}: need p | d | n for every prime p | n")


class NotAnIdeal(BraceKitError):
    pass


class NotASubBrace(BraceKitError):
    pass


class OrderCapExceeded(BraceKitError):
    def __init__(self, n: int, cap: int, limit: str = "the configured cap"):
        self.n = n
        self.cap = cap
        super().__init__(f"order {n} exceeds {limit} {cap}")


class GapViolation(BraceKitError):
    """Commuting probability landed in (5/8, 1) away from 3/4; this should be impossible."""


class ParseError(BraceKitError):
    pass


class InvariantViolation(BraceKitError):
    """An independent cross-check disagreed: a construction or theorem bug."""


def require(cond: bool, msg: str) -> None:
    """Raise InvariantViolation(msg) unless cond holds.

    Unlike ``assert`` this survives ``python -O``.  Pass a constant message so
    that a passing check costs one call and nothing else.
    """
    if not cond:
        raise InvariantViolation(msg)


def check_indices(n: int, *xs: int) -> tuple[int, ...]:
    """The xs as Python ints, each an element 0..n-1: an integer in range,
    as operator.index reads it, so Python ints and bools and numpy ints
    pass and floats and strings do not.  Raises IndexOutOfRange, holding
    the x as given, for the first x that is not."""
    out = []
    for x in xs:
        try:
            i = operator.index(x)
        except TypeError:
            raise IndexOutOfRange(x, n) from None
        if not 0 <= i < n:
            raise IndexOutOfRange(x, n)
        out.append(i)
    return tuple(out)
