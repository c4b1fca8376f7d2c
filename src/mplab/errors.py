"""Shared exception types, and the spelling of integers in their messages."""

import math


def magnitude(count: int) -> str:
    """count in decimal, or as ~10^k once it has more than 20 digits: str()
    refuses integers of more than 4300 digits, and a dimension of n
    particles grows like side^(d n)."""
    if abs(count) < 10**20:
        return str(count)
    return f"{'-' if count < 0 else ''}~10^{int(math.log10(abs(count)))}"


class BudgetError(RuntimeError):
    """A requested computation exceeds a declared size or work budget."""

    def __init__(self, message: str, count=None, limit=None):
        super().__init__(message)
        self.count = count
        self.limit = limit


class SingularityError(ValueError):
    """A resolvent was requested at (numerically) an eigenvalue.

    Raised by the LU solve `spectral._green_column`. `distance` bounds the
    distance from z to the nearest eigenvalue from above: 0.0 when the
    factorization was exactly singular, otherwise 1/||w|| for the solution
    w of the attempted solve.
    """

    def __init__(self, message: str, distance: float):
        super().__init__(message)
        self.distance = distance


class ContourGeometryError(ValueError):
    """Contour for the block convolution would enclose or touch a pole."""
