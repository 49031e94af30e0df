"""Dense integer polynomials used for independence and clique counts.

Coefficients are plain Python ints (arbitrary precision), constant term
first.  Counts like the number of maximal cliques of the function graphs
overflow 64 bits already for small parameters, so exact big integers are
non-negotiable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Union


def exact_str(x: Union[int, Fraction]) -> str:
    """An int as a decimal string, a Fraction as "p/q".

    Goes through Decimal, which has no digit limit, so counts past
    Python's int-to-str limit (4300 digits by default) still print.
    """
    if isinstance(x, Fraction):
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
    return str(Decimal(x))


@dataclass(frozen=True, slots=True, repr=False)
class Polynomial:
    """Immutable polynomial with non-negative integer coefficients.

    ``coeffs[t]`` is the degree-``t`` coefficient.  Trailing zeros are
    stripped on construction; the zero polynomial is ``(0,)``.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = list(self.coeffs)
        if not cs:
            cs = [0]
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an int")
            if c < 0:
                raise ValueError(f"negative coefficient {c}")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, t: int) -> int:
        """Degree-t coefficient, 0 beyond the stored length."""
        if t < 0:
            raise ValueError("negative degree")
        return self.coeffs[t] if t < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Polynomial(out)

    def to_json(self) -> list[str]:
        """Coefficient array, constant term first, as decimal strings."""
        return [exact_str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"
