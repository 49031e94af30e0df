"""Dense integer polynomials used for independence and clique counts.

Coefficients are plain Python ints (arbitrary precision), constant term
first.  Counts like the number of maximal cliques of the function graphs
overflow 64 bits already for small parameters, so exact big integers are
non-negotiable here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from typing import Iterator, Sequence, Union

# str(int) is quadratic in the digit count, and on CPython 3.11 it crosses
# the divide and conquer below between 24,576 bits (0.87 ms against 1.10
# ms) and 32,768 bits (1.68 ms against 1.32 ms); past that the divide and
# conquer wins by a growing factor: 4.4 s against 0.25 s at 500,000 digits.
_STR_MAX_BITS = 28_000
# The divide and conquer hands integers of at most this many bits to
# Decimal(int) whole; 1024 to 4096 bits ran fastest on CPython 3.11.
_LEAF_BITS = 2048


def _decimal_digits(n: int) -> str:
    """The decimal digits of n >= 0 in subquadratic time, with no digit
    limit: split n at a power of two, convert the halves, then multiply the
    high half by that power and add the low half in an exact decimal
    context, whose multiplication is subquadratic.  This is CPython 3.12's
    ``_pylong.int_to_decimal_string``, which 3.10 and 3.11 lack.  The
    context is this call's own, so the thread's decimal context is never
    read or changed, and the powers of two it keeps die with the call."""
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:  # 2**w
        result = powers.get(w)
        if result is None:
            if w <= _LEAF_BITS:
                result = Decimal(1 << w)
            elif w - 1 in powers:
                result = ctx.add(powers[w - 1], powers[w - 1])
            else:
                # the smaller half first, so an odd w's larger half,
                # half + 1, takes the doubling branch above
                half = w >> 1
                result = ctx.multiply(power(half), power(w - half))
            powers[w] = result
        return result

    def convert(n: int, w: int) -> Decimal:  # n < 2**w
        if w <= _LEAF_BITS:
            return Decimal(n)
        half = w >> 1
        high = n >> half
        low = n - (high << half)
        return ctx.fma(convert(high, w - half), power(half), convert(low, half))

    return str(convert(n, n.bit_length()))


def exact_str(x: Union[int, Fraction]) -> str:
    """An int as a decimal string, a Fraction as "p/q".

    Small ints go through the built-in "%d" formatting; past
    ``_STR_MAX_BITS`` bits, or past the interpreter's int-to-str digit
    limit (4300 digits by default), the digits come from
    ``_decimal_digits``, which is subquadratic and has no digit limit.
    Either way the text is what "%d" gives without a limit, and no
    interpreter-wide state changes.
    """
    if not isinstance(x, int):  # a Fraction; int is the cheaper test
        return f"{exact_str(x.numerator)}/{exact_str(x.denominator)}"
    bits = x.bit_length()
    if bits <= _STR_MAX_BITS:
        # x has at most floor(bits * log10(2)) + 1 digits, and 0.30103
        # exceeds log10(2), so this never formats too many digits for the
        # interpreter's limit (0 means none)
        limit = sys.get_int_max_str_digits()
        if limit == 0 or bits * 30103 // 100000 < limit:
            return "%d" % x  # not str(x), which spells a bool "True"
    digits = _decimal_digits(abs(x))
    return "-" + digits if x < 0 else digits


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two polynomials, each given by
    its non-empty coefficient sequence, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


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
        return Polynomial(_convolve(self.coeffs, other.coeffs))

    def to_json(self) -> list[str]:
        """Coefficient array, constant term first, as decimal strings."""
        return [exact_str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"
