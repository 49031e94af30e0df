import decimal
import sys
from fractions import Fraction
from math import ceil, log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellcovered import Polynomial
from wellcovered.polynomial import _STR_MAX_BITS, exact_str

from bruteforce import exact_str_by_decimal


def test_normalization_and_degree():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Polynomial([]).coeffs == (0,)
    assert Polynomial([0, 0]).coeffs == (0,)


def test_coefficient_access():
    p = Polynomial([1, 3, 3, 1])
    assert p.coefficient(2) == 3
    assert p.coefficient(10) == 0
    with pytest.raises(ValueError):
        p.coefficient(-1)


def test_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        Polynomial([1, -2])
    with pytest.raises(TypeError):
        Polynomial([1, 2.5])


def test_equality_and_hash():
    assert Polynomial([1, 2]) == Polynomial([1, 2, 0])
    assert hash(Polynomial([1, 2])) == hash(Polynomial([1, 2, 0]))
    assert Polynomial([1]) != Polynomial([2])
    assert (Polynomial([1, 2]) == (1, 2)) is False
    assert (Polynomial([1, 2]) == [1, 2]) is False


def test_immutable_and_repr():
    p = Polynomial((1, 2, 0))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert p.coeffs == (1, 2)
    assert repr(p) == "Polynomial([1, 2])"
    assert list(p) == [1, 2] and len(p) == 2


def test_mul_pow():
    one_plus_x = Polynomial([1, 1])
    assert one_plus_x * one_plus_x * one_plus_x == Polynomial([1, 3, 3, 1])
    assert one_plus_x * Polynomial([1]) == one_plus_x
    assert Polynomial([2, 1]) * Polynomial([3, 1]) == Polynomial([6, 5, 1])


def test_json_decimal_strings():
    big = 10**30
    assert Polynomial([1, big]).to_json() == ["1", str(big)]


def near(bits: int) -> set:
    """2^k - 1, 2^k and 2^k + 1 for k within one of ``bits``, and the same
    around the powers of ten of about that many bits."""
    digits = round(bits * log10(2))
    return {
        base**k + d
        for base, e in ((2, bits), (10, digits))
        for k in (e - 1, e, e + 1)
        for d in (-1, 0, 1)
    }


DEFAULT_LIMIT = sys.int_info.default_max_str_digits
# the size limit of str(), and the smallest and the default int-to-str digit
# limits, each as a size in bits
EDGES = sorted(
    near(_STR_MAX_BITS) | near(ceil(640 / log10(2))) | near(ceil(DEFAULT_LIMIT / log10(2)))
)


def edge(i: int) -> int:
    return EDGES[i]


def random_int(bits: int, rng) -> int:
    """An integer of exactly ``bits`` bits."""
    return rng.getrandbits(bits) | 1 << (bits - 1)


# hypothesis may describe a strategy with repr(), which refuses an int past
# the digit limit, so the large values are built from small draws; sizes
# are drawn evenly, so the larger ones are not rare
ints = st.builds(
    lambda sign, n: sign * n,
    st.sampled_from((1, -1)),
    st.one_of(
        st.integers(0, 2**64),
        st.builds(edge, st.integers(0, len(EDGES) - 1)),
        st.builds(random_int, st.integers(1, 66439), st.randoms(use_true_random=False)),
    ),
)
rationals = st.builds(Fraction, ints, ints.filter(bool))


@pytest.mark.parametrize("limit", [0, 640, DEFAULT_LIMIT])
@settings(max_examples=60, deadline=None)
@given(st.one_of(ints, rationals, st.booleans()))
def test_exact_str_matches_the_decimal_route(limit, x):
    # the output is the same under any int-to-str digit limit, and neither
    # that limit nor the thread's decimal context is changed by the call
    expected = exact_str_by_decimal(x)
    context = decimal.getcontext()
    state = repr(context)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        got = exact_str(x)
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)
    assert got == expected
    assert decimal.getcontext() is context and repr(context) == state
