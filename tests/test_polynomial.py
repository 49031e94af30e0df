import pytest

from wellcovered import Polynomial


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


def test_mul_pow():
    one_plus_x = Polynomial([1, 1])
    assert one_plus_x * one_plus_x * one_plus_x == Polynomial([1, 3, 3, 1])
    assert one_plus_x * Polynomial([1]) == one_plus_x
    assert Polynomial([2, 1]) * Polynomial([3, 1]) == Polynomial([6, 5, 1])


def test_json_decimal_strings():
    big = 10**30
    assert Polynomial([1, big]).to_json() == ["1", str(big)]
