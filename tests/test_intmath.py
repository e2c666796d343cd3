"""Tests for the shared integer helpers."""

import numpy as np
import pytest

from pblocks.intmath import (
    factorint,
    int_det,
    int_log,
    is_int,
    is_p_power,
    is_prime,
    multiplicative_order,
    p_valuation,
)


@pytest.mark.parametrize(
    "x, expected",
    [(3, True), (-2, True), (2 ** 80, True), (np.int64(5), True), (np.uint8(5), True),
     (True, False), (np.bool_(True), False), (2.0, False), (np.float64(2.0), False),
     ("3", False), (None, False)],
)
def test_is_int(x, expected):
    assert is_int(x) is expected


@pytest.mark.parametrize(
    "n, expected",
    [(-7, False), (0, False), (1, False), (2, True), (3, True), (4, False),
     (9, False), (97, True), (7917, False), (7919, True)],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, {}),
        (2, {2: 1}),
        (97, {97: 1}),
        (7919, {7919: 1}),
        (7920, {2: 4, 3: 2, 5: 1, 11: 1}),
        (2 ** 10, {2: 10}),
    ],
)
def test_factorint(n, expected):
    fac = factorint(n)
    assert fac == expected
    assert list(fac) == sorted(fac)


@pytest.mark.parametrize("n", [0, -12])
def test_factorint_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        factorint(n)


@pytest.mark.parametrize(
    "n, p, expected",
    [(1, 2, 0), (5, 3, 0), (8, 2, 3), (12, 2, 2), (12, 3, 1), (7920, 2, 4),
     (7920, 11, 1), (-24, 2, 3), (360, 5, 1)],
)
def test_p_valuation(n, p, expected):
    assert p_valuation(n, p) == expected


def test_p_valuation_rejects_zero():
    with pytest.raises(ValueError):
        p_valuation(0, 2)


@pytest.mark.parametrize("helper", [p_valuation, is_p_power, int_log])
@pytest.mark.parametrize("p", [1, 0, -2])
def test_base_below_two_rejected(helper, p):
    with pytest.raises(ValueError):
        helper(8, p)


@pytest.mark.parametrize(
    "n, p, expected",
    [
        (1, 2, True),
        (1, 7, True),
        (8, 2, True),
        (81, 3, True),
        (125, 5, True),
        (12, 2, False),
        (6, 3, False),
        (10, 5, False),
        (3, 2, False),
        (0, 2, False),
        (-8, 2, False),
        (-1, 3, False),
    ],
)
def test_is_p_power(n, p, expected):
    assert is_p_power(n, p) is expected


@pytest.mark.parametrize("n, p, expected", [(1, 2, 0), (2, 2, 1), (8, 2, 3), (243, 3, 5)])
def test_int_log(n, p, expected):
    assert int_log(n, p) == expected


@pytest.mark.parametrize("n, p", [(12, 2), (6, 3), (0, 2), (-4, 2)])
def test_int_log_rejects_non_powers(n, p):
    with pytest.raises(ValueError):
        int_log(n, p)


@pytest.mark.parametrize(
    "a, n, expected",
    [(5, 1, 1), (2, 3, 2), (2, 15, 4), (3, 14, 6), (7, 18, 3), (2, 63, 6), (10, 7, 6)],
)
def test_multiplicative_order(a, n, expected):
    assert multiplicative_order(a, n) == expected


@pytest.mark.parametrize("a, n", [(2, 4), (3, 6), (0, 5)])
def test_multiplicative_order_rejects_non_units(a, n):
    with pytest.raises(ValueError):
        multiplicative_order(a, n)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], 1),
        ([[5]], 5),
        ([[1, 2], [3, 4]], -2),
        ([[0, 1], [1, 0]], -1),
        ([[1, 2], [2, 4]], 0),
        ([[0, 1], [0, 2]], 0),
        ([[0, 2, 1], [1, 0, 0], [0, 1, 3]], -5),
        ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], 4),
    ],
)
def test_int_det(rows, expected):
    assert int_det(rows) == expected
