"""Extended-real conventions used across the package."""

import math

import pytest

from normcat.extreal import (
    INF, NEG_INF, ConventionError,
    ext_add, ext_sub, ext_log,
    sup_bounded, sup0, sup1, is_norm_value,
)


def test_log_conventions():
    assert ext_log(0) == NEG_INF
    assert ext_log(INF) == INF
    assert ext_log(1) == 0.0
    assert abs(ext_log(math.e) - 1.0) < 1e-12


def test_abs_of_minus_infinity_is_infinity():
    # plain float abs already implements the |-inf| = inf convention
    assert abs(NEG_INF) == INF


def test_addition_is_total_except_for_opposite_infinities():
    assert ext_add(INF, 5) == INF
    assert ext_add(NEG_INF, 5) == NEG_INF
    assert ext_add(INF, INF) == INF
    with pytest.raises(ConventionError):
        ext_add(INF, NEG_INF)
    with pytest.raises(ConventionError):
        ext_add(NEG_INF, INF)
    with pytest.raises(ConventionError):
        ext_sub(INF, INF)


def test_nan_operands_are_rejected():
    nan = float("nan")
    with pytest.raises(ConventionError):
        ext_add(nan, 1.0)
    with pytest.raises(ConventionError):
        ext_log(nan)


def test_log_of_negative_is_an_error():
    with pytest.raises(ConventionError):
        ext_log(-1.0)


def test_sup_with_floor():
    assert sup_bounded(0.0, []) == 0.0
    assert sup_bounded(0.0, [-5.0]) == 0.0
    assert sup_bounded(0.0, [1.0, 3.0]) == 3.0
    assert sup_bounded(0.0, [NEG_INF]) == 0.0
    assert sup_bounded(0.0, [INF, 2.0]) == INF


def test_sup0_and_sup1():
    assert sup0([]) == 0.0
    assert sup0([-2.0, -1.0]) == 0.0
    assert sup0([0.5]) == 0.5
    assert sup1([]) == 1.0
    assert ext_log(sup1([])) == 0.0
    assert sup1([3.0]) == 3.0


def test_sup_rejects_nan_values():
    with pytest.raises(ConventionError):
        sup0([1.0, float("nan")])


def test_norm_value_predicate():
    assert is_norm_value(0)
    assert is_norm_value(2.5)
    assert is_norm_value(INF)
    assert not is_norm_value(-0.1)
    assert not is_norm_value(NEG_INF)
    assert not is_norm_value(float("nan"))
