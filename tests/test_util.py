"""Tests for repro.util: constants, validation."""

import numpy as np
import pytest

from repro.util import (
    RU,
    P_ATM,
    check_in_range,
    check_positive,
    check_probability_vector,
    check_shape,
)


class TestConstants:
    def test_gas_constant(self):
        assert RU == pytest.approx(8.314462618, rel=1e-9)

    def test_atmosphere(self):
        assert P_ATM == 101325.0


class TestValidation:
    def test_check_positive_accepts(self):
        check_positive("x", 1.0)
        check_positive("x", np.array([1.0, 2.0]))

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0.0)

    def test_check_positive_rejects_negative_element(self):
        with pytest.raises(ValueError):
            check_positive("arr", np.array([1.0, -0.5]))

    def test_check_in_range(self):
        check_in_range("a", 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range("a", 1.5, 0.0, 1.0)

    def test_check_shape(self):
        check_shape("m", np.zeros((2, 3)), (2, 3))
        with pytest.raises(ValueError, match="must have shape"):
            check_shape("m", np.zeros((3, 2)), (2, 3))

    def test_probability_vector_accepts(self):
        check_probability_vector("y", np.array([0.25, 0.75]))

    def test_probability_vector_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_probability_vector("y", np.array([-0.1, 1.1]))

    def test_probability_vector_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_probability_vector("y", np.array([0.2, 0.2]))
