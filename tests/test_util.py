"""Tests for repro.util: constants."""

import pytest

from repro.util import RU, P_ATM


class TestConstants:
    def test_gas_constant(self):
        assert RU == pytest.approx(8.314462618, rel=1e-9)

    def test_atmosphere(self):
        assert P_ATM == 101325.0
