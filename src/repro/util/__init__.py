"""Shared utilities: physical constants."""

from repro.util.constants import (
    RU,
    P_ATM,
    T_STANDARD,
    AVOGADRO,
    BOLTZMANN,
    CAL_TO_J,
)

__all__ = [
    "RU",
    "P_ATM",
    "T_STANDARD",
    "AVOGADRO",
    "BOLTZMANN",
    "CAL_TO_J",
]
