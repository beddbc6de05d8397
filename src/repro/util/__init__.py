"""Shared utilities: physical constants, validation helpers."""

from repro.util.constants import (
    RU,
    P_ATM,
    T_STANDARD,
    AVOGADRO,
    BOLTZMANN,
    CAL_TO_J,
)
from repro.util.validation import (
    check_positive,
    check_in_range,
    check_shape,
    check_probability_vector,
)

__all__ = [
    "RU",
    "P_ATM",
    "T_STANDARD",
    "AVOGADRO",
    "BOLTZMANN",
    "CAL_TO_J",
    "check_positive",
    "check_in_range",
    "check_shape",
    "check_probability_vector",
]
