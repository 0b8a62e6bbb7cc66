"""Shared exception types, and the integer check of the library's arguments."""

import numpy as np


class ContractViolation(ValueError):
    """An argument or a state violates a documented precondition."""


def check_int(name: str, value, low: int | None = None) -> int:
    """``value`` as a Python int, at least ``low`` when given. A Python or
    numpy integer passes; a bool, a float (even an integral one) or anything
    else raises ContractViolation, and so does a value below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractViolation(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ContractViolation(f"{name} must be >= {low}, got {value}")
    return int(value)


class ConfigError(ValueError):
    """An experiment config document failed validation; message names the key."""


class IdxFormatError(ValueError):
    """An IDX file failed to parse; message carries the byte offset."""


class CalibrationInfeasible(RuntimeError):
    """No noise scale can reach the target budget.

    ``floor_eps`` is the smallest epsilon attainable by letting the searched
    scale grow without bound (the alpha-channel noise alone, plus the
    conversion floor of the order grid).
    """

    def __init__(self, message: str, floor_eps: float):
        super().__init__(message)
        self.floor_eps = floor_eps


class CalibrationError(RuntimeError):
    """Noise calibration failed to bracket or converge within its iteration cap."""
