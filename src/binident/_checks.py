"""Value checks shared by every module: one test, and one error naming the value, per rule."""

import math
import numbers

import numpy as np


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(draws: np.ndarray, role: str, agent: int) -> np.ndarray:
    """``draws``, or a ValueError naming the role and agent when one is NaN or infinite."""
    if not np.isfinite(draws).all():
        bad = draws[~np.isfinite(draws)].flat[0]
        raise ValueError(f"{role}: the sampler returned {bad} for agent {agent}")
    return draws


def check_count(name: str, value, low: int) -> int:
    """``int(value)``, or a ValueError naming ``name`` unless it is an integer >= ``low``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_positive(name: str, value) -> None:
    """A ValueError naming ``name`` unless ``value`` is a finite real above zero."""
    try:
        if _is_real(value) and 0.0 < float(value) < math.inf:
            return
    except OverflowError:       # an int too large for a float
        pass
    raise ValueError(f"{name} must be finite and positive, got {value!r}")
