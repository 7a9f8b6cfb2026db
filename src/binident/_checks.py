"""Value checks shared by every module: one test, and one error naming the value, per rule."""

import math
import numbers
import reprlib

import numpy as np


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integral(col: np.ndarray) -> np.ndarray:
    """Per entry of the float array ``col``: whether it is an integer an int64 holds."""
    return (col == np.trunc(col)) & (np.abs(col) < 2.0**63)


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


def check_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a new float array, or a ValueError naming ``name`` unless it
    holds real numbers (ints or floats; not bools, strings, complex or dates),
    has ``shape`` and finite entries; a ``None`` in ``shape`` is any length above zero."""
    try:
        if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
            arr = np.array(value, dtype=np.float64)
        else:   # entry by entry: numpy infers a number dtype for [True, 2.0]
            entries = np.array(value, dtype=object)
            if not all(map(_is_real, entries.flat)):
                raise TypeError(value)
            arr = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # a ragged nesting, or a non-real entry
        raise ValueError(f"{name} must hold real numbers, got {reprlib.repr(value)}") from None
    fit = tuple(got if want is None and got else want for got, want in zip(arr.shape, shape))
    if arr.ndim != len(shape) or arr.shape != fit:
        want = str(tuple("n > 0" if d is None else d for d in shape)).replace("'", "")
        raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
    if not np.isfinite(arr).all():
        at = np.argwhere(~np.isfinite(arr))[0].tolist()
        raise ValueError(f"{name} must be finite, got {arr[tuple(at)]} at index {at}")
    return arr


def check_seed(value) -> np.random.SeedSequence:
    """``value`` as a SeedSequence, or a ValueError unless it is one or an int >= 0 (no bool)."""
    if isinstance(value, np.random.SeedSequence):
        return value
    if not _is_integer(value):
        raise ValueError(f"seed must be an integer or a SeedSequence, got {value!r}")
    return np.random.SeedSequence(check_count("seed", value, 0))
