"""The guard policy of thermofock, in two functions.

Every check that refuses an input or a result goes through one of them,
and both are written as the passing condition.  A comparison with NaN
is False, so NaN always trips, and so does inf wherever the bound is
finite:

* ``require(condition, message)`` rejects input outside the domain of a
  call with ValueError;
* ``guard(name, value, bound, hint)`` rejects a computed figure whose
  accuracy cannot be vouched for with NumericalGuardError, unless
  ``value <= bound``.

Bounds are module constants at the call sites, never arguments, and
``_indices`` coerces index lists, refusing a non-integer with ValueError.
``_row_blocks`` slices every loop that bounds its temporaries in row
blocks against one budget, ``_BLOCK_ELEMENTS`` entries per block.
``_mass`` forms each Σ|v|² that the package normalizes by or refuses on,
and ``_sum_squares`` each one that a normalization check compares with 1,
both from one power-of-two scaling, ``_scaled``.
"""

import math
import operator
from collections.abc import Iterator

import numpy as np

__all__ = ["NumericalGuardError", "guard", "require"]

_BLOCK_ELEMENTS = 2 ** 14   # entries per row block: 256 KiB of complex


class NumericalGuardError(ValueError):
    """A numerical self-check failed (tail mass, quadrature error estimate,
    stability bound, zero-frequency division guard).

    Raised instead of silently returning a value whose accuracy cannot be
    vouched for.  The message states the guard, the measured figure and
    its bound, so the caller can widen grids / truncations and retry.
    """


def guard(name: str, value, bound, hint: str) -> None:
    """Raise NumericalGuardError unless ``value <= bound`` (NaN trips)."""
    if not (value <= bound):
        raise NumericalGuardError(
            f"{name} is {value:.6g}, not within its bound {bound:.3g}; {hint}")


def require(condition, message: str) -> None:
    """Raise ValueError(message) unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def _indices(values, message: str) -> tuple:
    """``values`` as a tuple of ``operator.index`` integers; a non-integer
    raises ValueError(message) instead of being truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(message) from None


def _row_blocks(n_rows: int, width: int) -> Iterator[slice]:
    """Consecutive row slices of about _BLOCK_ELEMENTS entries each, at
    least one row per slice, made one at a time, so a loop over many rows
    holds one slice."""
    b = max(1, _BLOCK_ELEMENTS // width)
    return (slice(i, i + b) for i in range(0, n_rows, b))


def _scaled(values) -> tuple[np.ndarray, float, int]:
    """(u, s, e): u = values·2^-e, 2^e the power of two above the largest
    real or imaginary part, and s = Σ|u|², which is Σ|values|²·4^-e bit
    for bit away from subnormals (safe scaling: Blue 1978, Anderson 2017).
    All-zero values give e = 0 and s = 0, and inf or NaN an s of inf or
    NaN."""
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    e = int(np.frexp(np.max(np.abs(parts), initial=0.0))[1])
    u = np.ldexp(parts, -e).view(complex)
    return u, float(np.sum(np.abs(u) ** 2)), e


def _mass(values, message: str) -> tuple[np.ndarray, float, int]:
    """(u, s, e) of ``_scaled``, with s in [1/4, 2 len(values)];
    all-zero, inf or NaN values raise ValueError(message)."""
    u, s, e = _scaled(values)
    require(0.0 < s < np.inf, message)
    return u, s, e


def _sum_squares(values, weight: float) -> float:
    """Σ|values|²·weight, unscaled from ``_scaled`` in one rounding: the
    plain sum's bits wherever no square, partial sum or product leaves the
    normal range, and inf, not an overflow warning, beyond the double
    range."""
    _, s, e = _scaled(values)
    m, k = math.frexp(weight)
    try:
        return math.ldexp(s * m, 2 * e + k)
    except OverflowError:
        return math.inf
