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
"""

import operator

__all__ = ["NumericalGuardError", "guard", "require"]


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
