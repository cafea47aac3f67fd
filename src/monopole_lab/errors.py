"""Exception types shared across the package, and its only checks of a scalar count or real number.

require_count and require_real refuse an unusable value with a ValueError that names it.
"""

import math

import numpy as np


class DegenerateInputError(ValueError):
    """Raised when the requested quantity is undefined for the given input,
    e.g. a direction-dependent weight evaluated at the zero frequency."""


class DivergedError(RuntimeError):
    """Raised when time integration produces non-finite values: at step (counted
    from the start of the run, each of size h), in the place that detail names."""

    def __init__(self, step, h, detail):
        self.step, self.h, self.detail = step, h, detail

    def __str__(self):
        return f"solution blew up at step {self.step}, t={self.step * self.h:.6g}: {self.detail}"


def require_count(name, value, low, high=math.inf):
    """A whole number in [low, high], numpy's included, but no bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


def require_real(name, value, *, positive, bounds=(-math.inf, math.inf)):
    """A finite real number, numpy's included but no bool or complex, positive if asked, in the closed bounds."""
    if isinstance(value, (bool, np.bool_)) or np.iscomplexobj(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    low, high = bounds
    if high == math.inf and not value >= low:
        raise ValueError(f"{name} must be at least {low:g}, got {value}")
    if low == -math.inf and not value <= high:
        raise ValueError(f"{name} must be at most {high:g}, got {value}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low:g}, {high:g}], got {value}")
