"""Fixed quadrature rules on uniform grids.

Composite Simpson, as a weight vector, is the rule of every radial
integral; the odd-interval tail falls back to Simpson 3/8 so the order
stays four.
"""

from __future__ import annotations

import numpy as np


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Weights w of composite Simpson on n intervals of width dx: w @ y is
    the integral of the samples y.  An odd n > 1 takes a 3/8 rule on the
    last three intervals; one interval is the trapezoid."""
    w = np.zeros(n + 1)
    if n == 1:
        w[:] = 0.5 * dx
        return w
    even = n - 3 if n % 2 else n   # the Simpson part; the 3/8 rule takes the rest
    if even:
        w[1:even:2], w[2:even:2] = 4.0, 2.0
        w[[0, even]] = 1.0
        w *= dx / 3.0
    if n % 2:
        w[even:] += 3.0 * dx / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return w


def cumulative_trapezoid_from_origin(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples, with an implicit (0, 0) start node.

    `grid` holds strictly positive abscissae; the integrand is taken to vanish
    at t=0, which is the case for every radial drift component used here.
    The integral runs along axis 0, so each column of 2-D samples is
    integrated on its own, in the same order as a 1-D call on it.
    """
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    out = np.empty_like(values)
    out[0] = 0.5 * grid[0] * values[0]
    if values.shape[0] > 1:
        steps = np.diff(grid).reshape((-1,) + (1,) * (values.ndim - 1))
        out[1:] = out[0] + np.cumsum(0.5 * steps * (values[1:] + values[:-1]), axis=0)
    return out
