"""Fixed quadrature rules on uniform grids.

Composite Simpson is the rule used for every radial inner product; the
odd-interval tail falls back to Simpson 3/8 so the order stays four.
"""

from __future__ import annotations

import numpy as np


def composite_simpson(y, dx: float) -> float:
    """Integrate samples on a uniform grid with composite Simpson.

    An odd number of intervals is handled by a 3/8 rule on the last three;
    one interval degrades to the trapezoid.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0] - 1
    if n < 1:
        return 0.0
    if n == 1:
        return 0.5 * dx * (y[0] + y[1])
    total = 0.0
    if n % 2 == 1:
        if n >= 3:
            total += 3.0 * dx / 8.0 * (y[n - 3] + 3.0 * y[n - 2] + 3.0 * y[n - 1] + y[n])
            y = y[: n - 2]
            n -= 3
        else:
            return 0.5 * dx * (y[0] + y[1]) + total
    if n >= 2:
        total += dx / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))
    return float(total)


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Weights w of `composite_simpson` on n intervals: w @ y is its integral
    of the samples y, up to the order of summation."""
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
