"""Refinement of a smooth 2-d maximum on nested grids: the transient optimum
over (r1, tau), which has no closed form in r1."""

from __future__ import annotations

import numpy as np

__all__ = ["refine_max"]

# values within this of the best tie; a point must beat the centre by more
TIE = 1e-12

# each grid has 2 * _HALF + 1 points a side; the first spans +-1 cell and
# each of the _ZOOMS after it a tenth of the one before
_HALF = 10
_ZOOMS = 3
_STEPS = np.arange(-_HALF, _HALF + 1) / _HALF


def refine_max(f, x: float, y: float, dx: float, dy: float, bounds_x, bounds_y):
    """The point where ``f`` is largest near ``(x, y)``, as two Python floats.

    ``f(xs, ys)`` is vectorised, with shape ``(len(xs), len(ys))``.  It is
    evaluated on ``2 * _HALF + 1`` points a side over ``+-dx`` and ``+-dy``
    around the centre, clipped to the bounds, and then on windows a tenth
    as wide, :data:`_ZOOMS` times.  The grid's centre is the current point,
    which is kept unless a point beats it by more than :data:`TIE`; of the
    points within :data:`TIE` of the grid's best that do, the one with the
    smallest ``x``, then ``y``, is taken.
    """
    for _ in range(_ZOOMS + 1):
        xs = np.clip(x + dx * _STEPS, *bounds_x)
        ys = np.clip(y + dy * _STEPS, *bounds_y)
        values = f(xs, ys)
        top, centre = values.max(), values[_HALF, _HALF]
        if top > centre + TIE:
            k = int(np.argmax(values >= max(top - TIE, centre + TIE)))
            x, y = xs[k // ys.size], ys[k % ys.size]
        dx, dy = dx / 10.0, dy / 10.0
    return float(x), float(y)
