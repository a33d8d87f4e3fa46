"""Golden-section refinement of a smooth 2-d maximum: the transient optimum
over (r1, tau), which has no closed form in r1."""

from __future__ import annotations

import math

__all__ = ["golden_section_max", "coordinate_refine_max"]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# bracket width at which golden-section refinement stops, and the sweeps of
# the 2-d refinement
TOL = 1e-4
SWEEPS = 3


def golden_section_max(f, a: float, b: float):
    """Maximum of a unimodal ``f`` on [a, b] to within :data:`TOL` in x.

    Returns ``(x, f(x))``. Deterministic iteration count from the interval
    shrink factor.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= TOL:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(TOL / h) / math.log(INV_PHI)))
    c = b - INV_PHI * h
    d = a + INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(n):
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = f(d)
    if fc > fd:
        return c, fc
    return d, fd


def coordinate_refine_max(f, x0: float, y0: float, dx: float, dy: float,
                          bounds_x, bounds_y):
    """:data:`SWEEPS` alternating golden-section sweeps around ``(x0, y0)``
    for a 2-d maximum.

    ``dx``/``dy`` set the initial bracket half-widths (one coarse-grid cell);
    each sweep narrows one coordinate with the other held fixed.
    """
    x, y = float(x0), float(y0)
    fxy = f(x, y)
    for _ in range(SWEEPS):
        lo = max(bounds_x[0], x - dx)
        hi = min(bounds_x[1], x + dx)
        x, fxy = golden_section_max(lambda u: f(u, y), lo, hi)
        lo = max(bounds_y[0], y - dy)
        hi = min(bounds_y[1], y + dy)
        y, fxy = golden_section_max(lambda v: f(x, v), lo, hi)
    return x, y, fxy
