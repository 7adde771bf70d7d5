"""Bisection to floating-point resolution: the reference that Newton
iterations in src are checked against (invert_bessel_j1, solve_lambda)."""

import numpy as np


def bisect_increasing(f, targets, lo: float, hi: float):
    """x in [lo, hi] with f(x) = y for each y in targets, f vectorised
    and increasing.  Each bracket keeps f(lo) < y <= f(hi) and is halved
    until no midpoint lies strictly inside it (floating-point
    resolution), at most 64 times; its lower end is returned, so
    y <= f(lo) gives lo exactly."""
    y = np.asarray(targets, dtype=float)
    lo, hi = np.full(y.shape, float(lo)), np.full(y.shape, float(hi))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        below = f(mid) < y
        lo, hi = np.where(inside & below, mid, lo), np.where(inside & ~below, mid, hi)
    return lo
