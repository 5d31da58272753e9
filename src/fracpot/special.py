"""Gamma function and the sphere and ball constants of R^n.

gamma is the standard library's math.gamma: a float in, a float out, and
ValueError at the poles 0, -1, -2, ...
"""

from __future__ import annotations

import math
from math import gamma


def sphere_surface(n: int) -> float:
    """Surface measure of the unit sphere in R^n, 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)
