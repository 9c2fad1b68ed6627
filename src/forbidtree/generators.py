"""Seeded, reproducible point-set generators.

All randomness flows through random.Random(seed) (Mersenne Twister), so a
seed fully determines the output on every platform.
"""
from __future__ import annotations

import math
import random

from .geometry import GeneralPositionError, PointSet, _collinear_pair, is_convex_position

CONVEX_RADIUS = 10**6
RANDOM_SPAN = 10**6
_MAX_ATTEMPTS = 200


class GenerationError(RuntimeError):
    """Raised when a valid point set cannot be produced within the attempt cap."""


def convex_points(n: int, seed: int = 1) -> PointSet:
    """n integer points in convex position on a large circle.

    Angles are a jittered regular n-gon; rounding to integers can break
    convexity or general position, so candidates are re-validated and the
    jitter re-drawn until a valid set appears.
    """
    if n < 3:
        raise ValueError("convex position requires n >= 3")
    rng = random.Random(seed)
    spacing = 2 * math.pi / n
    for _ in range(_MAX_ATTEMPTS):
        coords = []
        for i in range(n):
            theta = spacing * i + rng.uniform(-0.3, 0.3) * spacing
            coords.append((round(CONVEX_RADIUS * math.cos(theta)),
                           round(CONVEX_RADIUS * math.sin(theta))))
        try:
            s = PointSet(coords)
        except GeneralPositionError:
            continue
        if is_convex_position(s):
            return s
    raise GenerationError(f"no convex general-position set after {_MAX_ATTEMPTS} attempts")


def random_points(n: int, seed: int = 1, span: int = RANDOM_SPAN) -> PointSet:
    """n integer points in general position, uniform in a box, by rejection."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    pts: list[tuple[int, int]] = []
    rejected = 0
    while len(pts) < n:
        cand = (rng.randint(-span, span), rng.randint(-span, span))
        if cand in pts or _collinear_pair(cand, pts) is not None:
            rejected += 1
            if rejected > _MAX_ATTEMPTS * n:
                raise GenerationError("rejection sampling failed to reach general position")
            continue
        pts.append(cand)
    return PointSet(pts)

