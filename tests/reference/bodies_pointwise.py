"""Intervals and balls one body at a time, in closed form: the oracle that
``geometry.IntervalBatch`` and ``geometry.BallBatch`` (and so ``Interval``
and ``Ball``, each a batch of one row) must reproduce bit for bit, signed
zeros included.

An interval projects by ``np.clip`` between scalar bounds, which keeps the
point where it ties with a bound; a ball scales the offset from its centre
down to the radius.  Polytopes have their own oracle,
``reference.polytope_pointwise``.
"""

from __future__ import annotations

import math

import numpy as np

from convsel.geometry import CONTAINS_TOL, Ball, Interval


class PointwiseBody:
    """The queries every closed form shares, from its ``project_many``."""

    dim: int

    def project(self, z) -> np.ndarray:
        return self.project_many(np.asarray(z, dtype=float).reshape(1, -1))[0]

    def least_norm(self) -> np.ndarray:
        return self.project(np.zeros(self.dim))

    def distance(self, z) -> float:
        z = np.asarray(z, dtype=float).reshape(-1)
        return float(np.linalg.norm(self.project(z) - z))

    def contains(self, y, tol: float = CONTAINS_TOL) -> bool:
        return bool(self.contains_many(np.asarray(y, dtype=float).reshape(1, -1), tol)[0])


class PointwiseInterval(PointwiseBody):
    def __init__(self, lo: float, hi: float):
        self.lo, self.hi, self.dim = float(lo), float(hi), 1

    def project_many(self, Z) -> np.ndarray:
        return np.clip(np.asarray(Z, dtype=float), self.lo, self.hi)

    def contains_many(self, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        y = np.asarray(Y, dtype=float).reshape(-1)
        return (y >= self.lo - tol) & (y <= self.hi + tol)

    def translate(self, c) -> "PointwiseInterval":
        c = float(np.asarray(c, dtype=float).reshape(-1)[0])
        return PointwiseInterval(self.lo + c, self.hi + c)

    def coord_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.lo]), np.array([self.hi])

    def coord_extremes(self) -> tuple:
        # a finite end is its own extreme point
        args = (np.array([[v if math.isfinite(v) else math.nan]]) for v in (self.lo, self.hi))
        return (*self.coord_bounds(), *args)


class PointwiseBall(PointwiseBody):
    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.radius, self.dim = float(radius), self.center.shape[0]

    def project_many(self, Z) -> np.ndarray:
        D = np.asarray(Z, dtype=float) - self.center
        norms = np.linalg.norm(D, axis=1)
        scale = np.ones_like(norms)
        out = norms > self.radius
        scale[out] = self.radius / norms[out]
        return self.center + D * scale[:, None]

    def contains_many(self, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return np.linalg.norm(Y - self.center, axis=1) <= self.radius + tol

    def translate(self, c) -> "PointwiseBall":
        return PointwiseBall(self.center + np.asarray(c, dtype=float), self.radius)

    def coord_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius

    def coord_extremes(self) -> tuple:
        # the ends of the diameter along each axis
        step = self.radius * np.eye(self.dim)
        return (*self.coord_bounds(), self.center - step, self.center + step)


def pointwise(body):
    """The closed form of an :class:`Interval` or a :class:`Ball`; any
    other body is returned as it is."""
    if isinstance(body, Interval):
        return PointwiseInterval(body.lo, body.hi)
    if isinstance(body, Ball):
        return PointwiseBall(body.center, body.radius)
    return body
