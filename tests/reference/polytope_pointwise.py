"""The exact polytope kernel one body at a time: the oracle that
``geometry.PolytopeBatch`` (and so ``HPolytope``, a batch of one row) must
reproduce bit for bit wherever the kernel answers.

These are the kernel's products as a single polytope ``{y : A y <= b}``
takes them, with its operators ``sets`` from ``geometry.kernel_operators``:
every active-set candidate ``b H + z P`` for a block of points, the
nearest of them that passes the membership certificate, and the coordinate
extremes from the certified candidates for the origin, on the coordinates
``sets.bounded`` calls bounded, with their tie rule in Python floats.  None
is returned where the kernel cannot answer (no member found), which the
library hands to its fallback.  :func:`boundary_margin` is a body's signed
distance to its boundary, one point at a time.
"""

from __future__ import annotations

import math

import numpy as np

from convsel.geometry import _CANDIDATE_FLOATS, _SEIDEL_SLACK, CONTAINS_TOL


def members(A, b, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
    """Which rows of ``Y`` lie in ``{y : A y <= b}`` at the slack ``tol``, a
    number or one per row."""
    if A.shape[0] == 0:
        return np.ones(Y.shape[0], dtype=bool)
    slack = b[:, None] - A @ Y.T
    return np.all(slack >= -tol * np.maximum(1.0, np.linalg.norm(A, axis=1))[:, None], axis=0)


def certified(A, b, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
    """The kernel's membership certificate of each row y of ``Y``: membership
    at the slack ``max(tol, _SEIDEL_SLACK (1 + |y|))``."""
    size = np.sqrt(np.einsum("...i,...i->...", Y, Y))
    return members(A, b, Y, np.maximum(tol, _SEIDEL_SLACK * (1.0 + size)))


def candidates(A, b, sets, Z) -> tuple[np.ndarray, np.ndarray]:
    """Every active-set candidate for each row of ``Z``, shape (N, K, m),
    and whether it passes the certificate, shape (N, K)."""
    N, m = Z.shape
    Y = (b @ sets.H + Z @ sets.P).reshape(N, -1, m)
    return Y, certified(A, b, Y.reshape(-1, m)).reshape(Y.shape[:2])


def project(A, b, sets, Z) -> np.ndarray | None:
    """The nearest certified candidate for each row of ``Z``, in chunks of
    the library's size; None when some row has none."""
    p, Km = sets.H.shape
    m = A.shape[1]
    step = max(1, _CANDIDATE_FLOATS // (Km // m * (p + m)))
    Y = np.empty_like(Z)
    for s in range(0, Z.shape[0], step):
        chunk = Z[s : s + step]
        cand, inside = candidates(A, b, sets, chunk)
        d2 = np.where(inside, np.sum((cand - chunk[:, None]) ** 2, axis=2), np.inf)
        best = np.argmin(d2, axis=1)
        rows = np.arange(chunk.shape[0])
        if not inside[rows, best].all():
            return None
        Y[s : s + step] = cand[rows, best]
    return Y


def origin_members(A, b, sets) -> np.ndarray | None:
    """The certified candidates for the origin, in candidate order; None
    when there are none."""
    Y, inside = candidates(A, b, sets, np.zeros((1, A.shape[1])))
    return Y[0, inside[0]] if inside.any() else None


def least_norm(A, b, sets) -> np.ndarray | None:
    found = origin_members(A, b, sets)
    if found is None:
        return None
    return found[np.argmin(np.sum(found**2, axis=1))]


def coord_extremes(A, b, sets) -> tuple | None:
    """``(lo, hi, arg_lo, arg_hi)`` from the certified candidates for the
    origin."""
    found = origin_members(A, b, sets)
    if found is None:
        return None
    m = A.shape[1]
    norms2 = np.sum(found**2, axis=1)
    bounds = (np.full(m, -math.inf), np.full(m, math.inf))
    args = (np.full((m, m), math.nan), np.full((m, m), math.nan))
    for side, sign in enumerate((1.0, -1.0)):
        for j in np.nonzero(sets.bounded[side])[0]:
            t = sign * found[:, j]
            best = float(np.min(t))
            ties = t <= best + CONTAINS_TOL * max(1.0, abs(best))
            i = int(np.argmin(np.where(ties, norms2, np.inf)))
            bounds[side][j] = found[i, j]
            args[side][j] = found[i]
    return bounds[0], bounds[1], args[0], args[1]


def boundary_margin(body, y) -> float:
    """The signed distance from ``y`` to the boundary of the ``HPolytope``
    ``body``: inside, the least slack ``(b_i - a_i y) / |a_i|`` (the nearest
    facet's hyperplane) over the rows whose normal does not vanish; outside,
    minus the distance to the body."""
    y = np.asarray(y, dtype=float).reshape(-1)
    norms = np.linalg.norm(body.A, axis=1)  # a normal that vanishes here is vacuous
    slack = np.divide(body.b - body.A @ y, norms, out=np.full(norms.shape, math.inf),
                      where=norms != 0.0)
    worst = float(np.min(slack, initial=math.inf))
    if worst >= 0:
        return worst
    return -body.distance(y)
