"""The exact polytope kernel one body at a time: the oracle that
``geometry.PolytopeBatch`` (and so ``HPolytope``, a batch of one row) must
reproduce bit for bit wherever the kernel answers.

These are the kernel's products as a single polytope ``{y : A y <= b}``
takes them, with its operators ``sets`` from ``geometry.kernel_operators``:
every active-set candidate for a block of points, the nearest member among
them, and the coordinate extremes from the members among the candidates
for the origin, with their tie rule in Python floats.  None is returned
where the kernel cannot answer (no member found), which the library
hands to its fallback.
"""

from __future__ import annotations

import math

import numpy as np

from convsel.geometry import _CANDIDATE_FLOATS, _CONE_TOL, CONTAINS_TOL


def members(A, b, Y) -> np.ndarray:
    """Which rows of ``Y`` lie in ``{y : A y <= b}`` at the default slack."""
    if A.shape[0] == 0:
        return np.ones(Y.shape[0], dtype=bool)
    slack = b[:, None] - A @ Y.T
    return np.all(slack >= -CONTAINS_TOL * np.maximum(1.0, np.linalg.norm(A, axis=1))[:, None],
                  axis=0)


def candidates(A, b, sets, Z) -> tuple[np.ndarray, np.ndarray]:
    """Every active-set candidate for each row of ``Z``, shape (K, N, m),
    and whether it lies in the body, shape (K, N)."""
    Y = Z - (Z @ A.T - b) @ sets
    K, N, m = Y.shape
    return Y, members(A, b, Y.reshape(-1, m)).reshape(K, N)


def project(A, b, sets, Z) -> np.ndarray | None:
    """The nearest in-body candidate for each row of ``Z``, in chunks of
    the library's size; None when some row has none."""
    K, p = sets.shape[:2]
    step = max(1, _CANDIDATE_FLOATS // (K * (p + A.shape[1])))
    Y = np.empty_like(Z)
    for s in range(0, Z.shape[0], step):
        chunk = Z[s : s + step]
        cand, inside = candidates(A, b, sets, chunk)
        d2 = np.where(inside, np.sum((cand - chunk) ** 2, axis=2), np.inf)
        best = np.argmin(d2, axis=0)
        rows = np.arange(chunk.shape[0])
        if not inside[best, rows].all():
            return None
        Y[s : s + step] = cand[best, rows]
    return Y


def origin_members(A, b, sets) -> np.ndarray | None:
    """The candidates for the origin that lie in the body, in candidate
    order; None when there are none."""
    Y, inside = candidates(A, b, sets, np.zeros((1, A.shape[1])))
    return Y[inside[:, 0], 0] if inside.any() else None


def least_norm(A, b, sets) -> np.ndarray | None:
    found = origin_members(A, b, sets)
    if found is None:
        return None
    return found[np.argmin(np.sum(found**2, axis=1))]


def coord_extremes(A, b, sets) -> tuple | None:
    """``(lo, hi, arg_lo, arg_hi)`` from the members among the candidates
    for the origin."""
    found = origin_members(A, b, sets)
    if found is None:
        return None
    m = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    spans = np.linalg.norm(np.eye(m) - A.T @ sets, axis=1) <= _CONE_TOL
    lam = sets * norms[:, None]
    bounded = (
        np.any(spans & np.all(lam <= _CONE_TOL, axis=1), axis=0),
        np.any(spans & np.all(lam >= -_CONE_TOL, axis=1), axis=0),
    )
    norms2 = np.sum(found**2, axis=1)
    bounds = (np.full(m, -math.inf), np.full(m, math.inf))
    args = (np.full((m, m), math.nan), np.full((m, m), math.nan))
    for side, sign in enumerate((1.0, -1.0)):
        for j in np.nonzero(bounded[side])[0]:
            t = sign * found[:, j]
            best = float(np.min(t))
            ties = t <= best + CONTAINS_TOL * max(1.0, abs(best))
            i = int(np.argmin(np.where(ties, norms2, np.inf)))
            bounds[side][j] = found[i, j]
            args[side][j] = found[i]
    return bounds[0], bounds[1], args[0], args[1]
