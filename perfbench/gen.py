"""Seeded problem generator for the benchmark workloads.

Each family keeps the shape of its fixture in ``tests/specs`` (body
kind, facet count, strata and domain) and draws only coefficients.  The
ranges keep every problem nonempty, bounded and lower semicontinuous:

* ``m_poly``: ``y1 >= a - k1 r``, ``y2 >= b - k2 r``, ``y1 + y2 <= c + k3 r``
  with ``r = x1^2 + x2^2`` and ``a + b < c``, so ``(a - k1 r, b - k2 r)``
  is always feasible; the origin stratum carries the ``r = 0`` body.
* ``m_ball``: centre ``ci + si r`` with ``ci >= 1`` and radius at most
  1.2, so the origin stays outside every ball and the least-norm point
  moves with ``x``.
* ``s_mixed``: ``[alpha x1 + beta, alpha x1 + beta + w]`` off the origin
  and a strictly smaller interval ``[beta + u w, beta + v w]`` at it, so
  the floor jumps up and the ceiling jumps down there (usc / lsc).

Seed 0 reproduces the fixture's coefficients exactly.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

_FIXTURE = {
    "m_poly": {"a": 1.0, "b": 1.0, "c": 4.0, "k1": 1.0, "k2": 1.0, "k3": 1.0},
    "m_ball": {"c1": 1.0, "c2": 1.0, "s1": 0.5, "s2": 0.5, "rho": 1.0},
    "s_mixed": {"alpha": 1.0, "beta": 0.0, "w": 1.0, "u": 0.5, "v": 0.6},
}

_SQUARE = {"boxes": [{"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}]}
_R = "(x1^2 + x2^2)"


def _draw(family: str, seed: int) -> dict:
    if seed == DEFAULT_SEED:
        return dict(_FIXTURE[family])
    rng = random.Random(f"{family}:{seed}")

    def u(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    if family == "m_poly":
        a, b = u(0.8, 1.2), u(0.8, 1.2)
        return {"a": a, "b": b, "c": round(a + b + u(1.5, 2.5), 3),
                "k1": u(0.8, 1.2), "k2": u(0.8, 1.2), "k3": u(0.8, 1.2)}
    if family == "m_ball":
        return {"c1": u(1.0, 1.3), "c2": u(1.0, 1.3), "s1": u(0.3, 0.7),
                "s2": u(0.3, 0.7), "rho": u(0.8, 1.2)}
    if family == "s_mixed":
        lo_frac = u(0.3, 0.5)
        return {"alpha": u(0.7, 1.3), "beta": u(-0.2, 0.2), "w": u(0.8, 1.2),
                "u": lo_frac, "v": round(lo_frac + u(0.05, 0.2), 3)}
    raise ValueError(f"unknown family {family!r}")


def _problem(family: str, p: dict) -> dict:
    if family == "m_poly":
        def rows(varying):
            # the origin stratum carries the r = 0 body
            def offset(const, k):
                return f"{const} + {p[k]}*{_R}" if varying else f"{const}"
            return [
                {"normal": ["-1", "0"], "offset": offset(-p["a"], "k1")},
                {"normal": ["0", "-1"], "offset": offset(-p["b"], "k2")},
                {"normal": ["1", "1"], "offset": offset(p["c"], "k3")},
            ]
        return {
            "ambient_dim": 2, "output_dim": 2, "domain": _SQUARE,
            "strata": [[f"0 < {_R}"], [f"{_R} <= 0"]],
            "pieces": [
                {"region": [f"0 < {_R}"], "body": {"hpolytope": {"rows": rows(True)}}},
                {"region": [], "body": {"hpolytope": {"rows": rows(False)}}},
            ],
            "tags": {"declared_lsc": True},
        }
    if family == "m_ball":
        return {
            "ambient_dim": 2, "output_dim": 2, "domain": _SQUARE,
            "strata": [[]],
            "pieces": [
                {"region": [],
                 "body": {"ball": {"center": [f"{p['c1']} + {p['s1']}*{_R}",
                                              f"{p['c2']} + {p['s2']}*{_R}"],
                                   "radius": f"{p['rho']}"}}},
            ],
            "tags": {"declared_lsc": True, "declared_continuous": True},
        }
    if family == "s_mixed":
        lo = f"{p['alpha']}*x1{p['beta']:+}"
        at0 = (p["beta"] + p["u"] * p["w"], p["beta"] + p["v"] * p["w"])
        return {
            "ambient_dim": 1, "output_dim": 1,
            "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
            "strata": [["0 < abs(x1)"], ["abs(x1) <= 0"]],
            "pieces": [
                {"region": ["0 < abs(x1)"],
                 "body": {"interval": {"lo": lo, "hi": f"{lo}{p['w']:+}"}}},
                {"region": [],
                 "body": {"interval": {"lo": repr(at0[0]), "hi": repr(at0[1])}}},
            ],
            "tags": {"declared_lsc": True},
        }
    raise ValueError(f"unknown family {family!r}")


def make(family: str, seed: int) -> tuple[dict, dict]:
    """(problem JSON object, drawn coefficients) for ``family`` at ``seed``."""
    params = _draw(family, seed)
    return _problem(family, params), params
