"""Feedback nonlinearities: hard-cutoff power law and Hill family.

The two families used throughout the package are

* ``PowerCutoff(k)``:  ``xi**k`` on ``[0, 1]`` and ``0`` above 1.  At the
  cutoff itself the left value 1 is used; integrations only ever evaluate it
  on one side of a located crossing, so the convention is harmless there and
  makes constant-at-cutoff histories behave like the sub-cutoff branch.
* ``Hill(k, n)``:  ``xi**k / (1 + xi**n)`` with ``n > k``, which approaches
  the cutoff family pointwise as ``n`` grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "PowerCutoff",
    "Hill",
    "Feedback",
    "ConditionReport",
    "ClosenessReport",
    "check_cutoff_conditions",
    "closeness_report",
    "feedback_to_json",
    "feedback_from_json",
]


def _as_nonneg_array(xi) -> tuple[np.ndarray, bool]:
    arr = np.asarray(xi, dtype=float)
    if np.any(arr < 0):
        raise ValueError("feedback argument must be nonnegative")
    return arr, np.ndim(xi) == 0


@dataclass(frozen=True)
class PowerCutoff:
    """Power feedback with a hard cutoff: ``xi**k`` on [0, 1], zero above."""

    k: float = 2.0
    cutoff: float = field(default=1.0, init=False)

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("exponent k must be positive")

    def value(self, xi):
        arr, scalar = _as_nonneg_array(xi)
        out = np.where(arr > 1.0, 0.0, np.power(np.minimum(arr, 1.0), self.k))
        return float(out) if scalar else out

    def deriv(self, xi):
        """One-sided derivative; the left value ``k`` is used at the cutoff."""
        arr, scalar = _as_nonneg_array(xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = self.k * np.power(np.minimum(arr, 1.0), self.k - 1.0)
        if self.k > 1.0:
            inner = np.where(arr == 0.0, 0.0, inner)
        out = np.where(arr > 1.0, 0.0, inner)
        return float(out) if scalar else out

    def clamped_power(self, xi: np.ndarray) -> np.ndarray:
        """Sub-cutoff branch evaluated with clipping; used on event-split pieces."""
        return np.power(np.clip(xi, 0.0, 1.0), self.k)

    def sup_deriv_unit(self) -> float:
        """sup of the derivative on [0, 1] (attained at 1 for k >= 1)."""
        return self.k if self.k >= 1.0 else math.inf


@dataclass(frozen=True)
class Hill:
    """Hill-type unimodal feedback ``xi**k / (1 + xi**n)``, ``n > k``."""

    k: float = 2.0
    n: int = 100

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("exponent k must be positive")
        if not self.n > self.k:
            raise ValueError("Hill order n must exceed k")

    def value(self, xi):
        arr, scalar = _as_nonneg_array(xi)
        out = np.empty_like(arr)
        low = arr <= 1.0
        a = arr[low]
        out[low] = np.power(a, self.k) / (1.0 + np.power(a, self.n))
        b = arr[~low]
        # rewrite with negative powers so xi**n never overflows
        out[~low] = np.power(b, self.k - self.n) / (np.power(b, -float(self.n)) + 1.0)
        return float(out) if scalar else out

    def deriv(self, xi):
        arr, scalar = _as_nonneg_array(xi)
        out = np.empty_like(arr)
        k, n = self.k, float(self.n)
        low = arr <= 1.0
        a = arr[low]
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.power(a, k - 1.0) * (k + (k - n) * np.power(a, n))
            out[low] = num / (1.0 + np.power(a, n)) ** 2
        if k > 1.0:
            out[low] = np.where(a == 0.0, 0.0, out[low])
        b = arr[~low]
        bn = np.power(b, -n)
        out[~low] = np.power(b, k - 1.0 - n) * (k * bn + (k - n)) / (bn + 1.0) ** 2
        return float(out) if scalar else out

    def tail_value_bound(self, xi: float) -> float:
        """``value(x) <= x**(k-n)`` for x >= xi; bound at the left endpoint."""
        return xi ** (self.k - self.n)

    def tail_deriv_bound(self, xi: float) -> float:
        """Crude majorant of ``|deriv|`` on [xi, infinity) for xi > 1."""
        return (self.n + self.k) * xi ** (self.k - 1.0 - self.n)


Feedback = Union[PowerCutoff, Hill]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural checks on a cutoff family."""

    passed: bool
    clauses: dict
    violated: tuple


def check_cutoff_conditions(g: PowerCutoff, grid_points: int = 10_000) -> ConditionReport:
    """Check the structural conditions on a ``PowerCutoff`` family.

    Verifies value and slope at the origin, the normalisation at the cutoff,
    and that the secant slope stays strictly below the derivative on a dense
    grid of (0, 1].  Failures are reported, never raised.
    """
    clauses = {}
    clauses["value_at_origin"] = (g.value(0.0) == 0.0, g.value(0.0))
    if g.k > 1.0:
        slope0, ok0 = 0.0, True
    elif g.k == 1.0:
        slope0, ok0 = 1.0, False
    else:
        slope0, ok0 = math.inf, False
    clauses["slope_at_origin"] = (ok0, slope0)
    clauses["value_at_cutoff"] = (abs(g.value(1.0) - 1.0) < 1e-14, g.value(1.0))
    grid = np.linspace(1e-3, 1.0, grid_points)
    gap = g.deriv(grid) - g.value(grid) / grid
    min_gap = float(np.min(gap)) if np.all(np.isfinite(gap)) else -math.inf
    clauses["strict_slope_gap"] = (min_gap > 0.0, min_gap)
    violated = tuple(name for name, (ok, _) in clauses.items() if not ok)
    return ConditionReport(passed=not violated, clauses=clauses, violated=violated)


@dataclass(frozen=True)
class ClosenessReport:
    """Sup-norm distances between a smooth family and the cutoff family.

    The distances are taken over ``[0, 1-kappa] + [1+kappa, K]``; the part of
    the unbounded tail beyond ``K`` is covered by the analytic decay bounds of
    the Hill family and folded into the reported suprema.
    """

    kappa: float
    K: float
    sup_value_diff: float
    sup_deriv_diff: float
    tail_sup_deriv: float
    full_sup_deriv: float

    def product(self, m: int) -> float:
        """Tail slope times the m-th power of the global slope bound."""
        return self.tail_sup_deriv * self.full_sup_deriv**m


def closeness_report(g: PowerCutoff, f: Feedback, kappa: float, K: float = 100.0) -> ClosenessReport:
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if not K > 1.0 + kappa:
        raise ValueError("K must exceed 1 + kappa")
    left = np.linspace(0.0, 1.0 - kappa, 4000)
    right = np.concatenate(
        [
            np.linspace(1.0 + kappa, min(2.0 + kappa, K), 3000),
            np.geomspace(min(2.0 + kappa, K), K, 1000),
        ]
    )
    full = np.concatenate([np.linspace(0.0, 2.0, 8000), np.geomspace(2.0, K, 1000)])

    tail_v = f.tail_value_bound(K) if isinstance(f, Hill) else 0.0
    tail_d = f.tail_deriv_bound(K) if isinstance(f, Hill) else 0.0

    dv = max(
        float(np.max(np.abs(f.value(left) - g.value(left)))),
        float(np.max(np.abs(f.value(right)))),  # g vanishes above the cutoff
        tail_v,
    )
    dd = max(
        float(np.max(np.abs(f.deriv(left) - g.deriv(left)))),
        float(np.max(np.abs(f.deriv(right)))),
        tail_d,
    )
    tail_sup = max(float(np.max(np.abs(f.deriv(right)))), tail_d)
    full_sup = max(float(np.max(np.abs(f.deriv(full)))), tail_d)
    return ClosenessReport(
        kappa=kappa,
        K=K,
        sup_value_diff=dv,
        sup_deriv_diff=dd,
        tail_sup_deriv=tail_sup,
        full_sup_deriv=full_sup,
    )


def feedback_to_json(f: Feedback) -> dict:
    if isinstance(f, PowerCutoff):
        return {"kind": "power-cutoff", "k": f.k}
    if isinstance(f, Hill):
        return {"kind": "hill", "k": f.k, "n": int(f.n)}
    raise TypeError(f"unsupported feedback: {type(f)!r}")


def feedback_from_json(d: dict) -> Feedback:
    kind = d.get("kind")
    if kind == "power-cutoff":
        return PowerCutoff(k=float(d["k"]))
    if kind == "hill":
        return Hill(k=float(d["k"]), n=int(d["n"]))
    raise ValueError(f"unknown feedback kind: {kind!r}")
