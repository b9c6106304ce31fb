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

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "PowerCutoff",
    "Hill",
    "Feedback",
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
        return np.power(np.minimum(np.maximum(xi, 0.0), 1.0), self.k)


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


Feedback = Union[PowerCutoff, Hill]

