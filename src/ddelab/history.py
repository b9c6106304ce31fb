"""Initial segments: continuous functions on [-1, 0] used to start integrations."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = ["HistoryFunction"]

_PROBE = np.linspace(-1.0, 0.0, 2001)


@dataclass(frozen=True)
class HistoryFunction:
    """A continuous function on [-1, 0].

    Built from a closed form (constant, exponential decay, the equilibrium
    plus a leading-mode bump), from samples interpolated by a
    shape-preserving cubic, or from any callable.  Instances are immutable
    and safe to share.
    """

    _fn: Callable[[np.ndarray], np.ndarray]

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "HistoryFunction":
        v = float(value)
        return cls(lambda s: np.full_like(s, v))

    @classmethod
    def exp_decay(cls, c: float) -> "HistoryFunction":
        """``exp(-c (1 + s))``: value 1 at s = -1 decaying to ``exp(-c)`` at 0."""
        c = float(c)
        return cls(lambda s: np.exp(-c * (1.0 + s)))

    @classmethod
    def eigen_seed(cls, base: float, amp: float, rate: float) -> "HistoryFunction":
        """``base + amp * exp(rate * s)``: equilibrium plus a leading-mode bump."""
        base, amp, rate = float(base), float(amp), float(rate)
        return cls(lambda s: base + amp * np.exp(rate * s))

    @classmethod
    def from_samples(cls, mesh, values) -> "HistoryFunction":
        mesh = np.asarray(mesh, dtype=float)
        values = np.asarray(values, dtype=float)
        if mesh.ndim != 1 or mesh.shape != values.shape or mesh.size < 2:
            raise ValueError("mesh and values must be matching 1-d arrays")
        if abs(mesh[0] + 1.0) > 1e-12 or abs(mesh[-1]) > 1e-12:
            raise ValueError("mesh must cover [-1, 0]")
        if np.any(np.diff(mesh) <= 0):
            raise ValueError("mesh must be strictly increasing")
        # values near the float ceiling overflow the PCHIP slopes: scipy rejects them, or the interpolant is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            fn = PchipInterpolator(mesh, values, extrapolate=True)
            if not np.all(np.isfinite(fn(_PROBE))):
                raise ValueError("the interpolated history is not finite")
        return cls(fn)

    @classmethod
    def from_callable(cls, fn: Callable) -> "HistoryFunction":
        return cls(lambda s: np.asarray(fn(s), dtype=float))

    # -- evaluation --------------------------------------------------------
    def eval(self, s):
        arr = np.asarray(s, dtype=float)
        if np.any(arr < -1.0 - 1e-9) or np.any(arr > 1e-9):
            raise ValueError("history argument outside [-1, 0]")
        arr = np.clip(arr, -1.0, 0.0)
        out = np.asarray(self._fn(arr), dtype=float)
        return float(out) if np.ndim(s) == 0 else out

    def sampled(self, n: int = 2001) -> tuple[np.ndarray, np.ndarray]:
        s = np.linspace(-1.0, 0.0, n)
        return s, self.eval(s)

    def min(self) -> float:
        return float(np.min(self.eval(_PROBE)))

    def is_nonnegative(self) -> bool:
        return self.min() >= -1e-12
