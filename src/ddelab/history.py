"""Initial segments: continuous functions on [-1, 0] used to start integrations."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = ["HistoryFunction"]

_PROBE = np.linspace(-1.0, 0.0, 2001)


@dataclass(frozen=True)
class HistoryFunction:
    """A continuous function on [-1, 0].

    Carries either a closed-form tag (constant, exponential ramp, the
    super-cutoff start-up profile) or sampled data interpolated by a
    shape-preserving cubic.  Instances are immutable and safe to share.
    """

    kind: str
    _fn: Callable[[np.ndarray], np.ndarray]
    mesh: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "HistoryFunction":
        v = float(value)
        return cls(kind="constant", _fn=lambda s: np.full_like(s, v), params={"value": v})

    @classmethod
    def exp_decay(cls, c: float) -> "HistoryFunction":
        """``exp(-c (1 + s))``: value 1 at s = -1 decaying to ``exp(-c)`` at 0."""
        c = float(c)
        return cls(kind="exp-decay", _fn=lambda s: np.exp(-c * (1.0 + s)), params={"c": c})

    @classmethod
    def eigen_seed(cls, base: float, amp: float, rate: float) -> "HistoryFunction":
        """``base + amp * exp(rate * s)``: equilibrium plus a leading-mode bump."""
        base, amp, rate = float(base), float(amp), float(rate)
        return cls(
            kind="eigen-seed",
            _fn=lambda s: base + amp * np.exp(rate * s),
            params={"base": base, "amp": amp, "rate": rate},
        )

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
        interp = PchipInterpolator(mesh, values, extrapolate=True)
        return cls(kind="samples", _fn=lambda s: interp(s), mesh=mesh, values=values)

    @classmethod
    def from_callable(cls, fn: Callable, kind: str = "callable", **params) -> "HistoryFunction":
        return cls(kind=kind, _fn=lambda s: np.asarray(fn(s), dtype=float), params=params)

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
