"""Initial segments: continuous functions on [-1, 0] used to start integrations."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["HistoryFunction"]

_PROBE = np.linspace(-1.0, 0.0, 2001)


def _pchip(x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The PCHIP interpolant through ``(x, y)``, extended by its end pieces.

    Shape-preserving node slopes (Fritsch & Butland, SIAM J. Sci. Stat.
    Comput. 5 (1984) 300): zero where the secants change sign or vanish,
    their weighted harmonic mean elsewhere, and a one-sided three-point
    estimate at the ends (Moler, *Numerical Computing with MATLAB*, 2004,
    sec. 3.6).  Piece ``i`` is a cubic in ``z = s - x[i]``.  Every operation,
    and its order, is that of ``scipy.interpolate.PchipInterpolator``, so the
    values agree with it bit for bit; like it, a node slope that is not
    finite raises ``ValueError``.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if m.size == 1:  # two points: the line
        d = np.concatenate([m, m])
    else:
        d = np.zeros_like(y)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        d[1:-1] = np.where(inner, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
        # the end slope is zeroed against its secant's sign, and capped at
        # three secants where the two end secants differ in sign
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        steep = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(steep, 3.0 * m0, e))
    if not np.all(np.isfinite(d)):
        raise ValueError("the PCHIP node slopes overflow")
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def fn(s):
        i = np.minimum(np.maximum(np.searchsorted(x, s, side="right") - 1, 0), h.size - 1)
        z = s - x[i]
        z2 = z * z
        # the sum starts from 0.0, as scipy's does: four -0.0 terms sum to +0.0
        return 0.0 + c3[i] + c2[i] * z + c1[i] * z2 + c0[i] * (z2 * z)

    return fn


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
        if not (np.all(np.isfinite(mesh)) and np.all(np.isfinite(values))):
            raise ValueError("mesh and values must be finite")
        # values near the float ceiling overflow the PCHIP slopes, or make the interpolant NaN
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fn = _pchip(mesh, values)
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
        arr = np.minimum(np.maximum(arr, -1.0), 0.0)  # costs less per call than np.clip
        out = np.asarray(self._fn(arr), dtype=float)
        return float(out) if np.ndim(s) == 0 else out

    def sampled(self, n: int = 2001) -> tuple[np.ndarray, np.ndarray]:
        s = np.linspace(-1.0, 0.0, n)
        return s, self.eval(s)

    def min(self) -> float:
        return float(np.min(self.eval(_PROBE)))

    def is_nonnegative(self) -> bool:
        return self.min() >= -1e-12
