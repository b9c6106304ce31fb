"""Self-contained SVG output: time series and phase projections.

No plotting process is spawned; the SVG is assembled directly with fixed
decimal formatting so identical inputs give identical bytes.
"""
from __future__ import annotations

import numpy as np

__all__ = ["emit_plot", "Series"]

# color conventions: upper branch blue, lower branch green, stationary black,
# small oscillation orange
COLORS = {"plus": "blue", "minus": "green", "stationary": "black", "hopf": "orange", "default": "#555555"}

_W, _H, _PAD = 560, 400, 52


class Series:
    def __init__(self, t, values, role: str = "default"):
        self.t = np.asarray(t, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.role = role
        if self.t.size == 0 or self.t.shape != self.values.shape:
            raise ValueError("series needs matching nonempty t / value arrays")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def _panel(series: list, x0: int, title: str, xlabel: str, ylabel: str) -> str:
    x_all = np.concatenate([s.t for s in series])
    y_all = np.concatenate([s.values for s in series])
    xlo, xhi = float(np.min(x_all)), float(np.max(x_all))
    ylo, yhi = float(np.min(y_all)), float(np.max(y_all))
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    ypad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - ypad, yhi + ypad

    def px(x):
        return x0 + _PAD + (x - xlo) / (xhi - xlo) * (_W - 2 * _PAD)

    def py(y):
        return _H - _PAD - (y - ylo) / (yhi - ylo) * (_H - 2 * _PAD)

    parts = [
        f'<rect x="{x0 + _PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
        'fill="none" stroke="#999999" stroke-width="1"/>',
        f'<text x="{x0 + _W // 2}" y="{_PAD - 14}" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{x0 + _W // 2}" y="{_H - 10}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="{x0 + 14}" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 {x0 + 14} {_H // 2})">{ylabel}</text>',
    ]
    for xv in _ticks(xlo, xhi):
        parts.append(
            f'<text x="{px(xv):.1f}" y="{_H - _PAD + 16}" text-anchor="middle" font-size="10">{xv:.3g}</text>'
        )
    for yv in _ticks(ylo, yhi):
        parts.append(
            f'<text x="{x0 + _PAD - 6}" y="{py(yv):.1f}" text-anchor="end" font-size="10">{yv:.3g}</text>'
        )
    for s in series:
        color = COLORS.get(s.role, COLORS["default"])
        pxy = np.column_stack([px(s.t), py(s.values)])
        pts = " ".join(["%.3f,%.3f"] * len(pxy)) % tuple(pxy.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
    return "\n".join(parts)


def emit_plot(series: list, phase: list = None, title: str = "") -> str:
    """Render time-series (and optional phase-projection) panels as SVG text.

    ``series`` is a list of ``Series``; ``phase`` optionally holds ``Series``
    of ``value(t-1)`` against ``value(t)`` for the right panel.
    """
    if not series:
        raise ValueError("no series to plot")
    two = bool(phase)
    width = 2 * _W if two else _W
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{_H}" '
        f'viewBox="0 0 {width} {_H}">',
        f'<rect width="{width}" height="{_H}" fill="white"/>',
    ]
    out.append(_panel(series, 0, title or "time series", "t", "value"))
    if two:
        out.append(_panel(phase, _W, "phase projection", "value(t)", "value(t-1)"))
    out.append("</svg>")
    return "\n".join(out) + "\n"
