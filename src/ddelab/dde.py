"""Method-of-steps integrator for scalar delay equations with unit delay.

Both system kinds share the form ``x'(t) = -rate * x(t) + gain * F(x(t-1))``.
On each unit interval the delayed term is a known function, so the equation
is affine in the current state.  The classical fourth-order Runge-Kutta step
for an affine scalar equation is itself an affine map, which lets a whole
interval be advanced as one linear recursion ``y_k = r_k + A y_(k-1)`` over
precomputed forcing samples.  The same unit-by-unit march advances the
variational equation, whose forcing is known on each interval as well, for
many solutions at once, as the columns of one history.

For the hard-cutoff ("limit") system, times where the solution crosses the
cutoff level are located by bisection on the dense interpolant; integration
restarts there so the forcing is evaluated on one side only, and on pieces
with vanishing forcing the decay is propagated exactly by the exponential.
Those crossing times, shifted by the delay, are first-class events of the
trajectory: no integration step, interpolation piece, or quadrature panel
ever spans one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .history import HistoryFunction
from .nonlinearity import Feedback, Hill, PowerCutoff

__all__ = [
    "System",
    "Trajectory",
    "BoundsReport",
    "DDEIntegrationError",
    "ParameterError",
    "integrate",
    "segment_at",
    "check_bounds",
]

_BISECT_TOL = 1e-12
_GRAZE_TOL = 1e-9  # how near the level a piece must come to count as touching it
_SAMPLE_THETAS = np.linspace(0.0, 1.0, 5)
_CHUNK = 1 << 14  # pieces per crossing-scan window, times per dense-output block


class DDEIntegrationError(RuntimeError):
    pass


class ParameterError(ValueError):
    """A parameter value that fails a check needing computation; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class System:
    """Parameter bundle: decay rate, feedback gain, and the nonlinearity, whose type gives ``kind``."""

    rate: float
    gain: float
    feedback: Feedback

    def __post_init__(self):
        if not (self.rate > 0.0 and self.gain > 0.0):
            raise ValueError("rate and gain must be positive")
        if not isinstance(self.feedback, (PowerCutoff, Hill)):
            raise ValueError("feedback must be PowerCutoff (limit) or Hill (smooth)")

    @property
    def kind(self) -> str:
        return "limit" if isinstance(self.feedback, PowerCutoff) else "smooth"

    @classmethod
    def limit(cls, c: float, d: float, k: float = 2.0) -> "System":
        return cls(float(c), float(d), PowerCutoff(k=k))

    @classmethod
    def smooth(cls, a: float, b: float, k: float = 2.0, n: int = 100) -> "System":
        return cls(float(a), float(b), Hill(k=k, n=n))


def _rk4_affine_coeffs(rate: float, h: float) -> tuple[float, float, float, float]:
    """One RK4 step of ``x' = -rate x + B(t)`` as ``x1 = A x0 + c1 B0 + cm Bm + c2 B1``."""

    def step(x0, b0, bm, b1):
        k1 = -rate * x0 + b0
        k2 = -rate * (x0 + 0.5 * h * k1) + bm
        k3 = -rate * (x0 + 0.5 * h * k2) + bm
        k4 = -rate * (x0 + h * k3) + b1
        return x0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step(1.0, 0.0, 0.0, 0.0), step(0.0, 1.0, 0.0, 0.0), step(0.0, 0.0, 1.0, 0.0), step(0.0, 0.0, 0.0, 1.0)


def _stage_grid(s0: float, s1: float, h: float) -> tuple[np.ndarray, float]:
    """Stage times of the RK4 steps covering ``[s0, s1]`` with steps of at most ``h``.

    The steps are equal, ``h2 = (s1 - s0) / M``; the nodes are the even
    stages, the step midpoints the odd ones.
    """
    M = max(1, int(math.ceil((s1 - s0) / h - 1e-9)))
    h2 = (s1 - s0) / M
    return s0 + 0.5 * h2 * np.arange(2 * M + 1), h2


def _rk4_affine_steps(rate: float, h2: float, x0, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 steps of ``x' = -rate x + B(t)`` from ``x0`` over the forcing on a stage grid.

    ``B`` holds the forcing at the stages, shape ``(stages,)`` or
    ``(stages, m)`` for ``m`` equations stepped together (then ``x0`` has
    shape ``(m,)``).  The affine steps run as one linear recursion: node
    ``k + 1`` is ``r[k] + A * node[k]``, from node 0 ``= x0``, in that order
    of operations (bit for bit ``scipy.signal.lfilter([1], [1, -A], r)`` on
    finite values).  Returns the node values and each step's slopes at its
    left and right node.
    """
    A, c1, cm, c2 = _rk4_affine_coeffs(rate, h2)
    r = c1 * B[0:-1:2] + cm * B[1::2] + c2 * B[2::2]
    if r.ndim == 1:  # on Python floats, which cost less per step than numpy scalars
        # (y and r are converted here; A is a float only if h2 arrives as one, as from _march)
        y = float(x0)
        ys = [y]
        ys += [y := rk + A * y for rk in r.tolist()]
        node_vals = np.fromiter(ys, dtype=float, count=len(ys))
    else:
        node_vals = np.empty((len(r) + 1,) + r.shape[1:])
        node_vals[0] = y = x0
        for rk, row in zip(r, node_vals[1:]):
            y = np.add(rk, A * y, out=row)
    derivs = -rate * node_vals + B[0::2]
    return node_vals, derivs[:-1], derivs[1:]


def _hermite_eval(theta: np.ndarray, h: np.ndarray, x0, d0, x1, d1) -> np.ndarray:
    t2 = theta * theta
    t3 = t2 * theta
    return (
        x0 * (2.0 * t3 - 3.0 * t2 + 1.0)
        + d0 * h * (t3 - 2.0 * t2 + theta)
        + x1 * (-2.0 * t3 + 3.0 * t2)
        + d1 * h * (t3 - t2)
    )


def _eval_pieces(t: np.ndarray, ts, xs, dl, dr, side=None, rate: float = 0.0) -> np.ndarray:
    """Dense output at times ``t`` inside ``[ts[0], ts[-1]]``.

    Piece ``i`` spans ``ts[i]..ts[i+1]``: cubic Hermite through the node
    values ``xs`` with the one-sided slopes ``dl[i]`` / ``dr[i]``, or, where
    ``side[i] == 1``, the exact decay ``xs[i] * exp(-rate (t - ts[i]))``.
    ``xs``, ``dl`` and ``dr`` may carry a trailing column axis, one column
    per solution on the same nodes; the result then has shape
    ``(len(t), columns)``.  Times are taken in blocks of about ``_CHUNK``
    values, which bounds the scratch arrays.
    """
    step = max(1, _CHUNK // np.size(xs[0]))
    if len(t) > step:
        out = np.empty(np.shape(t) + np.shape(xs)[1:])
        for r0 in range(0, len(t), step):
            out[r0 : r0 + step] = _eval_pieces(t[r0 : r0 + step], ts, xs, dl, dr, side, rate)
        return out
    col = (slice(None),) + (None,) * (np.ndim(xs) - 1)
    # np.minimum(np.maximum(...)) costs less per call than np.clip
    idx = np.minimum(np.maximum(np.searchsorted(ts, t, side="right") - 1, 0), len(ts) - 2)
    nxt = idx + 1
    t_left = ts[idx]
    h = ts[nxt] - t_left
    theta = np.minimum(np.maximum((t - t_left) / h, 0.0), 1.0)
    vals = _hermite_eval(theta[col], h[col], xs[idx], dl[idx], xs[nxt], dr[idx])
    if side is not None:
        above = side[idx] == 1
        if above.any():
            vals[above] = xs[idx[above]] * np.exp(-rate * (t[above] - ts[idx[above]]))[col]
    return vals


def _bisect_crossings(v: np.ndarray, thetas: np.ndarray, f, tol: float, width: Optional[np.ndarray] = None):
    """Bracket the sign changes of sampled functions and bisect each bracket.

    The package's one halving loop: it locates the dense output's level
    crossings, the stationary points and the scalar roots of the spectrum.
    Row ``r`` of ``v`` holds ``g_r(thetas)``.  A sample exactly at zero
    counts as below it, as the cutoff feedback takes its value at 1 from
    below; a bracket ``[thetas[j], thetas[j+1]]`` holds a crossing when its
    two samples lie on different sides.  Each bracket is halved on plain
    floats until ``(hi - lo) * width[r] <= tol`` (``width`` defaults to
    ones) or its midpoint rounds to an end (one float spacing); ``f(r,
    theta)`` returns ``g_r(theta)`` as a float.  Returns the rows (in row,
    then bracket order), the midpoints of the final brackets and whether
    each crossing is upward.
    """
    va, vb = v[:, :-1], v[:, 1:]
    rows, j = np.nonzero((va > 0.0) != (vb > 0.0))
    up = vb[rows, j] > va[rows, j]
    th = thetas.tolist()
    widths = np.ones(len(v)) if width is None else width
    mids = []
    for r, k, flo, w in zip(rows.tolist(), j.tolist(), va[rows, j].tolist(), widths[rows].tolist()):
        lo, hi = th[k], th[k + 1]
        while (hi - lo) * w > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            fm = f(r, mid)
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        mids.append(0.5 * (lo + hi))
    return rows, np.asarray(mids, dtype=float), up


def _level_crossings(level: float, ts, xs, dl, dr, side, rate: float):
    """Crossings of ``level`` by the dense output on the pieces ``ts[i]..ts[i+1]``.

    A piece is kept only if the level lies within its Bezier hull (widened by
    ``_GRAZE_TOL``), which contains the cubic; the kept pieces are sampled at
    five points and their sign changes bisected.  Exact-exponential pieces
    only decay, so they cross downward, at the closed-form time.  Returns
    the crossing times and upward flags in piece order.  When no piece is
    kept, the two arrays (float, bool) come back empty at once; when the
    kept pieces are all of one kind, the other group is skipped.  The pieces
    are scanned in one pass: callers bound their size (one unit interval, or
    one ``_CHUNK`` window of a trajectory).

    Before the hull is built, a block whose nodes all lie on one side of the
    level is ruled out when the level is also beyond ``reach``, the largest
    ``h * |slope| / 3`` of its pieces: every control point lies within
    ``reach`` of a node.  Rounding is monotone, so the computed control
    points never pass the computed bound ``lo - reach`` (or ``hi + reach``);
    the doubled ``_GRAZE_TOL`` is a margin on top.  A block ruled out this
    way is one the full rule keeps no piece of, so the result is the same.
    """
    x0, x1 = xs[:-1], xs[1:]
    h = ts[1:] - ts[:-1]
    lo, hi = xs.min(), xs.max()
    if lo - level > _GRAZE_TOL or hi - level < -_GRAZE_TOL:
        reach = (h * np.maximum(np.abs(dl), np.abs(dr))).max() / 3.0
        if lo - reach - level > 2.0 * _GRAZE_TOL or hi + reach - level < -2.0 * _GRAZE_TOL:
            return np.empty(0), np.empty(0, dtype=bool)
    p1 = x0 + h * dl / 3.0
    p2 = x1 - h * dr / 3.0
    below = np.minimum(np.minimum(x0, x1), np.minimum(p1, p2)) - level <= _GRAZE_TOL
    above = np.maximum(np.maximum(x0, x1), np.maximum(p1, p2)) - level >= -_GRAZE_TOL
    i = np.flatnonzero(np.where(side == 1, (x0 > level) & (level >= x1), below & above))
    if not i.size:
        return np.empty(0), np.empty(0, dtype=bool)
    expo = side[i] == 1
    ie, ih = i[expo], i[~expo]
    # scalar math.log: np.log can differ from it in the last bit
    t_exp = np.asarray([ts[k] + math.log(xs[k] / level) / rate for k in ie.tolist()], dtype=float)
    if not ih.size:
        return t_exp, np.zeros(ie.size, dtype=bool)

    h, x0, d0, x1, d1 = h[ih], x0[ih], dl[ih], x1[ih], dr[ih]
    col = np.s_[:, None]
    v = _hermite_eval(_SAMPLE_THETAS, h[col], x0[col], d0[col], x1[col], d1[col]) - level
    hl, x0l, d0l, x1l, d1l = (a.tolist() for a in (h, x0, d0, x1, d1))
    rows, theta, up = _bisect_crossings(
        v, _SAMPLE_THETAS, lambda r, th: _hermite_eval(th, hl[r], x0l[r], d0l[r], x1l[r], d1l[r]) - level,
        _BISECT_TOL, h,
    )
    t_herm = ts[ih[rows]] + theta * h[rows]
    if not ie.size:  # ih[rows] is already in piece order
        return t_herm, up
    order = np.argsort(np.concatenate([ie, ih[rows]]), kind="stable")
    times = np.concatenate([t_exp, t_herm])[order]
    ups = np.concatenate([np.zeros(ie.size, dtype=bool), up])[order]
    return times, ups


@dataclass
class Trajectory:
    """Dense solution on [-1, T] with an event log of cutoff-level crossings.

    Piece ``i`` spans ``ts[i]..ts[i+1]`` and carries one-sided derivatives at
    both ends; evaluation uses cubic Hermite interpolation, except on pieces
    with vanishing forcing (limit system above the cutoff) where the exact
    exponential decay is used.
    """

    system: System
    history: HistoryFunction
    N: int
    T: float
    ts: np.ndarray          # nodes, ts[0] == 0.0
    xs: np.ndarray          # values at nodes
    dl: np.ndarray          # right-sided derivative at the left node of each piece
    dr: np.ndarray          # left-sided derivative at the right node of each piece
    side: np.ndarray        # per piece: 1 if the delayed argument exceeds the cutoff
    events: list = field(default_factory=list)       # {t, kind}: forcing switches
    # the march's state after the last whole unit: (units marched, that
    # unit's block, the cutoff crossings, how many of them and how many
    # pieces there were by its end)
    _resume: Optional[tuple] = field(default=None, init=False, repr=False)

    # -- growth ------------------------------------------------------------
    def extend(self, T: float) -> "Trajectory":
        """Grow the trajectory in place to ``T`` and return it.

        The march resumes after the last whole unit, so a partial last unit
        is marched again in whole and its old pieces are replaced.  The
        grown trajectory is, to the bit, the one ``integrate`` gives to
        ``T``.
        """
        if self._resume is None:
            raise ValueError("only a trajectory from integrate can grow")
        if T < self.T:
            raise ValueError("a trajectory grows only forward")
        unit, prev, crossings, n_cross, n_pieces = self._resume
        crossings = crossings[:n_cross]
        parts = [[self.ts[: n_pieces + 1]], [self.xs[: n_pieces + 1]], [self.dl[:n_pieces]], [self.dr[:n_pieces]],
                 [self.side[:n_pieces]]]
        for blk in _march(self.system, self.history, T, self.N, crossings, start=(unit, prev)):
            for part, a in zip(parts, (blk[0][1:], blk[1][1:], *blk[2:])):
                part.append(a)
            unit += 1
            n_pieces += len(blk[2])
            if unit <= T:  # the unit just marched is whole
                self._resume = (unit, blk, crossings, len(crossings), n_pieces)
        self.ts, self.xs, self.dl, self.dr, self.side = (np.concatenate(part) for part in parts)
        self.T = float(T)
        events: list[dict] = []
        for tc, up in crossings:
            bp = tc + 1.0
            if bp <= T + 1e-12 and (not events or abs(bp - events[-1]["t"]) > 1e-10):
                events.append({"t": bp, "kind": "forcing-off" if up else "forcing-on"})
        self.events = sorted(events, key=lambda e: e["t"])
        return self

    # -- evaluation --------------------------------------------------------
    def eval_many(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        past = t <= 0.0
        if np.any(past):
            out[past] = self.history.eval(np.minimum(np.maximum(t[past], -1.0), 0.0))
        fut = ~past
        if np.any(fut):
            tf = t[fut]
            if np.any(tf > self.T + 1e-9):
                raise ValueError("evaluation beyond the integrated horizon")
            out[fut] = _eval_pieces(tf, self.ts, self.xs, self.dl, self.dr, self.side, self.system.rate)
        return out

    def eval(self, t: float) -> float:
        return float(self.eval_many(np.asarray([t]))[0])

    def extremes(self, t_lo: float, t_hi: float) -> tuple[float, float]:
        """The least and greatest value of the dense output on ``[t_lo, t_hi]``, within ``[0, T]``.

        A cubic Hermite piece takes its extremes at its ends or where its
        derivative, a quadratic in the piece's own variable, vanishes, which
        is solved in closed form; exact-exponential pieces are monotone, so
        their ends suffice.  The pieces are taken ``_CHUNK`` at a time.
        """
        if not 0.0 <= t_lo <= t_hi <= self.T + 1e-9:
            raise ValueError("extremes need 0 <= t_lo <= t_hi <= T")
        i_lo = max(0, int(np.searchsorted(self.ts, t_lo, side="right")) - 1)
        i_hi = min(len(self.ts) - 2, int(np.searchsorted(self.ts, t_hi, side="right")) - 1)
        ends = self.eval_many(np.asarray([t_lo, t_hi]))
        lo, hi = float(np.min(ends)), float(np.max(ends))
        for c0 in range(i_lo, i_hi + 1, _CHUNK):
            c1 = min(c0 + _CHUNK, i_hi + 1)
            ts, x0, x1 = self.ts[c0 : c1 + 1], self.xs[c0:c1], self.xs[c0 + 1 : c1 + 1]
            dl, dr = self.dl[c0:c1], self.dr[c0:c1]
            h = ts[1:] - ts[:-1]
            # the cubic's derivative in theta is a theta^2 + b theta + c; its
            # roots by the quadratic formula that does not cancel
            a = 6.0 * (x0 - x1) + 3.0 * h * (dl + dr)
            b = -6.0 * (x0 - x1) - h * (4.0 * dl + 2.0 * dr)
            c = h * dl
            disc = b * b - 4.0 * a * c
            with np.errstate(divide="ignore", invalid="ignore"):
                q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
                roots = np.stack([q / a, c / q])
            k, i = np.nonzero((disc >= 0.0) & (self.side[c0:c1] == 0) & (roots > 0.0) & (roots < 1.0))
            t = ts[i] + roots[k, i] * h[i]
            inside = (t >= t_lo) & (t <= t_hi)
            i, theta = i[inside], roots[k[inside], i[inside]]
            vals = np.concatenate([
                x1[(ts[1:] >= t_lo) & (ts[1:] <= t_hi)],
                _hermite_eval(theta, h[i], x0[i], dl[i], x1[i], dr[i]),
            ])
            if vals.size:
                lo, hi = min(lo, float(np.min(vals))), max(hi, float(np.max(vals)))
        return lo, hi

    # -- crossings ----------------------------------------------------------
    def crossings(self, level: float, direction: str = "both", t_lo: float = 0.0, t_hi: Optional[float] = None) -> list:
        """Times in [t_lo, t_hi] where the solution crosses ``level``.

        Returns a list of ``(t, dir)`` in time order with dir in {"up",
        "down"}, located to ~1e-12 by bisection on the dense interpolant
        (closed form on exact exponential pieces).  A crossing within 1e-10
        of the last one listed is dropped; then ``direction`` ("up", "down"
        or "both") filters.
        """
        return list(self._walk_crossings(level, direction, t_lo, t_hi))

    def first_crossing(
        self, level: float, direction: str = "both", t_lo: float = 0.0, t_hi: Optional[float] = None
    ) -> Optional[tuple]:
        """The first entry of ``crossings(level, direction, t_lo, t_hi)``, or None.

        The scan stops at the window of pieces that holds it, so a crossing
        near ``t_lo`` costs one window, not the whole trajectory.
        """
        return next(self._walk_crossings(level, direction, t_lo, t_hi), None)

    def _walk_crossings(self, level: float, direction: str, t_lo: float, t_hi: Optional[float]):
        """Yield the crossings of ``crossings`` one at a time, scanning ``_CHUNK`` pieces per window.

        Each window's crossings are located together, so a caller that stops
        early leaves the later windows unscanned; every located time is the
        one a whole-range scan gives, as each piece is scanned on its own.
        """
        t_hi = self.T if t_hi is None else t_hi
        i_lo = max(0, np.searchsorted(self.ts, t_lo, side="right") - 1)
        i_hi = min(len(self.ts) - 2, np.searchsorted(self.ts, t_hi, side="right") - 1)
        last = None  # time of the last crossing yielded
        for c0 in range(i_lo, i_hi + 1, _CHUNK):
            c1 = min(c0 + _CHUNK, i_hi + 1)
            times, ups = _level_crossings(
                level, self.ts[c0 : c1 + 1], self.xs[c0 : c1 + 1], self.dl[c0:c1], self.dr[c0:c1],
                self.side[c0:c1], self.system.rate,
            )
            for tc, up in sorted(zip(times.tolist(), ups.tolist())):
                dirn = "up" if up else "down"
                if not (t_lo - 1e-12 <= tc <= t_hi + 1e-12):
                    continue
                if last is not None and abs(tc - last) < 1e-10:
                    continue
                if dirn != direction and direction != "both":
                    continue
                last = tc
                yield tc, dirn


def _march(
    system: System, history: HistoryFunction, T: float, N: int, crossings: list,
    forcing: Optional[Callable] = None, start: Optional[tuple] = None,
):
    """Advance the system to time ``T`` one unit interval at a time.

    The package's one unit-by-unit loop.  Yields the pieces ``(ts, xs, dl,
    dr, side)`` of each unit interval as it ends; their first node is the
    last node of the unit before.  For limit systems the cutoff crossings
    ``(t, upward)`` are appended to ``crossings`` in time order as they are
    located, those of the history first, so a caller that stops after any
    unit has seen every crossing up to that unit's end.  Each unit looks up
    its delayed values in one call.  The march is causal: a unit depends
    only on the units before it, never on ``T`` beyond its own end.

    A smooth system's history may return ``(k, m)`` values, ``m`` columns
    that march together as a trailing axis of ``xs``, ``dl`` and ``dr``.
    ``forcing(stages, delayed)``, which may overwrite ``delayed``, is the
    forcing at a sub-interval's stages (default: the system's feedback
    ``gain * F(x(t - 1))``).  The history's sign is the caller's to check.

    ``start = (unit, prev)`` resumes the march at the start of ``unit``:
    ``prev`` is the block the march yielded for the unit before (None at
    unit 0), and ``crossings`` must hold the crossings located by that
    unit's end.  The units yielded from there are, to the bit, those of the
    march from the history.

    Two shortcuts leave every bit as it is.  The delayed lookup passes no
    side array when the previous block's side array marks no
    exact-exponential piece, as the overwrite it drives would write
    nothing.  A whole unit with no breakpoint takes its stages as
    ``t0`` plus one grid built per march: ``_stage_grid(t0, t0 + 1, h)``
    forms the same step count, step and product from the same width 1.
    """
    if T < 0:
        raise ValueError("horizon T must be nonnegative")
    if N < 100:
        raise ValueError("mesh refinement N must be at least 100")
    limit = system.kind == "limit"
    rate, gain, fb = system.rate, system.gain, system.feedback
    h = 1.0 / N
    if forcing is None:
        def forcing(_stages, xi: np.ndarray) -> np.ndarray:
            return gain * (fb.clamped_power(xi) if limit else fb.value(np.maximum(xi, 0.0)))

    def record(times, ups) -> None:
        for tc, up in zip(times, ups):
            if crossings and abs(tc - crossings[-1][0]) < 1e-10:
                continue
            crossings.append((tc, up))

    unit0, prev = start or (0, None)  # prev: the previous unit's pieces, for delayed lookups
    if limit and prev is None:
        s, v = history.sampled(4001)
        _, s_cross, ups = _bisect_crossings((v - 1.0)[None, :], s, lambda _row, th: history.eval(th) - 1.0, _BISECT_TOL)
        record(s_cross.tolist(), ups.tolist())
    x_cur = history.eval(np.zeros(1))[0] if prev is None else prev[1][-1]  # a float, or one row of columns
    unit_offs, unit_h2 = _stage_grid(0.0, 1.0, h)

    def delayed_eval(times: np.ndarray) -> np.ndarray:
        if prev is None:  # the first unit looks up the history only
            return history.eval(np.minimum(np.maximum(times, -1.0), 0.0))
        side = prev[4] if prev[4].any() else None  # no exponential piece: the overwrite writes nothing
        return _eval_pieces(times, prev[0], prev[1], prev[2], prev[3], side, rate)

    first = 0  # crossings before this index are four delays or more in the past
    for unit in range(unit0, int(math.ceil(T - 1e-12))):
        t0 = float(unit)
        t1 = min(unit + 1.0, T)
        sub_edges = [t0, t1]
        if limit:
            # a crossing at tc kinks the forcing at tc+1 and, one derivative
            # milder each delay later, up to tc+4; split all of them so no
            # step spans a loss of smoothness
            while first < len(crossings) and crossings[first][0] + 4.0 <= t0 + 1e-12:
                first += 1
            bps = [tc + g for tc, _ in crossings[first:] for g in (1.0, 2.0, 3.0, 4.0)
                   if t0 + 1e-12 < tc + g < t1 - 1e-12]
            merged = []
            for bp in sorted(set(np.round(bps, 13).tolist())) if bps else ():
                if not merged or bp - merged[-1] > 1e-10:
                    merged.append(bp)
            sub_edges = [t0] + merged + [t1]

        spans = list(zip(sub_edges[:-1], sub_edges[1:]))
        if len(spans) == 1 and t1 - t0 == 1.0:
            grids = [(t0 + unit_offs, unit_h2)]
        else:
            grids = [_stage_grid(s0, s1, h) for s0, s1 in spans]
        # the stages of all sub-intervals, then (limit) their midpoints, whose
        # delayed values tell on which side of the cutoff the forcing lies
        mids = [0.5 * (s0 + s1) for s0, s1 in spans] if limit else []
        looked = delayed_eval(np.concatenate([g[0] for g in grids] + [mids]) - 1.0)
        at_mid = looked[len(looked) - len(mids) :]
        pieces = []  # per sub-interval (ts, xs, dl, dr, side); neighbours share a node
        end = 0
        for k, (stages, h2) in enumerate(grids):
            nodes = stages[0::2]
            xi = looked[end : end + stages.size]
            end += stages.size
            M = nodes.size - 1
            if limit and at_mid[k] > 1.0:
                node_vals = x_cur * np.exp(-rate * h2 * np.arange(M + 1))  # exp(-0.0) = 1: node 0 is x_cur
                slopes = -rate * node_vals
                d0, d1 = slopes[:-1], slopes[1:]
                sides = np.ones(M, dtype=np.int8)
            else:
                node_vals, d0, d1 = _rk4_affine_steps(rate, h2, x_cur, forcing(stages, xi))
                sides = np.zeros(M, dtype=np.int8)
            pieces.append((nodes, node_vals, d0, d1, sides))
            x_cur = node_vals[-1]

        blk = pieces[0] if len(pieces) == 1 else tuple(
            np.concatenate([col[0]] + [a[1:] if i < 2 else a for a in col[1:]]) for i, col in enumerate(zip(*pieces))
        )
        if not np.isfinite(x_cur).all():  # a non-finite node stays so to the unit's end
            bad = ~np.isfinite(blk[1]).reshape(len(blk[1]), -1).all(axis=1)
            raise DDEIntegrationError(f"non-finite solution value near t = {blk[0][bad][0]:.6f}")
        prev = blk

        if limit:
            times, ups = _level_crossings(1.0, *blk, rate)
            record(times.tolist(), ups.tolist())
        yield blk


def integrate(system: System, history: HistoryFunction, T: float, N: int = 200) -> Trajectory:
    """Advance the system from the given history to time ``T``.

    Fixed step ``1/N`` dividing the delay exactly (``N >= 100``); delayed
    lookups land on stored polynomials of the previous interval, one lookup
    per unit.  For limit systems, cutoff crossings of the computed solution,
    each bracket halved on plain floats, split the next interval's
    integration so the discontinuous feedback is only ever evaluated on one
    side.  A crossing kinks the forcing for four delays after it, so only the
    crossings within four delays before a unit are scanned for that unit's
    breakpoints.
    """
    if not history.is_nonnegative():
        raise ValueError("history must be nonnegative")
    traj = Trajectory(
        system=system, history=history, N=N, T=0.0,
        ts=np.zeros(1), xs=np.asarray([float(history.eval(0.0))]),
        dl=np.empty(0), dr=np.empty(0), side=np.empty(0, dtype=np.int8),
    )
    traj._resume = (0, None, [], 0, 0)
    return traj.extend(T)


def segment_at(traj: Trajectory, t: float) -> HistoryFunction:
    """The state at time t: the function ``s -> x(t+s)`` on [-1, 0]."""
    if not 0.0 <= t <= traj.T + 1e-12:
        raise ValueError("segment time outside [0, T]")
    if t == 0.0:
        return traj.history
    return HistoryFunction.from_callable(lambda s: traj.eval_many(np.asarray(t + np.asarray(s, dtype=float))))


@dataclass(frozen=True)
class BoundsReport:
    max_value: float
    min_value: float
    lipschitz: float          # max slope magnitude over [1, T]
    band: tuple
    band_ok: bool
    lipschitz_bound: float
    lipschitz_ok: bool


def check_bounds(traj: Trajectory, band_tol: float = 1e-9) -> BoundsReport:
    """Extremes, empirical unit-window slope, and the invariant-band flags.

    The expected band is [0, gain/rate] for the limit system and
    [0, 2*gain/rate] for the smooth one, with slope bounds 2*gain and 8*gain.
    """
    sys_ = traj.system
    hi = 2.0 * sys_.gain / sys_.rate if sys_.kind == "smooth" else sys_.gain / sys_.rate
    lip_bound = 8.0 * sys_.gain if sys_.kind == "smooth" else 2.0 * sys_.gain
    vmax = float(np.max(traj.xs))
    vmin = float(np.min(traj.xs))
    mask = traj.ts[:-1] >= 1.0 - 1e-12
    if np.any(mask):
        lip = float(max(np.max(np.abs(traj.dl[mask])), np.max(np.abs(traj.dr[mask]))))
    else:
        lip = 0.0
    return BoundsReport(
        max_value=vmax,
        min_value=vmin,
        lipschitz=lip,
        band=(0.0, hi),
        band_ok=bool(vmin >= -band_tol and vmax <= hi + band_tol),
        lipschitz_bound=lip_bound,
        lipschitz_ok=bool(lip <= lip_bound + band_tol),
    )
