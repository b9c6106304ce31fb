"""Shooting construction of the one-dimensional leading unstable solutions.

The interior equilibrium is strongly unstable: the linearization has a unique
positive real eigenvalue whose eigenfunction is ``exp(lambda0 * s)``.  Seeding
the integration at ``equilibrium +/- eps * exp(lambda0 * s)`` and re-anchoring
time at the first passage through a fixed marker value produces, up to
``O(eps**2)``, the unique monotone solutions leaving the equilibrium upward
(plus branch) and downward (minus branch).  The backward tail is represented
by the seed segment together with the asymptotic approach to the equilibrium;
it is never integrated backward.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .dde import ParameterError, System, Trajectory, integrate
from .history import HistoryFunction
from .spectrum import leading_real_root, stationary_points

__all__ = ["BranchSolution", "Landmarks", "shoot_branch", "exp_segment_check", "convergence_table", "ConvergenceTable"]


@dataclass(frozen=True)
class Landmarks:
    """Crossing times of the cutoff level and the super-threshold window.

    ``t1``/``t2`` are the first upward and next downward crossings, ``x_t1p1``
    the value one delay after ``t1``; ``t3`` anchors a unit window on which
    the solution exceeds ``1 + 2*eps``.
    """

    t1: Optional[float] = None
    t2: Optional[float] = None
    t3: Optional[float] = None
    eps: Optional[float] = None
    x_t1p1: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BranchSolution:
    """A branch of the leading unstable set, time-anchored at a marker value.

    ``eval(t)`` returns the solution with the anchor at ``t = 0``; the usable
    domain is ``[-shift - 1, T_forward]``.
    """

    system: System
    branch: str               # "plus" | "minus"
    kappa: float
    eps_seed: float
    equilibrium: float
    lambda0: float
    shift: float              # anchor time in the raw trajectory
    traj: Trajectory
    landmarks: Landmarks = field(default_factory=Landmarks)

    @property
    def domain(self) -> tuple:
        return (-self.shift - 1.0, self.traj.T - self.shift)

    def eval_many(self, t) -> np.ndarray:
        return self.traj.eval_many(np.asarray(t, dtype=float) + self.shift)

    def eval(self, t: float) -> float:
        return float(self.eval_many(np.asarray([t]))[0])

    def extend(self, T: float) -> "BranchSolution":
        """Grow the branch in place to ``T`` past its anchor, to the bit as ``shoot_branch`` with that ``T``."""
        self.traj.extend(_raw_horizon(self.kappa, self.eps_seed, self.lambda0, T))
        if self.branch == "plus":
            self.landmarks = _plus_landmarks(self)
        return self


def _raw_horizon(kappa: float, eps_seed: float, lam0: float, T: float) -> float:
    """The integration horizon of a branch shot ``T`` past its anchor: 1.5 lead times, ``T`` and 5."""
    t_pre = math.log(abs(kappa) / eps_seed) / lam0
    return 1.5 * t_pre + T + 5.0


def _interior_data(system: System) -> tuple[float, float]:
    ceiling = 0.999 if system.kind == "limit" else 0.9
    pts = stationary_points(system, ceiling)
    try:
        p = pts.interior()
    except ValueError:
        gain = "system.d" if system.kind == "limit" else "system.b"
        raise ParameterError(gain, f"no interior equilibrium below {ceiling}: gain too close to the rate") from None
    return p.value, p.slope


def shoot_branch(
    system: System,
    branch: str,
    kappa: Optional[float] = None,
    eps_seed: Optional[float] = None,
    T: float = 30.0,
    N: int = 200,
) -> BranchSolution:
    """Grow one branch of the leading unstable set and anchor it in time.

    ``kappa`` is the signed marker offset from the equilibrium (defaults:
    half the gap to the cutoff for the plus branch, minus half the
    equilibrium for the minus branch).  ``eps_seed`` defaults to the marker
    size scaled by ``exp(-15)`` so the seed contamination is negligible at
    the anchor.  ``T`` is the forward horizon past the anchor.  A system
    with no interior equilibrium below the scan ceiling (0.999 for the
    limit system, 0.9 for the smooth one) raises ``ParameterError`` naming
    its gain.
    """
    if branch not in ("plus", "minus"):
        raise ValueError("branch must be 'plus' or 'minus'")
    xi_star, slope = _interior_data(system)
    if slope <= system.rate:
        raise ValueError("equilibrium is not strongly unstable; no leading branch")
    lam0 = leading_real_root(system.rate, slope)
    if kappa is None:
        kappa = 0.5 * (1.0 - xi_star) if branch == "plus" else -0.5 * xi_star
    if branch == "plus" and not 0.0 < kappa < 1.0 - xi_star:
        raise ParameterError("kappa", f"plus-branch marker must lie in (0, 1 - equilibrium) = (0, {1.0 - xi_star:.6g})")
    if branch == "minus" and not -xi_star < kappa < 0.0:
        raise ParameterError("kappa", f"minus-branch marker must lie in (-equilibrium, 0) = ({-xi_star:.6g}, 0)")
    if eps_seed is None:
        eps_seed = min(1e-4, abs(kappa) * math.exp(-15.0))
    if not 0.0 < eps_seed <= 1e-4:
        raise ValueError("seed amplitude must lie in (0, 1e-4]")

    sign = 1.0 if branch == "plus" else -1.0
    seed = HistoryFunction.eigen_seed(xi_star, sign * eps_seed, lam0)
    total = _raw_horizon(kappa, eps_seed, lam0, T)
    traj = integrate(system, seed, total, N=N)

    target = xi_star + kappa
    direction = "up" if branch == "plus" else "down"
    hit = traj.first_crossing(target, direction)
    if hit is None:
        # wrong-side escape shows up as the solution never reaching the marker
        probe = traj.eval(min(5.0 / lam0, total))
        hint = "seed escaped toward the wrong equilibrium" if (probe - xi_star) * sign < 0 else "marker not reached; horizon too small or marker out of range"
        raise RuntimeError(hint)

    sol = BranchSolution(
        system=system,
        branch=branch,
        kappa=kappa,
        eps_seed=eps_seed,
        equilibrium=xi_star,
        lambda0=lam0,
        shift=hit[0],
        traj=traj,
    )
    if branch == "plus":
        sol.landmarks = _plus_landmarks(sol)
    return sol


def _plus_landmarks(sol: BranchSolution) -> Landmarks:
    traj, shift = sol.traj, sol.shift
    # the lazy walk behind ``crossings``, left once the second landmark is found
    hits = traj._walk_crossings(1.0, "both", shift, None)
    t1_raw = next((c for c, d in hits if d == "up"), None)
    if t1_raw is None:
        return Landmarks()
    t2_raw = next((c for c, d in hits if d == "down" and c > t1_raw + 1e-9), None)
    if t2_raw is None:
        return Landmarks(t1=t1_raw - shift)
    t1, t2 = t1_raw - shift, t2_raw - shift
    x_t1p1 = sol.eval(t1 + 1.0)

    # super-threshold window: largest eps = (peak-1)/4 whose level set holds a
    # unit interval inside (t1, t2); halve eps until the window fits
    grid = np.linspace(t1, t2, 2001)
    vals = sol.eval_many(grid)
    peak = float(np.max(vals))
    eps = 0.25 * (peak - 1.0)
    t3 = None
    while eps > 1e-6:
        mask = vals >= 1.0 + 2.0 * eps
        if np.any(mask):
            lo = grid[np.argmax(mask)]
            hi = grid[len(mask) - 1 - np.argmax(mask[::-1])]
            if hi - lo >= 1.0:
                t3 = 0.5 * (lo + (hi - 1.0))
                break
        eps *= 0.5
    return Landmarks(t1=t1, t2=t2, t3=t3, eps=(eps if t3 is not None else None), x_t1p1=x_t1p1)


def exp_segment_check(sol: BranchSolution) -> float:
    """Max deviation from pure decay on the forced-free window after the peak."""
    if sol.system.kind != "limit" or sol.branch != "plus":
        raise ValueError("decay-segment check applies to the limit plus branch")
    lm = sol.landmarks
    if lm.t1 is None or lm.t2 is None:
        raise ValueError("landmarks missing; branch never returned to the cutoff")
    c = sol.system.rate
    base = sol.eval(lm.t1 + 1.0)
    tt = np.linspace(lm.t1 + 1.0, lm.t2 + 1.0, 4001)
    model = base * np.exp(-c * (tt - lm.t1 - 1.0))
    return float(np.max(np.abs(sol.eval_many(tt) - model)))


@dataclass(frozen=True)
class ConvergenceTable:
    """Sup-distances between the finite-n plus branches and the limit branch."""

    c: float
    d: float
    kappa: float
    m: int
    rows: tuple  # (n, sup_dist_on_[0,m], seed_segment_dist, window_ok)

    def first(self) -> float:
        return self.rows[0][1]

    def final(self) -> float:
        return self.rows[-1][1]


def convergence_table(c: float, d: float, k: float, n_grid) -> ConvergenceTable:
    """Distances of the finite-n plus branches to the limit branch on [0, m].

    Every branch is integrated at N=200 with the rates ``(c, d)`` and anchored
    at the same marker offset ``kappa``, half the gap from the limit
    equilibrium to the cutoff; ``m = ceil(t2) + 1`` for the limit branch's
    return crossing ``t2``.  Rows also report the distance between the
    anchored initial segments and whether the finite-n branch clears
    ``1 + eps`` on the limit branch's super-threshold window.
    """
    limit_sys = System.limit(c, d, k=k)
    xi1, _ = _interior_data(limit_sys)
    kappa = 0.5 * (1.0 - xi1)
    x_sol = shoot_branch(limit_sys, "plus", kappa=kappa, T=18.0)
    lm = x_sol.landmarks
    if lm.t2 is None:
        raise ValueError("limit branch has no return crossing; cannot choose m")
    m = int(math.ceil(lm.t2)) + 1
    tt = np.linspace(0.0, float(m), 200 * m + 1)
    ss = np.linspace(-1.0, 0.0, 201)
    x_on = x_sol.eval_many(tt)
    x_seed = x_sol.eval_many(ss)

    rows = []
    for n in n_grid:
        sys_n = System.smooth(c, d, k=k, n=int(n))
        try:
            y_sol = shoot_branch(sys_n, "plus", kappa=kappa, T=float(m) + 4.0)
        except (ValueError, RuntimeError):
            rows.append((int(n), math.nan, math.nan, False))
            continue
        sup = float(np.max(np.abs(y_sol.eval_many(tt) - x_on)))
        seg = float(np.max(np.abs(y_sol.eval_many(ss) - x_seed)))
        window_ok = False
        if lm.t3 is not None:
            wgrid = np.linspace(lm.t3, lm.t3 + 1.0, 501)
            window_ok = bool(np.min(y_sol.eval_many(wgrid)) >= 1.0 + lm.eps)
        rows.append((int(n), sup, seg, window_ok))
    return ConvergenceTable(c=c, d=d, kappa=kappa, m=m, rows=tuple(rows))
