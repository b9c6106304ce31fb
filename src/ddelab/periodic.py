"""Periodic orbits: detection, Floquet diagnostics, and connection diagrams.

Orbit detection is one pass of a level-crossing return test on a long
trajectory: the smallest crossing lag with constant laps proposes the
period, and the state-space return residual at two anchors confirms it.
Floquet multipliers come from a dense discretization of the linearized
period map: the hat functions on a segment mesh are propagated together
through the variational equation along the orbit, by the integrator's own
march, and the resulting matrix is eigensolved.

Small orbits born near the interior equilibrium are of saddle type (the
equilibrium's strong real instability persists as a Floquet multiplier above
one), so they cannot be reached by forward simulation; they are computed by
a damped Newton iteration on the period-map fixed point, with the equilibrium
deflated, seeded once on the crossing-pair eigendirection.  The connection diagram assembles the branch
fates, the attractor evidence, and the sampled fates of the saddle orbit's
unstable directions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dde import ParameterError, System, Trajectory, _eval_pieces, _march, integrate, segment_at
from .history import HistoryFunction
from .manifold import shoot_branch
from .spectrum import HopfData, hopf_data
from .threshold import HITS_ONE, IN_D, classify_zd

__all__ = [
    "PeriodicOrbit",
    "FloquetReport",
    "HopfSearchResult",
    "ConnectionDiagram",
    "detect_periodic",
    "find_orbit",
    "monodromy_multipliers",
    "hopf_orbit_search",
    "connection_diagram",
    "unstable_disk_runs",
]

_SEG_MESH = np.linspace(-1.0, 0.0, 201)
# a non-return differs on the scale of the oscillation amplitude, a true return
# sits at the integration noise floor; period structure is decided at a coarse
# tolerance in between, and the final return residual gate is strict
_COARSE_TOL = 1e-3
_RETURN_TOL = 1e-6
_HOPF_ALPHAS = (0.02, -0.02, 0.05, -0.05, 0.1, -0.1, 0.15, -0.15, 0.2, -0.2)


@dataclass
class PeriodicOrbit:
    """One periodic orbit: anchor segment, period, and sampled shape."""

    q0: HistoryFunction
    omega: float
    vmin: float
    vmax: float
    level: float
    anchor: float
    residual: float
    samples_t: np.ndarray = field(repr=False)
    samples_x: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "min": self.vmin,
            "max": self.vmax,
            "level": self.level,
            "direction": "up",  # the period is read off upward crossings of the level
            "residual": self.residual,
        }


def _segment_distance(traj: Trajectory, t_a: float, t_b: float) -> float:
    return float(np.max(np.abs(traj.eval_many(t_a + _SEG_MESH) - traj.eval_many(t_b + _SEG_MESH))))


def _layer_mesh(system: System, traj: Trajectory) -> int:
    """Steps per unit that put two steps across the narrowest transition layer.

    A Hill layer is about ``1 / (n |x'|)`` wide; ``|x'|`` is the largest
    slope on the second half of ``traj``'s pieces, where it has settled.
    """
    return int(math.ceil(2.0 * system.feedback.n * float(np.max(np.abs(traj.dl[traj.dl.size // 2:])))))


def _orbit_mesh(n: float) -> int:
    """Steps per unit of an orbit run of the n-th Hill system: ``max(400, 4n)``."""
    return max(400, 4 * int(n))


def detect_periodic(traj: Trajectory, level: float = 1.0, transient: Optional[float] = None) -> Optional[PeriodicOrbit]:
    """Detect a periodic orbit in the tail of a trajectory.

    One pass over the increasing crossings of ``level`` after the transient:
    the period is the median lap of the smallest crossing lag whose laps
    agree to 1e-4 relative and whose state returns within ``_COARSE_TOL``
    from the anchor.  The anchor is the crossing 70% into the window, or the
    last one a period before the horizon if that is earlier.  The return must
    then close within ``_RETURN_TOL`` at two anchors a period apart.  Returns
    None when fewer than 4 crossings exist, when no lag passes, when the
    window holds no second period before or after the anchor, or when the
    return residual fails.
    """
    transient = 0.5 * traj.T if transient is None else transient
    ups = np.asarray([t for t, _ in traj.crossings(level, "up", t_lo=transient, t_hi=traj.T - 1.0)])
    if ups.size < 4:
        return None
    for lag in range(1, ups.size // 2 + 1):
        laps = ups[lag:] - ups[:-lag]
        omega = float(np.median(laps))
        if float(np.max(laps) - np.min(laps)) > 1e-4 * omega:
            continue
        i = min(int(0.7 * (ups.size - 1)), ups.size - 2, int(np.searchsorted(ups + omega, traj.T, "right")) - 1)
        anchor = float(ups[max(i, 0)])
        if anchor + omega <= traj.T:
            resid = _segment_distance(traj, anchor, anchor + omega)
            if resid < _COARSE_TOL:
                break
    else:
        return None
    # a residual that only passes at one anchor is floor luck on a thin
    # torus; require the return to close at two anchors a period apart
    if anchor - omega >= float(ups[0]):
        resid = max(resid, _segment_distance(traj, anchor - omega, anchor))
    elif anchor + 2 * omega <= traj.T:
        resid = max(resid, _segment_distance(traj, anchor + omega, anchor + 2 * omega))
    else:
        return None
    if resid >= _RETURN_TOL:
        return None
    return _orbit_record(traj, anchor, omega, level, resid)


def _orbit_record(traj: Trajectory, anchor: float, omega: float, level: float, residual: float) -> PeriodicOrbit:
    """The package's one ``PeriodicOrbit``: one period of ``traj`` from ``anchor``.

    ``q0`` is the segment at ``anchor``; the period is sampled ``max(256, 64
    omega)`` times, and its extremes are the dense output's exact ones.
    """
    ts = np.linspace(anchor, anchor + omega, max(256, int(64 * omega)), endpoint=False)
    xs = traj.eval_many(ts)
    vmin, vmax = traj.extremes(anchor, min(anchor + omega, traj.T))
    return PeriodicOrbit(
        q0=segment_at(traj, anchor),
        omega=float(omega),
        vmin=vmin,
        vmax=vmax,
        level=level,
        anchor=anchor,
        residual=residual,
        samples_t=ts - anchor,
        samples_x=xs,
    )


# ---------------------------------------------------------------------------
# linearized period map
# ---------------------------------------------------------------------------

def _interp_columns(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp[:, i])`` for every column ``i`` at once, to the bit."""
    j = np.searchsorted(xp, x, side="right") - 1
    jj = np.clip(j, 0, xp.size - 2)
    lo = fp[jj]
    out = fp[jj + 1] - lo  # the slope, then the value, in place: np.interp's operations in its order
    out /= (xp[jj + 1] - xp[jj])[:, None]
    out *= (x - xp[jj])[:, None]
    out += lo
    outside = (j < 0) | (j >= xp.size - 1)
    out[outside] = fp[np.clip(j[outside], 0, xp.size - 1)]
    return out


def _period_map_matrix(base: Trajectory, N: int) -> np.ndarray:
    """Dense (N+1)x(N+1) approximation of the linearized period map along ``base``.

    ``base`` is the orbit integrated over one period ``omega = base.T``.
    ``dde._march`` advances the hat functions of the segment mesh, the
    columns of one history, on ``base``'s mesh through ``v' = -rate v +
    beta(t) v(t-1)``, ``beta = gain F'(y(t-1))``; column i is hat i read at
    ``omega + mesh``, each time off the last unit starting at or before it.
    """
    system, omega = base.system, base.T
    mesh = np.linspace(-1.0, 0.0, N + 1)
    hats = np.eye(N + 1)
    end_times = omega + mesh
    past = end_times <= 0.0
    out = np.empty((N + 1, N + 1))
    out[past] = _interp_columns(end_times[past], mesh, hats)

    def forcing(stages, v):  # beta(t) v(t - 1), in place
        v *= (system.gain * system.feedback.deriv(np.maximum(base.eval_many(stages - 1.0), 0.0)))[:, None]
        return v

    history = HistoryFunction.from_callable(lambda s: _interp_columns(s, mesh, hats))
    for ts, xs, dl, dr, _side in _march(system, history, omega, base.N, [], forcing):
        if ts[0] + 1.0 >= end_times[0]:  # units ending before omega - 1 hold no end time
            here = ~past & (end_times >= ts[0])
            out[here] = _eval_pieces(end_times[here], ts, xs, dl, dr)
    return out


@dataclass(frozen=True)
class FloquetReport:
    """Floquet multipliers of the discretized period map.

    The trivial multiplier is the one whose eigenvector lies along the
    orbit's phase direction (its time derivative); ``trivial_error`` is its
    distance to 1 and measures how well the mesh resolves the orbit, not its
    stability.  ``leading_nontrivial`` is the largest magnitude among the
    other multipliers, and ``unstable_multiplier`` the largest real one of
    them above 1, with its eigenvector scaled to unit sup norm.
    """

    mesh_N: int
    multipliers: tuple          # leading eigenvalues as complex numbers, |.| descending
    trivial_error: float        # |trivial multiplier - 1|
    leading_nontrivial: float   # largest magnitude excluding the trivial one
    unstable_multiplier: Optional[float] = None
    unstable_eigvec: Optional[np.ndarray] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "mesh_N": self.mesh_N,
            "multipliers": [[z.real, z.imag] for z in self.multipliers],
            "trivial_error": self.trivial_error,
            "leading_nontrivial": self.leading_nontrivial,
            "unstable_multiplier": self.unstable_multiplier,
        }


def _flow(traj: Trajectory, t: np.ndarray) -> np.ndarray:
    """The vector field ``-rate x(t) + gain F(x(t - 1))`` along ``traj``.

    The delayed time is clamped at ``-1 + 1e-12``, inside the history.  On
    the orbit's end segment this is the phase direction: Newton's
    ``dS/domega`` and the trivial Floquet eigenvector.
    """
    system = traj.system
    delayed = traj.eval_many(np.maximum(t - 1.0, -1.0 + 1e-12))
    return -system.rate * traj.eval_many(t) + system.gain * system.feedback.value(np.maximum(delayed, 0.0))


def monodromy_multipliers(system: System, orbit: PeriodicOrbit, N: int = 200, N_int: Optional[int] = None) -> FloquetReport:
    """Floquet multipliers of an orbit from the discretized period map.

    The hat functions on ``N`` steps of the segment mesh are propagated
    through the variational equation over one period, along the orbit
    integrated on ``N_int`` steps per unit (default ``max(400, 4n)``, ``_orbit_mesh``);
    the resulting matrix is eigensolved densely.  Requires the smooth
    system.  ``trivial_error`` measures how well the hat mesh resolves the
    orbit: ``_resolved_floquet`` integrates on the mesh that detected the
    orbit, raises ``N`` until the error clears 0.05, and reads no stability
    from a matrix that never does.

    The trivial multiplier is picked by its eigenvector, the one closest in
    angle to the flow on the end segment (``_flow``, the vector Newton uses
    as ``dS/domega``), not by its value: on long multi-bump orbits the phase
    responds so strongly to perturbations that the hat mesh's error in the
    derivative moves that multiplier far from 1 (``trivial_error`` then
    exceeds any gate), while the eigenvalue nearest 1 may belong to a
    strongly contracting direction.
    """
    if system.kind != "smooth":
        raise ValueError("Floquet analysis needs the differentiable family")
    if N < 20:
        raise ValueError("mesh too coarse; need N >= 20")
    N_int = _orbit_mesh(system.feedback.n) if N_int is None else N_int
    base = integrate(system, orbit.q0, orbit.omega, N=N_int)
    M = _period_map_matrix(base, N)
    mesh = np.linspace(-1.0, 0.0, N + 1)
    eig, vecs = np.linalg.eig(M)
    order = np.argsort(-np.abs(eig))
    eig, vecs = eig[order], vecs[:, order]
    phase = _flow(base, orbit.omega + mesh)
    trivial_idx = int(np.argmax(np.abs(phase @ vecs) / np.linalg.norm(vecs, axis=0)))
    trivial_err = float(np.abs(eig[trivial_idx] - 1.0))
    others = np.abs(np.delete(eig, trivial_idx))
    leading_nt = float(np.max(others)) if others.size else 0.0
    lam_u = None
    psi_u = None
    for idx in range(len(eig)):
        z = eig[idx]
        if idx != trivial_idx and abs(z.imag) < 1e-8 and z.real > 1.0 + 1e-9:
            v = np.real(vecs[:, idx])
            if np.mean(v) < 0:
                v = -v
            lam_u = float(z.real)
            psi_u = v / np.max(np.abs(v))
            break
    return FloquetReport(
        mesh_N=N,
        multipliers=tuple(eig[: min(12, len(eig))]),
        trivial_error=trivial_err,
        leading_nontrivial=leading_nt,
        unstable_multiplier=lam_u,
        unstable_eigvec=psi_u,
    )


def _resolved_floquet(system: System, orbit: PeriodicOrbit, N_int: int) -> Optional[FloquetReport]:
    """The Floquet report on the first hat mesh of 200, 400 and 800 whose trivial error is at most 0.05.

    ``N_int`` is the integration mesh that detected the orbit.  None when no
    hat mesh resolves the orbit; then no stability may be read from it.
    """
    for hat_N in (200, 400, 800):
        flo = monodromy_multipliers(system, orbit, N=hat_N, N_int=N_int)
        if flo.trivial_error <= 0.05:
            return flo
    return None


def _stages(cap: float) -> list:
    """The horizons of a staged run: 50, 100, 200, 400, ... below ``cap``, then ``cap``."""
    stages, T = [], 50.0
    while T < cap:
        stages.append(T)
        T *= 2.0
    return stages + [cap]


def find_orbit(system: System, run, N: int, cap: float, level: float = 1.0, transient: Optional[float] = None) -> tuple:
    """The package's one orbit rule: detect by stages, re-run on the layer mesh, gate by Floquet.

    ``run(N, T)`` starts a run on ``N`` steps per unit, ``T`` units past its
    anchor, and returns ``(result, traj, anchor)``; ``result.extend(T)``
    grows it in place to a later ``T``, ``traj`` with it.  Detection runs at
    each horizon of ``_stages(cap)`` after the transient ``anchor + 0.6 T``
    and stops at the first orbit that clears ``_resolved_floquet`` (the
    first orbit, for the limit system).  A given ``transient`` makes the run
    one stage, to ``cap``, with that transient.  When the cap shows no orbit
    of the smooth system, ``run`` is called once more, to the cap, on
    ``_layer_mesh`` if that is finer: that run is not staged.  Returns
    ``(result, orbit, floquet, horizon)`` of the last run; ``floquet`` is
    the ``_resolved_floquet`` report on the detection mesh, None for the
    limit system, without an orbit, or when no hat mesh resolves it, and
    ``horizon`` is the stage that decided, ``cap`` when none did.
    """
    smooth = system.kind == "smooth"
    stages = _stages(cap) if transient is None else [cap]
    result, traj, anchor = run(N, stages[0])
    for i, T in enumerate(stages):
        if i:
            result.extend(T)
        orbit = detect_periodic(traj, level, anchor + 0.6 * T if transient is None else transient)
        if orbit is not None and not smooth:
            return result, orbit, None, T
        flo = None if orbit is None else _resolved_floquet(system, orbit, N)
        if flo is not None:
            return result, orbit, flo, T
    # a mesh that misses the transition layers can lock an orbit's period to
    # the grid or push its return residual over the gate
    N_layer = _layer_mesh(system, traj) if smooth and orbit is None else N
    if N_layer > N:
        N = N_layer
        result, traj, anchor = run(N, cap)
        orbit = detect_periodic(traj, level, anchor + 0.6 * cap if transient is None else transient)
        return result, orbit, None if orbit is None else _resolved_floquet(system, orbit, N), cap
    return result, orbit, None, cap


# ---------------------------------------------------------------------------
# small orbits near the interior equilibrium
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfSearchResult:
    orbit: PeriodicOrbit
    alpha: float
    system: System
    data: HopfData
    amplitude: float      # max |q - equilibrium|


def _newton_periodic(
    system: System,
    u0: np.ndarray,
    mesh: np.ndarray,
    omega0: float,
    ref_dphase: np.ndarray,
    center: float,
) -> Optional[tuple]:
    """Damped, deflated Newton solve of ``segment-map(u, omega) = u`` with a phase pin.

    At most 30 steps, each integrating one period at N=200, until the
    residual falls below 1e-10.  The equilibrium ``u = center`` is a root
    too; it is deflated out of Newton's reach (Farrell, Birkisson & Funke,
    SIAM J. Sci. Comput. 37 (2015) A2026) by scaling each Newton step
    ``delta`` as Newton on ``m(u) F`` would, with ``m(u) = 1/|u - center|^2
    + 1`` in the trapezoid norm of the phase pin.  A step then moves ``u``
    by at most a quarter of its amplitude ``max|u - center|``.  An iterate
    that is not finite or has a negative node ends the attempt (None).
    """
    N = len(mesh) - 1
    u = u0.copy()
    omega = omega0
    w = np.full(N + 1, 1.0 / N)
    w[0] *= 0.5
    w[-1] *= 0.5
    for _ in range(30):
        hist = HistoryFunction.from_samples(mesh, u)
        base = integrate(system, hist, omega, N=200)
        Su = base.eval_many(omega + mesh)
        R = Su - u
        phase = float(np.dot(w * ref_dphase, u - center))
        res = max(float(np.max(np.abs(R))), abs(phase))
        if res < 1e-10:
            return u, omega, base, res
        J = np.zeros((N + 2, N + 2))
        J[: N + 1, : N + 1] = _period_map_matrix(base, N) - np.eye(N + 1)
        J[: N + 1, N + 1] = _flow(base, omega + mesh)  # dS/domega
        J[N + 1, : N + 1] = w * ref_dphase
        rhs = np.concatenate([-R, [-phase]])
        try:
            step = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            return None
        dev = u - center
        norm2 = float(np.dot(w, dev * dev))
        step /= 1.0 + 2.0 * float(np.dot(w * dev, step[: N + 1])) / (norm2 * (1.0 + norm2))
        cap = 0.25 * max(1e-3, float(np.max(np.abs(dev))) + 1e-3)
        scale = min(1.0, cap / (float(np.max(np.abs(step[: N + 1]))) + 1e-30))
        u = u + scale * step[: N + 1]
        omega = omega + scale * float(step[N + 1])
        if not (0.05 < omega < 50.0) or not np.all(np.isfinite(u)) or np.any(u < 0.0):
            return None
    return None


def hopf_orbit_search(
    c: float,
    d: float,
    k: float,
    n: int,
    j: int = 1,
    alphas=None,
) -> Optional[HopfSearchResult]:
    """Scan the detuning grid for a small orbit around the interior equilibrium.

    At each ``alpha`` the parameters are ``(1+alpha) * beta * (c, d)``, and
    ``_newton_periodic`` solves the period-map fixed point once, from
    ``xi + (xi/4) cos(theta_n * s)`` on a 100-step segment mesh with period
    guess ``2 pi / theta_n``.  The orbit is a saddle (the strong real
    instability survives), so forward simulation cannot find it.  Returns the
    first success with amplitude in [1e-4, 0.2] and period within a factor 2
    of the guess, or None.  ``alphas=None`` scans the default grid, +alpha
    first: orbits exist on one side only.  The equilibrium is ``hopf_data``'s
    ``xi1_n`` (the rescale keeps b/a); the orbit starts on the last Newton
    base, whose history is ``q0``, with the Newton residual.
    """
    mesh = np.linspace(-1.0, 0.0, 101)
    for alpha in _HOPF_ALPHAS if alphas is None else alphas:
        hd = hopf_data(c, d, k, n, j=j, alpha=alpha)
        system = System.smooth(hd.a_n, hd.b_n, k=k, n=n)
        xi = hd.xi1_n
        u0 = xi + 0.25 * xi * np.cos(hd.theta_n * mesh)
        ref_dphase = -np.sin(hd.theta_n * mesh) * hd.theta_n
        got = _newton_periodic(system, u0, mesh, hd.omega_guess, ref_dphase, xi)
        if got is None:
            continue
        u, omega, base, res = got
        amp = float(np.max(np.abs(u - xi)))
        if 1e-4 <= amp <= 0.2 and 0.5 * hd.omega_guess < omega < 2.0 * hd.omega_guess:
            orbit = _orbit_record(base, 0.0, omega, xi, res)
            return HopfSearchResult(orbit=orbit, alpha=alpha, system=system, data=hd, amplitude=amp)
    return None


# ---------------------------------------------------------------------------
# connection diagram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionDiagram:
    c: float
    d: float
    n: int
    regime: str                     # "below" | "above" | "critical-or-unknown"
    regime_evidence: dict
    minus_limit: str                # "ZERO" | "UNRESOLVED"
    minus_evidence: dict
    plus_limit: str                 # "ZERO" | "PERIODIC" | "ATTRACTOR" | "UNRESOLVED"
    plus_evidence: dict
    hopf: Optional[dict] = None
    unresolved: tuple = ()
    orbit: Optional[PeriodicOrbit] = None   # the plus branch's periodic orbit

    def to_dict(self) -> dict:
        out = {
            "c": self.c, "d": self.d, "n": self.n,
            "regime": self.regime, "regime_evidence": self.regime_evidence,
            "minus": {"limit": self.minus_limit, **self.minus_evidence},
            "plus": {"limit": self.plus_limit, **self.plus_evidence},
            "unresolved": list(self.unresolved),
        }
        if self.hopf is not None:
            out["hopf"] = self.hopf
        return out


def _disk_fate(system: System, seed: HistoryFunction, T: float, N: int) -> dict:
    """The fate of one unstable-disk seed, run by stages up to ``T`` from ``N`` steps per unit.

    ORBIT when ``find_orbit`` (anchored at the seed, as the plus branch at
    its marker) returns a Floquet report; otherwise ZERO when the last run's
    ``max|x|`` on ``[T - 5, T]`` is below 1e-3, and UNRESOLVED when it is
    not.  ``horizon`` is the stage that decided.
    """
    def run(N_run, T_run):
        traj = integrate(system, seed, T_run, N=N_run)
        return traj, traj, 0.0

    traj, orbit, flo, horizon = find_orbit(system, run, N, T)
    if flo is not None:
        return {"fate": "ORBIT", "omega": orbit.omega, "horizon": horizon}
    tail_max = float(np.max(np.abs(traj.eval_many(np.linspace(T - 5.0, T, 501)))))
    return {"fate": "ZERO" if tail_max < 1e-3 else "UNRESOLVED", "tail_max": tail_max, "horizon": horizon}


def _tail(sol) -> np.ndarray:
    """A branch's values on ``[end - 3, end - 0.5]``, 301 samples."""
    end = sol.domain[1]
    return sol.eval_many(np.linspace(end - 3.0, end - 0.5, 301))


def connection_diagram(
    c: float,
    d: float,
    k: float,
    n: int,
    with_hopf: bool = False,
    hopf_alphas=None,
    N: int = 200,
    T_orbit: float = 500.0,
    T_fate: float = 250.0,
) -> ConnectionDiagram:
    """Assemble the fate of the leading unstable directions at one parameter set.

    The regime is evidence only: the limit system's probe at ``(c, d)``
    (``classify_zd``) puts ``d`` below or above the critical gain d*, and an
    unresolved probe reads ``critical-or-unknown`` and adds ``regime`` to
    ``unresolved``.  The minus branch must collapse: its ``tail_max`` must
    fall below 1e-6.  The plus branch has one rule on both sides of the
    threshold: it is shot by stages up to the cap ``max(T_orbit, 20/c)``
    through ``find_orbit`` from ``max(400, 4n)`` steps per unit, and
    ``horizon`` is the stage that decided.  It is PERIODIC when the Floquet
    matrix on its detection mesh resolves the orbit, ZERO when its
    ``tail_max`` is below 1e-5, UNRESOLVED (adding ``plus`` to
    ``unresolved``) when its tail stays within 1e-3 of 0 or of the
    equilibrium, and otherwise ATTRACTOR, with the largest gap between its
    returns to within 0.05 of the cutoff.  ``band`` holds the branch's exact
    extremes after its anchor.  With ``with_hopf`` the small saddle orbit
    (first band) is computed, and each of its two unstable-disk seeds is run
    by stages up to the cap ``T_fate`` by the same rule, ``find_orbit`` from
    ``max(N, max(400, 4n))`` steps per unit; no orbit adds ``hopf`` to
    ``unresolved``, an UNRESOLVED disk fate ``hopf-disk``.
    ``ParameterError("d")`` is raised when the smooth system has no
    interior equilibrium below 0.9.
    """
    N_orbit = _orbit_mesh(n)
    unresolved: list[str] = []
    cls = classify_zd(c, d, k=k)
    if cls.verdict == HITS_ONE:
        regime, regime_ev = "above", {"probe": cls.verdict, "tau0": cls.tau0}
    elif cls.verdict == IN_D:
        regime, regime_ev = "below", {"probe": cls.verdict}
    else:
        regime, regime_ev = "critical-or-unknown", {"probe": cls.verdict}
        unresolved.append("regime")

    system = System.smooth(c, d, k=k, n=n)

    try:
        minus = shoot_branch(system, "minus", T=max(40.0, 16.0 / c), N=N)
    except ParameterError as exc:  # the default marker fits; only the gain can fail
        raise ParameterError("d", str(exc)) from None
    minus_ev = {"tail_max": float(np.max(np.abs(_tail(minus))))}
    minus_limit = "ZERO" if minus_ev["tail_max"] < 1e-6 else "UNRESOLVED"
    if minus_limit != "ZERO":
        unresolved.append("minus")

    def shoot(N_run, T):
        sol = shoot_branch(system, "plus", T=T, N=N_run)
        return sol, sol.traj, sol.shift

    # 20/c keeps a collapse e^-20 deep when T_orbit is short
    plus, orbit, flo, horizon = find_orbit(system, shoot, N_orbit, max(T_orbit, 20.0 / c))
    t2 = plus.landmarks.t2
    plus_ev = {"band": list(plus.traj.extremes(plus.shift, plus.traj.T - 0.5)), "t2": t2, "horizon": horizon}
    # an orbit whose trivial multiplier stays off 1 on every hat mesh is dropped
    if flo is not None:
        plus_limit = "PERIODIC"
        plus_ev.update({"omega": orbit.omega, "orbit_min": orbit.vmin, "orbit_max": orbit.vmax,
                        "floquet_trivial_error": flo.trivial_error,
                        "floquet_leading_nontrivial": flo.leading_nontrivial})
    else:
        orbit = None
        tail = _tail(plus)
        plus_ev["tail_max"] = float(np.max(np.abs(tail)))
        if plus_ev["tail_max"] < 1e-5:
            plus_limit = "ZERO"
        else:
            # a tail that has not left the equilibrium or reached 0 shows no attractor
            plus_ev["equilibrium_gap"] = float(np.max(np.abs(tail - plus.equilibrium)))
            if plus_ev["tail_max"] <= 1e-3 or plus_ev["equilibrium_gap"] <= 1e-3:
                plus_limit = "UNRESOLVED"
                unresolved.append("plus")
            else:
                plus_limit = "ATTRACTOR"
                plus_ev["recurrence_max_gap"] = _recurrence_gap(plus, t2)
                if plus_ev["recurrence_max_gap"] is None:
                    unresolved.append("plus-recurrence")

    hopf_block = None
    if with_hopf:
        hopf_block = _hopf_block(c, d, k, n, T_fate, max(N, N_orbit), hopf_alphas)
        if hopf_block.get("orbit") is None:
            unresolved.append("hopf")
        elif any(isinstance(f, dict) and f["fate"] == "UNRESOLVED" for f in hopf_block["disk_fates"].values()):
            unresolved.append("hopf-disk")

    return ConnectionDiagram(
        c=c, d=d, n=n,
        regime=regime, regime_evidence=regime_ev,
        minus_limit=minus_limit, minus_evidence=minus_ev,
        plus_limit=plus_limit, plus_evidence=plus_ev,
        hopf=hopf_block,
        unresolved=tuple(unresolved),
        orbit=orbit,
    )


def _recurrence_gap(plus, t2: Optional[float]) -> Optional[float]:
    if t2 is None:
        return None
    tt = np.linspace(t2, plus.domain[1] - 0.5, 20001)
    vals = plus.eval_many(tt)
    near = np.abs(vals - 1.0) <= 0.05
    if not np.any(near):
        return None
    times = tt[near]
    gaps = np.diff(times)
    lead = times[0] - t2
    return float(max(lead, np.max(gaps) if gaps.size else 0.0))


def unstable_disk_runs(system: System, orbit: PeriodicOrbit) -> tuple[FloquetReport, list]:
    """Floquet report of a saddle orbit and the ``(side, seed)`` histories of its unstable disk.

    Each seed is the orbit's anchor segment pushed by ``+5e-3 psi`` (side
    "plus") or ``-5e-3 psi`` (side "minus"), clipped at zero, where ``psi``
    is the unstable eigenvector at hat mesh N=120 (nodes ``linspace(-1, 0,
    121)``).  The caller integrates each seed on its own horizon and mesh.
    The list is empty when no real multiplier lies above one.
    """
    flo = monodromy_multipliers(system, orbit, N=120)
    if flo.unstable_eigvec is None:
        return flo, []
    psi = np.interp(_SEG_MESH, np.linspace(-1.0, 0.0, flo.mesh_N + 1), flo.unstable_eigvec)
    q_vals = orbit.q0.eval(_SEG_MESH)
    return flo, [
        (side, HistoryFunction.from_samples(_SEG_MESH, np.maximum(q_vals + sgn * 5e-3 * psi, 0.0)))
        for side, sgn in (("plus", 1.0), ("minus", -1.0))
    ]


def _hopf_block(c, d, k, n, T_fate, N, alphas=None) -> dict:
    # fates are decided in the rescaled system, whose own stable orbit
    # differs slightly from the base one; they are therefore self-detected
    found = hopf_orbit_search(c, d, k, n, alphas=alphas)
    if found is None:
        return {"orbit": None}
    orbit, system = found.orbit, found.system
    flo, seeds = unstable_disk_runs(system, orbit)
    fates = {side: _disk_fate(system, seed, T_fate, N) for side, seed in seeds}
    return {
        "orbit": orbit.to_dict(),
        "alpha": found.alpha,
        "amplitude": found.amplitude,
        "omega_reference": found.data.omega_guess,
        "a_n": found.data.a_n, "b_n": found.data.b_n,
        "unstable_multiplier": flo.unstable_multiplier,
        "disk_fates": fates or {"note": "no real multiplier above one found"},
    }
