import ast
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ddelab import periodic
from ddelab.dde import System, Trajectory, _march, integrate, segment_at
from ddelab.history import HistoryFunction
from ddelab.manifold import shoot_branch
from ddelab.periodic import (
    _interp_columns,
    detect_periodic,
    find_orbit,
    hopf_orbit_search,
    monodromy_multipliers,
)
from ddelab.scenarios import run_scenario
from ddelab.threshold import UNRESOLVED, ZClassification

HOPF_C = 5.0 * math.pi / (3.0 * math.sqrt(3.0))


class TestDetect:
    def test_constant_trajectory_has_no_orbit(self):
        traj = integrate(System.limit(1.0, 2.0), HistoryFunction.constant(0.5), 60.0)
        assert detect_periodic(traj, level=0.5, transient=20.0) is None

    def test_figure_regime_orbit(self, x1_orbit_n100):
        _, _, orbit = x1_orbit_n100
        assert orbit.omega > 1.0
        assert orbit.residual < 1e-6
        assert orbit.vmin < 1.0 < orbit.vmax

    def test_period_mesh_stable(self, x1_orbit_n100):
        system, _, orbit = x1_orbit_n100
        traj = integrate(system, HistoryFunction.constant(1.2), 400.0, N=800)
        refined = detect_periodic(traj, level=1.0, transient=300.0)
        assert refined is not None
        assert abs(refined.omega - orbit.omega) / orbit.omega < 1e-4

    def test_orbit_extremes_are_the_dense_outputs(self, x1_orbit_n100):
        _, traj, orbit = x1_orbit_n100
        sampled = traj.eval_many(np.linspace(orbit.anchor, orbit.anchor + orbit.omega, 200_001))
        assert orbit.vmin <= sampled.min() < orbit.vmin + 1e-7
        assert orbit.vmax - 1e-7 < sampled.max() <= orbit.vmax

    def test_minimal_period(self, x1_orbit_n100):
        _, traj, orbit = x1_orbit_n100
        from ddelab.periodic import _segment_distance

        for frac in (2.0, 3.0):
            assert _segment_distance(traj, orbit.anchor, orbit.anchor + orbit.omega / frac) > 1e-3

    @pytest.mark.parametrize("delta", [1e-4, 4e-4, 6e-4])
    def test_nearly_period_doubled_orbit_keeps_its_period(self, delta):
        """x = 1 + sin(2 pi t / 3) / 2 + delta cos(pi t / 3) has period 6, and 3 is not a period.

        The laps of consecutive crossings alternate, so the smallest lag with
        constant laps is 2; a state that comes back near t + 3 must not
        replace the true period.
        """
        w = 2.0 * math.pi / 3.0

        def x(t):
            return 1.0 + 0.5 * np.sin(w * t) + delta * np.cos(0.5 * w * t)

        def slope(t):
            return 0.5 * w * np.cos(w * t) - 0.5 * w * delta * np.sin(0.5 * w * t)

        T, N = 200.0, 400
        ts = np.linspace(0.0, T, int(T) * N + 1)
        traj = Trajectory(
            system=System.smooth(1.0, 7.38, n=100), history=HistoryFunction.from_callable(x), N=N, T=T,
            ts=ts, xs=x(ts), dl=slope(ts[:-1]), dr=slope(ts[1:]), side=np.zeros(ts.size - 1),
        )
        orbit = detect_periodic(traj, level=1.0, transient=100.0)
        assert orbit is not None
        assert abs(orbit.omega - 6.0) < 1e-9
        assert orbit.residual < 1e-12

    @pytest.mark.parametrize("T_orbit", [50.0, 100.0, 200.0])
    def test_short_horizon_finds_the_period(self, x1_diagram, T_orbit):
        """The x1 plus branch gives the same period over a short horizon as over the diagram's 500."""
        system = System.smooth(1.0, 7.38, n=200)

        def shoot(N_run, T):
            sol = shoot_branch(system, "plus", T=T, N=N_run)
            return sol, sol.traj, sol.shift

        _, orbit, _, _ = find_orbit(system, shoot, periodic._orbit_mesh(200), T_orbit)
        assert orbit is not None
        assert abs(orbit.omega / x1_diagram.orbit.omega - 1.0) < 1e-9

    def test_anchor_within_a_period_of_the_window_checks_the_next_period(self, monkeypatch):
        """No full period lies before the anchor, so the return must also close one period after it."""
        traj = integrate(System.smooth(1.0, 7.38, n=100), HistoryFunction.constant(1.2), 104.3, N=400)
        seen = []
        distance = periodic._segment_distance

        def recorded(tr, t_a, t_b):
            seen.append((t_a, t_b, distance(tr, t_a, t_b)))
            return seen[-1][2]

        monkeypatch.setattr(periodic, "_segment_distance", recorded)
        # level 1.9 is crossed upward twice a period, and the window from 95.44 holds five of those crossings
        orbit = detect_periodic(traj, level=1.9, transient=95.44)
        assert orbit is not None and abs(orbit.omega - 2.8337906) < 1e-6
        assert orbit.anchor - orbit.omega < traj.crossings(1.9, "up", t_lo=95.44)[0][0]
        (a0, b0, r0), (a1, b1, r1) = seen
        assert (a0, b0) == (orbit.anchor, orbit.anchor + orbit.omega)
        assert (a1, b1) == (orbit.anchor + orbit.omega, orbit.anchor + 2 * orbit.omega)
        assert orbit.residual == r1 > r0

    def test_return_checked_at_one_anchor_only_is_refused(self, monkeypatch):
        """No second period fits before the anchor or after it: the return cannot close at two anchors."""
        traj = integrate(System.smooth(1.0, 7.38, n=100), HistoryFunction.constant(1.2), 100.0, N=400)
        seen = []
        distance = periodic._segment_distance

        def recorded(tr, t_a, t_b):
            seen.append((t_a, t_b))
            return distance(tr, t_a, t_b)

        monkeypatch.setattr(periodic, "_segment_distance", recorded)
        assert detect_periodic(traj, level=1.9, transient=94.02) is None
        # the one return the window holds: a 2.8338 period from the anchor, which closes to 1.5e-10
        ((t_a, t_b),) = seen
        assert abs(t_b - t_a - 2.8337906) < 1e-6 and distance(traj, t_a, t_b) < 1e-8
        assert t_a - (t_b - t_a) < traj.crossings(1.9, "up", t_lo=94.02)[0][0] and t_b + (t_b - t_a) > traj.T


class TestMonodromy:
    def test_trivial_multiplier_near_one(self, x1_orbit_n100):
        system, _, orbit = x1_orbit_n100
        rep = monodromy_multipliers(system, orbit, N=200)
        assert rep.trivial_error < 1e-3

    def test_stable_orbit_contracts(self, x1_orbit_n100):
        system, _, orbit = x1_orbit_n100
        rep = monodromy_multipliers(system, orbit, N=200)
        assert rep.leading_nontrivial < 1.0

    def test_error_decreases_with_mesh(self, x1_orbit_n100):
        system, _, orbit = x1_orbit_n100
        coarse = monodromy_multipliers(system, orbit, N=40, N_int=400)
        fine = monodromy_multipliers(system, orbit, N=160, N_int=400)
        assert fine.trivial_error < coarse.trivial_error

    def test_limit_system_rejected(self, x1_orbit_n100):
        _, _, orbit = x1_orbit_n100
        with pytest.raises(ValueError):
            monodromy_multipliers(System.limit(1.0, 7.38), orbit)

    def test_coarse_mesh_rejected(self, x1_orbit_n100):
        system, _, orbit = x1_orbit_n100
        with pytest.raises(ValueError):
            monodromy_multipliers(system, orbit, N=10)

    def test_columns_interpolate_like_np_interp(self):
        """The period map's hat values, column by column, to the bit."""
        rng = np.random.default_rng(0)
        mesh = np.linspace(-1.0, 0.0, 21)
        x = np.concatenate([mesh, [-1.5, 0.5], rng.uniform(-1.0, 0.0, size=60)])
        fp = np.hstack([np.eye(21), rng.normal(size=(21, 3))])
        got = _interp_columns(x, mesh, fp)
        for i in range(fp.shape[1]):
            assert got[:, i].tobytes() == np.interp(x, mesh, fp[:, i]).tobytes()

    @pytest.mark.parametrize("variational", [False, True])
    def test_hat_columns_march_together_as_alone(self, variational):
        """Hat columns marched as one block give each column's lone scalar march, to the bit."""
        system = System.smooth(1.0, 7.38, n=20)
        mesh = np.linspace(-1.0, 0.0, 9)
        hats = np.eye(9)[:, 2:7]

        def forcing(s, v):  # a linear time-varying forcing, as the variational equation's
            return v * np.cos(3.0 * s).reshape((-1,) + (1,) * (v.ndim - 1))

        def march(history):
            return list(_march(system, history, 3.5, 150, [], forcing if variational else None))

        block = march(HistoryFunction.from_callable(lambda s: _interp_columns(s, mesh, hats)))
        assert len(block) == 4
        for i in range(hats.shape[1]):
            alone = march(HistoryFunction.from_callable(lambda s: np.interp(s, mesh, hats[:, i])))
            for b, a in zip(block, alone, strict=True):
                assert b[0].tobytes() == a[0].tobytes()
                for k in (1, 2, 3):
                    assert b[k][:, i].tobytes() == a[k].tobytes()


def test_periodic_has_no_stepper_of_its_own():
    """The period map marches through ``dde._march``, so periodic imports no stepping parts."""
    tree = ast.parse(Path(periodic.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"_stage_grid", "_rk4_affine_steps"} == set()
    assert "_march" in imported


def _callers(path: Path, name: str) -> set:
    """The functions (methods included) in ``path`` whose bodies call ``name``."""
    callers = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(fn.name)
    return callers


def test_one_orbit_rule():
    """In the package, only ``find_orbit`` calls ``detect_periodic``, which takes no tolerance."""
    callers = set().union(*(_callers(path, "detect_periodic") for path in Path(periodic.__file__).parent.glob("*.py")))
    assert callers == {"find_orbit"}
    assert list(inspect.signature(detect_periodic).parameters) == ["traj", "level", "transient"]


def test_one_orbit_record():
    """Only ``_orbit_record`` builds a ``PeriodicOrbit``, and no orbit path re-scans for the equilibrium."""
    package = Path(periodic.__file__).parent
    assert set().union(*(_callers(path, "PeriodicOrbit") for path in package.glob("*.py"))) == {"_orbit_record"}
    for module in ("periodic.py", "scenarios.py"):
        assert _callers(package / module, "stationary_points") == set()


def test_one_plus_branch_rule():
    """``connection_diagram`` takes no ``dstar`` and never branches on its regime: the regime is evidence only."""
    assert "dstar" not in inspect.signature(periodic.connection_diagram).parameters
    fn = next(node for node in ast.walk(ast.parse(Path(periodic.__file__).read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "connection_diagram")
    compared = {
        name.id for node in ast.walk(fn) if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators) for name in ast.walk(operand) if isinstance(name, ast.Name)
    }
    assert "regime" not in compared


def test_one_stage_rule():
    """The stage transient ``anchor + 0.6 T`` is written in ``find_orbit`` alone: callers pass runs, not transients."""
    inside = total = 0
    for path in Path(periodic.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        total += sum(isinstance(node, ast.Constant) and node.value == 0.6 for node in ast.walk(tree))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "find_orbit":
                inside += sum(isinstance(node, ast.Constant) and node.value == 0.6 for node in ast.walk(fn))
    assert inside > 0 and total == inside
    assert periodic._stages(500.0) == [50.0, 100.0, 200.0, 400.0, 500.0]
    assert periodic._stages(250.0) == [50.0, 100.0, 200.0, 250.0]
    assert periodic._stages(40.0) == [40.0]


def test_one_flow():
    """Newton's ``dS/domega`` and the trivial Floquet direction both come from ``_flow``; no difference quotient is left."""
    assert {"_newton_periodic", "monodromy_multipliers"} <= _callers(Path(periodic.__file__), "_flow")
    assert not hasattr(periodic, "_dense_slope")


def test_flow_is_the_newton_column_to_the_bit(monkeypatch):
    """On the converged x3 base, ``_flow`` gives the bits of the inline expression Newton used before it."""
    solved = []
    newton = periodic._newton_periodic

    def kept(system, *args):
        solved.append((system, newton(system, *args)))
        return solved[-1][1]

    monkeypatch.setattr(periodic, "_newton_periodic", kept)
    assert hopf_orbit_search(HOPF_C, 7.95, 2.0, 100) is not None
    system, (_, omega, base, _) = solved[-1]
    mesh = np.linspace(-1.0, 0.0, 101)
    Su = base.eval_many(omega + mesh)
    xi_end = base.eval_many(np.maximum(omega + mesh - 1.0, -1.0 + 1e-12))
    dS_domega = -system.rate * Su + system.gain * system.feedback.value(np.maximum(xi_end, 0.0))
    assert periodic._flow(base, omega + mesh).tobytes() == dS_domega.tobytes()


def _central_slope(traj, t):
    """The difference quotient a thousandth of a step wide that picked the trivial eigenvector before ``_flow``."""
    d = 1e-3 / traj.N
    hi = np.minimum(t + d, traj.T)
    lo = t - d
    return (traj.eval_many(hi) - traj.eval_many(lo)) / (hi - lo)


@pytest.mark.parametrize("case,N", [("x1", 200), ("x1", 400), ("x3", 120)])
def test_flow_picks_the_central_difference_trivial_eigenvector(x1_orbit_n100, case, N):
    if case == "x1":
        system, _, orbit = x1_orbit_n100
    else:
        found = hopf_orbit_search(HOPF_C, 7.95, 2.0, 100)
        system, orbit = found.system, found.orbit
    base = integrate(system, orbit.q0, orbit.omega, N=periodic._orbit_mesh(system.feedback.n))
    _, vecs = np.linalg.eig(periodic._period_map_matrix(base, N))
    t = orbit.omega + np.linspace(-1.0, 0.0, N + 1)

    def trivial(phase):
        return int(np.argmax(np.abs(phase @ vecs) / np.linalg.norm(vecs, axis=0)))

    assert trivial(periodic._flow(base, t)) == trivial(_central_slope(base, t))


def test_one_newton_seed():
    """``hopf_orbit_search`` makes one Newton attempt per detuning, and ``_newton_periodic`` has no slide stop."""
    tree = ast.parse(Path(periodic.__file__).read_text())
    fns = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    loops = [node for node in ast.walk(fns["hopf_orbit_search"]) if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1
    assert "amp0" not in {node.id for node in ast.walk(fns["_newton_periodic"]) if isinstance(node, ast.Name)}


class TestAttraction:
    def test_constant_above_cutoff_converges(self, x1_orbit_n100):
        """Histories in [1.3, 2 d/c] settle on the fixture's orbit within T = 120."""
        system, _, orbit = x1_orbit_n100
        rng = np.random.default_rng(5)
        histories = [HistoryFunction.constant(1.3)]
        for _ in range(2):
            nodes = np.linspace(-1.0, 0.0, int(rng.integers(6, 14)))
            histories.append(HistoryFunction.from_samples(nodes, rng.uniform(1.3, 2.0 * 7.38, size=nodes.size)))
        for hist in histories:
            found = detect_periodic(integrate(system, hist, 120.0, N=400), level=1.0)
            assert found is not None
            assert abs(found.omega - orbit.omega) / orbit.omega < 1e-8
            assert abs(found.vmin - orbit.vmin) < 1e-5
            assert abs(found.vmax - orbit.vmax) < 1e-5


class TestHopfSearch:
    def test_orbit_found_with_frequency_near_reference(self):
        found = hopf_orbit_search(HOPF_C, 25.0, 2.0, 100, j=1, alphas=(0.2,))
        assert found is not None
        assert found.amplitude < 0.2
        assert abs(found.orbit.omega - found.data.omega_guess) / found.data.omega_guess < 0.2
        assert found.orbit.residual < 1e-10

    def test_amplitude_shrinks_with_detuning(self):
        big = hopf_orbit_search(HOPF_C, 25.0, 2.0, 100, j=1, alphas=(0.05,))
        small = hopf_orbit_search(HOPF_C, 25.0, 2.0, 100, j=1, alphas=(0.02,))
        assert big is not None and small is not None
        assert small.amplitude < big.amplitude

    @pytest.mark.parametrize("d,omega", [(7.95, 1.197628993981989), (25.0, 1.1976289939828282)], ids=["x3", "x4"])
    def test_default_search_makes_one_newton_attempt(self, monkeypatch, d, omega):
        """The default grid's first detuning, alpha = 0.02, converges from the one seed in at most 8 period maps."""
        attempts = []  # [gain, period maps] per Newton attempt
        newton, period_map = periodic._newton_periodic, periodic._period_map_matrix

        def counted_newton(system, *args):
            attempts.append([system.gain, 0])
            return newton(system, *args)

        def counted_map(base, N):
            attempts[-1][1] += 1
            return period_map(base, N)

        monkeypatch.setattr(periodic, "_newton_periodic", counted_newton)
        monkeypatch.setattr(periodic, "_period_map_matrix", counted_map)
        found = hopf_orbit_search(HOPF_C, d, 2.0, 100)
        assert found is not None and found.alpha == 0.02
        assert found.orbit.residual < 1e-10
        assert abs(found.orbit.omega - omega) < 1e-9
        assert len(attempts) == 1 and attempts[0][0] == found.data.b_n and attempts[0][1] <= 8

    def test_orbit_scales_with_the_equilibrium(self):
        """Below the Hill layer the equation is invariant under y -> lambda y, so amp / xi1_n and omega do not move with d."""
        found = [hopf_orbit_search(HOPF_C, d, 2.0, 100) for d in (25.0, 40.0, 60.0)]
        assert all(f is not None and f.alpha == 0.02 for f in found)
        ratios = [f.amplitude / f.data.xi1_n for f in found]
        assert max(ratios) - min(ratios) < 1e-6
        assert max(f.orbit.omega for f in found) - min(f.orbit.omega for f in found) < 1e-9

    def test_orbit_starts_on_its_newton_base(self, monkeypatch):
        """``q0`` is the last Newton base's own history, and the samples are read off that base."""
        bases = []
        newton = periodic._newton_periodic

        def kept(*args):
            got = newton(*args)
            if got is not None:
                bases.append(got[2])
            return got

        monkeypatch.setattr(periodic, "_newton_periodic", kept)
        found = hopf_orbit_search(HOPF_C, 25.0, 2.0, 100, j=1, alphas=(0.2,))
        base = bases[-1]
        assert found.orbit.q0 is base.history
        assert found.orbit.anchor == 0.0 and found.orbit.level == found.data.xi1_n
        assert found.orbit.samples_t.size == 256
        assert found.orbit.samples_x.tobytes() == base.eval_many(found.orbit.samples_t).tobytes()

    def test_non_bifurcating_side_yields_nothing(self):
        assert hopf_orbit_search(HOPF_C, 25.0, 2.0, 100, j=1, alphas=(-0.05, -0.1)) is None

    def test_saddle_multiplier_and_positive_eigvec(self):
        found = hopf_orbit_search(HOPF_C, 25.0, 2.0, 100, j=1, alphas=(0.2,))
        rep = monodromy_multipliers(found.system, found.orbit, N=120)
        assert rep.unstable_multiplier is not None and rep.unstable_multiplier > 1.0
        assert rep.unstable_eigvec is not None
        assert np.min(rep.unstable_eigvec) > 0.0


class TestDiagramConsistency:
    def test_regime_below_critical_sends_both_branches_to_zero(self, dstar_c1):
        from ddelab.periodic import connection_diagram

        d_below = 1.0 + 0.5 * (dstar_c1.estimate - 1.0)
        diag = connection_diagram(1.0, float(d_below), 2.0, 100)
        assert diag.regime == "below"
        assert diag.minus_limit == "ZERO"
        assert diag.plus_limit == "ZERO"

    def test_plus_branch_collapses_just_below_the_smooth_threshold(self):
        # b*_50 is about 1.7428 here, below the limit system's d* = 1.7565
        diag = periodic.connection_diagram(1.0, 1.7, 2.0, 50)
        assert diag.regime == "below" and diag.plus_limit == "ZERO"
        assert diag.plus_evidence["tail_max"] < 1e-5
        assert {"band", "t2"} <= set(diag.plus_evidence)
        assert diag.unresolved == ()

    @pytest.mark.parametrize("d,n", [(1.744, 50), (1.756, 100)])
    def test_plus_branch_between_the_thresholds_is_periodic(self, d, n):
        """Above the smooth threshold b*_n but below d*, the plus branch reaches the stable orbit."""
        diag = periodic.connection_diagram(1.0, d, 2.0, n)
        assert diag.regime == "below"
        assert diag.plus_limit == "PERIODIC"
        assert diag.plus_evidence["floquet_trivial_error"] <= 0.05
        assert diag.plus_evidence["floquet_leading_nontrivial"] < 1.0
        assert diag.orbit is not None and diag.unresolved == ()
        # laps of about 20 units need the 200-unit stage for four up-crossings
        assert diag.plus_evidence["horizon"] == 200.0

    def test_unresolved_orbit_reads_attractor_with_its_recurrence_gap(self, monkeypatch):
        monkeypatch.setattr(periodic, "_resolved_floquet", lambda system, orbit, N_int: None)
        diag = periodic.connection_diagram(1.0, 7.38, 2.0, 200)
        assert diag.plus_limit == "ATTRACTOR"
        assert math.isfinite(diag.plus_evidence["recurrence_max_gap"])
        assert diag.plus_evidence["tail_max"] >= 1e-5
        assert diag.orbit is None and diag.unresolved == ()
        assert diag.plus_evidence["equilibrium_gap"] > 1e-3 and diag.plus_evidence["horizon"] == 500.0

    def test_unresolved_probe_leaves_the_plus_fate_to_its_rule(self, monkeypatch):
        monkeypatch.setattr(periodic, "classify_zd", lambda c, d, k: ZClassification(UNRESOLVED, c, d))
        diag = periodic.connection_diagram(1.0, 7.38, 2.0, 200)
        assert diag.regime == "critical-or-unknown"
        assert diag.unresolved == ("regime",)
        assert diag.plus_limit == "PERIODIC"

    def test_x1_orbit_is_decided_at_the_first_stage(self, x1_diagram):
        """The x1 orbit clears the gate at 50 units, with the period the one-shot 500-unit run gave."""
        assert x1_diagram.plus_evidence["horizon"] == 50.0
        assert abs(x1_diagram.plus_evidence["omega"] - 2.830945986233985) < 1e-9
        assert x1_diagram.plus_evidence["band"][1] == pytest.approx(3.0204758, abs=1e-7)

    def test_x1_plus_branch_stops_marching_at_the_first_stage(self, monkeypatch):
        """Work-count guard: the plus trajectory holds the 50-unit stage, not the 500-unit cap."""
        sols = []

        def kept(*args, **kwargs):
            sols.append(shoot_branch(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(periodic, "shoot_branch", kept)
        periodic.connection_diagram(1.0, 7.38, 2.0, 200)
        plus = next(sol for sol in sols if sol.branch == "plus")
        t_pre = math.log(abs(plus.kappa) / plus.eps_seed) / plus.lambda0
        assert plus.traj.N == 800
        assert len(plus.traj.ts) - 1 <= (1.5 * t_pre + 56.0) * 800

    def test_layer_mesh_orbits_keep_their_bits(self, x2_diagram, hopf_diagram):
        """Orbits found only on the layer mesh come from the one-shot run to the cap, as before the stages."""
        expected = {
            "x2": (x2_diagram, 38.07504797730144, 0.011208586238615315, 2.0640467472536188e-08),
            "x4": (hopf_diagram, 7.584051445013756, 0.005125151952712015, 0.3808789181471886),
        }
        for diag, omega, trivial, leading in expected.values():
            ev = diag.plus_evidence
            assert (ev["omega"], ev["floquet_trivial_error"], ev["floquet_leading_nontrivial"]) == (omega, trivial, leading)
            assert ev["horizon"] == 500.0
        plus_disk = hopf_diagram.hopf["disk_fates"]["plus"]
        assert plus_disk == {"fate": "ORBIT", "omega": 1.807234443785461, "horizon": 300.0}
        assert hopf_diagram.hopf["disk_fates"]["minus"]["horizon"] == 300.0

    def test_figure_regime_is_periodic(self, x1_diagram):
        assert x1_diagram.regime == "above"
        assert x1_diagram.minus_limit == "ZERO"
        assert x1_diagram.plus_limit == "PERIODIC"

    def test_verdicts_never_contradict_regime(self, x1_diagram, dstar_c1):
        assert not (x1_diagram.plus_limit == "ZERO" and 7.38 > dstar_c1.estimate * 1.001)
        assert 7.38 > dstar_c1.estimate * 1.001

    def test_serializes(self, x1_diagram):
        doc = x1_diagram.to_dict()
        assert doc["minus"]["limit"] == "ZERO"
        assert doc["plus"]["limit"] == "PERIODIC"

    def test_figure_orbits_clear_the_trivial_gate(self, x1_diagram, x2_diagram, hopf_diagram):
        for diag in (x1_diagram, x2_diagram, hopf_diagram):
            assert diag.plus_limit == "PERIODIC"
            assert diag.plus_evidence["floquet_trivial_error"] <= 0.05
            assert diag.plus_evidence["floquet_leading_nontrivial"] < 1.0
            assert "floquet_method" not in diag.plus_evidence

    def test_resolved_disk_fates_leave_nothing_unresolved(self, hopf_diagram):
        assert hopf_diagram.unresolved == ()

    def test_x4_period_is_not_locked_to_the_grid(self, hopf_diagram):
        steps = hopf_diagram.plus_evidence["omega"] * 400
        assert abs(steps - round(steps)) > 1e-3

    def test_disk_orbit_is_not_locked_to_the_grid(self, hopf_diagram):
        steps = hopf_diagram.hopf["disk_fates"]["plus"]["omega"] * 400
        assert abs(steps - round(steps)) > 1e-3

    def test_periodic_task_finds_the_diagram_orbit(self, x1_diagram, tmp_path):
        doc = {"name": "x1-orbit", "task": "periodic", "system": {"kind": "smooth", "a": 1, "b": 7.38, "n": 200}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        res = run_scenario(str(path), out_dir=str(tmp_path / "out"))
        got = json.loads((tmp_path / "out" / "orbit.json").read_text())
        assert not res.unresolved and got["found"]
        assert abs(got["omega"] / x1_diagram.orbit.omega - 1.0) < 1e-6

    def test_periodic_task_steps_its_hat_mesh_to_the_gate(self, tmp_path):
        # the hat-200 matrix leaves the trivial multiplier 0.077 off 1 here
        doc = {"name": "p", "task": "periodic", "system": {"kind": "smooth", "a": 2, "b": 10, "n": 200}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        res = run_scenario(str(path), out_dir=str(tmp_path / "out"))
        got = json.loads((tmp_path / "out" / "orbit.json").read_text())
        assert not res.unresolved and got["found"]
        assert got["floquet"]["mesh_N"] == 400
        assert got["floquet"]["trivial_error"] <= 0.05

    def test_periodic_task_without_a_resolving_mesh_is_unresolved(self, tmp_path, monkeypatch):
        monkeypatch.setattr(periodic, "_resolved_floquet", lambda system, orbit, N_int: None)
        doc = {"name": "p", "task": "periodic", "system": {"kind": "smooth", "a": 2, "b": 10, "n": 200}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        res = run_scenario(str(path), out_dir=str(tmp_path / "out"))
        got = json.loads((tmp_path / "out" / "orbit.json").read_text())
        assert res.unresolved and got["found"]
        assert got["floquet"] is None


def _spied_run(system, calls, trajs):
    """A ``find_orbit`` run from the constant history 1.2 that records its meshes and trajectories."""
    def run(N, T):
        calls.append(N)
        trajs.append(integrate(system, HistoryFunction.constant(1.2), T, N=N))
        return trajs[-1], trajs[-1], 0.0
    return run


class TestFindOrbit:
    def test_missed_gate_reruns_once_on_the_layer_mesh(self, monkeypatch):
        # x1 on 400 steps per unit leaves the return residual above the gate
        system = System.smooth(1.0, 7.38, n=200)
        calls, trajs, floquet_meshes = [], [], []
        inner = periodic.monodromy_multipliers

        def spy(system, orbit, N=200, N_int=None):
            floquet_meshes.append(N_int)
            return inner(system, orbit, N=N, N_int=N_int)

        monkeypatch.setattr(periodic, "monodromy_multipliers", spy)
        result, orbit, flo, _ = periodic.find_orbit(system, _spied_run(system, calls, trajs), 400, 500.0, transient=350.0)
        N_layer = periodic._layer_mesh(system, trajs[0])
        assert N_layer > 400 and calls == [400, N_layer]
        assert result is trajs[1] and orbit is not None
        assert flo is not None and flo.trivial_error <= 0.05
        assert set(floquet_meshes) == {N_layer}

    def test_stages_grow_one_run_until_an_orbit_clears_the_gate(self, monkeypatch):
        system = System.smooth(1.0, 7.38, n=200)
        calls, trajs, gated = [], [], []
        gate = periodic._resolved_floquet

        def late_gate(system, orbit, N_int):
            gated.append(trajs[0].T)
            return gate(system, orbit, N_int) if trajs[0].T >= 200.0 else None

        monkeypatch.setattr(periodic, "_resolved_floquet", late_gate)
        result, orbit, flo, horizon = periodic.find_orbit(system, _spied_run(system, calls, trajs), 800, 500.0)
        assert calls == [800] and result is trajs[0]
        assert gated == [50.0, 100.0, 200.0] and horizon == 200.0 and result.T == 200.0
        assert orbit is not None and flo is not None

    def test_limit_system_runs_once_without_floquet(self):
        system = System.limit(1.0, 7.38)
        calls, trajs = [], []
        _, orbit, flo, _ = periodic.find_orbit(system, _spied_run(system, calls, trajs), 200, 200.0, transient=140.0)
        assert calls == [200]
        assert orbit is not None and flo is None
