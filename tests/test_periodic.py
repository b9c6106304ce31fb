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
from ddelab.spectrum import hopf_data

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

        def shoot(N_run):
            sol = shoot_branch(system, "plus", T=T_orbit, N=N_run)
            return sol, sol.traj, sol.shift + 0.6 * T_orbit

        _, orbit, _ = find_orbit(system, shoot, periodic._orbit_mesh(200))
        assert orbit is not None
        assert abs(orbit.omega / x1_diagram.orbit.omega - 1.0) < 1e-9


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

    def test_attempts_sliding_onto_the_equilibrium_stop_early(self, monkeypatch):
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
        found = hopf_orbit_search(HOPF_C, 7.95, 2.0, 100)
        assert found is not None and found.alpha == 0.02
        assert found.orbit.residual < 1e-10
        assert sum(maps for _, maps in attempts) <= 20
        # without the stop, each alpha = -0.02 attempt takes 14 to 19 maps to reach the equilibrium
        gain = hopf_data(HOPF_C, 7.95, 2.0, 100, alpha=-0.02).b_n
        sliding = [maps for g, maps in attempts if g == gain]
        assert len(sliding) == 3 and max(sliding) <= 3

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


def _spied_run(system, T, transient, calls, trajs):
    """A ``find_orbit`` run from the constant history 1.2 that records its meshes and trajectories."""
    def run(N):
        calls.append(N)
        trajs.append(integrate(system, HistoryFunction.constant(1.2), T, N=N))
        return trajs[-1], trajs[-1], transient
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
        result, orbit, flo = periodic.find_orbit(system, _spied_run(system, 500.0, 350.0, calls, trajs), 400)
        N_layer = periodic._layer_mesh(system, trajs[0])
        assert N_layer > 400 and calls == [400, N_layer]
        assert result is trajs[1] and orbit is not None
        assert flo is not None and flo.trivial_error <= 0.05
        assert set(floquet_meshes) == {N_layer}

    def test_limit_system_runs_once_without_floquet(self):
        system = System.limit(1.0, 7.38)
        calls, trajs = [], []
        _, orbit, flo = periodic.find_orbit(system, _spied_run(system, 200.0, 140.0, calls, trajs), 200)
        assert calls == [200]
        assert orbit is not None and flo is None
