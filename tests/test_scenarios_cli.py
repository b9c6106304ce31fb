import ast
import functools
import json
import math
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from ddelab import scenarios
from ddelab.cli import main
from ddelab.dde import System, integrate
from ddelab.history import HistoryFunction
from ddelab.periodic import connection_diagram
from ddelab.plotting import _H, _PAD, _W, Series, emit_plot
from ddelab.scenarios import (
    _CSV_BLOCK,
    _TOP_KEYS,
    ScenarioError,
    _traj_columns,
    _write_csv,
    run_scenario,
    validate_scenario,
)
from ddelab.spectrum import spectrum_report


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


SIM = {
    "name": "sim-demo",
    "task": "simulate",
    "system": {"kind": "limit", "c": 1.0, "d": 7.38},
    "history": {"kind": "exp-decay"},
    "T": 12.0,
    "plot": True,
}


class TestValidation:
    def test_negative_gain_reported_with_path(self):
        doc = {"name": "bad", "task": "simulate", "system": {"kind": "limit", "c": 1.0, "d": -7.38}}
        with pytest.raises(ScenarioError) as err:
            validate_scenario(doc)
        assert any("system.d" in p for p in err.value.problems)

    def test_unknown_keys_rejected(self):
        doc = dict(SIM, extra_knob=3)
        with pytest.raises(ScenarioError) as err:
            validate_scenario(doc)
        assert any("extra_knob" in p for p in err.value.problems)

    def test_unknown_task_rejected(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"name": "x", "task": "animate"})

    def test_all_problems_listed(self):
        doc = {"name": "", "task": "simulate", "system": {"kind": "limit", "c": -1, "d": -2}}
        with pytest.raises(ScenarioError) as err:
            validate_scenario(doc)
        assert len(err.value.problems) >= 3


# one valid document per task, and one bad value per top-level key
_VALID = {
    "simulate": SIM,
    "threshold": {"name": "t", "task": "threshold", "c": 1.0},
    "envelope": {"name": "e", "task": "envelope", "c": 1.0, "d": 7.38, "d0": 6.5},
    "manifold": {"name": "m", "task": "manifold", "system": {"kind": "limit", "c": 1.0, "d": 7.38}, "branch": "plus"},
    "spectrum": {"name": "s", "task": "spectrum", "rate": 1.0, "slope": 2.0},
    "periodic": {"name": "p", "task": "periodic", "system": {"kind": "smooth", "a": 1.0, "b": 7.38, "n": 100}},
    "hopf": {"name": "h", "task": "hopf", "c": 1.0, "d": 7.38, "n": 100},
    "diagram": {"name": "g", "task": "diagram", "c": 1.0, "d": 7.38, "n": 100},
    "figure": {"name": "f", "task": "figure", "preset": "x1"},
}
_BAD_VALUE = {
    "name": "", "task": "animate", "system": {"kind": "hill"}, "history": {"kind": "ramp"}, "branch": "up",
    "preset": "x9", "c": -1.0, "d": 0, "d0": "6.5", "rate": math.nan, "slope": None, "n": 2.5, "k": 0,
    "T": math.inf, "N": 2.5, "tol": 0, "T_max": 1.0, "bracket": "ab", "pairs": 0, "j": True, "kappa": -0.2,
    "eps_seed": 1e-3, "transient": -1.0, "level": [1.0], "T_orbit": 0, "dstar": "high", "alpha_grid": [],
    "plot": 1, "with_hopf": "yes",
}
_TASK_KEYS = [(task, key) for task in _TOP_KEYS for key in sorted(_TOP_KEYS[task])]


def _names(problems, key):
    return [p for p in problems if p.split(":")[0].split(".")[0].split("[")[0] == key]


class TestTopLevelValidation:
    @pytest.mark.parametrize("task", sorted(_VALID))
    def test_valid_documents_pass(self, task):
        validate_scenario(_VALID[task])

    @pytest.mark.parametrize("task,key", _TASK_KEYS)
    def test_bad_value_names_its_key(self, task, key):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(dict(_VALID[task], **{key: _BAD_VALUE[key]}))
        assert _names(err.value.problems, key), err.value.problems

    @pytest.mark.parametrize("task,key,value", [
        ("simulate", "N", 50),
        ("threshold", "bracket", [3.0, 2.0]),
        ("threshold", "bracket", [0.5, 2.0]),
        ("manifold", "kappa", 1.0),
        ("hopf", "alpha_grid", [0.2, -1.0]),
        ("envelope", "d0", 8.0),
        ("envelope", "d0", 1.0),
        # k <= 1 puts the interior equilibrium (c/d)^(1/(k-1)) at or above the cutoff
        ("threshold", "k", 1),
        ("threshold", "k", 0.5),
        ("envelope", "k", 1.0),
        ("hopf", "k", 0.5),
        ("diagram", "k", 1.0),
        # the Hill order must exceed the power k (default 2)
        ("simulate", "system", {"kind": "smooth", "a": 1.0, "b": 7.38, "n": 2}),
        ("manifold", "system", {"kind": "smooth", "a": 1.0, "b": 7.38, "n": 2}),
        ("periodic", "system", {"kind": "smooth", "a": 1.0, "b": 7.38, "n": 2}),
        ("periodic", "system", {"kind": "smooth", "a": 1.0, "b": 7.38, "k": 3, "n": 3}),
        ("hopf", "n", 2),
        ("diagram", "n", 2),
    ])
    def test_out_of_range_values(self, task, key, value):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(dict(_VALID[task], **{key: value}))
        assert _names(err.value.problems, key), err.value.problems

    def test_seed_is_unknown_to_simulate(self):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(dict(SIM, seed=3))
        assert err.value.problems == ["seed: unknown key for task 'simulate'"]


_BAD_HISTORIES = [
    ({"kind": "samples", "mesh": [-1.0, 0.0], "values": [-0.5, 1.0]}, "history.values[0]"),
    ({"kind": "samples", "mesh": [0.0, -1.0], "values": [1.0, 1.0]}, "history.mesh"),
    ({"kind": "samples", "mesh": [-2.0, 0.0], "values": [1.0, 1.0]}, "history.mesh"),
    ({"kind": "samples", "mesh": [-1.0, -0.5, -0.5, 0.0], "values": [1.0, 1.0, 1.0, 1.0]}, "history.mesh"),
    ({"kind": "samples", "mesh": [-1.0, 0.0], "values": ["a", 1.0]}, "history.values[0]"),
    ({"kind": "samples", "mesh": [-1.0, None], "values": [1.0, 1.0]}, "history.mesh[1]"),
    ({"kind": "constant", "value": True}, "history.value"),
    ({"kind": "constant", "value": math.nan}, "history.value"),
    ({"kind": "constant", "value": math.inf}, "history.value"),
]


class TestHistoryValidation:
    @pytest.mark.parametrize("history,field", _BAD_HISTORIES)
    def test_bad_history_names_its_field(self, history, field):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(dict(SIM, history=history))
        assert [p for p in err.value.problems if p.startswith(field + ":")], err.value.problems

    def test_good_samples_accepted(self):
        history = {"kind": "samples", "mesh": [-1, -0.5, 0], "values": [0.0, 2, 0.5]}
        validate_scenario(dict(SIM, history=history))


class TestRunScenario:
    def test_simulate_artifacts(self, tmp_path):
        path = write_scenario(tmp_path, SIM)
        res = run_scenario(str(path), out_dir=str(tmp_path / "out"))
        assert set(res.artifacts) >= {"trajectory.csv", "events.json", "plot.svg", "manifest.json"}
        assert not res.unresolved
        header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x,x_delayed,derivative_flag"

    def test_byte_identical_reruns(self, tmp_path):
        path = write_scenario(tmp_path, SIM)
        r1 = run_scenario(str(path), out_dir=str(tmp_path / "o1"))
        r2 = run_scenario(str(path), out_dir=str(tmp_path / "o2"))
        for art in r1.artifacts:
            b1 = (tmp_path / "o1" / art).read_bytes()
            b2 = (tmp_path / "o2" / art).read_bytes()
            assert b1 == b2, art

    def test_rerun_from_manifest_alone(self, tmp_path):
        path = write_scenario(tmp_path, SIM)
        run_scenario(str(path), out_dir=str(tmp_path / "o1"))
        res = run_scenario(str(tmp_path / "o1" / "manifest.json"), out_dir=str(tmp_path / "o3"))
        for art in res.artifacts:
            assert (tmp_path / "o1" / art).read_bytes() == (tmp_path / "o3" / art).read_bytes()

    def test_spectrum_task(self, tmp_path):
        doc = {"name": "spec", "task": "spectrum", "rate": 1.0, "slope": 2.0, "pairs": 3}
        res = run_scenario(str(write_scenario(tmp_path, doc)), out_dir=str(tmp_path / "out"))
        data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        assert abs(data["lambda0"] - 0.3748225281839233) < 1e-9

    def test_manifold_task(self, tmp_path):
        doc = {
            "name": "branch",
            "task": "manifold",
            "system": {"kind": "limit", "c": 1.0, "d": 7.38},
            "branch": "plus",
            "T": 10.0,
        }
        res = run_scenario(str(write_scenario(tmp_path, doc)), out_dir=str(tmp_path / "out"))
        lm = json.loads((tmp_path / "out" / "landmarks.json").read_text())
        assert lm["t1"] is not None and lm["t2"] > lm["t1"]
        assert "manifold.csv" in res.artifacts

    def test_figure_preset_x1(self, tmp_path):
        doc = {"name": "fig", "task": "figure", "preset": "x1", "T": 40.0, "N": 400}
        res = run_scenario(str(write_scenario(tmp_path, doc)), out_dir=str(tmp_path / "out"))
        assert {"plus.csv", "minus.csv", "stationary.csv", "figure.svg"} <= set(res.artifacts)
        header = (tmp_path / "out" / "plus.csv").read_text().splitlines()[0]
        assert header == "t,x,x_delayed"
        svg = (tmp_path / "out" / "figure.svg").read_text()
        assert svg.count("<polyline") >= 4  # three series + phase projection
        for color in ("blue", "green", "black"):
            assert color in svg

    def test_malformed_preset(self, tmp_path):
        doc = {"name": "fig", "task": "figure", "preset": "x9"}
        with pytest.raises(ScenarioError):
            run_scenario(str(write_scenario(tmp_path, doc)), out_dir=str(tmp_path / "out"))


class TestCsv:
    def test_blocks_match_per_value_formatting(self, tmp_path):
        special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
        rng = np.random.default_rng(7)
        for rows in (0, 1, _CSV_BLOCK, _CSV_BLOCK + 1):
            table = rng.standard_normal((rows, len(special))) * 10.0 ** rng.integers(-300, 300, (rows, len(special)))
            table[:1] = special
            table[-1:] = special[::-1]
            columns = {f"c{j}": table[:, j] for j in range(len(special))}
            columns["n"] = list(range(rows))
            keys = list(columns)
            expected = ",".join(keys) + "\n" + "".join(
                ",".join(f"{float(columns[k][i]):.12e}" for k in keys) + "\n" for i in range(rows)
            )
            path = tmp_path / f"rows{rows}.csv"
            _write_csv(str(path), columns)
            assert path.read_bytes() == expected.encode(), rows


def _step_ulps(v: float, n: int) -> float:
    for _ in range(abs(n)):
        v = math.nextafter(v, math.copysign(math.inf, n))
    return v


# decimal exponents across the double range, and those that the float path decides
_EXPONENT = st.integers(-300, 300) | st.integers(-34, 58)
_ULPS = st.integers(-4, 4)
# the double nearest to (m + 1/2)·10^(e-12), a tie of 13 significant digits, moved by a few ulps
_NEAR_TIE = st.builds(
    lambda m, e, n, sign: sign * _step_ulps(float(f"{m}5e{e - 13}"), n),
    st.integers(10**12, 10**13 - 1), _EXPONENT, _ULPS, st.sampled_from([1.0, -1.0]),
)
_NEAR_POWER = st.builds(
    lambda e, n, sign: sign * _step_ulps(float(f"1e{e}"), n), _EXPONENT, _ULPS, st.sampled_from([1.0, -1.0])
)


def _per_value_csv(columns: dict) -> bytes:
    keys = list(columns)
    rows = len(columns[keys[0]])
    lines = [",".join(f"{float(columns[k][i]):.12e}" for k in keys) + "\n" for i in range(rows)]
    return (",".join(keys) + "\n" + "".join(lines)).encode()


class TestCsvDigits:
    @given(
        values=st.lists(st.floats() | _NEAR_TIE | _NEAR_POWER, min_size=1, max_size=40),
        rows=st.sampled_from([1, _CSV_BLOCK, _CSV_BLOCK + 1]),
        ncols=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_per_value_formatting(self, tmp_path, values, rows, ncols):
        table = np.resize(np.array(values), (rows, ncols))
        columns = {f"c{j}": table[:, j] for j in range(ncols)}
        path = tmp_path / "digits.csv"
        _write_csv(str(path), columns)
        assert path.read_bytes() == _per_value_csv(columns)

    def test_limit_trajectory_matches_block_template(self, tmp_path):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 400.0)
        columns = _traj_columns(traj)
        keys = list(columns)
        table = np.column_stack([columns[k] for k in keys])
        row = ",".join(["%.12e"] * len(keys)) + "\n"
        expected = ",".join(keys) + "\n" + "".join(
            row * len(table[r0 : r0 + 4096]) % tuple(table[r0 : r0 + 4096].ravel().tolist())
            for r0 in range(0, len(table), 4096)
        )
        path = tmp_path / "trajectory.csv"
        _write_csv(str(path), columns)
        assert path.read_bytes() == expected.encode()


def _per_point_polylines(series_xy, x_all, y_all):
    """The polyline points of one panel, one f-string per point."""
    xlo, xhi = float(np.min(x_all)), float(np.max(x_all))
    ylo, yhi = float(np.min(y_all)), float(np.max(y_all))
    ypad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - ypad, yhi + ypad
    out = []
    for x0, xs, ys in series_xy:
        px = [x0 + _PAD + (x - xlo) / (xhi - xlo) * (_W - 2 * _PAD) for x in xs]
        py = [_H - _PAD - (y - ylo) / (yhi - ylo) * (_H - 2 * _PAD) for y in ys]
        out.append(" ".join(f"{a:.3f},{b:.3f}" for a, b in zip(px, py)))
    return out


class TestPlot:
    def test_polylines_match_per_point_formatting(self):
        t = np.linspace(0.0, 200.0, 4001)
        x, xd = np.sin(t) ** 3 + 1e-3 * t, np.cos(1.3 * t)
        svg = emit_plot([Series(t, x, "plus"), Series(t, xd, "minus")], phase=[(x, xd, "plus")])
        got = [ln.split('points="')[1].split('"')[0] for ln in svg.splitlines() if "<polyline" in ln]
        expected = _per_point_polylines([(0, t, x), (0, t, xd)], np.concatenate([t, t]), np.concatenate([x, xd]))
        expected += _per_point_polylines([(_W, x, xd)], x, xd)
        assert got == expected

    def test_constant_series_is_horizontal_line(self):
        t = np.linspace(0.0, 1.0, 11)
        svg = emit_plot([Series(t, np.full_like(t, 2.0), "stationary")])
        line = [ln for ln in svg.splitlines() if "polyline" in ln][0]
        ys = {pt.split(",")[1] for pt in line.split('points="')[1].split('"')[0].split()}
        assert len(ys) == 1

    def test_deterministic_bytes(self):
        t = np.linspace(0.0, 5.0, 101)
        a = emit_plot([Series(t, np.sin(t), "plus")], phase=[(np.sin(t), np.cos(t), "plus")])
        b = emit_plot([Series(t, np.sin(t), "plus")], phase=[(np.sin(t), np.cos(t), "plus")])
        assert a == b

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            emit_plot([])


class TestCli:
    """Most tests call ``cli.main`` in this process; two run ``python -m ddelab.cli``."""

    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "ddelab.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    def main_cli(self, capsys, *args):
        """``cli.main(args)`` with its exit code and captured output, shaped as ``run_cli`` returns them."""
        code = main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    def test_simulate_exit_zero(self, tmp_path):
        path = write_scenario(tmp_path, SIM)
        proc = self.run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "trajectory.csv" in proc.stdout

    def test_validation_failure_exit_two(self, tmp_path, capsys):
        doc = {"name": "bad", "task": "simulate", "system": {"kind": "limit", "c": 1.0, "d": -7.38}}
        path = write_scenario(tmp_path, doc)
        proc = self.main_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "system.d" in proc.stderr

    @pytest.mark.parametrize("history,field", [_BAD_HISTORIES[i] for i in (0, 1, 6)])
    def test_bad_history_exit_two(self, tmp_path, history, field, capsys):
        path = write_scenario(tmp_path, dict(SIM, history=history))
        proc = self.main_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert field in proc.stderr and "Traceback" not in proc.stderr

    def test_unresolved_exit_three(self, tmp_path, capsys):
        # a converging trajectory has no orbit to detect
        doc = {
            "name": "noorbit",
            "task": "periodic",
            "system": {"kind": "smooth", "a": 1.0, "b": 2.0, "n": 6},
            "T": 80.0,
            "transient": 40.0,
            "N": 200,
        }
        path = write_scenario(tmp_path, doc)
        proc = self.main_cli(capsys, "periodic", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        data = json.loads((tmp_path / "out" / "orbit.json").read_text())
        assert data == {"found": False}

    def test_unresolved_disk_fate_exit_three(self, tmp_path, capsys, monkeypatch):
        # at alpha = 0.2 and T_fate = 20 the plus side of the x4 saddle orbit's
        # unstable disk still swings (tail about 3) and shows no orbit on either mesh
        monkeypatch.setattr(scenarios, "connection_diagram", functools.partial(connection_diagram, T_fate=20.0))
        doc = {"name": "x4", "task": "diagram", "c": 5.0 * math.pi / (3.0 * math.sqrt(3.0)),
               "d": 25.0, "n": 100, "with_hopf": True, "alpha_grid": [0.2]}
        path = write_scenario(tmp_path, doc)
        proc = self.main_cli(capsys, "diagram", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3, proc.stderr
        data = json.loads((tmp_path / "out" / "diagram.json").read_text())
        fates = data["hopf"]["disk_fates"]
        assert fates["plus"]["fate"] == "UNRESOLVED" and fates["plus"]["tail_max"] > 1.0
        assert fates["minus"]["fate"] == "ZERO"
        assert data["unresolved"] == ["hopf-disk"]

    def test_default_x4_disk_fates_resolve_exit_zero(self, tmp_path, capsys):
        # the plus side of the x4 saddle orbit's unstable disk reaches the
        # rescaled system's stable orbit, found on the layer mesh; the minus side dies
        doc = {"name": "x4", "task": "diagram", "c": 5.0 * math.pi / (3.0 * math.sqrt(3.0)),
               "d": 25.0, "n": 100, "with_hopf": True}
        path = write_scenario(tmp_path, doc)
        proc = self.main_cli(capsys, "diagram", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        data = json.loads((tmp_path / "out" / "diagram.json").read_text())
        fates = data["hopf"]["disk_fates"]
        assert fates["plus"]["fate"] == "ORBIT"
        assert abs(fates["plus"]["omega"] / 7.67087162967465 - 1.0) < 1e-8
        assert fates["minus"]["fate"] == "ZERO"
        assert data["unresolved"] == []

    def test_bad_scenario_field_exit_two(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"name": "t", "task": "threshold", "c": 1.0, "tol": 0})
        proc = self.main_cli(capsys, "threshold", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "error: tol:" in proc.stderr and "Traceback" not in proc.stderr

    def test_bad_direct_flag_exit_two(self):
        proc = self.run_cli("threshold", "--c", "-1")
        assert proc.returncode == 2, proc.stderr
        assert "error: c:" in proc.stderr and "Traceback" not in proc.stderr

    def test_threshold_small_rate_exit_zero(self, capsys):
        # the first ladder rung, 1.1c, already reaches the cutoff
        proc = self.main_cli(capsys, "threshold", "--c", "0.1")
        assert proc.returncode == 0, proc.stderr
        lo, hi = json.loads(proc.stdout)["bracket"]
        assert 1.09 < lo / 0.1 < hi / 0.1 < 1.1

    @pytest.mark.parametrize("doc,field", [
        ({"name": "h", "task": "hopf", "c": 1.0, "d": 7.38, "n": 100}, "c"),
        ({"name": "t", "task": "threshold", "c": 1.0, "bracket": [1.01, 1.02]}, "bracket"),
        ({"name": "m", "task": "manifold", "system": {"kind": "limit", "c": 1.0, "d": 7.38},
          "branch": "plus", "kappa": 0.95}, "kappa"),
        ({"name": "e", "task": "envelope", "c": 1.0, "d": 5.0, "d0": 1.2}, "d0"),
        # band 100's angle, whose halving ends on the float spacing, is not critical
        ({"name": "h", "task": "hopf", "c": 5.0 * math.pi / (3.0 * math.sqrt(3.0)), "d": 7.95, "n": 100,
          "j": 100}, "c"),
        # pair 1's real part needs sin(y) near 1e-300, past what its imaginary part y resolves
        ({"name": "s", "task": "spectrum", "rate": 1e300, "slope": 1.0}, "slope"),
        # exp(-lam) of pair 1 overflows there
        ({"name": "s", "task": "spectrum", "rate": 1.0, "slope": 1e-308}, "slope"),
        ({"name": "s", "task": "spectrum", "rate": 1.0, "slope": 1e-310}, "slope"),
        # sampled values near the float ceiling overflow the interpolant's slopes
        ({"name": "h", "task": "simulate", "system": {"kind": "limit", "c": 1.0, "d": 7.38},
          "history": {"kind": "samples", "mesh": [-1, 0], "values": [0, 1e308]}}, "history.values"),
        ({"name": "h", "task": "simulate", "system": {"kind": "limit", "c": 1.0, "d": 7.38},
          "history": {"kind": "samples", "mesh": [-1, -0.5, 0], "values": [0, 1e308, 0]}}, "history.values"),
    ])
    def test_runner_check_names_its_field(self, tmp_path, doc, field, capsys):
        path = write_scenario(tmp_path, doc)
        # every spectrum case here has slope <= rate, which has no positive root
        warns = pytest.warns(UserWarning, match="slope <= rate") if doc["task"] == "spectrum" else nullcontext()
        with warns:
            proc = self.main_cli(capsys, doc["task"], "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert f"error: {field}:" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_spectrum_direct_unreachable_pair_exit_two(self, tmp_path, capsys):
        # the negative real root (about -690.8) is found; the pairs are not
        with pytest.warns(UserWarning, match="slope <= rate"):
            proc = self.main_cli(capsys, "spectrum", "--rate", "1e300", "--slope", "1", "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "error: slope: root pair 1 did not converge" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_spectrum_large_roots_exit_zero(self, tmp_path, capsys):
        # pairs near |lam| = 684 whose residuals (up to 1.4e-10) sit at the float floor
        doc = {"name": "s", "task": "spectrum", "rate": 1.0, "slope": 1e300, "pairs": 6}
        path = write_scenario(tmp_path, doc)
        proc = self.main_cli(capsys, "spectrum", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        for j, (re, im) in enumerate(data["pairs"], start=1):
            ref = complex(lambertw(1e300 * math.e, j)) - 1.0
            assert abs(complex(re, im) - ref) <= 1e-15 * abs(ref), j

    @pytest.mark.parametrize("doc,field", [
        # Hill(k=2, n=2) cannot be built, and the runner would fail after making --out
        ({"task": "simulate", "system": {"kind": "smooth", "a": 1.0, "b": 7.38, "n": 2}}, "system.n"),
        # the phase plot draws x(t) against x(t - 1) from t = 1
        ({"task": "figure", "preset": "x3", "T": 0.5}, "T"),
        ({"task": "figure", "preset": "x4", "T": 0.5}, "T"),
    ])
    def test_inputs_that_crashed_exit_two(self, tmp_path, capsys, doc, field):
        path = write_scenario(tmp_path, {"name": "crash", **doc})
        proc = self.main_cli(capsys, doc["task"], "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert f"error: {field}:" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_spectrum_direct_flags(self, capsys):
        proc = self.main_cli(capsys, "spectrum", "--rate", "1.0", "--slope", "2.0", "--pairs", "2")
        assert proc.returncode == 0
        assert "0.374822528184" in proc.stdout

    def test_spectrum_direct_window_line_is_short(self, capsys):
        """The beta window prints in exponent form: near 1e297 it is two short numbers, not 300 digits."""
        proc = self.main_cli(capsys, "spectrum", "--rate", "1", "--slope", "1e300", "--pairs", "2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert all(len(line) < 100 for line in lines)
        rep = spectrum_report(1.0, 1e300, 2)
        lo, hi = (float(v) for v in lines[-1].removeprefix("window: (").removesuffix(")").split(", "))
        assert abs(lo / math.exp(rep.pairs[0][0]) - 1.0) < 1e-12
        assert abs(hi / math.exp(rep.lambda0) - 1.0) < 1e-12

    def test_spectrum_overflow_input_exit_zero(self, tmp_path, capsys):
        # a Newton iteration from the band seeds overflows exp(-lam) at this input
        doc = {"name": "s", "task": "spectrum", "rate": 0.0022985779227651477, "slope": 3.224590545296398,
               "pairs": 12}
        path = write_scenario(tmp_path, doc)
        proc = self.main_cli(capsys, "spectrum", "--scenario", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        assert len(data["pairs"]) == 12 and max(data["residuals"]) <= 1e-10


# no interior equilibrium: d <= c fails validation; the rest fail the n = 100 scan below 0.9
_NO_EQUILIBRIUM = [
    ({"task": "diagram", "c": 2.0, "d": 1.0, "n": 100}, "d"),
    ({"task": "diagram", "c": 1.0, "d": 1.05, "n": 100}, "d"),
    ({"task": "hopf", "c": 2.0, "d": 1.0, "n": 100}, "d"),
    ({"task": "hopf", "c": 2.0, "d": 2.0, "n": 100}, "d"),
    ({"task": "manifold", "system": {"kind": "smooth", "a": 2.0, "b": 1.0, "n": 100}, "branch": "plus"}, "system.b"),
    ({"task": "manifold", "system": {"kind": "limit", "c": 2.0, "d": 1.0}, "branch": "minus"}, "system.d"),
    ({"task": "manifold", "system": {"kind": "smooth", "a": 1.0, "b": 1.05, "n": 100}, "branch": "plus"}, "system.b"),
]


@pytest.mark.parametrize("doc,field", _NO_EQUILIBRIUM)
def test_no_interior_equilibrium_exits_two(tmp_path, capsys, doc, field):
    path = write_scenario(tmp_path, {"name": "no-equilibrium", **doc})
    assert main([doc["task"], "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenarios_import_no_private_ddelab_name():
    tree = ast.parse(Path(scenarios.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("ddelab"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
