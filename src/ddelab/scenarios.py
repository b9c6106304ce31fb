"""Scenario ingestion and deterministic artifact emission.

A scenario is a single JSON document naming a task plus its parameters.
``run_scenario`` validates it (listing every offending field) and calls the
task's runner, which only computes: it returns its artifacts as a dict from
file name to columns (``.csv``), a JSON value (``.json``) or SVG text.  Once
the runner returns, ``run_scenario`` writes them with fixed decimal formatting
and a manifest that embeds the full scenario, so re-running from the manifest
alone reproduces every data artifact byte for byte; a failed run writes
nothing.  A check that needs the run's own computation (a bracket end, a
branch marker, the crossing-pair criticality, an interior equilibrium below
the scan ceiling) raises ``ParameterError`` in the runner, which is reported
as a ``ScenarioError`` naming the field.

CSV values are written as ``%.12e`` text.  ``_format_values`` produces the
same bytes as ``"%.12e" % v`` with numpy: the digits come from one float
scaling of each value whenever a rounding margin proves them, and ``%``
formats the few values the margin cannot decide.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .dde import ParameterError, System, integrate
from .history import HistoryFunction
from .manifold import shoot_branch
from .periodic import connection_diagram, find_orbit, hopf_orbit_search, unstable_disk_runs
from .plotting import Series, emit_plot
from .spectrum import spectrum_report
from .threshold import envelopes, find_dstar

__all__ = ["Scenario", "ScenarioError", "validate_scenario", "run_scenario", "FIGURE_PRESETS"]

_HOPF_C = 5.0 * math.pi / (3.0 * math.sqrt(3.0))
# x3 and x4 draw the small saddle orbit, searched on the detuning grid
# ``alphas`` (None: the search's default grid); x1 and x2 draw the branches
FIGURE_PRESETS = {
    "x1": {"a": 1.0, "b": 7.38, "k": 2.0, "n": 200},
    "x2": {"a": 4.0, "b": 12.71, "k": 2.0, "n": 200},
    "x3": {"a": _HOPF_C, "b": 7.95, "k": 2.0, "n": 100, "alphas": None},
    "x4": {"a": _HOPF_C, "b": 25.0, "k": 2.0, "n": 100, "alphas": (0.2,)},
}


class ScenarioError(ValueError):
    def __init__(self, problems):
        super().__init__("invalid scenario: " + "; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class Scenario:
    name: str
    task: str
    spec: dict

    def to_json(self) -> dict:
        return dict(self.spec)

    @property
    def params(self) -> dict:
        """Each of the task's keys: its value as given, through its cast, or else its default."""
        return {
            key: (_RULES[key][2](self.spec[key]) if key in _RULES else self.spec[key]) if key in self.spec else default
            for key, default in _TASKS[self.task].items()
        }


def _check_positive(problems, spec, path, key):
    if key not in spec:
        problems.append(f"{path}.{key}: missing")
        return None
    if not _is_positive(spec[key]):
        problems.append(f"{path}.{key}: must be a positive number")
        return None
    return float(spec[key])


def _is_positive(v) -> bool:
    return _is_finite(v) and v > 0


def _is_int(v, lo: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


_SYSTEM_KEYS = {"kind", "a", "b", "c", "d", "k", "n"}


def _check_system(problems, spec, k_rule, path="system"):
    """Check a system object, its ``k`` by ``k_rule``; returns its rate, gain (None where invalid) and gain key."""
    if not isinstance(spec, dict):
        problems.append(f"{path}: must be an object")
        return None, None, None
    kind = spec.get("kind")
    if kind not in ("limit", "smooth"):
        problems.append(f"{path}.kind: must be 'limit' or 'smooth'")
        return None, None, None
    for key in spec:
        if key not in _SYSTEM_KEYS:
            problems.append(f"{path}.{key}: unknown key")
    rate_key, gain_key = ("c", "d") if kind == "limit" else ("a", "b")
    rate = _check_positive(problems, spec, path, rate_key)
    gain = _check_positive(problems, spec, path, gain_key)
    k = spec.get("k", 2.0)
    if not k_rule[0](k):
        problems.append(f"{path}.k: must be {k_rule[1]}")
        k = None
    if kind == "smooth":
        _check_hill_order(problems, f"{path}.n", spec.get("n"), k)
    return rate, gain, f"{path}.{gain_key}"


def _check_hill_order(problems, where, n, k):
    """The Hill order: an integer >= 2 above the power ``k`` (None when ``k`` is invalid and named)."""
    if not (_is_int(n, 2) and (k is None or n > k)):
        problems.append(f"{where}: must be an integer >= 2" + ("" if k is None else f" above k = {k:g}"))


def _system_from(spec) -> System:
    k = float(spec.get("k", 2.0))
    if spec["kind"] == "limit":
        return System.limit(float(spec["c"]), float(spec["d"]), k=k)
    return System.smooth(float(spec["a"]), float(spec["b"]), k=k, n=int(spec["n"]))


def _is_finite(v) -> bool:
    """A JSON number, not a boolean, that a float holds finitely."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _check_history(problems, spec, path="history"):
    if spec is None:
        return
    if not isinstance(spec, dict):
        problems.append(f"{path}: must be an object")
        return
    kind = spec.get("kind")
    if kind == "constant":
        if not (_is_finite(spec.get("value")) and spec["value"] >= 0):
            problems.append(f"{path}.value: must be a nonnegative number")
    elif kind == "exp-decay":
        pass
    elif kind == "samples":
        mesh, vals = spec.get("mesh"), spec.get("values")
        if not (isinstance(mesh, list) and isinstance(vals, list) and len(mesh) == len(vals) and len(mesh) >= 2):
            problems.append(f"{path}: samples need matching 'mesh' and 'values' lists")
            return
        for i, m in enumerate(mesh):
            if not _is_finite(m):
                problems.append(f"{path}.mesh[{i}]: must be a number")
        for i, v in enumerate(vals):
            if not (_is_finite(v) and v >= 0):
                problems.append(f"{path}.values[{i}]: must be a nonnegative number")
        # the ends within the tolerance of HistoryFunction.from_samples
        if all(map(_is_finite, mesh)) and not (
            abs(mesh[0] + 1.0) <= 1e-12 and abs(mesh[-1]) <= 1e-12 and all(a < b for a, b in zip(mesh, mesh[1:]))
        ):
            problems.append(f"{path}.mesh: must run strictly increasing from -1 to 0")
    else:
        problems.append(f"{path}.kind: must be one of constant | exp-decay | samples")


def _history_from(spec, system: System) -> HistoryFunction:
    if spec is None:
        return HistoryFunction.constant(1.0)
    if spec["kind"] == "constant":
        return HistoryFunction.constant(float(spec["value"]))
    if spec["kind"] == "exp-decay":
        return HistoryFunction.exp_decay(system.rate)
    # the mesh is validated, so only values that overflow the interpolant fail here
    try:
        return HistoryFunction.from_samples(np.asarray(spec["mesh"], float), np.asarray(spec["values"], float))
    except ValueError:
        raise ParameterError("history.values", "the interpolated history overflows the float range") from None


_POSITIVE = (_is_positive, "a positive number", float)
# the equilibrium (c/d)^(1/(k-1)) is below the cutoff only for k > 1
_ABOVE_ONE = (lambda v: _is_finite(v) and v > 1, "a number above 1", float)

# each top-level key but system and history: the rule its value must meet,
# the rule's wording, and the cast a runner reads the value through
_RULES = {
    **dict.fromkeys(("c", "d", "d0", "rate", "slope", "T", "tol", "level", "T_orbit"), _POSITIVE),
    **dict.fromkeys(("plot", "with_hopf"), (lambda v: isinstance(v, bool), "a boolean", bool)),
    **dict.fromkeys(("pairs", "j"), (lambda v: _is_int(v, 1), "an integer >= 1", int)),
    "k": _ABOVE_ONE,
    "T_max": _ABOVE_ONE,  # the probe's decay profile fills the first unit of its horizon
    "n": (lambda v: _is_int(v, 2), "an integer >= 2", int),
    "N": (lambda v: _is_int(v, 100), "an integer >= 100", int),
    # cast to the values as given: an integer bracket prints as one
    "bracket": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_positive, v)) and v[0] < v[1],
                "two positive numbers [lo, hi] with lo < hi", tuple),
    # the sign by branch is a cross-field check
    "kappa": (lambda v: _is_finite(v) and 0 < abs(v) < 1,
              "a number in (0, 1) on the plus branch and in (-1, 0) on the minus branch", float),
    "eps_seed": (lambda v: _is_finite(v) and 0 < v <= 1e-4, "a number in (0, 1e-4]", float),
    "transient": (lambda v: _is_finite(v) and v >= 0, "a nonnegative number", float),
    # each detuning scales the rates by 1 + alpha
    "alpha_grid": (lambda v: isinstance(v, list) and len(v) > 0 and all(_is_finite(a) and a > -1 for a in v),
                   "a non-empty list of numbers above -1", lambda v: tuple(map(float, v))),
    "branch": (lambda v: v in ("plus", "minus"), "'plus' or 'minus'", str),
    "preset": (lambda v: isinstance(v, str) and v in FIGURE_PRESETS, f"one of {', '.join(sorted(FIGURE_PRESETS))}", str),
}

# each task's keys besides name and task, with their defaults; ... marks a
# required key, and the periodic transient None reads 70% of T
_TASKS = {
    "simulate": {"system": ..., "history": None, "T": 50.0, "N": 200, "plot": False},
    "threshold": {"c": ..., "k": 2.0, "tol": 1e-4, "T_max": 400.0, "bracket": None},
    "envelope": {"c": ..., "d": ..., "d0": ..., "k": 2.0},
    "manifold": {"system": ..., "branch": ..., "kappa": None, "eps_seed": None, "T": 30.0, "N": 200},
    "spectrum": {"rate": ..., "slope": ..., "pairs": 5},
    "periodic": {"system": ..., "T": 500.0, "N": 400, "transient": None, "level": 1.0},
    "hopf": {"c": ..., "d": ..., "k": 2.0, "n": ..., "j": 1, "alpha_grid": None},
    "diagram": {"c": ..., "d": ..., "k": 2.0, "n": ..., "with_hopf": False, "alpha_grid": None, "T_orbit": 500.0, "N": 200},
    "figure": {"preset": ..., "T": 60.0, "N": 400},
}


def validate_scenario(doc: dict) -> Scenario:
    """One pass over the document (unknown key, failed rule, missing required key), then the cross-field checks."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioError(["document: must be a JSON object"])
    task = doc.get("task")
    if task not in TASKS:
        raise ScenarioError([f"task: must be one of {', '.join(TASKS)}"])
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name: missing or empty")
        name = "unnamed"
    keys = _TASKS[task]
    good = {}  # the values that meet their rule
    for key, value in doc.items():
        if key in ("name", "task"):
            continue
        if key not in keys:
            problems.append(f"{key}: unknown key for task '{task}'")
        elif key in _RULES and not _RULES[key][0](value):
            problems.append(f"{key}: must be {_RULES[key][1]}")
        else:
            good[key] = value
    problems += [f"{key}: missing" for key, default in keys.items() if default is ... and key not in doc]

    if "system" in good:
        # the branches leave an interior equilibrium, which needs k > 1 and gain > rate
        rate, gain, gain_key = _check_system(problems, good["system"], _ABOVE_ONE if task == "manifold" else _POSITIVE)
        if task == "manifold" and None not in (rate, gain) and not gain > rate:
            problems.append(f"{gain_key}: must exceed the system's rate")
    if "history" in good:
        _check_history(problems, good["history"])
    # necessary, not sufficient: the equilibrium lies in (0, 1), and the
    # marker between it and the cutoff (plus) or zero (minus)
    if "branch" in good and "kappa" in good and (good["branch"] == "plus") != (good["kappa"] > 0):
        problems.append(f"kappa: must be {_RULES['kappa'][1]}")
    c, d = good.get("c"), good.get("d")
    if c is not None and "bracket" in good and good["bracket"][0] <= c:
        problems.append("bracket: lower end must exceed c")
    if task in ("hopf", "diagram") and None not in (c, d) and not d > c:
        problems.append("d: must exceed c")
    if None not in (c, d, good.get("d0")) and not c < good["d0"] < d:
        problems.append("d0: must lie in (c, d)")
    if "n" in good and ("k" in good or "k" not in doc):
        _check_hill_order(problems, "n", good["n"], good.get("k", 2.0))
    # the phase plot of the disk run draws x(t) against x(t - 1) from t = 1
    if "preset" in good and "alphas" in FIGURE_PRESETS[good["preset"]] and good.get("T", 1.0) < 1.0:
        problems.append("T: must be at least 1 for presets x3 and x4")
    if problems:
        raise ScenarioError(problems)
    return Scenario(name=name, task=task, spec=dict(doc))


_CSV_BLOCK = 1 << 12  # rows formatted per write; bounds the text held at once

# Tables for _format_values.  _SCALE_MUL[k + 22] is 10^k for 0 <= k <= 22 and
# _SCALE_DIV[k + 22] is 10^-k for -22 <= k < 0 (exact doubles); the other
# factor is 1, so a scaling by 10^k rounds once.
_POW10 = np.concatenate([[1.0], np.cumprod(np.full(22, 10.0))])
_SCALE_MUL = np.concatenate([np.ones(22), _POW10])
_SCALE_DIV = np.concatenate([_POW10[:0:-1], np.ones(23)])
# Little-endian 4-byte words of text: four digits (index 0..9999); a NUL or
# "-" sign byte, a digit and "." (index d, or d + 10 when negative); and
# "e+dd"/"e-dd" (index e + 99).
_DIGITS4 = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
_DIGITS4 = _DIGITS4.astype(np.uint8) + np.uint8(ord("0"))
_WORD_DIGITS = _DIGITS4.view("<u4").ravel()
_WORD_LEAD = (np.repeat([0, ord("-")], 10) | (np.tile(np.arange(10), 2) + ord("0")) << 8 | ord(".") << 16).astype("<u4")
_EXPONENTS = np.arange(-99, 100)
_WORD_EXP = np.column_stack(
    [np.full(_EXPONENTS.size, ord("e")), np.where(_EXPONENTS < 0, ord("-"), ord("+")), _DIGITS4[np.abs(_EXPONENTS), 2:]]
).astype(np.uint8).view("<u4").ravel()
_LOG10_2 = 0.30102999566398120
# Scaling to y = |v|·10^(12-e) takes at most three roundings (two powers of
# ten, one decade fix), so |y - y_exact| < 3·2^-53·1e13 < 0.0034, and rint(y)
# is the correctly rounded mantissa whenever y lies at least this far from
# the nearest half-integer.
_TIE_MARGIN = 0.01
_TEXT_MAX = 20  # bytes of the longest %.12e text, -d.dddddddddddde-ddd


def _format_values(vals: np.ndarray, ncols: int) -> bytes:
    """The bytes of ``%.12e`` for each value, "," between columns and a newline after each row.

    Each value fills six 4-byte words: the sign (NUL when positive), the
    leading digit and ".", NUL, twelve digits, "e" with the exponent's sign
    and two digits, then its separator and NULs.  The NULs are removed at the
    end.  The digits of a value whose decimal exponent e lies within 44 of
    12 are those of the integer nearest to y = |v|·10^(12-e), computed in
    floats; values that the rounding margin cannot decide (near-ties, and
    non-finite, subnormal or far-exponent values) are formatted by ``%``.
    """
    a = np.abs(vals)
    # a lies in [2^(E-1), 2^E), so e is floor(log10 a) or one less
    e = np.floor((np.frexp(a)[1] - 1) * _LOG10_2)
    fast = (np.abs(12.0 - e) <= 44.0) & (a > 0.0)
    k = np.where(fast, 12.0 - e, 0.0).astype(np.intp) + 22
    k1 = np.clip(k, 0, 44)
    k2 = k - k1 + 22
    with np.errstate(invalid="ignore"):  # inf - inf in the margin test
        y = a * _SCALE_MUL[k1] / _SCALE_DIV[k1] * _SCALE_MUL[k2] / _SCALE_DIV[k2]
        high = y >= 1e13  # e was one below floor(log10 a)
        y = np.where(high, y / 10.0, y)
        decided = fast & (np.abs(y - np.floor(y) - 0.5) >= _TIE_MARGIN) | (a == 0.0)
    m = np.rint(np.where(decided, y, 0.0))
    carry = m == 1e13  # 9.9999999999995e... rounds up to the next decade
    m = np.where(carry, 1e12, m)
    e = np.where(fast & decided, e + high + carry, 0.0).astype(np.intp)
    # m = (lead·1e4 + hi)·1e8 + mid·1e4 + lo = q·1e8 + r; a float quotient of
    # integers below 2^53 by 1e8 or 1e4 floors to the integer quotient
    q = np.floor(m / 1e8)
    r = m - q * 1e8
    lead = np.floor(q / 1e4)
    mid = np.floor(r / 1e4)

    words = np.empty((vals.size, 6), "<u4")
    words[:, 0] = _WORD_LEAD[lead.astype(np.intp) + 10 * np.signbit(vals)]
    words[:, 1] = _WORD_DIGITS[(q - lead * 1e4).astype(np.intp)]
    words[:, 2] = _WORD_DIGITS[mid.astype(np.intp)]
    words[:, 3] = _WORD_DIGITS[(r - mid * 1e4).astype(np.intp)]
    words[:, 4] = _WORD_EXP[e + 99]
    seps = words.reshape(-1, ncols, 6)[:, :, 5]
    seps[:, :-1] = ord(",")
    seps[:, -1] = ord("\n")
    slots = words.view(np.uint8)
    rest = np.flatnonzero(~decided)
    if rest.size:
        text = f"%-{_TEXT_MAX}.12e" * rest.size % tuple(vals[rest].tolist())
        text = np.frombuffer(text.encode(), np.uint8).reshape(rest.size, _TEXT_MAX)
        slots[rest, :_TEXT_MAX] = np.where(text == ord(" "), 0, text)
    flat = slots.ravel()
    return flat[flat != 0].tobytes()


def _write_csv(path: str, columns: dict) -> None:
    """Write the columns with every value as ``%.12e``, one block of rows at a time.

    The bytes are those of ``"%.12e" % v`` per value (see ``_format_values``).
    """
    keys = list(columns)
    table = np.column_stack([np.asarray(columns[k], dtype=float) for k in keys])
    with open(path, "wb") as fh:
        fh.write((",".join(keys) + "\n").encode())
        for r0 in range(0, len(table), _CSV_BLOCK):
            fh.write(_format_values(table[r0 : r0 + _CSV_BLOCK].ravel(), len(keys)))


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)!r}")


@dataclass
class RunResult:
    out_dir: str
    artifacts: list
    unresolved: bool = False


def run_scenario(path: str, out_dir: Optional[str] = None) -> RunResult:
    """Validate and execute one scenario (or manifest) file; write its artifacts only if the run succeeds."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"document: not valid JSON (line {exc.lineno}, column {exc.colno})"]) from None
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"document: not valid JSON (undecodable byte at offset {exc.start})"]) from None
    if isinstance(doc, dict) and "scenario" in doc:
        doc = doc["scenario"]
    scenario = validate_scenario(doc)
    try:
        artifacts, unresolved = _RUNNERS[scenario.task](scenario)
    except ParameterError as exc:
        raise ScenarioError([f"{exc.field}: {exc}"]) from None
    manifest = {
        "scenario": scenario.to_json(),
        "artifacts": sorted(artifacts),
        "package": {"name": "ddelab", "version": __version__},
    }
    out_dir = out_dir or os.path.join(os.getcwd(), scenario.name)
    os.makedirs(out_dir, exist_ok=True)
    for name, content in {**artifacts, "manifest.json": manifest}.items():
        target = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            _write_csv(target, content)
        elif name.endswith(".json"):
            _write_json(target, content)
        else:
            with open(target, "w") as fh:
                fh.write(content)
    return RunResult(out_dir=out_dir, artifacts=sorted(artifacts) + ["manifest.json"], unresolved=unresolved)


def _traj_columns(traj) -> dict:
    ts = traj.ts
    ev = np.sort([e["t"] for e in traj.events])
    flags = np.zeros(ts.size)
    if ev.size:
        # the nearest event to each node is one of the two around its insertion point
        k = np.searchsorted(ev, ts)
        gap = np.minimum(np.abs(ev[np.maximum(k - 1, 0)] - ts), np.abs(ev[np.minimum(k, ev.size - 1)] - ts))
        flags[gap < 1e-12] = 1.0
    return {"t": ts, "x": traj.xs, "x_delayed": traj.eval_many(ts - 1.0), "derivative_flag": flags}


def _run_simulate(sc: Scenario):
    p = sc.params
    system = _system_from(p["system"])
    T = p["T"]
    traj = integrate(system, _history_from(p["history"], system), T, N=p["N"])
    arts = {
        "trajectory.csv": _traj_columns(traj),
        "events.json": [{"t": e["t"], "kind": e["kind"]} for e in traj.events],
    }
    if p["plot"]:
        sub = np.linspace(0.0, T, min(4001, math.ceil(20 * T) + 1))
        vals = traj.eval_many(sub)
        arts["plot.svg"] = emit_plot(
            [Series(sub, vals)],
            phase=[(vals, traj.eval_many(sub - 1.0), "default")],
            title=sc.name,
        )
    return arts, False


def _run_threshold(sc: Scenario):
    p = sc.params
    res = find_dstar(p["c"], bracket=p["bracket"], tol=p["tol"], T_max=p["T_max"], k=p["k"])
    return {"threshold.json": {"c": p["c"], **res.to_dict()}}, bool(res.unresolved)


def _run_envelope(sc: Scenario):
    p = sc.params
    return {"envelope.json": envelopes(p["c"], p["d"], p["d0"], k=p["k"]).to_dict()}, False


def _run_manifold(sc: Scenario):
    p = sc.params
    sol = shoot_branch(
        _system_from(p["system"]), p["branch"], kappa=p["kappa"], eps_seed=p["eps_seed"], T=p["T"], N=p["N"]
    )
    lo, hi = sol.domain
    tt = np.linspace(max(lo, -15.0), hi - 0.5, 4001)
    lm = sol.landmarks.to_dict()
    lm.update({"kappa": sol.kappa, "eps_seed": sol.eps_seed, "lambda0": sol.lambda0, "equilibrium": sol.equilibrium})
    return {"manifold.csv": {"t": tt, "x": sol.eval_many(tt)}, "landmarks.json": lm}, False


def _run_spectrum(sc: Scenario):
    p = sc.params
    return {"spectrum.json": spectrum_report(p["rate"], p["slope"], p["pairs"]).to_dict()}, False


def _run_periodic(sc: Scenario):
    p = sc.params
    system = _system_from(p["system"])
    transient = 0.7 * p["T"] if p["transient"] is None else p["transient"]

    def run(N_run, T_run):
        traj = integrate(system, HistoryFunction.constant(1.2), T_run, N=N_run)
        return traj, traj, 0.0

    _, orbit, flo, _ = find_orbit(system, run, p["N"], p["T"], level=p["level"], transient=transient)
    if orbit is None:
        return {"orbit.json": {"found": False}}, True
    doc = {"found": True, **orbit.to_dict()}
    unresolved = False
    if system.kind == "smooth":
        # null when no hat mesh resolves the orbit's trivial multiplier
        doc["floquet"] = None if flo is None else flo.to_dict()
        unresolved = flo is None
    return {"orbit.json": doc, "orbit_samples.csv": {"t": orbit.samples_t, "x": orbit.samples_x}}, unresolved


def _run_hopf(sc: Scenario):
    p = sc.params
    found = hopf_orbit_search(p["c"], p["d"], p["k"], p["n"], j=p["j"], alphas=p["alpha_grid"])
    if found is None:
        return {"hopf.json": {"found": False}}, True
    doc = {
        "found": True,
        "alpha": found.alpha,
        "amplitude": found.amplitude,
        "newton_residual": found.orbit.residual,
        "orbit": found.orbit.to_dict(),
        "angles": found.data.to_dict(),
    }
    return {"hopf.json": doc, "hopf_orbit.csv": {"t": found.orbit.samples_t, "x": found.orbit.samples_x}}, False


def _run_diagram(sc: Scenario):
    p = sc.params
    diag = connection_diagram(p["c"], p["d"], p["k"], p["n"], with_hopf=p["with_hopf"], hopf_alphas=p["alpha_grid"],
                              N=p["N"], T_orbit=p["T_orbit"])
    return {"diagram.json": diag.to_dict()}, bool(diag.unresolved)


def _run_figure(sc: Scenario):
    p = sc.params
    preset = FIGURE_PRESETS[p["preset"]]
    a, b, k, n = preset["a"], preset["b"], preset["k"], preset["n"]
    system = System.smooth(a, b, k=k, n=n)
    T, N = p["T"], p["N"]
    arts = {}
    series = []
    phase = []
    if "alphas" not in preset:
        plus = shoot_branch(system, "plus", T=T, N=N)
        minus = shoot_branch(system, "minus", T=min(T, 40.0), N=N)
        for name, sol in (("plus", plus), ("minus", minus)):
            lo, hi = sol.domain
            tt = np.linspace(max(lo, -10.0), hi - 0.5, 4001)
            vals = sol.eval_many(tt)
            arts[f"{name}.csv"] = {"t": tt, "x": vals, "x_delayed": sol.eval_many(np.maximum(tt - 1.0, lo))}
            series.append(Series(tt, vals, name))
        tt = np.linspace(0.0, T, 501)
        xi = plus.equilibrium
        arts["stationary.csv"] = {"t": tt, "x": np.full_like(tt, xi)}
        series.append(Series(tt, np.full_like(tt, xi), "stationary"))
        sel = np.linspace(1.0, plus.domain[1] - 0.5, 3001)
        phase.append((plus.eval_many(sel), plus.eval_many(sel - 1.0), "plus"))
    else:
        found = hopf_orbit_search(a, b, k, n, j=1, alphas=preset["alphas"])
        if found is None:
            return {"figure.json": {"found": False}}, True
        orbit, sysn = found.orbit, found.system
        reps = int(np.ceil(6.0 / orbit.omega))
        qt = np.concatenate([orbit.samples_t + m * orbit.omega for m in range(reps)])
        qx = np.tile(orbit.samples_x, reps)
        arts["hopf_orbit.csv"] = {"t": qt, "x": qx}
        series.append(Series(qt, qx, "hopf"))
        for name, seed in unstable_disk_runs(sysn, orbit)[1]:
            traj = integrate(sysn, seed, T, N=N)
            tt = np.linspace(0.0, T, 4001)
            vals = traj.eval_many(tt)
            arts[f"{name}.csv"] = {"t": tt, "x": vals}
            series.append(Series(tt, vals, name))
            if name == "plus":
                sel = np.linspace(1.0, T, 3001)
                phase.append((traj.eval_many(sel), traj.eval_many(sel - 1.0), "plus"))
    arts["figure.svg"] = emit_plot(series, phase=phase or None, title=f"preset {p['preset']}")
    return arts, False


_RUNNERS = {
    "simulate": _run_simulate,
    "threshold": _run_threshold,
    "envelope": _run_envelope,
    "manifold": _run_manifold,
    "spectrum": _run_spectrum,
    "periodic": _run_periodic,
    "hopf": _run_hopf,
    "diagram": _run_diagram,
    "figure": _run_figure,
}
TASKS = tuple(_RUNNERS)
