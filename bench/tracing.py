"""Spans around ddelab's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces every public function of every loaded ddelab
module, in each module namespace that binds it, with a wrapper that records a
span (name, start, end, parent, counts).  It also wraps the public methods of
``Trajectory``, the period-map assembly ``periodic._period_map_matrix``, and
``numpy.linalg.eig`` as seen from ``ddelab.periodic``.
``uninstall`` restores the originals.  Spans stay in memory until
``layer_metrics`` and ``write`` are called.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np


def _crossing_counts(args, kwargs, result, bind):
    bound = bind(*args, **kwargs)
    bound.apply_defaults()
    traj, t_lo, t_hi = bound.arguments["self"], bound.arguments["t_lo"], bound.arguments["t_hi"]
    t_hi = traj.T if t_hi is None else t_hi
    # the same piece window Trajectory.crossings walks
    i_lo = max(0, int(np.searchsorted(traj.ts, t_lo, side="right")) - 1)
    i_hi = min(len(traj.ts) - 2, int(np.searchsorted(traj.ts, t_hi, side="left")))
    return {"pieces_scanned": max(0, i_hi - i_lo + 1), "found": len(result)}


def _artifact_bytes(args, kwargs, result, bind):
    return {"artifact_bytes": sum(os.path.getsize(os.path.join(result.out_dir, a)) for a in result.artifacts)}


# counts recorded per span, keyed by span name
COUNTERS = {
    "dde.integrate": lambda a, kw, r, b: {"pieces": len(r.ts) - 1, "events": len(r.events)},
    "dde.crossings": _crossing_counts,
    "dde.eval_many": lambda a, kw, r, b: {"points": int(np.size(r))},
    "threshold.classify_zd": lambda a, kw, r, b: {"unresolved": int(r.verdict == "UNRESOLVED")},
    "manifold.shoot_branch": lambda a, kw, r, b: {"pieces": len(r.traj.ts) - 1, "plus": int(r.branch == "plus")},
    "periodic.detect_periodic": lambda a, kw, r, b: {"found": int(r is not None)},
    "scenarios.run_scenario": _artifact_bytes,
}


def _module_view(module, **overrides):
    """A module object holding ``module``'s attributes, some of them replaced."""
    view = types.ModuleType(module.__name__)
    view.__dict__.update(vars(module))
    view.__dict__.update(overrides)
    view.__getattr__ = lambda name: getattr(module, name)  # attributes the module loads lazily
    return view


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        bind = inspect.signature(fn).bind if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1, "start": time.perf_counter(), "end": None}
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result, bind)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from ddelab import dde

        modules = {n: m for n, m in sys.modules.items() if n.startswith("ddelab.") and m is not None}
        wrapped = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ not in modules:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}", obj)
                self._patch(module, attr, wrapped[obj])
        for attr, obj in list(vars(dde.Trajectory).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(dde.Trajectory, attr, self.wrap(f"dde.{attr}", obj))
        periodic = modules["ddelab.periodic"]
        # period-map assembly is private, but it is the layer the Newton solve
        # and the Floquet analysis share; skipped if the name goes away
        if hasattr(periodic, "_period_map_matrix"):
            self._patch(periodic, "_period_map_matrix", self.wrap("periodic.period_map", periodic._period_map_matrix))
        linalg = _module_view(np.linalg, eig=self.wrap("periodic.eig", np.linalg.eig))
        self._patch(periodic, "np", _module_view(np, linalg=linalg))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------
    def _children(self) -> list:
        kids = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span["parent"] >= 0:
                kids[span["parent"]].append(i)
        return kids

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i]["parent"]
        while p >= 0:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def table(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        kids = self._children()
        rows = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(int)})
        for i, span in enumerate(self.spans):
            dur = span["end"] - span["start"]
            row = rows[span["name"]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - sum(self.spans[k]["end"] - self.spans[k]["start"] for k in kids[i])
            for key, val in span.get("counts", {}).items():
                row["counts"][key] += val
        return rows

    def layer_metrics(self) -> dict:
        rows = self.table()
        kids = self._children()
        spans = self.spans

        def row(name):
            return rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})

        def count(name, key):
            return row(name)["counts"].get(key, 0)

        def child_spans(i, name):
            return [k for k in kids[i] if spans[k]["name"] == name]

        restart_all = restart_last = 0
        rungs = 0
        hopf_integrations = 0
        for i, span in enumerate(spans):
            if span["name"] == "threshold.classify_zd":
                pieces = [spans[k]["counts"]["pieces"] for k in child_spans(i, "dde.integrate")]
                if pieces:
                    restart_all += sum(pieces)
                    restart_last += pieces[-1]
            elif span["name"] == "periodic.connection_diagram":
                rungs += sum(spans[k]["counts"]["plus"] for k in child_spans(i, "manifold.shoot_branch"))
            elif span["name"] == "dde.integrate" and self._has_ancestor(i, "periodic.hopf_orbit_search"):
                hopf_integrations += 1
        probes = sum(
            1 for i, s in enumerate(spans)
            if s["name"] == "threshold.classify_zd" and self._has_ancestor(i, "threshold.find_dstar")
        )
        scanned, found = count("dde.crossings", "pieces_scanned"), count("dde.crossings", "found")
        m = {}
        for name in ("dde.crossings", "dde.first_crossing", "dde.integrate", "dde.eval_many",
                     "threshold.classify_zd", "manifold.shoot_branch", "periodic.detect_periodic",
                     "periodic.monodromy_multipliers", "periodic.period_map", "periodic.eig",
                     "periodic.hopf_orbit_search", "spectrum.stationary_points", "scenarios.run_scenario"):
            m[f"{name}.calls"] = (row(name)["calls"], "count")
        for name in ("dde.crossings", "dde.first_crossing", "dde.integrate", "dde.eval_many",
                     "threshold.find_dstar", "threshold.classify_zd", "manifold.shoot_branch",
                     "periodic.connection_diagram", "periodic.detect_periodic", "periodic.monodromy_multipliers",
                     "periodic.period_map", "periodic.eig", "periodic.hopf_orbit_search", "spectrum.stationary_points",
                     "scenarios.run_scenario", "plotting.emit_plot"):
            m[f"{name}.self_s"] = (row(name)["self_s"], "s")
        m.update({
            "dde.crossings.pieces_scanned": (scanned, "count"),
            "dde.crossings.found": (found, "count"),
            "dde.crossings.pieces_per_found": (scanned / max(found, 1), "ratio"),
            "dde.integrate.pieces": (count("dde.integrate", "pieces"), "count"),
            "dde.integrate.events": (count("dde.integrate", "events"), "count"),
            "dde.eval_many.points": (count("dde.eval_many", "points"), "count"),
            "threshold.find_dstar.probes": (probes, "count"),
            "threshold.classify_zd.unresolved": (count("threshold.classify_zd", "unresolved"), "count"),
            "threshold.classify_zd.restart_ratio": (restart_all / restart_last if restart_last else 0.0, "ratio"),
            "manifold.shoot_branch.pieces": (count("manifold.shoot_branch", "pieces"), "count"),
            "periodic.connection_diagram.rungs": (rungs, "count"),
            "periodic.detect_periodic.found": (count("periodic.detect_periodic", "found"), "count"),
            "periodic.hopf_orbit_search.integrate_calls": (hopf_integrations, "count"),
            "scenarios.artifact_bytes": (count("scenarios.run_scenario", "artifact_bytes"), "bytes"),
        })
        return m

    def write(self, directory: str, traced_wall_s: float) -> str:
        """Write ``spans.json`` and ``layers.md``; return the table text."""
        os.makedirs(directory, exist_ok=True)
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump([{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans], fh)
        rows = self.table()
        lines = [
            f"| span | calls | total s | self s | self % of {traced_wall_s:.3f} s | counts |",
            "| --- | ---: | ---: | ---: | ---: | --- |",
        ]
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            counts = ", ".join(f"{k}={v}" for k, v in sorted(row["counts"].items()))
            lines.append(
                f"| {name} | {row['calls']} | {row['total_s']:.4f} | {row['self_s']:.4f} | "
                f"{100.0 * row['self_s'] / traced_wall_s:.1f} | {counts} |"
            )
        text = "\n".join(lines) + "\n"
        with open(os.path.join(directory, "layers.md"), "w") as fh:
            fh.write(text)
        return text
