"""The ddelab benchmark: time to the paper's verdicts, per workload and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.py``) in a fresh single-process Python run
with BLAS/OpenMP threads capped at the CPU count, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are ``wall_ref_s`` (median pass time at
reference machine speed, see ``SpeedProbe``), ``setup_s`` (median of several
timed set-ups, at reference speed too) and ``peak_rss_mib``; the plain median pass wall time
``wall_s`` is printed above the result.  With ``--trace 1`` they are the
per-layer metrics of one traced pass, with the untraced ``wall_s`` and the
tracing overhead.
The program is imported from ``src/`` of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3  # set-ups timed per run; the workload process is the last one
WATCHDOG_MARGIN_S = 120.0  # set-ups and checks, on top of the timed passes
CAL_LOOP = 5000  # iterations of the calibration loop
CAL_INTERVAL_S = 0.05  # one calibration sample per 50 ms
CAL_REF_S = 3.4e-4  # mean calibration sample on the reference machine

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class SpeedProbe:
    """Samples the speed of the CPU the worker runs on, from this process.

    The host preempts this machine's CPUs in bursts, so the same pass can take
    1.5 times longer from one minute to the next.  The bursts hit each CPU on
    its own: the speeds of the two CPUs of the reference machine, averaged
    over 0.5-2 s, correlate by only 0.1-0.25.  So every ``CAL_INTERVAL_S`` a
    thread here moves to the CPU the worker's main thread last ran on and
    times a fixed pure-Python loop there, stamped with ``time.monotonic``,
    the clock the worker stamps its passes with.  A pass's wall time times
    ``CAL_REF_S`` over the mean loop time inside the pass is its time at
    reference speed.  The probe runs in this otherwise idle process, so the
    program's own threads and GIL use cannot change the scale factor.
    """

    def __init__(self):
        self.pid = 0  # the worker to follow; 0 until one starts
        self.samples: list = []  # (time stamp, loop seconds)
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _worker_cpu(self) -> int:
        # field 39 of /proc/<pid>/stat, "processor"; fields 3 on follow the ")" of the name
        with open(f"/proc/{self.pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])

    def _run(self):
        while not self._done.wait(CAL_INTERVAL_S):
            try:
                os.sched_setaffinity(0, {self._worker_cpu()})  # this thread only
            except OSError:  # no worker runs just now
                continue
            t0 = time.monotonic()
            acc = 0
            for i in range(CAL_LOOP):
                acc += i * i
            t1 = time.monotonic()
            self.samples.append((0.5 * (t0 + t1), t1 - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()

    def reference_seconds(self, start: float, end: float) -> float:
        inside = [dt for t, dt in self.samples if start <= t <= end] or [dt for _, dt in self.samples]
        return (end - start) * CAL_REF_S / statistics.mean(inside)


def _worker_env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _start(args, mode: str, deadline: float, probe: SpeedProbe):
    """Start a worker for ``probe`` to follow; return it, its watchdog, and its
    set-up's [start, READY] stamps."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    probe.pid = proc.pid
    # a worker still running at the deadline is killed, so the run always ends
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.monotonic()
    if line.strip() != "READY":
        _stop(proc, watchdog)
        raise RuntimeError(f"worker set-up failed (exit code {proc.returncode})")
    return proc, watchdog, [t0, ready]


def _stop(proc, watchdog) -> None:
    proc.wait()
    watchdog.cancel()
    proc.stdout.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ddelab", "__init__.py")):
        print(f"error: no ddelab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # the timed passes take about --seconds; the last one, and the traced one, may run past it
    deadline = time.monotonic() + WATCHDOG_MARGIN_S + (3 if args.trace else 2) * args.seconds

    setups = []
    result = None
    with SpeedProbe() as probe:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, watchdog, stamps = _start(args, "setup", deadline, probe)
                _stop(proc, watchdog)
                setups.append(stamps)
        proc, watchdog, stamps = _start(args, "traced" if args.trace else "untraced", deadline, probe)
        setups.append(stamps)
        try:
            for line in proc.stdout:
                if line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
        finally:
            _stop(proc, watchdog)
    if proc.returncode != 0 or result is None:
        print(f"error: worker exited with code {proc.returncode} without a result", file=sys.stderr)
        return 1

    walls = [end - start for start, end in result["passes"]]
    refs = [probe.reference_seconds(start, end) for start, end in result["passes"]]
    wall_s, wall_ref_s = statistics.median(walls), statistics.median(refs)
    print(f"# environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# passes: {len(walls)}, pass wall times (s): {[round(w, 4) for w in walls]}, "
          f"at reference speed (s): {[round(w, 4) for w in refs]}")
    print(f"# wall_s = {wall_s:.4f} s (median pass wall time)")
    if args.trace:
        start, end = result["traced_pass"]
        overhead_ref_s = probe.reference_seconds(start, end) - wall_ref_s
        print(f"# untraced wall_s = {wall_s:.4f} s, traced wall_s = {end - start:.4f} s, "
              f"tracing overhead at reference speed = {overhead_ref_s:.4f} s")
        for row in result["layer_table"].splitlines():
            print(f"# {row}")
        layers = dict(result["layers"], **{"trace.untraced_wall_s": [wall_s, "s"],
                                           "trace.overhead_ref_s": [overhead_ref_s, "s"]})
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        setup_refs = [probe.reference_seconds(start, end) for start, end in setups]
        values = {"wall_ref_s": wall_ref_s, "setup_s": statistics.median(setup_refs),
                  "peak_rss_mib": result["peak_rss_mib"]}
        print(f"# set-up samples (s): {[round(end - start, 4) for start, end in setups]}, "
              f"at reference speed (s): {[round(s, 4) for s in setup_refs]}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
