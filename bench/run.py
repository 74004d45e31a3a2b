#!/usr/bin/env python3
"""fracbeam benchmark: CLI job mixes timed end to end, or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload free-decay --seed 1 --seconds 20 --trace 0

One client runs the workload's jobs back to back through
``fracbeam.cli.main(argv)`` in this process, each writing its table with
``--output`` (a closed loop).  The first pass warms up; later passes must
write the same bytes as the first.  Passes repeat until ``--seconds`` have
been spent, and then the untimed oracle (oracle.py) checks each job's table.

After every job the client also times a fixed reference kernel, so each
pass carries its own measure of the machine's speed at that moment.
``--trace 0`` reports the end-to-end metrics: median pass wall and CPU time
in units of the reference kernel's time, rows written per reference time,
peak resident memory, and the set-up time of a cold interpreter (median of
fresh processes started between the passes).  ``--trace 1``
runs untraced passes for half the time and traced passes for the other half
and reports per-layer self times and work counts (spans.py), plus the
tracing overhead.  The last stdout line is the result object; the line
before it holds the details: environment, run order, per-job timings and
every oracle failure.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
import spans
from workloads import WORKLOADS, Job, jobs_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9      # at least this many set-up probes; one follows each pass
REF_SHARE = 0.05       # reference kernel time after a job, as a share of its wall time

END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "rows_per_ref": "1/ref",
              "peak_rss_mb": "MB", "setup_s": "s"}

# Reference kernel BLAS part per workload: (dot length, dots).  8192 stays on
# one OpenBLAS thread.  Free-decay's L1 history sums, and the np.convolve of
# model-tables' ramp (one BLAS dot per output sample), are long enough to run
# on every core, so their references do the same.
THREADED = (24576, 200)
REFERENCE = {"free-decay": THREADED, "model-tables": THREADED}
REFERENCE_DEFAULT = (8192, 150)

# A fresh interpreter imports the CLI and builds the first mode of both
# published tip cases through the user path (``coeffs``).
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fracbeam import cli
for case in ("no-tip", "tip-mass"):
    if cli.main(["coeffs", "--case", case, "--output", sys.argv[2]]) != 0:
        sys.exit(1)
print(repr(time.perf_counter() - t0))
"""


def import_cli():
    if not (SRC / "fracbeam" / "__init__.py").is_file():
        sys.exit(f"bench: no fracbeam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from fracbeam import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported fracbeam from {cli.__file__}, not from {SRC}")
    return cli


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def reference_kernel(dot_len, dots):
    """A timer of a fixed kernel like the workload's own work, in wall seconds.

    Interpreted float arithmetic, float formatting as in the CSV writer, and
    reversed-stride BLAS dot products as in an L1 history sum.  A shared
    machine's speed drifts by half or more over tens of seconds; dividing a
    pass's time by the kernel's time measured during that pass cancels the
    drift.  Dots too short for OpenBLAS threads keep a single-threaded
    workload's reference single-threaded: woken threads would spin on, and
    bill CPU to, the next job.
    """
    b = np.linspace(0.0, 1.0, dot_len)
    x = np.linspace(1.0, 2.0, dot_len)[::-1]

    def reference_s():
        t0 = time.perf_counter()
        acc, parts = 0.0, []
        for i in range(3000):
            acc += i * 1.0000001
            parts.append(format(acc, ".17g"))
        for _ in range(dots):
            acc += float(np.dot(b, x))
        ",".join(parts)
        return time.perf_counter() - t0
    return reference_s


def summary(samples):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) > 10:
        k = len(xs) - 10
        out.update(tail=xs[k - 1], tail_level=k / len(xs))
    return out


class Runner:
    """Runs job passes and keeps the timings; ``check`` runs the oracle afterwards."""

    def __init__(self, cli, jobs, workdir, reference_s):
        self.cli, self.jobs, self.workdir = cli, jobs, workdir
        self.reference_s = reference_s
        self.coeffs = {}
        self.kept = {}         # job name -> (sha256, path) of its first table
        self.good_runs = {}    # job name -> runs that wrote exactly the kept table
        self.rows = {}         # job name -> rows of its checked table
        self.failures = []
        self.attempted = 0
        self.tracer = None
        (workdir / "first").mkdir()

    def _run(self, job):
        path = self.workdir / f"{job.name}.{job.fmt}"
        argv = job.argv(str(path))
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            status = self.cli.main(argv)
        except SystemExit as exc:          # argparse usage error
            status = exc.code
        except Exception:                  # a crash fails the job, not the run
            status = traceback.format_exc(limit=3)
        return time.perf_counter() - t0, time.process_time() - c0, status, path

    def _record(self, job, status, path, index):
        """Keep a job's first table; later runs must write the same bytes."""
        if status != 0:
            self.failures.append({"pass": index, "job": job.name, "runs": 1,
                                  "error": f"exit status {status}"})
            return False
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if job.name not in self.kept:
            keep = self.workdir / "first" / path.name
            path.replace(keep)
            self.kept[job.name] = (digest, keep)
        elif digest != self.kept[job.name][0]:
            self.failures.append({"pass": index, "job": job.name, "runs": 1,
                                  "error": "output differs from the job's first table"})
            return False
        self.good_runs[job.name] = self.good_runs.get(job.name, 0) + 1
        return True

    def check(self):
        """Oracle on each job's kept table; every run that wrote it shares the verdict.

        Runs after the measured passes, so that the oracle's memory does not
        show in the peak resident memory of the passes.
        """
        for job in self.jobs:
            if job.name not in self.kept:
                continue
            path = self.kept[job.name][1]
            try:
                tab = oracle.check(job.command, job.params, path.read_text(), job.fmt, self.coeffs)
            except (oracle.OracleError, ValueError, KeyError, IndexError) as exc:
                self.failures.append({"pass": None, "job": job.name,
                                      "runs": self.good_runs[job.name], "error": repr(exc)})
            else:
                self.rows[job.name] = tab.data.shape[0]

    def load_coefficients(self):
        """Modal coefficients of both tip cases from the CLI, checked, for the oracle."""
        for case in oracle.TIPS:
            job = Job(f"oracle-coeffs-{case}", "coeffs", {"case": case})
            _, _, status, path = self._run(job)
            try:
                if status != 0:
                    raise oracle.OracleError(f"exit status {status}")
                tab = oracle.read_table(path.read_text(), "csv")
                oracle.check_coeffs(job.params, tab, None)
                self.coeffs[case] = oracle.coeff_row(tab)
            except (oracle.OracleError, ValueError, IndexError) as exc:
                self.failures.append({"pass": None, "job": job.name, "runs": 0,
                                      "error": repr(exc)})

    def self_check(self):
        """The oracle must accept a genuine table and reject it with one value corrupted."""
        job = Job("self-check", "simulate", {
            "model": "linear", "alpha": 0.5, "er": 0.1, "c": 1.24, "k": 1.24,
            "q0": 1.0, "v0": 0.0, "dt": 0.01, "t_final": 4.0})
        _, _, status, path = self._run(job)
        text = path.read_text()
        try:
            oracle.check(job.command, job.params, text, job.fmt, self.coeffs)
        except oracle.OracleError as exc:
            return f"genuine table rejected: {exc}"
        lines = text.splitlines()
        row = len(lines) - 150     # a data row in the second half of the run
        cells = lines[row].split(",")
        cells[1] = format(float(cells[1]) * (1.0 + 1e-6), ".17g")
        lines[row] = ",".join(cells)
        try:
            oracle.check(job.command, job.params, "\n".join(lines) + "\n", job.fmt, self.coeffs)
        except oracle.OracleError:
            return "ok"
        return "corrupted table accepted"

    def run_pass(self, index):
        started = time.perf_counter()
        rec = {"index": index, "traced": self.tracer is not None, "wall": 0.0, "cpu": 0.0,
               "good": [], "job_wall": [], "job_cpu": [], "ref": [], "job_ref": []}
        for i, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job = (index, i)
            wall, cpu, status, path = self._run(job)
            self.attempted += 1
            rec["wall"] += wall
            rec["cpu"] += cpu
            rec["job_wall"].append(wall)
            rec["job_cpu"].append(cpu)
            if self._record(job, status, path, index):
                rec["good"].append(job.name)
            refs = []
            while sum(refs) < REF_SHARE * wall or not refs:
                refs.append(self.reference_s())
            rec["ref"] += refs
            rec["job_ref"].append(statistics.median(refs))
        rec["start"] = started
        rec["span"] = time.perf_counter() - started
        return rec

    def rows_of(self, rec):
        """Rows of checked tables written in one pass."""
        return sum(self.rows.get(name, 0) for name in rec["good"])

    def run_for(self, seconds, first_index, between=None):
        """Passes until ``seconds`` are spent; the last may overrun by half a pass.

        ``between`` is called after each pass, inside the time budget.
        """
        passes = []
        deadline = time.perf_counter() + seconds
        while True:   # at least one pass
            passes.append(self.run_pass(first_index + len(passes)))
            if between is not None:
                between()
            left = deadline - time.perf_counter()
            if left <= 0.5 * statistics.median(p["span"] for p in passes):
                return passes


def setup_probe_s(workdir):
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                           str(workdir / "setup.csv")],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def in_ref(p, key):
    """A pass's wall or CPU seconds over the median reference kernel time of that pass."""
    return p[key] / statistics.median(p["ref"])


def end_to_end(runner, passes, setup, peak_rss_mb):
    return {
        "wall_ref": statistics.median(in_ref(p, "wall") for p in passes),
        "cpu_ref": statistics.median(in_ref(p, "cpu") for p in passes),
        "rows_per_ref": statistics.median(runner.rows_of(p) / in_ref(p, "wall") for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def per_layer(tracer, traced, untraced):
    """Median over traced passes of each layer's per-pass self time and counts."""
    totals = tracer.per_pass()
    per = []
    for p in traced:
        agg = dict(totals[p["index"]])
        steps = agg.get("fracode.steps", 0)
        stepping = (agg.get("fracode.integrate_linear_s", 0)
                    + agg.get("fracode.integrate_nonlinear_s", 0))
        agg["fracode.ns_per_step"] = stepping / steps * 1e9 if steps else 0.0
        points = agg.get("multiscale.sweep_points", 0)
        agg["multiscale.us_per_point"] = (agg.get("multiscale.frequency_sweep_s", 0) / points * 1e6
                                          if points else 0.0)
        agg["trace.self_sum_s"] = sum(v for k, v in agg.items()
                                      if k.endswith("_s") and not k.startswith("trace."))
        per.append(agg)
    out = {name: statistics.median(a.get(name, 0) for a in per) for name in spans.metric_names()}
    out["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    # untraced passes rescaled to the machine speed of the traced ones
    traced_ref = statistics.median(statistics.median(p["ref"]) for p in traced)
    out["trace.untraced_wall_s"] = statistics.median(in_ref(p, "wall") for p in untraced) * traced_ref
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return {k: (int(v) if spans.unit(k).startswith("count") else v) for k, v in out.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "environment": environment()}
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(cli, jobs_for(args.workload, args.seed), workdir,
                        reference_kernel(*REFERENCE.get(args.workload, REFERENCE_DEFAULT)))
        runner.load_coefficients()
        details["self_check"] = runner.self_check()
        setup = []
        # the warm-up pass counts towards --seconds but not towards the metrics
        clock0 = time.perf_counter()
        warmup = runner.run_pass(0)
        budget = args.seconds - (time.perf_counter() - clock0)
        if args.trace:
            untraced = runner.run_for(budget - args.seconds / 2, 1)
            runner.tracer = spans.Tracer()
            runner.tracer.install()
            try:
                traced = runner.run_for(args.seconds / 2, 1 + len(untraced))
            finally:
                runner.tracer.uninstall()
            passes = untraced + traced
        else:
            passes = runner.run_for(budget, 1, lambda: setup.append(setup_probe_s(workdir)))
            while len(setup) < SETUP_REPEATS:
                setup.append(setup_probe_s(workdir))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        runner.tracer.write(trace_path)
        details["spans_file"] = str(trace_path.relative_to(ROOT))
        metrics = per_layer(runner.tracer, traced, untraced)
        units = {k: spans.unit(k) for k in metrics}
    else:
        metrics = end_to_end(runner, passes, setup, peak_rss_mb)
        units = END_TO_END
        details["setup_s_samples"] = setup
    details["jobs"] = [{"name": j.name, "argv": j.argv("OUT")} for j in runner.jobs]
    # run order: pass start offsets from the warm-up pass, in seconds
    details["passes"] = [{"index": p["index"], "traced": p["traced"],
                          "start_s": p["start"] - clock0, "wall_s": p["wall"],
                          "cpu_s": p["cpu"], "ref_median_s": statistics.median(p["ref"]),
                          "rows": runner.rows_of(p),
                          "job_wall_s": p["job_wall"], "job_ref_s": p["job_ref"]}
                         for p in [warmup] + passes]
    timed = [p for p in passes if not p["traced"]]
    details["timings"] = {
        "pass_wall_s": summary([p["wall"] for p in timed]),
        "pass_cpu_s": summary([p["cpu"] for p in timed]),
        "job_wall_s": summary([w for p in timed for w in p["job_wall"]]),
        "job_cpu_s": summary([c for p in timed for c in p["job_cpu"]]),
        "reference_s": summary([r for p in timed for r in p["ref"]]),
        "rows_per_s": summary([runner.rows_of(p) / p["wall"] for p in timed]),
    }
    details["failures"] = runner.failures
    failed = sum(f["runs"] for f in runner.failures)
    correct = not runner.failures and details["self_check"] == "ok"
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
