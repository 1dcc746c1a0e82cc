#!/usr/bin/env python3
"""End-to-end benchmark of the GNRFET reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload cold-table --seed 1 --seconds 20 --trace 0

Builds the worker (perfbench/perfbench.exe) and the daemon
(bin/gnrfet_cli.exe) with dune, runs the workload in fresh processes with
observability off, checks the outputs against perfbench/reference.json and
prints one JSON result as the last line of stdout.  With --trace 1 it runs
the workload twice, untraced then traced, and prints the per-layer metrics
of BENCHMARK.json instead.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-table", "warm-explore", "serve-mix")
# Set-ups per measured run, each in a fresh process; setup_s is their
# median.  Cheap set-ups get more samples: their few milliseconds are the
# noisiest figure the benchmark reports.  warm-explore's set-up generates
# two tables (~7 s), so it takes two samples to keep a run well inside the
# benchmark's time budget.
SETUP_SAMPLES = {"cold-table": 15, "warm-explore": 2, "serve-mix": 9}
# serve-mix client connections: two, but never more than the CPUs this
# process may run on.
MAX_CONNECTIONS = 2
WORKER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
STATE_DIR = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "gnrfet_cli.exe")


class BenchError(Exception):
    pass


def build():
    """Build the worker and the daemon from the checkout's sources."""
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} missing: run from the root of a gnrfet source checkout")
    # The shared dune cache and the compilers' temporary files would live
    # outside the checkout; keep the build inside it.
    tmp = os.path.join(STATE_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    cmd = [dune, "build", "--root", ROOT, "./perfbench/perfbench.exe", "./bin/gnrfet_cli.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("build timed out") from e
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        raise BenchError("build failed")


def steal_seconds():
    """Host steal time so far, from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def kill_group(pgid):
    """Stop every process of the worker's session and wait until none is left."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)


class Pass:
    """One worker process: its set-up time and its result record."""

    def __init__(self, setup_s, result):
        self.setup_s = setup_s
        self.result = result


def worker(workload, seed, seconds, traced, setup_only=False):
    """Run the worker in a fresh process with a fresh table directory."""
    os.makedirs(STATE_DIR, exist_ok=True)
    workdir = os.path.join(STATE_DIR, f"run-{os.getpid()}-{time.monotonic_ns()}")
    tables = os.path.join(workdir, "tables")
    os.makedirs(tables)
    env = dict(os.environ, GNRFET_OBS="1" if traced else "0", GNRFET_TABLE_DIR=tables)
    for var in ("GNRFET_DOMAINS", "GNRFET_FAULT"):
        env.pop(var, None)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0", "--workdir", workdir, "--cli", CLI,
           "--connections", str(min(MAX_CONNECTIONS, len(os.sched_getaffinity(0))))]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--spans", os.path.join(STATE_DIR, f"spans-{workload}.json")]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, kill_group, args=(proc.pid,))
    timer.start()
    setup_s, last = None, None
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == "ready" and setup_s is None:
                setup_s = time.monotonic() - t0
            elif line:
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        kill_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or setup_s is None:
        raise BenchError(f"{workload} worker exited with code {code}")
    if setup_only:
        return Pass(setup_s, None)
    try:
        return Pass(setup_s, json.loads(last))
    except (TypeError, ValueError) as e:
        raise BenchError(f"{workload} worker printed no result") from e


def reference_failures(workload, result):
    """Compare the worker's outputs with perfbench/reference.json."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f).get(workload, {})
    errors, failed = [], 0
    outputs = result["outputs"]
    if workload == "cold-table":
        tol = ref["tolerance"]
        for name, want in ref["devices"].items():
            got = outputs.get(name)
            if got is None:
                errors.append(f"{name}: no table")
                continue
            if got["failed_points"] != want["failed_points"] or \
                    abs(got["ion"] - want["ion"]) > tol * abs(want["ion"]):
                errors.append(f"{name}: ion {got['ion']:.6g} / failed {got['failed_points']}, "
                              f"reference {want['ion']:.6g} / {want['failed_points']}")
                failed += got["points"]
    elif workload == "warm-explore":
        # Along VT the lowest-VDD row is flat to within the VDD jitter, so
        # the reference pins the row of the min-EDP cell and a band around
        # its EDP, not the VT column.
        tol = ref["tolerance"]
        for name, want in ref["devices"].items():
            got = outputs.get(name, {"min_edp_cell": None, "min_edp": 0})
            row = got["min_edp_cell"] and got["min_edp_cell"][0]
            if row != want["min_edp_row"] or abs(got["min_edp"] - want["min_edp"]) > tol * want["min_edp"]:
                errors.append(f"{name}: min-EDP cell {got['min_edp_cell']} EDP {got['min_edp']:.4g}, "
                              f"reference row {want['min_edp_row']} EDP {want['min_edp']:.4g}")
                failed += 1
    return errors, failed


def checked(workload, p):
    """(correct, attempted, failed, errors) of one measured pass."""
    r = p.result
    ref_errors, ref_failed = reference_failures(workload, r)
    errors = r["errors"] + ref_errors
    failed = r["failed"] + ref_failed
    return not errors and failed == 0, r["attempted"], failed, errors


def env_line(label, p, nproc, steal_s):
    env = dict(p.result["env"], nproc=nproc, steal_s=round(steal_s, 3), elapsed_s=p.result["elapsed_s"],
               setup_s=p.setup_s, run=label)
    print(json.dumps({"env": env}), flush=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]


def measured(workload, seed, seconds):
    nproc = len(os.sched_getaffinity(0))
    steal0 = steal_seconds()
    samples = [worker(workload, seed, seconds, False, setup_only=True).setup_s
               for _ in range(SETUP_SAMPLES[workload] - 1)]
    p = worker(workload, seed, seconds, False)
    samples.append(p.setup_s)
    env_line("untraced", p, nproc, steal_seconds() - steal0)
    correct, attempted, failed, errors = checked(workload, p)
    r = p.result
    metrics = {
        "setup_s": metric(statistics.median(samples), "s"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MiB"),
        "throughput": metric(r["throughput"], "op/s"),
    }
    return correct, attempted, failed, errors, metrics


def traced(workload, seed, seconds):
    nproc = len(os.sched_getaffinity(0))
    steal0 = steal_seconds()
    plain = worker(workload, seed, seconds, False)
    steal1 = steal_seconds()
    env_line("untraced", plain, nproc, steal1 - steal0)
    tr = worker(workload, seed, seconds, True)
    env_line("traced", tr, nproc, steal_seconds() - steal1)
    _, a0, f0, e0 = checked(workload, plain)
    _, a1, f1, e1 = checked(workload, tr)
    errors = e0 + e1
    if plain.result["digest"] != tr.result["digest"]:
        errors.append("traced outputs differ from untraced outputs")
    values = dict(tr.result["layers"])
    share = values.get("trace.measured_share")
    if share is not None and abs(share - 1) > 0.1:
        errors.append(f"measured layers cover {share:.3f} of the op time")
    # Latency samples come from the untraced pass, so tracing cannot skew them.
    lat = plain.result["latency"]
    for kind, prefix in (("explore", "latency_ms"), ("iv", "iv_ms"), ("table", "table_ms")):
        if kind in lat:
            values[f"{prefix}.p50"] = lat[kind]["p50"]
            values[f"{prefix}.p90"] = lat[kind]["p90"]
            values[f"{prefix}.n"] = lat[kind]["n"]
    values["trace.throughput_ratio"] = tr.result["throughput"] / plain.result["throughput"]
    values["parallel.pool_width"] = tr.result["env"]["pool_width"]
    metrics = {name: metric(values.get(name, 0), unit) for name, unit in per_layer_names()}
    failed = f0 + f1
    return not errors and failed == 0, a0 + a1, failed, errors, metrics


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exit so the worker's session is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        run = traced if args.trace else measured
        correct, attempted, failed, errors, metrics = run(args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
