#!/usr/bin/env python3
"""Benchmark runner for mtt: times whole `mtt` commands against a host-speed
probe, checks their output, and (with --trace 1) runs the tracer for
per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload short_runs --seed 1 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
REF = os.path.join(BENCH, "ref")
WORK = os.path.join(ROOT, ".bench_work")

JOBS = ["--jobs", "2", "--quiet"]
# An invocation that runs longer than this is killed and counted as failed.
INVOCATION_TIMEOUT_S = 60
# A tracer run that takes longer than this is killed and fails.
TRACER_TIMEOUT_S = 150
# Timed invocations per run, at least; more while they fit in --seconds.
MIN_INVOCATIONS = 3
# Zero-work invocations before each timed one; setup_s is their median.
SETUP_SAMPLES = 8
# CPU seconds of one `host-probe` run on the reference host. Timings are
# scaled by this over the probe's CPU seconds in the same run, so they
# read as on a host where the probe takes exactly this long.
PROBE_REF_CPU_S = 1.0

# name: (argv after the global flags, zero-work argv, model executions per
# invocation, reference stdout). The e1 ladders are fixed by
# `Campaign::standard`; the e10 execution count is the `runs` count a
# traced `detectors` run reports.
WORKLOADS = {
    "short_runs": (["e1"], ["e1", "0"], 19 * 10 * 60, "e1.txt"),
    "long_runs": (["e1-detail", "pipeline_etl", "240"], ["e1-detail", "pipeline_etl", "0"],
                  1 * 10 * 240, "e1-detail.txt"),
    "detectors": (["e10", "--families", "80", "--seed", "42"], ["e10", "--families", "0"],
                  5394, "e10.txt"),
    "recorded": (["e1"], ["e1", "0"], 19 * 10 * 60, "e1.txt"),
}


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def mtime(path):
    return os.stat(path).st_mtime_ns if os.path.exists(path) else None


def build():
    """Build the `mtt` binary, the tracer and the host probe; return
    their paths."""
    rel = os.path.join(target_dir(), "release")
    bins = [os.path.join(rel, b) for b in ("mtt", "mtt-perftrace", "host-probe")]
    before = [mtime(b) for b in bins]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "mtt-experiment", "--bin", "mtt"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH, "tracer", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    if [mtime(b) for b in bins] != before:
        # A fresh build leaves hundreds of MB of dirty pages; without this,
        # their writeback slows the first timed invocations.
        os.sync()
    return bins


class Invocation:
    def __init__(self, wall, user, sys_, rss_kb, code, timed_out):
        self.wall, self.user, self.sys, self.rss_kb = wall, user, sys_, rss_kb
        self.code, self.timed_out = code, timed_out


def invoke(argv, stdout_path):
    """Run argv to completion; wall clock plus the child's own rusage."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        killed = threading.Event()

        def kill():
            killed.set()
            p.kill()

        timer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, ru.ru_utime, ru.ru_stime, ru.ru_maxrss, p.returncode, killed.is_set())


def same_bytes(path, ref):
    with open(path, "rb") as a, open(ref, "rb") as b:
        return a.read() == b.read()


class Workload:
    """One workload's command, its zero-work twin and its output check."""

    def __init__(self, name, mtt):
        self.name, self.mtt = name, mtt
        self.argv, self.zero_argv, self.runs, ref = WORKLOADS[name]
        self.ref = os.path.join(REF, ref)
        self.dir = os.path.join(WORK, name)
        self.out = os.path.join(self.dir, "stdout")
        self.journal = os.path.join(self.dir, "journal")
        self.runlog = os.path.join(self.dir, "metrics.ndjson")

    def command(self, zero=False):
        extra = []
        if self.name == "recorded":
            extra = ["--journal", self.journal, "--metrics", self.runlog]
        return [self.mtt] + JOBS + extra + (self.zero_argv if zero else self.argv)

    def reset(self):
        shutil.rmtree(self.journal, ignore_errors=True)
        if os.path.exists(self.runlog):
            os.remove(self.runlog)

    def setup_sample(self):
        self.reset()
        inv = invoke(self.command(zero=True), self.out + ".zero")
        return inv.wall if inv.code == 0 and not inv.timed_out else None

    def timed(self):
        """One timed invocation, then its untimed output checks."""
        self.reset()
        inv = invoke(self.command(), self.out)
        ok = inv.code == 0 and not inv.timed_out and same_bytes(self.out, self.ref)
        if ok and self.name == "recorded":
            for check in (["journal-check", self.journal], ["metrics-check", self.runlog]):
                r = subprocess.run([self.mtt] + check, cwd=ROOT,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                ok = ok and r.returncode == 0
        if not ok:
            print(f"{self.name}: invocation failed (exit {inv.code}, timed out {inv.timed_out}); "
                  f"output in {self.out}", file=sys.stderr)
        return inv, ok


def probe_cpu(probe):
    """CPU seconds of one host-probe run."""
    inv = invoke([probe], os.path.join(WORK, "probe.out"))
    if inv.code != 0 or inv.timed_out:
        raise SystemExit(f"host-probe failed (exit {inv.code}, timed out {inv.timed_out})")
    return inv.user + inv.sys


def measure(w, probe, seconds):
    """Rounds of a probe run, zero-work invocations and a timed invocation,
    then a last probe run. After the first MIN_INVOCATIONS rounds, start
    another only if a round as long as the median one so far still ends
    within `seconds`. Returns each passing invocation with its CPU seconds
    scaled by the probe runs just before and after it."""
    setups, timed, probes, attempted, failed = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < MIN_INVOCATIONS or \
            time.perf_counter() + statistics.median(rounds) < deadline:
        begin = time.perf_counter()
        probes.append(probe_cpu(probe))
        for _ in range(SETUP_SAMPLES):
            s = w.setup_sample()
            attempted += 1
            if s is None:
                failed += 1
            else:
                setups.append(s)
        inv, ok = w.timed()
        attempted += 1
        if ok:
            timed.append((inv, len(probes) - 1))
        else:
            failed += 1
        rounds.append(time.perf_counter() - begin)
    probes.append(probe_cpu(probe))
    samples = []
    for inv, i in timed:
        host = (probes[i] + probes[i + 1]) / 2
        samples.append((inv, (inv.user + inv.sys) * PROBE_REF_CPU_S / host))
    return setups, samples, probes, attempted, failed


def end_to_end(w, probe, seconds):
    setups, samples, probes, attempted, failed = measure(w, probe, seconds)
    print(json.dumps({"samples": {"wall_s": [s.wall for s, _ in samples],
                                  "user_s": [s.user for s, _ in samples],
                                  "sys_s": [s.sys for s, _ in samples],
                                  "cpu_ref_s": [c for _, c in samples],
                                  "probe_cpu_s": probes,
                                  "setup_s": setups}}))
    if not samples or not setups:
        return {}, attempted, failed
    med = statistics.median
    metrics = {
        "runs_per_cpu_s": med([w.runs / c for _, c in samples]),
        "peak_rss_mb": med([s.rss_kb / 1024 for s, _ in samples]),
        "setup_s": med(setups) * PROBE_REF_CPU_S / med(probes),
    }
    return metrics, attempted, failed


def traced(name, seed, mtt, tracer):
    """Per-layer metrics: the tracer, plus whole-command samples of
    this workload, `short_runs` and `recorded`, interleaved."""
    attempted, failed = 1, 0
    work = os.path.join(WORK, "trace")
    shutil.rmtree(work, ignore_errors=True)
    try:
        r = subprocess.run([tracer, "--workload", name, "--seed", str(seed), "--work", work],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TRACER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"tracer ran longer than {TRACER_TIMEOUT_S} s", file=sys.stderr)
        return {}, attempted, attempted
    if r.returncode != 0:
        print(f"tracer failed with exit {r.returncode}", file=sys.stderr)
        return {}, attempted, attempted
    out = json.loads(r.stdout.strip().splitlines()[-1])
    if out["counts_timed"] != out["counts_untimed"]:
        print(f"count mismatch between traced passes: {out['counts_timed']} vs "
              f"{out['counts_untimed']}", file=sys.stderr)
        failed += 1
    print(json.dumps({"counts": out["counts_timed"], "stream_cells": out["stream_cells"],
                      "stream_events": out["stream_events"]}))

    names = [name] + [n for n in ("short_runs", "recorded") if n != name]
    loads = {n: Workload(n, mtt) for n in names}
    samples = {n: [] for n in names}
    for _ in range(2):
        for n in names:
            inv, ok = loads[n].timed()
            attempted += 1
            if ok:
                samples[n].append(inv)
            else:
                failed += 1
    if any(not v for v in samples.values()):
        return {}, attempted, failed
    med_sys = {n: statistics.median(s.sys for s in v) for n, v in samples.items()}
    total = {n: statistics.median(s.user for s in v) + med_sys[n] for n, v in samples.items()}

    metrics = dict(out["metrics"])
    metrics["kernel.user_s"] = statistics.median(s.user for s in samples[name])
    metrics["kernel.sys_s"] = med_sys[name]
    metrics["kernel.sys_share"] = med_sys[name] / total[name]
    metrics["obs.overhead"] = total["recorded"] / total["short_runs"] - 1
    metrics["wall.runs_per_s"] = statistics.median(
        loads[name].runs / s.wall for s in samples[name])
    return metrics, attempted, failed


def declared_units():
    """Metric name -> unit for (end_to_end, per_layer), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


def source_digest():
    """SHA-256 over the lock file and every Rust source and manifest under
    crates/: names the code measured when the checkout has no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.lock")]
    for d, _, files in os.walk(os.path.join(ROOT, "crates")):
        paths += [os.path.join(d, f) for f in files if f.endswith((".rs", ".toml"))]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def context(stage):
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip()
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {"stage": stage, "commit": commit or "none", "source_sha256": source_digest(),
            "rustc": rustc, "nproc": os.cpu_count(), "load1": os.getloadavg()[0],
            "profile": "release", "jobs": 2}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    mtt, tracer, probe = build()
    e2e_units, layer_units = declared_units()
    for n in WORKLOADS:
        os.makedirs(os.path.join(WORK, n), exist_ok=True)
    print(json.dumps({"context": context("before")}))
    if args.trace:
        metrics, attempted, failed = traced(args.workload, args.seed, mtt, tracer)
        units = layer_units
    else:
        w = Workload(args.workload, mtt)
        metrics, attempted, failed = end_to_end(w, probe, args.seconds)
        units = e2e_units
    print(json.dumps({"context": context("after")}))
    missing = set(units) - set(metrics)
    if missing:
        print(f"missing metrics: {sorted(missing)}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
