#!/usr/bin/env python3
"""The repository benchmark: builds the simulator, runs one workload and
prints every metric by name and unit, then one JSON result line.

    python3 perfbench/run.py --workload closed_rw --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload closed_rw --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --check [--seed N]

--trace 0 measures the end-to-end metrics with no tracing; --trace 1
reports the per-layer metrics of the traced (composed) run. --check runs
every workload once through every driver mode and compares the archive
digests, including fleet_striped at 3 shards against 1 shard.

Every measurement runs in its own driver process (perfbench_driver, see
driver.cc), so a process that dies is recorded as failed requests for
that run rather than aborting the benchmark. The exit code is 0 when
every correctness check passed, 1 when one failed, and 2 when the
benchmark could not be built or started.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

WORKLOADS = ("closed_rw", "replay_cache", "fleet_striped")

# The fewest rounds a run makes, however short --seconds is. A --trace 0
# round is one untraced run and one set-up-only run; a --trace 1 round
# is one traced and one untraced run. Rounds count whether or not their
# processes survive, so a run whose children all die still ends.
MIN_ROUNDS = 5
MIN_PAIRS = 2
# Every run ends within this many seconds of its start, build excluded.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "host_ios_per_s": "IO/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_read_resp_us": "sim_us",
    "sim_read_p99_us": "sim_us",
    "sim_write_resp_us": "sim_us",
    "sim_iops": "sim_IO/s",
    "io_done_ratio": "ratio",
}

# Per-layer metrics of the traced run: name -> unit. The driver's
# "metrics" object supplies all but the self-time and trace entries.
PER_LAYER = {
    "workload.gen_s": "s",
    "workload.gen_ns_per_req": "ns",
    "workload.requests": "count",
    "workload.construct_s": "s",
    "ssd.construct_s": "s",
    "ssd.submit_s": "s",
    "ssd.submit_calls": "count",
    "ssd.submit_ns_per_req": "ns",
    "ftl.preload_s": "s",
    "ftl.host_reads": "count",
    "ftl.host_writes": "count",
    "ftl.gc_invocations": "count",
    "ftl.gc_migrated_pages": "count",
    "ftl.erases": "count",
    "ftl.refreshes": "count",
    "ftl.ida_refreshes": "count",
    "ftl.adjusted_wordlines": "count",
    "ftl.refresh_migrated_pages": "count",
    "ftl.write_amplification": "ratio",
    "ftl.ida_served_ratio": "ratio",
    "ftl.msb_lower_invalid_pct": "%",
    "ftl.rmw_reads": "count",
    "ftl.merged_reads": "count",
    "flash.reads": "count",
    "flash.programs": "count",
    "flash.adjusts": "count",
    "flash.sensing_ops": "count",
    "flash.sensing_saved_ratio": "ratio",
    "flash.die_util": "ratio",
    "flash.channel_util": "ratio",
    "ecc.retry_rounds": "count",
    "ecc.retry_rounds_per_read": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.invalidations": "count",
    "sim.prep_wave_s": "s",
    "sim.run_self_s": "s",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.events_per_io": "ratio",
    "sim.simulated_s": "sim_s",
    "sim.past_schedules": "count",
    "fleet.run_s": "s",
    "fleet.cpu_util": "ratio",
    "fleet.sys_share": "ratio",
    "fleet.ctx_switches": "count",
    "fleet.epochs": "count",
    "fleet.requests_per_epoch": "ratio",
    "fleet.sub_requests": "count",
    "self.workload_s": "s",
    "self.ssd_s": "s",
    "self.ftl_s": "s",
    "self.sim_s": "s",
    "self.fleet_s": "s",
    "self.other_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}
LAYERS = ("workload", "ssd", "ftl", "sim", "fleet", "other")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; False (with the log) on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--parallel",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed to run: {e}")
            return False
        if p.returncode != 0:
            log(p.stdout)
            log(f"perfbench: build failed: {' '.join(cmd)}")
            return False
    return DRIVER.exists()


class Child:
    """One finished driver process: what it offered and what it said."""

    def __init__(self, offered, doc, code, maxrss_kb):
        self.offered = offered  # None when the process never said
        self.doc = doc  # None unless it exited 0 with a result
        self.code = code
        self.maxrss_kb = maxrss_kb

    @property
    def ok(self):
        return self.doc is not None


def run_child(argv, timeout_s):
    """Run one child, reap it with wait4 for its own peak RSS, and parse
    its stdout: the {"offered": N} line, then one JSON document. The
    child's stderr passes through. A child still running at @timeout_s
    is killed and counts as dead."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    first, _, rest = out.partition("\n")
    offered = None
    try:
        offered = int(json.loads(first)["offered"])
    except (ValueError, KeyError, TypeError):
        pass
    doc = None
    if code == 0:
        try:
            doc = json.loads(rest)
        except ValueError:
            doc = None
    if doc is None:
        log(f"perfbench: child {' '.join(map(str, argv[1:]))} "
            f"exited with code {code}")
    return Child(offered, doc, code, usage.ru_maxrss)


class Run:
    """Accumulates one benchmark run: children, request accounting and
    the correctness checks."""

    def __init__(self, workload):
        self.workload = workload
        self.children = []  # those that run the workload's requests
        self.checks = {}  # name -> "pass" | "fail" | "known-defect"
        self.notes = []

    def add(self, child, runs_requests=True):
        if runs_requests:
            self.children.append(child)
        return child

    def check(self, name, status, note=None):
        # A check keeps its worst status over the run.
        order = {"pass": 0, "known-defect": 1, "fail": 2}
        if order[status] >= order[self.checks.get(name, "pass")]:
            self.checks[name] = status
        if note and note not in self.notes:
            self.notes.append(note)

    def attempted(self):
        """Requests offered; a child that died before saying counts 1."""
        known = [c.offered for c in self.children if c.offered]
        fallback = max(known) if known else 1
        return sum(c.offered or fallback for c in self.children)

    def completed(self):
        """Requests completed. An untraced run's are all of its offered
        requests: its digest must equal a composed run's, which checks
        that every request completed."""
        return sum(c.doc.get("completed", c.offered)
                   for c in self.children if c.ok)

    def correct(self):
        return all(s != "fail" for s in self.checks.values())


def check_composed(run, c):
    """Checks on a quiet or traced composed run."""
    d = c.doc
    run.check("past_schedules_zero", "pass" if d["past_schedules"] == 0
              else "fail")
    run.check("device_drained",
              "pass" if d["drained"] and d["completed"] == c.offered
              else "fail")
    if d["measured"] == d["expected"]:
        run.check("measured_count", "pass")
    elif (run.workload == "closed_rw" and d["warmup_counted"] > 0 and
          d["measured"] == d["expected"] + d["warmup_counted"]):
        run.check("measured_count", "known-defect",
                  f"known defect: runClosedLoop counts "
                  f"{d['warmup_counted']} warm-up completions as measured "
                  f"({d['measured']} measured, {d['expected']} requests "
                  f"offered in the measured window)")
    else:
        run.check("measured_count", "fail",
                  f"measured {d['measured']} != expected {d['expected']}")
    if run.workload == "fleet_striped":
        run.check("fleet_sub_requests",
                  "pass" if d["sub_staged"] == d["sub_completed"]
                  else "fail")


def check_untraced(run, c, reference):
    """Checks on an untraced entry-point run against a composed one."""
    d = c.doc
    run.check("past_schedules_zero", "pass" if d["past_schedules"] == 0
              else "fail")
    if run.workload == "fleet_striped":
        run.check("fleet_sub_requests",
                  "pass" if d["sub_staged"] == d["sub_completed"]
                  else "fail")
    if reference is not None:
        same = (d["digest"] == reference["digest"] and
                d["measured"] == reference["measured"])
        run.check("digest_traced_equals_untraced",
                  "pass" if same else "fail",
                  None if same else
                  f"digest {d['digest']} != composed {reference['digest']}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def driver_argv(mode, workload, seed):
    return [str(DRIVER), mode, workload, "--seed", str(seed)]


def measure_end_to_end(workload, seed, seconds, deadline):
    """--trace 0: the quiet composed run for the simulated metrics and
    set-up, more set-up-only runs, and untraced entry-point runs until
    @seconds have passed."""
    run = Run(workload)
    t0 = time.monotonic()
    left = lambda: deadline - time.monotonic()  # noqa: E731
    quiet = run.add(run_child(driver_argv("quiet", workload, seed), left()))
    reference = quiet.doc if quiet.ok else None
    if reference:
        check_composed(run, quiet)
    setups = [reference["setup_s"]] if reference else []
    reps = []
    rounds = 0
    while left() > 0:
        rounds += 1
        c = run.add(run_child(driver_argv("run", workload, seed), left()))
        if c.ok:
            check_untraced(run, c, reference)
            reps.append(c)
        s = run.add(run_child(driver_argv("setup", workload, seed), left()),
                    runs_requests=False)
        if s.ok:
            setups.append(s.doc["setup_s"])
        if time.monotonic() - t0 >= seconds and rounds >= MIN_ROUNDS:
            break

    metrics = {}
    if reps:
        ios = [c.offered / c.doc["wall_s"] for c in reps]
        metrics["host_ios_per_s"] = statistics.median(ios)
        metrics["peak_rss_mb"] = statistics.median(
            c.maxrss_kb / 1024.0 for c in reps)
        walls = [c.doc["wall_s"] for c in reps]
        lo, med, hi = quartiles(walls)
        run.notes.append(f"{len(reps)} untraced runs, wall s median "
                         f"{med:.3f} (quartiles {lo:.3f}..{hi:.3f})")
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        run.notes.append(f"{len(setups)} set-ups, s: "
                         + " ".join(f"{s:.3f}" for s in setups))
    if reference:
        sim = reference["sim"]
        metrics["sim_read_resp_us"] = sim["read_resp_us"]
        metrics["sim_read_p99_us"] = sim["read_p99_us"]
        metrics["sim_write_resp_us"] = sim["write_resp_us"]
        metrics["sim_iops"] = sim["iops"]
    metrics["io_done_ratio"] = run.completed() / run.attempted()
    return run, metrics, reference


def measure_layers(workload, seed, seconds, deadline):
    """--trace 1: traced composed runs, each paired with an untraced
    run whose digest must equal it, until @seconds have passed."""
    run = Run(workload)
    t0 = time.monotonic()
    left = lambda: deadline - time.monotonic()  # noqa: E731
    traced, untraced = [], []
    rounds = 0
    while left() > 0:
        rounds += 1
        t = run.add(run_child(driver_argv("composed", workload, seed),
                              left()))
        if t.ok:
            check_composed(run, t)
            traced.append(t)
        u = run.add(run_child(driver_argv("run", workload, seed), left()))
        if u.ok:
            pair = t if t.ok else (traced[0] if traced else None)
            check_untraced(run, u, pair.doc if pair else None)
            untraced.append(u)
        if time.monotonic() - t0 >= seconds and rounds >= MIN_PAIRS:
            break

    # Every per-layer number comes from the traced run of median wall
    # time, so its layer self times and "other" add up to its wall.
    metrics = {}
    reference = None
    if traced:
        walls = sorted(t.doc["wall_s"] for t in traced)
        middle = walls[(len(walls) - 1) // 2]
        reference = next(t.doc for t in traced if t.doc["wall_s"] == middle)
        metrics.update(reference["metrics"])
        for layer in LAYERS:
            metrics[f"self.{layer}_s"] = reference["self_s"][layer]
        metrics["trace.wall_s"] = reference["wall_s"]
    if untraced:
        metrics["trace.untraced_wall_s"] = statistics.median(
            u.doc["wall_s"] for u in untraced)
    if traced and untraced:
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"] -
                                       metrics["trace.untraced_wall_s"])
    return run, metrics, reference


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_end_to_end(workload, metrics, reference):
    print(f"== {workload}: end-to-end metrics (no tracing)")
    for name, unit in END_TO_END.items():
        line = f"  {name:20s} {fmt(metrics.get(name, 'missing')):>14s} {unit}"
        if name == "sim_read_p99_us" and reference:
            s = reference["sim"]
            beyond = s["reads_beyond_p99_bucket"]
            line += (f"   bucket [{s['read_p99_bucket_lo_us']:.1f}, "
                     f"{s['read_p99_bucket_hi_us']:.1f}] us (1.25x "
                     f"buckets), reads beyond the bucket: "
                     f"{beyond if beyond >= 0 else 'not observable'}")
        print(line)
    fail = 1.0 - metrics["io_done_ratio"]
    print(f"  {'io_fail_ratio':20s} {fmt(fail):>14s} ratio "
          f"(= 1 - io_done_ratio)")
    if reference:
        print_reference(workload, reference)


def print_reference(workload, reference):
    """The model's accuracy reference, beside its output."""
    if workload == "closed_rw":
        print(f"  accuracy reference, paper Table III for src1_0: read "
              f"ratio {reference['read_ratio_pct']:.2f}% measured vs "
              f"{reference['paper_read_ratio_pct']:.2f}% paper; MSB reads "
              f"with an invalid lower page "
              f"{reference['msb_lower_invalid_pct']:.2f}% measured vs "
              f"{reference['paper_msb_invalid_pct']:.2f}% paper")
    print("  no other reference exists in the repository: every other "
          "simulated number here is unvalidated")


def print_layers(workload, metrics, reference):
    print(f"== {workload}: per-layer metrics (traced run)")
    for name, unit in PER_LAYER.items():
        print(f"  {name:28s} {fmt(metrics.get(name, 'missing')):>14s} "
              f"{unit}")
    if reference:
        wall = metrics["trace.wall_s"]
        print(f"  self time by layer, traced run of median wall "
              f"({wall:.3f} s):")
        total = 0.0
        for layer in LAYERS:
            s = metrics[f"self.{layer}_s"]
            total += s
            print(f"    {layer:10s} {s:9.3f} s {100 * s / wall:6.1f}%")
        print(f"    {'sum':10s} {total:9.3f} s")
        print("  spans (call, layer, spans, total s, self s):")
        for c in reference["calls"]:
            print(f"    {c['call']:48s} {c['layer']:9s} {c['spans']:>9d} "
                  f"{c['total_s']:9.3f} {c['self_s']:9.3f}")
        print("  phase timeline:")
        for p in reference["timeline"]:
            print(f"    {p['start_s']:8.3f} .. {p['end_s']:8.3f} s  "
                  f"{p['call']} x{p['spans']}")
    if "trace.overhead_s" in metrics:
        print(f"  tracing overhead: {metrics['trace.overhead_s']:.3f} s "
              f"(traced {metrics['trace.wall_s']:.3f} s - untraced "
              f"{metrics['trace.untraced_wall_s']:.3f} s)")


def print_checks(run):
    print("  correctness checks:")
    for name, status in sorted(run.checks.items()):
        print(f"    {name:32s} {status}")
    for note in run.notes:
        print(f"  note: {note}")


def benchmark(args):
    deadline = time.monotonic() + min(RUN_LIMIT_S, args.seconds + 150.0)
    if args.trace:
        run, metrics, reference = measure_layers(
            args.workload, args.seed, args.seconds, deadline)
        print_layers(args.workload, metrics, reference)
        wanted = PER_LAYER
    else:
        run, metrics, reference = measure_end_to_end(
            args.workload, args.seed, args.seconds, deadline)
        print_end_to_end(args.workload, metrics, reference)
        wanted = END_TO_END
    missing = [m for m in wanted if m not in metrics]
    if missing:
        run.check("all_metrics_measured", "fail",
                  "missing: " + ", ".join(missing))
    print_checks(run)
    attempted = run.attempted()
    result = {
        "correct": run.correct(),
        "attempted": attempted,
        "failed": attempted - run.completed(),
        "metrics": {m: {"value": metrics[m], "unit": wanted[m]}
                    for m in wanted if m in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def check_mode(seed):
    """Every workload once through every mode; all digests must agree."""
    ok = True
    for workload in WORKLOADS:
        digests = {}
        for mode in ("run", "quiet", "composed"):
            c = run_child(driver_argv(mode, workload, seed), RUN_LIMIT_S)
            digests[mode] = c.doc["digest"] if c.ok else None
        if workload == "fleet_striped":
            c = run_child(driver_argv("shards", workload, seed), RUN_LIMIT_S)
            for k in ("shards_3", "shards_1"):
                digests[k] = c.doc[k]["digest"] if c.ok else None
        same = None not in digests.values() and len(set(digests.values())) == 1
        ok &= same
        print(f"{workload:14s} {'agree' if same else 'DIFFER'}  "
              + "  ".join(f"{k}={v}" for k, v in digests.items()))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="compare archive digests across every mode")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.check and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.check:
        return check_mode(args.seed)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
