#!/usr/bin/env python3
"""The Corona simulator benchmark: one command per workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. It builds the shipped corona-run,
corona-bench-trace (perfbench/bench_trace.cc) and corona-bench-ref
(perfbench/host_ref.cc) into .bench_build/,
writes the workload's scenario with the seed in its `seed` key, and then

  --trace 0  times repeated corona-run invocations from outside (wall,
             user+sys CPU and peak RSS of the child) for --seconds, each
             between two runs of the fixed reference corona-bench-ref,
             and prints their medians plus the median set-up time, every
             time scaled by the host speed the reference saw;
  --trace 1  runs the scenario untraced, then twice through
             corona-bench-trace, and prints the per-layer numbers.

Every invocation's outputs are checked; any violation makes the result
`"correct": false`. The last line of stdout is the JSON result. Outputs
go to .bench_out/. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
CORONA_RUN = BUILD / "corona" / "corona-run"
TRACER = BUILD / "corona-bench-trace"
REFERENCE = BUILD / "corona-bench-ref"

# Each invocation is sized to about a twelfth of --seconds on a 4-CPU
# host: a run reports the median of ten or more timed invocations (never
# fewer than 3). On a shared host single invocations spread by a quarter
# from one to the next, so the median needs many of them. At --seconds 36
# paper_grid gets 3000 requests; Uniform keeps the paper's 2x band with
# margin from about 2500.
INVOCATIONS_PER_RUN = 12
MIN_INVOCATIONS = 3
# --dry-run samples taken before each timed invocation, so set-up is
# sampled across the whole run like wall_s. One takes about 3 ms.
SETUP_REPEATS = 10
# obs.overhead_s is the median of this many paired obs-on/obs-off
# invocations; the order within a pair alternates.
OBS_PAIRS = 5
CHILD_TIMEOUT_S = 150
# The host's speed moves by up to 2x in phases of seconds to minutes as
# its other tenants come and go, and a phase can outlast a whole run. So
# every timed child runs between two runs of corona-bench-ref, a fixed
# workload, on the same pinned CPUs, and each time is reported as
# measured x REFERENCE_S / (geometric mean of the two reference times):
# the time on a host where the reference takes REFERENCE_S, about its
# time on an idle 4-CPU Xeon (Sapphire Rapids) host.
REFERENCE_S = 0.2
REFERENCE_CHECKSUM = "checksum 4815383f77969cd1"


class Workload:
    """A generated scenario plus its correctness checks."""

    def __init__(self, name, requests_per_s, runs, sim_threads, body, check):
        self.name = name
        # Single-worker simulated requests per host second, measured on a
        # 4-CPU x86 host; sizes one invocation to a twelfth of --seconds.
        self.requests_per_s = requests_per_s
        self.runs = runs
        self.sim_threads = sim_threads
        self.body = body
        self.check = check

    def requests(self, seconds):
        return max(500, round(self.requests_per_s * seconds / INVOCATIONS_PER_RUN))

    def scenario(self, seed, requests, out, obs=True, sim_threads=None):
        """Scenario text; every output path lives under `out`."""
        threads = self.sim_threads if sim_threads is None else sim_threads
        text = self.body(seed, requests, out, obs)
        text += "\n[execution]\nthreads = 1\nprogress = off\n"
        if threads:
            text += f"sim_threads = {threads}\n"
        text += f"csv = {out}/runs.csv\ncheckpoint = {out}/runs.ckpt\n"
        return text


def paper_grid_body(seed, requests, out, obs):
    return f"""# The scenarios/fig9.scenario shape at a benchmark-sized budget.
[scenario]
name = bench-paper-grid
requests = {requests}
warmup_requests = {requests // 5}
seed = {seed}
seed_policy = fixed

[workloads]
workload = all

[configs]
config = paper
"""


def xbar256_body(seed, requests, out, obs):
    return f"""# One 256-cluster crossbar run: the sharded executor's workload.
[scenario]
name = bench-xbar256
requests = {requests}
seed = {seed}
seed_policy = fixed

[workloads]
workload = Uniform clusters=256

[configs]
config = XBar/OCM clusters=256
"""


def coherent_body(seed, requests, out, obs):
    text = f"""# Sharing patterns and SPLASH references through the coherent
# front end, unicast vs broadcast invalidation, every obs plane on.
[scenario]
name = bench-coherent
requests = {requests}
warmup_requests = {requests // 8}
seed = {seed}
seed_policy = fixed

[workloads]
workload = Migratory phase_length=2
workload = Producer-Consumer
workload = False Sharing lines=32
workload = Barnes
workload = Ocean

[configs]
config = XBar/OCM frontend=coherent inval_policy=unicast label=unicast
config = XBar/OCM frontend=coherent broadcast_threshold=2 label=broadcast
"""
    if obs:
        text += f"""
[observability]
sample_period = 500000
trace_capacity = 65536
snapshot = on
rollup = on
dir = {out}/obs
"""
    return text


def check_paper_grid(rows):
    """The paper's bands, as tests/integration_test.cc asserts them."""
    errors = []
    for row in rows:
        bandwidth = float(row["achieved_bytes_per_second"])
        if row["config"].endswith("/ECM") and bandwidth > 0.96e12 * 1.05:
            errors.append(f"{row['workload']} on {row['config']}: "
                          f"{bandwidth:.4g} B/s exceeds the ECM ceiling")
    uniform = {row["config"]: row for row in rows if row["workload"] == "Uniform"}
    speedup = int(uniform["LMesh/ECM"]["elapsed_ticks"]) / int(
        uniform["XBar/OCM"]["elapsed_ticks"])
    if speedup < 2.0:
        errors.append(f"Uniform: XBar/OCM is only {speedup:.3f}x LMesh/ECM")
    return errors


WORKLOADS = {
    w.name: w for w in (
        Workload("paper_grid", 1000, 75, 0, paper_grid_body, check_paper_grid),
        Workload("xbar256_sharded", 150000, 1, 2, xbar256_body, lambda rows: []),
        Workload("coherent_observed", 5000, 10, 0, coherent_body, lambda rows: []),
    )
}

# Counts that must repeat exactly across two runs of one seed.
EXACT_COUNTS = ("events", "mesh_hops", "token_grants", "grants_batched",
                "sideband_messages", "obs_bytes")


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def host_cpus():
    return len(os.sched_getaffinity(0))


def child_env():
    # corona-run honours CORONA_* overrides; the scenario must run as written.
    return {k: v for k, v in os.environ.items() if not k.startswith("CORONA_")}


def pin(count):
    """Pin this process, and so every child, to the last `count` CPUs it
    may use, so a timed child and the references around it see the same
    CPUs."""
    cpus = sorted(os.sched_getaffinity(0))[-count:]
    os.sched_setaffinity(0, cpus)


def build():
    for needed in ("CMakeLists.txt", "src", "tools/corona_run.cc"):
        if not (ROOT / needed).exists():
            die(f"no Corona source tree here ({needed} is missing); "
                "run from the root of a checkout")
    jobs = str(max(1, min(4, host_cpus())))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "corona-run",
                  "corona-bench-trace", "corona-bench-ref", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            die("build failed", 1)


class Sample:
    def __init__(self, wall, cpu, rss_mb, code):
        self.wall, self.cpu, self.rss_mb, self.code = wall, cpu, rss_mb, code


def timed(cmd, log, keep_stdout=False):
    """Run cmd as a child; wall from outside, CPU and peak RSS from wait4.
    stderr, and stdout if keep_stdout, go to log. wait4 blocks until the
    child exits, so the wall time has no polling granularity."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=err if keep_stdout else subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode)


def rel(path):
    return str(path.relative_to(ROOT))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(path):
    """Total bytes and per-file digests of every file under path."""
    files = sorted(p for p in path.rglob("*") if p.is_file())
    return (sum(p.stat().st_size for p in files),
            {str(p.relative_to(path)): digest(p) for p in files})


class Run:
    """One benchmark run: its workload, seed, checks and counters."""

    def __init__(self, workload, seed, seconds, cpus):
        self.w = workload
        self.seed = seed
        self.host_cpus = cpus
        self.requests = workload.requests(seconds)
        self.base = OUT / workload.name
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def write_scenario(self, tag, **kwargs):
        out = fresh_dir(self.base / tag)
        path = out / "bench.scenario"
        path.write_text(self.w.scenario(self.seed, self.requests, rel(out), **kwargs))
        return out, path

    def check_setup(self):
        """Write the set-up scenario once and check corona-run's --dry-run
        of it (load, resolve, expand). This untimed invocation also warms
        the page cache for the timed ones."""
        out, path = self.write_scenario("setup")
        self.setup_cmd = [str(CORONA_RUN), rel(path), "--dry-run"]
        self.setup_log = out / "stderr.log"
        proc = subprocess.run(self.setup_cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True)
        expected = f"= {self.w.runs} runs at {self.requests} requests"
        if proc.returncode != 0 or expected not in proc.stdout:
            die(f"set-up failed: {proc.stdout.strip()} {proc.stderr.strip()}", 1)

    def time_setup(self, repeats):
        """Wall seconds of `repeats` --dry-run children; only the child
        is timed."""
        samples = [timed(self.setup_cmd, self.setup_log) for _ in range(repeats)]
        if any(s.code != 0 for s in samples):
            die("set-up failed: " + self.setup_log.read_text()[-400:], 1)
        return [s.wall for s in samples]

    def reference(self):
        """Wall seconds of one corona-bench-ref, with one thread per
        thread the workload simulates on."""
        log = self.base / "reference.log"
        cmd = [str(REFERENCE), "--threads", str(max(1, self.w.sim_threads))]
        sample = timed(cmd, log, keep_stdout=True)
        if sample.code != 0 or log.read_text().strip() != REFERENCE_CHECKSUM:
            die("corona-bench-ref failed: " + log.read_text()[-400:], 1)
        return sample.wall

    def check_output(self, out, label):
        """Every run ok with its full budget, plus the workload's checks."""
        self.attempted += self.w.runs
        rows = read_rows(out / "runs.csv")
        errors = []
        if len(rows) != self.w.runs:
            errors.append(f"{len(rows)} runs in the CSV, expected {self.w.runs}")
        for row in rows:
            if row["status"] != "ok":
                self.failed += 1
                errors.append(f"run {row['run']} failed: {row['error']}")
            elif int(row["requests_issued"]) != self.requests:
                errors.append(f"run {row['run']} issued {row['requests_issued']}"
                              f" of {self.requests} requests")
        if not errors:
            errors += self.w.check(rows)
        self.errors += [f"{label}: {e}" for e in errors]
        return rows

    def corona_run(self, out, scenario, label):
        sample = timed([str(CORONA_RUN), rel(scenario), "--quiet", "--no-table"],
                       out / "stderr.log")
        if sample.code != 0:
            self.child_failed(out, label, sample.code)
            return sample, None
        return sample, self.check_output(out, label)

    def child_failed(self, out, label, code):
        self.attempted += self.w.runs
        self.failed += self.w.runs
        self.errors.append(f"{label}: exited {code}: "
                           + (out / "stderr.log").read_text()[-400:])

    def traced(self, tag, **scenario_args):
        """One pass of corona-bench-trace; returns its sample, dir, metrics."""
        out, scenario = self.write_scenario(tag, **scenario_args)
        cmd = [str(TRACER), rel(scenario), "--spans", rel(out / "spans.json"),
               "--metrics", rel(out / "metrics.json")]
        sample = timed(cmd, out / "stderr.log")
        if sample.code != 0:
            self.child_failed(out, tag, sample.code)
            return sample, out, None
        self.check_output(out, tag)
        metrics = json.loads((out / "metrics.json").read_text())
        obs = out / "obs"
        metrics["obs_bytes"] = tree_bytes(obs)[0] if obs.exists() else 0
        return sample, out, metrics

    def result(self, metrics):
        return {"correct": not self.errors, "attempted": max(1, self.attempted),
                "failed": self.failed, "metrics": metrics}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(run, seconds):
    """--trace 0: set-up, then corona-run invocations for `seconds`.

    The first invocation warms the page cache and the allocator and is
    checked but not reported. Every time is divided by the host's speed
    next to it: the geometric mean of the reference runs before and
    after, over REFERENCE_S."""
    run.check_setup()
    setups, samples, slowdowns, references, expected_csv = [], [], [], [], None
    start = time.perf_counter()
    before = run.reference()
    while True:
        setup = run.time_setup(SETUP_REPEATS)
        out, scenario = run.write_scenario("timed")
        sample, rows = run.corona_run(out, scenario, f"invocation {len(samples)}")
        after = run.reference()
        slowdown = math.sqrt(before * after) / REFERENCE_S
        before = after
        references.append(after)
        setups += [s / slowdown for s in setup]
        samples.append(sample)
        slowdowns.append(slowdown)
        if rows is not None:
            # Same seed, same bytes: simulated results must not depend on
            # the host or on which invocation this was.
            current = digest(out / "runs.csv")
            if expected_csv is None:
                expected_csv = current
            elif current != expected_csv:
                run.errors.append("CSV bytes differ between invocations of one seed")
        elapsed = time.perf_counter() - start
        if len(samples) > MIN_INVOCATIONS and elapsed + sample.wall > seconds:
            break
    timed = list(zip(samples, slowdowns))[1:]
    median = statistics.median
    return run.result({
        "wall_s": metric(median([s.wall / slowdown for s, slowdown in timed]), "s"),
        "cpu_s": metric(median([s.cpu / slowdown for s, slowdown in timed]), "s"),
        "peak_rss_mb": metric(median([s.rss_mb for s, _ in timed]), "MB"),
        "setup_s": metric(median(setups), "s"),
    }), {"wall_s": [round(s.wall, 4) for s in samples],
         "reference_s": [round(r, 4) for r in references]}


def gmean_speedup(rows):
    """Figure 8: geometric-mean XBar/OCM speedup over LMesh/ECM."""
    elapsed = {(r["workload"], r["config"]): int(r["elapsed_ticks"]) for r in rows}
    ratios = [elapsed[(w, "LMesh/ECM")] / elapsed[(w, "XBar/OCM")]
              for (w, c) in elapsed if c == "XBar/OCM" and (w, "LMesh/ECM") in elapsed]
    return math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def obs_cost(run, reference):
    """Median over paired invocations of obs-on minus obs-off wall time.

    Host speed drifts over minutes, so each difference is taken between
    two neighbouring invocations, and the order within a pair alternates.
    Every invocation's CSV must equal `reference`, the obs-on bytes."""
    differences = []
    for i in range(OBS_PAIRS):
        walls = {}
        for obs in ((True, False) if i % 2 == 0 else (False, True)):
            tag = "obs-on" if obs else "obs-off"
            out, scenario = run.write_scenario(tag, obs=obs)
            sample, rows = run.corona_run(out, scenario, f"{tag} pair {i}")
            if rows is None:
                return 0.0
            if digest(out / "runs.csv") != reference:
                run.errors.append(f"{tag} pair {i}: CSV bytes differ from the "
                                  "untraced obs-on run")
            walls[obs] = sample.wall
        differences.append(walls[True] - walls[False])
    return statistics.median(differences)


def trace(run):
    """--trace 1: the per-layer numbers from corona-bench-trace."""
    run.check_setup()
    # The first invocation in a checkout runs cold; warm up before timing.
    run.corona_run(*run.write_scenario("untraced"), "warm-up")
    reference_s = run.reference()
    out, scenario = run.write_scenario("untraced")
    untraced, rows = run.corona_run(out, scenario, "untraced")
    passes = [run.traced("traced-a"), run.traced("traced-b")]
    if rows is None or any(m is None for _, _, m in passes):
        return run.result({})
    (a_sample, a_out, a), (b_sample, b_out, b) = passes

    for tag, traced_out in (("traced-a", a_out), ("traced-b", b_out)):
        for name in ("runs.csv", "runs.ckpt"):
            if digest(traced_out / name) != digest(out / name):
                run.errors.append(f"{tag}: {name} bytes differ from corona-run's")
    for key in EXACT_COUNTS:
        if a.get(key, 0) != b.get(key, 0):
            run.failed += 1
            run.errors.append(f"{key} did not repeat: {a.get(key, 0)} vs {b.get(key, 0)}")

    mean = lambda key: (a[key] + b[key]) / 2
    shard_speedup, obs_overhead = 0.0, 0.0
    if run.w.sim_threads:
        if a["shards"] != run.w.sim_threads:
            run.errors.append(f"ran on {a['shards']} shards, not {run.w.sim_threads}")
        k1_sample, k1_out, k1 = run.traced("traced-k1", sim_threads=1)
        if k1 is not None:
            if digest(k1_out / "runs.csv") != digest(out / "runs.csv"):
                run.errors.append("sim_threads = 1 results differ from the sharded run")
            shard_speedup = ratio(k1["sim_s"], mean("sim_s"))
    if (out / "obs").exists():
        if tree_bytes(out / "obs")[1] != tree_bytes(a_out / "obs")[1]:
            run.errors.append("traced obs files differ from corona-run's")
        obs_overhead = obs_cost(run, digest(out / "runs.csv"))

    l1 = a.get("l1_hits", 0) + a.get("l1_misses", 0)
    l2 = a.get("l2_hits", 0) + a.get("l2_misses", 0)
    invals = a.get("inval_hits", 0) + a.get("inval_misses", 0)
    wall = (a_sample.wall + b_sample.wall) / 2
    return run.result({
        "campaign.parse_s": metric(mean("parse_s"), "s"),
        "campaign.lease_s": metric(mean("lease_s"), "s"),
        "campaign.sink_s": metric(mean("sink_s"), "s"),
        "corona.sim_s": metric(mean("sim_s"), "s"),
        "corona.sim_share": metric(ratio(mean("sim_s"), wall), "ratio"),
        "sim.events": metric(a["events"], "count"),
        "sim.ns_per_event": metric(ratio(mean("sim_s"), a["events"]) * 1e9, "ns"),
        "sim.shard_speedup": metric(shard_speedup, "x"),
        "sim.cpu_per_wall": metric(ratio(a_sample.cpu + b_sample.cpu,
                                         a_sample.wall + b_sample.wall), "ratio"),
        "mesh.sim_s": metric(mean("mesh_sim_s"), "s"),
        "mesh.hops": metric(a.get("mesh_hops", 0), "count"),
        "mesh.ns_per_hop": metric(ratio(mean("mesh_sim_s"), a.get("mesh_hops", 0)) * 1e9, "ns"),
        "xbar.sim_s": metric(mean("xbar_sim_s"), "s"),
        "xbar.token_grants": metric(a.get("token_grants", 0), "count"),
        "xbar.grants_batched": metric(a.get("grants_batched", 0), "count"),
        "xbar.batch_ratio": metric(ratio(a.get("grants_batched", 0),
                                         a.get("token_grants", 0)), "ratio"),
        "workload.gen_s": metric(mean("gen_s"), "s"),
        "workload.calls": metric(a["gen_calls"], "count"),
        "cache.accesses": metric(l1, "count"),
        "cache.l1_hit_ratio": metric(ratio(a.get("l1_hits", 0), l1), "ratio"),
        "cache.l2_hit_ratio": metric(ratio(a.get("l2_hits", 0), l2), "ratio"),
        "coherence.sideband_messages": metric(a.get("sideband_messages", 0), "count"),
        "coherence.broadcasts": metric(a.get("broadcasts", 0), "count"),
        "coherence.inval_hit_ratio": metric(ratio(a.get("inval_hits", 0), invals), "ratio"),
        "obs.overhead_s": metric(obs_overhead, "s"),
        "obs.bytes": metric(a["obs_bytes"], "bytes"),
        "memory.accesses": metric(a.get("mc_accesses", 0), "count"),
        "memory.peak_queue": metric(a["mc_peak_queue"], "count"),
        "memory.service_ns": metric(a["mc_service_ns"], "ns"),
        "xbar.token_wait_ns": metric(a["token_wait_ns"], "ns"),
        "corona.fig8_gmean_speedup": metric(gmean_speedup(rows), "x"),
        "bench.trace_overhead": metric(ratio(wall, untraced.wall), "x"),
        "bench.host_cpus": metric(run.host_cpus, "count"),
        "bench.reference_s": metric(reference_s, "s"),
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    workload = WORKLOADS[args.workload]
    cpus = host_cpus()
    if max(1, workload.sim_threads) > cpus:
        die(f"{workload.name} runs {workload.sim_threads} shard threads but this "
            f"host has {cpus} CPU(s); refusing to report it")

    build()
    pin(max(1, workload.sim_threads))
    run = Run(workload, args.seed, args.seconds, cpus)
    if args.trace:
        result, invocations = trace(run), []
    else:
        result, invocations = measure(run, args.seconds)
    for error in run.errors:
        print(f"run.py: check failed: {error}", file=sys.stderr)
    info = {"workload": workload.name, "seed": args.seed, "requests": run.requests,
            "invocations": invocations, "host_cpus": cpus}
    (OUT / workload.name / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
