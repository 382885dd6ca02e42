#!/usr/bin/env python3
"""The repository benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 30 --trace 0

Builds perfbench_job from the checkout's sources (Release, into
.bench_build/perfbench), then for --seconds starts one job after the other,
each in a fresh process on one simulation thread, and checks every job's
outputs. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the run's jobs);
--trace 1 runs each job untraced and then traced with the same seed, checks
that both print identical outputs, and reports the per-layer metrics. See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JOB = BUILD / "perfbench_job"

# Fresh-process set-up probes per run, made before the --seconds clock
# starts; setup_s is their median.
SETUP_PROBES = 25
# Timed jobs per run at least, so that a run's median is never the mean of
# two (fig7 jobs take 10-18 s). A traced run makes at least one pair.
MIN_JOBS = 3
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0
BUILD_TIMEOUT_S = 850.0


def build():
    """Configures and builds perfbench_job; exits non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_job",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log, "w") as f:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, env=env,
                                    timeout=max(1.0, deadline - time.monotonic()),
                                    check=False).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                sys.exit(f"perfbench: build step {cmd[:2]} failed: {e}")
            if rc != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                sys.exit("perfbench: build failed:\n" + "\n".join(tail))
    if not JOB.is_file():
        sys.exit("perfbench: build produced no perfbench_job")


def run_job(workload, seed, mode, deadline):
    """One job in a fresh process; returns its parsed line or raises JobError."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise checks.JobError("run deadline reached")
    try:
        proc = subprocess.run([str(JOB), workload, str(seed), mode],
                              capture_output=True, text=True, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        raise checks.JobError(f"{mode} job timed out") from None
    if proc.returncode != 0:
        raise checks.JobError(
            f"{mode} job exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    obj = checks.parse_job_line(proc.stdout, mode)
    t = obj["timing"]
    # Per-job timings on stderr tell a slow host (probe_ms up) from a slow job.
    print(f"perfbench: {workload} {mode} seed {seed}: "
          + ", ".join(f"{k} {v:.4g}" for k, v in t.items()), file=sys.stderr)
    if mode != "setup":
        checks.check_outputs(workload, obj["outputs"])
    if "restored" in obj:
        checks.check_same("checkpoint restored at the midpoint", obj["outputs"],
                          obj["restored"])
    return obj


def job_seed(seed, k):
    """Input seed of the run's k-th job, derived from the workload seed."""
    return seed * 1000 + k


def more_jobs(elapsed, spent, seconds):
    """Whether to start another job: only if, at the mean job time so far, it
    would end less than half a job past `seconds`. A run then lasts `seconds`
    give or take half a job, instead of always overrunning by up to a whole
    one (a fig7 job takes 10-18 s)."""
    return elapsed + 0.5 * statistics.mean(spent) <= seconds


def measure(workload, seed, seconds, trace):
    """Closed loop for `seconds`; returns (attempted, failed, metrics)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    attempted = failed = 0
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    def attempt(fn):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn()
        except checks.JobError as e:
            failed += 1
            print(f"perfbench: {workload}: {e}", file=sys.stderr)
            return None

    if not trace:
        for k in range(SETUP_PROBES):
            obj = attempt(lambda: run_job(workload, job_seed(seed, k), "setup", deadline))
            if obj:
                add("setup_s", obj["timing"]["setup_s"])
    # The clock starts after the set-up probes, so every run gives the jobs
    # the same time whatever set-up costs.
    start = time.monotonic()
    spent = []
    min_jobs = 1 if trace else MIN_JOBS
    k = 0
    while len(spent) < min_jobs or more_jobs(time.monotonic() - start, spent, seconds):
        s = job_seed(seed, k)
        k += 1
        t0 = time.monotonic()
        if not trace:
            obj = attempt(lambda: run_job(workload, s, "job", deadline))
            spent.append(time.monotonic() - t0)
            if obj:
                for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                    add(name, obj["timing"][name])
            continue

        def pair():
            timed = run_job(workload, s, "job", deadline)
            traced = run_job(workload, s, "trace", deadline)
            checks.check_same("timed vs traced run", timed["outputs"], traced["outputs"])
            return timed, traced

        got = attempt(pair)
        spent.append(time.monotonic() - t0)
        if got:
            timed, traced = got
            for name, value in traced["layers"].items():
                add(name, value)
            add("obs.trace_overhead_frac",
                traced["timing"]["wall_s"] / timed["timing"]["wall_s"] - 1.0)
            add("host.probe_ms", timed["timing"]["probe_ms"])
            add("host.probe_ms", traced["timing"]["probe_ms"])

    units = checks.PER_LAYER if trace else checks.END_TO_END
    metrics = {}
    for name, unit in units.items():
        if name in samples:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=checks.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    attempted, failed, metrics = measure(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    wanted = checks.PER_LAYER if args.trace else checks.END_TO_END
    if set(metrics) != set(wanted):
        sys.exit(f"perfbench: no successful job measured "
                 f"{sorted(set(wanted) - set(metrics))}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
