"""Metric names, job-line parsing and output checks of the benchmark.

Every check here holds for any seed: structural invariants of the workload
(counts fixed by its configuration) and plausibility bounds on paper-level
outputs. None compares against a stored digest of simulated output, so a
deliberate re-baseline of the simulator's random streams passes unchanged.
"""

import json
import math

WORKLOADS = ("fig7", "swarm16k", "backend_sweep")

# name -> unit, printed with --trace 0.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

# name -> unit, printed with --trace 1. A layer a workload does not exercise
# reads 0 (see README.md for which workload fills which row).
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.peak_pending": "count",
    "sim.sbo_misses": "count",
    "sim.pool_hit_ratio": "ratio",
    "phy.calibrate_s": "s",
    "phy.pdf_bins": "count",
    "mac.frames": "count",
    "mac.rssi_draws": "count",
    "mac.draws_per_frame": "count",
    "mac.cull_ratio": "ratio",
    "mac.delivered_per_draw": "ratio",
    "mac.ns_per_frame": "ns",
    "mac.corrupted_ratio": "ratio",
    "mac.index_candidates_per_query": "count",
    "mac.index_migrations": "count",
    "mac.radius_cache_hit_ratio": "ratio",
    "multicast.data_sent": "count",
    "multicast.duplicate_ratio": "ratio",
    "core.apply_constraint_calls": "count",
    "core.apply_constraint_us": "us",
    "core.apply_constraint_share": "ratio",
    "core.fixes": "count",
    "core.beacons_per_fix": "count",
    "core.windows_without_fix": "count",
    "core.slice_s_first": "s",
    "core.slice_s_p50": "s",
    "est.fix_ns.grid": "ns",
    "est.fix_ns.ekf": "ns",
    "est.fix_ns.lincvx": "ns",
    "exp.fork_prefix_s": "s",
    "exp.replication_s": "s",
    "ckpt.save_ms": "ms",
    "ckpt.load_ms": "ms",
    "ckpt.blob_mb": "MB",
    "fault.rx_dropped": "count",
    "fault.frames_truncated": "count",
    "obs.trace_overhead_frac": "ratio",
    "host.probe_ms": "ms",
}

# Layer rows measured by the benchmark itself rather than read from the job.
HARNESS_LAYERS = ("obs.trace_overhead_frac", "host.probe_ms")

# The workload definitions the checks pin (see job.cpp).
FIG7_BLIND, FIG7_WINDOWS, FIG7_ANCHORS, FIG7_K = 25, 18, 25, 3
SWARM_NODES, SWARM_BEACONS = 16000, 10
SWEEP_BACKENDS = ("grid", "ekf", "lincvx")
SWEEP_PLANS = ("baseline", "loss-p0.25", "loss-p0.5", "loss-p0.9", "crash-5", "crash-10")
SWEEP_REPS, SWEEP_BLIND, SWEEP_WINDOWS = 2, 8, 5

# Plausibility bounds on paper-level fig7 outputs. The paper reports about
# 6.5 m for CoCoA at 2 m/s (EXPERIMENTS.md measures 5.8 +- 0.2 m over three
# seeds); team energy over 30 min is about 8 kJ.
FIG7_ERROR_M = (2.0, 12.0)
FIG7_ENERGY_KJ = (4.0, 16.0)
SWEEP_ERROR_M = (0.5, 60.0)


class JobError(Exception):
    """A job's line is missing, malformed, or fails an output check."""


def parse_job_line(stdout, mode):
    """Returns the JSON object a job printed as its last stdout line."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise JobError("job printed nothing")
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise JobError(f"job line is not JSON: {e}") from None
    if not isinstance(obj, dict) or obj.get("mode") != mode:
        raise JobError(f"job line is not a {mode!r} record")
    timing = obj.get("timing")
    if not isinstance(timing, dict):
        raise JobError("job line has no timing object")
    wanted = ["setup_s"] if mode == "setup" else ["wall_s", "cpu_s", "peak_rss_mb"]
    for key in wanted + ["probe_ms"]:
        if not _positive(timing.get(key)):
            raise JobError(f"timing.{key} is not a positive number")
    if mode != "setup" and not isinstance(obj.get("outputs"), dict):
        raise JobError("job line has no outputs object")
    if mode == "trace":
        layers = obj.get("layers")
        if not isinstance(layers, dict):
            raise JobError("traced job has no layers object")
        for name in PER_LAYER:
            if name in HARNESS_LAYERS:
                continue
            value = layers.get(name)
            if not _number(value) or value < 0:
                raise JobError(f"layer {name} missing or negative")
    return obj


def check_outputs(workload, out):
    """Raises JobError unless `out` satisfies the workload's invariants."""
    {"fig7": _check_fig7, "swarm16k": _check_swarm, "backend_sweep": _check_sweep}[
        workload
    ](out)


def check_same(label, a, b):
    """Deterministic outputs of two runs of one job must be identical."""
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        raise JobError(f"{label}: outputs differ in {', '.join(diff) or 'order'}")


def _check_fig7(o):
    _expect(o, "blind_robots", FIG7_BLIND)
    _expect(o, "beacon_windows", FIG7_WINDOWS)
    _expect(o, "fixes", FIG7_BLIND * FIG7_WINDOWS)
    _expect(o, "windows_without_fix", 0)
    _expect(o, "beacons_sent", FIG7_ANCHORS * FIG7_WINDOWS * FIG7_K)
    _within(o, "mean_error_m", FIG7_ERROR_M)
    _within(o, "energy_kj", FIG7_ENERGY_KJ)
    for key in ("beacons_received", "frames", "events"):
        _within(o, key, (1, math.inf))


def _check_swarm(o):
    _expect(o, "nodes", SWARM_NODES)
    _expect(o, "beacons_per_node", SWARM_BEACONS)
    # Every node beacons exactly once per period, so the duty cycle fixes the
    # frame count; the MAC never drops a beacon, but the last ones may still
    # wait in a congested backoff when the run ends.
    if not _number(o.get("frames")) or not _number(o.get("frames_queued")):
        raise JobError("outputs: frame counts missing")
    if o["frames"] + o["frames_queued"] != SWARM_NODES * SWARM_BEACONS:
        raise JobError(f"outputs: frames {o['frames']} + queued {o['frames_queued']}"
                       f" != {SWARM_NODES * SWARM_BEACONS} (nodes x beacons)")
    _within(o, "frames_queued", (0, SWARM_NODES // 100))
    # Steady-state traffic never falls back to a full index rebuild.
    _expect(o, "index_full_refreshes", 0)
    _within(o, "frames_delivered", (1, o["frames"] * 1000))
    _within(o, "events", (o["frames"], math.inf))


def _check_sweep(o):
    _expect(o, "reps", SWEEP_REPS)
    _expect(o, "blind_robots", SWEEP_BLIND)
    _expect(o, "beacon_windows", SWEEP_WINDOWS)
    cells = o.get("cells")
    if not isinstance(cells, list):
        raise JobError("backend_sweep: no cells list")
    grid = [(c.get("backend"), c.get("plan")) for c in cells if isinstance(c, dict)]
    want = [(b, p) for b in SWEEP_BACKENDS for p in SWEEP_PLANS]
    if grid != want:
        at = next((i for i, (g, w) in enumerate(zip(grid, want)) if g != w),
                  min(len(grid), len(want)))
        raise JobError(f"backend_sweep: {len(grid)} cells, not the {len(want)} "
                       f"backends x plans in order (first difference at cell {at})")
    windows = SWEEP_REPS * SWEEP_BLIND * SWEEP_WINDOWS
    for c in cells:
        name = f"{c['backend']}/{c['plan']}"
        _expect(c, "reps", SWEEP_REPS, name)
        # Every blind robot's window ends either in a fix or in a miss.
        if not (_number(c.get("fixes")) and _number(c.get("windows_without_fix"))):
            raise JobError(f"{name}: fix counts missing")
        if c["fixes"] + c["windows_without_fix"] != windows:
            raise JobError(f"{name}: fixes + windows_without_fix != {windows}")
        if c["fixes"] < 1:
            raise JobError(f"{name}: no fixes")
        _within(c, "avg_error_m", SWEEP_ERROR_M, name)
        _within(c, "steady_error_m", SWEEP_ERROR_M, name)
        if c.get("has_resilience") is not (c["plan"] != "baseline"):
            raise JobError(f"{name}: resilience report on the wrong plans")
        if c["has_resilience"]:
            _within(c, "availability", (0.0, 1.0), name)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _positive(v):
    return _number(v) and v > 0


def _expect(o, key, want, where="outputs"):
    if o.get(key) != want:
        raise JobError(f"{where}: {key} = {o.get(key)!r}, expected {want}")


def _within(o, key, bounds, where="outputs"):
    v = o.get(key)
    lo, hi = bounds
    if not _number(v) or not lo <= v <= hi:
        raise JobError(f"{where}: {key} = {v!r} outside [{lo}, {hi}]")
