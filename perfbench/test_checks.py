"""Self-tests of the benchmark's parsers and checks. They need no build:
a stand-in job script prints canned job lines.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import run  # noqa: E402


def fig7_outputs():
    return {"blind_robots": 25, "beacon_windows": 18, "fixes": 450,
            "windows_without_fix": 0, "beacons_sent": 1350,
            "beacons_received": 19690, "frames": 3337, "events": 243892,
            "mean_error_m": 5.5269606388872559, "energy_kj": 7.9564904626044539,
            "error_series": "5696d67335f7161a", "counters": "bfc4dc2499f2f544"}


def swarm_outputs():
    return {"nodes": 16000, "beacons_per_node": 10, "frames": 159993,
            "frames_queued": 7, "frames_delivered": 15626, "rx_corrupted": 10,
            "missed_asleep": 297652, "events": 1416965, "index_migrations": 1940,
            "index_full_refreshes": 0, "positions": "d3b43b379fd373ca"}


def sweep_outputs():
    cells = []
    for backend in checks.SWEEP_BACKENDS:
        for plan in checks.SWEEP_PLANS:
            faulted = plan != "baseline"
            cells.append({"backend": backend, "plan": plan, "reps": 2, "fixes": 79,
                          "windows_without_fix": 1, "avg_error_m": 8.25,
                          "steady_error_m": 7.75, "has_resilience": faulted,
                          "availability": 0.75 if faulted else 0,
                          "avail_during": 0.66 if faulted else 0, "reacquire_s": 0})
    return {"reps": 2, "blind_robots": 8, "beacon_windows": 5, "cells": cells}


OUTPUTS = {"fig7": fig7_outputs, "swarm16k": swarm_outputs,
           "backend_sweep": sweep_outputs}


def job_line(workload, mode, outputs=None, restored=None):
    timing = {"setup_s": 0.0213}
    if mode != "setup":
        timing.update({"wall_s": 1.25, "cpu_s": 1.24})
    timing.update({"peak_rss_mb": 101.5, "probe_ms": 15.2})
    obj = {"workload": workload, "seed": 1, "mode": mode, "timing": timing}
    if mode != "setup":
        obj["outputs"] = outputs if outputs is not None else OUTPUTS[workload]()
    if mode == "trace":
        obj["layers"] = {n: 1.5 for n in checks.PER_LAYER
                         if n not in checks.HARNESS_LAYERS}
    if restored is not None:
        obj["restored"] = restored
    return json.dumps(obj)


class FakeJob:
    """Installs a script as run.JOB that prints `lines[mode]` and exits with
    `codes.get(mode, 0)`."""

    def __init__(self, lines, codes=None):
        self.dir = tempfile.mkdtemp()
        spec = Path(self.dir) / "lines.json"
        spec.write_text(json.dumps({"lines": lines, "codes": codes or {}}))
        script = Path(self.dir) / "job"
        script.write_text(
            f"#!{sys.executable}\n"
            "import json, sys\n"
            f"spec = json.load(open({str(spec)!r}))\n"
            "mode = sys.argv[3]\n"
            "print(spec['lines'].get(mode, ''))\n"
            "sys.exit(spec['codes'].get(mode, 0))\n")
        script.chmod(0o755)
        self.saved = run.JOB
        run.JOB = script

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        run.JOB = self.saved
        shutil.rmtree(self.dir)


def canned(workload, job_outputs=None, trace_outputs=None, restored=None):
    return {"setup": job_line(workload, "setup"),
            "job": job_line(workload, "job", job_outputs),
            "trace": job_line(workload, "trace", trace_outputs, restored)}


def tampered(workload, mutate):
    out = OUTPUTS[workload]()
    mutate(out)
    return out


# Each entry breaks one invariant a correct job always satisfies.
TAMPERINGS = {
    "fig7": [
        lambda o: o.update(fixes=449),
        lambda o: o.update(windows_without_fix=1),
        lambda o: o.update(beacons_sent=1349),
        lambda o: o.update(blind_robots=24),
        lambda o: o.update(mean_error_m=40.0),
        lambda o: o.update(mean_error_m=None),
        lambda o: o.update(energy_kj=0.5),
        lambda o: o.pop("energy_kj"),
        lambda o: o.update(frames=0),
    ],
    "swarm16k": [
        lambda o: o.update(frames=160001),
        lambda o: o.update(frames_queued=8),
        lambda o: o.update(frames=150000, frames_queued=10000),
        lambda o: o.update(nodes=15999),
        lambda o: o.update(index_full_refreshes=1),
        lambda o: o.update(frames_delivered=0),
        lambda o: o.pop("frames_queued"),
    ],
    "backend_sweep": [
        lambda o: o["cells"].pop(),
        lambda o: o["cells"].append(copy.deepcopy(o["cells"][0])),
        lambda o: o["cells"].reverse(),
        lambda o: o["cells"][3].update(plan="loss-p0.75"),
        lambda o: o["cells"][5].update(backend="kalman"),
        lambda o: o["cells"][0].update(fixes=80),
        lambda o: o["cells"][7].update(fixes=0, windows_without_fix=80),
        lambda o: o["cells"][2].update(reps=1),
        lambda o: o["cells"][4].update(steady_error_m=float("nan")),
        lambda o: o["cells"][0].update(has_resilience=True),
        lambda o: o["cells"][1].update(availability=1.5),
        lambda o: o.update(reps=3),
        lambda o: o.update(cells="18"),
    ],
}


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_metrics_and_units_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         checks.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         checks.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         checks.WORKLOADS)

    def test_bounds_are_at_most_a_quarter(self):
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])


class OutputCheckTest(unittest.TestCase):
    def test_correct_outputs_pass(self):
        for workload in checks.WORKLOADS:
            checks.check_outputs(workload, OUTPUTS[workload]())

    def test_tampered_outputs_fail(self):
        for workload, mutations in TAMPERINGS.items():
            for i, mutate in enumerate(mutations):
                with self.subTest(workload=workload, tampering=i):
                    with self.assertRaises(checks.JobError):
                        checks.check_outputs(workload, tampered(workload, mutate))

    def test_check_same(self):
        checks.check_same("x", fig7_outputs(), fig7_outputs())
        other = fig7_outputs()
        other["counters"] = "0000000000000000"
        with self.assertRaisesRegex(checks.JobError, "counters"):
            checks.check_same("x", fig7_outputs(), other)


class ParseTest(unittest.TestCase):
    def test_parses_last_line(self):
        obj = checks.parse_job_line("noise\n" + job_line("fig7", "job") + "\n", "job")
        self.assertEqual(obj["outputs"], fig7_outputs())

    def test_rejects_malformed_lines(self):
        good = json.loads(job_line("fig7", "trace"))
        bad = {
            "empty": "",
            "not json": "{wall_s: 1}",
            "wrong mode": job_line("fig7", "job"),
            "no timing": json.dumps({k: v for k, v in good.items() if k != "timing"}),
            "no outputs": json.dumps({k: v for k, v in good.items() if k != "outputs"}),
            "no layers": json.dumps({k: v for k, v in good.items() if k != "layers"}),
        }
        for key, value in (("wall_s", 0), ("cpu_s", -1.0), ("peak_rss_mb", "big"),
                           ("probe_ms", None)):
            obj = copy.deepcopy(good)
            obj["timing"][key] = value
            bad[f"timing.{key}={value!r}"] = json.dumps(obj)
        for name in ("mac.draws_per_frame", "ckpt.blob_mb"):
            obj = copy.deepcopy(good)
            del obj["layers"][name]
            bad[f"missing {name}"] = json.dumps(obj)
        obj = copy.deepcopy(good)
        obj["layers"]["sim.events"] = -3
        bad["negative layer"] = json.dumps(obj)
        for name, text in bad.items():
            with self.subTest(name):
                with self.assertRaises(checks.JobError):
                    checks.parse_job_line(text, "trace")


class MeasureTest(unittest.TestCase):
    def measure(self, workload, trace, **lines):
        with FakeJob(canned(workload, **lines)), \
                contextlib.redirect_stderr(io.StringIO()):
            return run.measure(workload, 3, 0.001, trace)

    def test_every_metric_appears_with_its_unit(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[key]}
            for workload in checks.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    attempted, failed, metrics = self.measure(workload, trace)
                    self.assertEqual(failed, 0)
                    self.assertEqual(attempted,
                                     1 if trace else run.SETUP_PROBES + run.MIN_JOBS)
                    self.assertEqual({n: m["unit"] for n, m in metrics.items()}, units)
                    for m in metrics.values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_tampered_result_is_failed(self):
        for workload, mutations in TAMPERINGS.items():
            with self.subTest(workload=workload):
                bad = tampered(workload, mutations[0])
                attempted, failed, metrics = self.measure(workload, False,
                                                          job_outputs=bad)
                self.assertEqual(failed, run.MIN_JOBS)
                self.assertNotIn("wall_s", metrics)
                attempted, failed, _ = self.measure(workload, True, trace_outputs=bad)
                self.assertEqual((attempted, failed), (1, 1))

    def test_traced_outputs_must_equal_timed(self):
        out = fig7_outputs()
        out["error_series"] = "ffffffffffffffff"  # still passes the checks
        attempted, failed, _ = self.measure("fig7", True, trace_outputs=out)
        self.assertEqual((attempted, failed), (1, 1))

    def test_restored_outputs_must_equal_straight(self):
        out = swarm_outputs()
        out["positions"] = "0123456789abcdef"
        attempted, failed, _ = self.measure("swarm16k", True, restored=out)
        self.assertEqual((attempted, failed), (1, 1))
        attempted, failed, _ = self.measure("swarm16k", True, restored=swarm_outputs())
        self.assertEqual((attempted, failed), (1, 0))

    def test_crashed_job_is_failed(self):
        with FakeJob(canned("fig7"), codes={"job": 134}), \
                contextlib.redirect_stderr(io.StringIO()):
            attempted, failed, metrics = run.measure("fig7", 3, 0.001, False)
        self.assertEqual((attempted, failed),
                         (run.SETUP_PROBES + run.MIN_JOBS, run.MIN_JOBS))
        self.assertIn("setup_s", metrics)


class ContractTest(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(HERE, Path(root) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", root)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig7", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
