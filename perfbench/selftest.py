"""Self-tests of the benchmark itself (not part of the tier-1 suite).

    python3 perfbench/selftest.py            # about five minutes

- every workload runs once untraced and once traced (--trace 1): both
  pass the oracle and the traced outputs are byte-identical to the
  untraced ones (run.py checks this and counts a difference as a failure);
- the traced self times plus cli.unattributed_s add up to the traced wall;
- the metric names printed, with their units, are exactly those in
  BENCHMARK.json, end to end (one short --trace 0 run) and per layer;
- the oracle passes roundoff-sized changes of a reference and fails a
  changed band value or verdict;
- run.py refuses, with a non-zero exit and no result line, in a directory
  that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import oracle
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def names_and_units(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


class TestWorkloads(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(run.WORKLOADS),
                         sorted(w["name"] for w in BENCHMARK["workloads"]))

    def test_traced_run_of_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench("--workload", workload, "--seed", "0",
                                    "--seconds", "1", "--trace", "1")
                result = json.loads(lines[-1])
                self.assertEqual(code, 0, lines[-10:])
                self.assertTrue(result["correct"])
                self.assertEqual((result["attempted"], result["failed"]), (2, 0))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, names_and_units("per_layer"))

                record = json.loads((run.WORK / f"result-{workload}-seed0-trace1.json")
                                    .read_text())
                traced = record["samples"][1]
                unattributed = result["metrics"]["cli.unattributed_s"]["value"]
                self.assertAlmostEqual(traced["attributed_s"] + unattributed,
                                       traced["wall_s"], delta=1e-6 * traced["wall_s"])

    def test_end_to_end_names(self):
        code, lines = bench("--workload", "verify-1d", "--seed", "7",
                            "--seconds", "1", "--trace", "0")
        result = json.loads(lines[-1])
        self.assertEqual(code, 0, lines[-10:])
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (True, 1, 0))
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, names_and_units("end_to_end"))


class TestOracle(unittest.TestCase):
    def setUp(self):
        self.want = oracle.read_reference(run.reference_path("verify-1d", 0))
        self.report = "report_2_1_ap0_00.json"

    def test_roundoff_passes(self):
        got = copy.deepcopy(self.want)
        band = got[self.report]["band"]
        band[0] *= 1 + 1e-12
        got[self.report]["members"][0]["ratio"] *= 1 - 1e-11
        got[self.report]["out"] = "elsewhere"
        self.assertEqual(oracle.compare(got, self.want), [])

    def test_changed_band_fails(self):
        got = copy.deepcopy(self.want)
        got[self.report]["band"][1] *= 1 + 1e-4
        self.assertEqual(len(oracle.compare(got, self.want)), 1)

    def test_changed_verdict_fails(self):
        got = copy.deepcopy(self.want)
        got[self.report]["passed"] = not got[self.report]["passed"]
        self.assertEqual(len(oracle.compare(got, self.want)), 1)
        rows = got["summary.csv"]
        rows[1][-1] = "False" if rows[1][-1] == "True" else "True"
        self.assertEqual(len(oracle.compare(got, self.want)), 2)

    def test_changed_probe_ratio_fails(self):
        want = oracle.read_reference(run.reference_path("ns-smalldata", 0))
        got = copy.deepcopy(want)
        got["smalldata.json"]["rows"][-1]["ratio"] *= 1 + 1e-5
        self.assertEqual(len(oracle.compare(got, want)), 1)


class TestBareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.WORK.parent) as tmp:
            root = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", root)
            shutil.copytree(run.HERE, root / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", "verify-1d", "--seed", "0",
                                "--seconds", "1", "--trace", "0", cwd=root)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
