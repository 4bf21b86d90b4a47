"""Capture the reference outputs the benchmark checks every run against.

    python3 perfbench/capture.py [WORKLOAD ...]

Runs each workload (default: all) once per reference seed, untraced, and
writes perfbench/reference/<workload>/seed<k>.json. Run it only on the
commit whose outputs define correct; later commits are checked against
these files, not re-captured.
"""

import shutil
import sys

from oracle import read_outputs, write_reference
from run import REFERENCE_SEEDS, WORK, WORKLOADS, reference_path, spawn


def main(names: list[str]) -> int:
    for workload in names or list(WORKLOADS):
        for seed in REFERENCE_SEEDS:
            work = WORK / f"capture-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            args = WORKLOADS[workload] + ["--seed", str(seed), "--out", "out"]
            record = spawn(work / "result.json", False, args, work)
            if record.get("exit_code") != 0:
                print(f"{workload} seed {seed} failed: {record}", file=sys.stderr)
                return 1
            write_reference(read_outputs(work / "out"), reference_path(workload, seed))
            print(f"{workload} seed {seed}: wall {record['wall_s']:.1f} s, "
                  f"peak {record['peak_rss_mb']:.0f} MB", flush=True)
            shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
