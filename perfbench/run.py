"""toruslab benchmark: run one workload through the public CLI and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Run it from the repository root (it finds ``src/`` next to its own
directory). Each workload is one ``toruslab`` CLI invocation, run in a
fresh process, one at a time, with the program's own thread defaults.

--trace 0  repeats the workload until S seconds have passed (at least
           once) and reports the end-to-end metrics: medians of wall_s,
           cpu_s and peak_rss_mb over the repeats, and setup_s, the median
           over eleven import-only processes and every repeat.
--trace 1  runs the workload once untraced and once under the outside-in
           tracer (perfbench/tracer.py) and reports the per-layer metrics;
           the traced outputs must be byte-identical to the untraced ones.

Every repeat's outputs are checked against the stored references
(perfbench/oracle.py); a non-zero exit, an exception or a mismatch counts
as a failed operation. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Quartiles, sample
counts and the provenance and noise record go to the lines before it and
to .perfbench_work/.

Seeds: the CLI gets --seed N when N is a reference seed (0, 1 or 7) and
otherwise REFERENCE_SEEDS[N % 3], so any N gives fixed inputs with stored
outputs to check. Seed 7 is the held-out seed for confirming claims.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "reference"

# Each workload is one CLI call; --seed and --out are appended.
WORKLOADS = {
    "verify-1d": ["verify", "--theorem", "all"],
    # The ladder is cut from the default 0,0.25,0.5,1,2 to its ends (same
    # arrays, same peak memory, one Picard solve instead of four) so that
    # the whole benchmark fits its time budget.
    "ns-smalldata": ["ns", "--probe", "smalldata", "--grid", "32",
                     "--alpha=-0.5", "--deltas=0,2"],
}
REFERENCE_SEEDS = (0, 1, 7)
HELD_OUT_SEED = 7
SETUP_PROBES = 11
MAX_RUN_S = 150.0  # never start a repeat that could end past this
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def workload_seed(seed: int) -> int:
    if seed in REFERENCE_SEEDS:
        return seed
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCES / workload / f"seed{seed}.json"


# --- processes ---


def spawn(result: Path, trace: bool, cli_args: list[str], cwd: Path) -> dict:
    """Run child.py in a fresh process and return its result record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cwd.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()),
            str(result), "1" if trace else "0"]
    if cli_args:
        argv += ["--"] + cli_args
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=MAX_RUN_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": f"killed after {MAX_RUN_S} s"}
    if proc.returncode != 0 or not result.exists():
        return {"exit_code": proc.returncode, "error": proc.stderr[-2000:]}
    return json.loads(result.read_text())


def setup_probe(work: Path) -> dict:
    record = spawn(work / "setup.json", False, [], work)
    if "setup_s" not in record:
        raise BenchError(f"cannot import toruslab.cli from {SRC}:\n"
                         f"{record.get('error', '')}")
    return record


def run_workload(workload: str, seed: int, work: Path, trace: bool) -> dict:
    """One repeat in its own directory; outputs checked against the oracle."""
    from oracle import check

    shutil.rmtree(work, ignore_errors=True)
    args = WORKLOADS[workload] + ["--seed", str(seed), "--out", "out"]
    record = spawn(work / "result.json", trace, args, work)
    problems = []
    if record.get("exit_code") != 0:
        problems.append(f"exit code {record.get('exit_code')}: "
                        f"{record.get('error', '')}")
    else:
        problems += check(work / "out", reference_path(workload, seed))
    record["problems"] = problems
    record["out"] = str(work / "out")
    return record


def same_bytes(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"traced outputs list {names_b}, untraced {names_a}"]
    return [f"traced {name} differs from untraced"
            for name in names_a
            if (a / name).read_bytes() != (b / name).read_bytes()]


# --- provenance and noise ---


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def machine_state() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": _steal_ticks(),
            "time": time.time()}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = "unavailable"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_build_dependencies": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


# --- statistics ---


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# --- one benchmark run ---


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "toruslab" / "cli.py").is_file():
        raise BenchError(f"no toruslab sources at {SRC}")
    cli_seed = workload_seed(seed)
    if not reference_path(workload, cli_seed).is_file():
        raise BenchError(f"no reference outputs for {workload} seed {cli_seed}")
    work = WORK / f"{workload}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    before = machine_state()
    started = time.monotonic()

    setups = [setup_probe(work / "setup") for _ in range(SETUP_PROBES)]
    samples: list[dict] = []
    metrics: dict[str, float] = {}
    if trace:
        plain = run_workload(workload, cli_seed, work / "plain", False)
        traced = run_workload(workload, cli_seed, work / "traced", True)
        if not plain["problems"] and not traced["problems"]:
            traced["problems"] += same_bytes(Path(plain["out"]),
                                             Path(traced["out"]))
        samples = [plain, traced]
        if all("wall_s" in s for s in samples) and "spans" in traced:
            import tracer

            spans_file = WORK / f"spans-{workload}.json"
            shutil.move(traced["spans"], spans_file)
            spans = json.loads(spans_file.read_text())
            metrics, layer_self = tracer.analyse(spans, traced["wall_s"],
                                                 plain["wall_s"])
            traced["layer_self_s"] = layer_self
            traced["attributed_s"] = sum(layer_self.values())
            traced["spans_file"] = str(spans_file)
    else:
        while True:
            t0 = time.monotonic()
            samples.append(run_workload(workload, cli_seed,
                                        work / f"repeat{len(samples)}", False))
            now = time.monotonic()
            if now - started >= seconds or (now - started) + 1.5 * (now - t0) > MAX_RUN_S:
                break

    failed = sum(1 for s in samples if s["problems"])
    after = machine_state()
    shutil.rmtree(work, ignore_errors=True)
    timed = [s for s in (samples[:1] if trace else samples) if "wall_s" in s]
    stats = {}
    if timed:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            stats[name] = quartiles([s[name] for s in timed]) + (len(timed),)
        setup_values = [s["setup_s"] for s in setups + timed]
        stats["setup_s"] = quartiles(setup_values) + (len(setup_values),)
        if not trace:
            metrics = {name: stats[name][1] for name in END_TO_END_UNITS}
    return {
        "workload": workload, "seed": seed, "cli_seed": cli_seed,
        "seconds": seconds, "trace": int(trace),
        "cli_args": WORKLOADS[workload] + ["--seed", str(cli_seed)],
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples), "failed": failed,
        "metrics": metrics, "stats": stats,
        "samples": [{k: v for k, v in s.items() if k != "error" or s["problems"]}
                    for s in samples],
        "provenance": dict(provenance(),
                           workspace_threads=setups[0]["workspace_threads"]),
        "noise": {"before": before, "after": after,
                  "elapsed_s": time.monotonic() - started},
    }


def report(result: dict) -> dict:
    """Print the human-readable lines; return the contract's JSON object."""
    import tracer

    print(f"== {result['workload']} seed {result['seed']} "
          f"(cli --seed {result['cli_seed']}), trace {result['trace']}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"failed_fraction {result['failed'] / max(result['attempted'], 1):g}")
    for name, (q1, med, q3, n) in result["stats"].items():
        print(f"  {name:<14} median {med:.4f} {END_TO_END_UNITS[name]}"
              f"  q1 {q1:.4f}  q3 {q3:.4f}  n={n}")
    for sample in result["samples"]:
        for problem in sample["problems"][:5]:
            print(f"  FAILED: {problem}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True,
                                     default=str))
    print("noise " + json.dumps(result["noise"], sort_keys=True))
    WORK.mkdir(exist_ok=True)
    record = WORK / (f"result-{result['workload']}-seed{result['seed']}"
                     f"-trace{result['trace']}.json")
    record.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    unit_of = tracer.metric_unit if result["trace"] else END_TO_END_UNITS.get
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help=f"workload seed; {HELD_OUT_SEED} is held out "
                             "for confirming claims")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        for name in names:
            line = report(bench(name, args.seed, args.seconds, bool(args.trace)))
            print(json.dumps(line), flush=True)
            ok = ok and line["correct"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
