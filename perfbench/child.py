"""One measured process: import the CLI, optionally trace, run one command.

Usage (from run.py, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py SPAWN_T RESULT.json TRACE [-- CLI ARGS...]

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes of the machine), so
``setup_s`` covers interpreter start-up and the import of ``toruslab.cli``.
Without CLI arguments the process only measures set-up. The result file
gets ``setup_s``, ``wall_s`` (the ``main()`` call), ``cpu_s`` (user+sys
of the whole process, all threads, during that call), ``peak_rss_mb``,
the exit code, the ``Workspace`` thread count in effect and, when traced,
the name of the span file.
"""

import json
import resource
import sys
import time

import toruslab.cli as cli  # noqa: E402  (timed: this is the set-up)

IMPORTED_T = time.monotonic()


def main(argv: list[str]) -> int:
    spawn_t, result_path, trace = float(argv[0]), argv[1], argv[2] == "1"
    cli_args = argv[4:] if len(argv) > 3 and argv[3] == "--" else []
    from toruslab.spectral import TorusGrid
    from toruslab.verify import Workspace

    result = {
        "setup_s": IMPORTED_T - spawn_t,
        "workspace_threads": Workspace((), TorusGrid(dims=1, size=256)).threads,
    }
    if cli_args:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = cli.main(cli_args)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
            spans_path = result_path + ".spans.json"
            tracer.write(spans_path)
            result["spans"] = spans_path
        result.update(exit_code=code, wall_s=wall, cpu_s=cpu)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
