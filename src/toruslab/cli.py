"""Command-line front end.

Subcommands mirror the library surface: ``corpus`` writes the seeded
function battery with a hash manifest, ``norm`` evaluates one named norm
on a stored field, ``verify`` runs the equivalence checks and emits
reports, and ``ns`` drives the 3D solver probes. Every run writes its
fully serialized configuration next to its outputs, so any artifact is
reproducible from the config and seed alone. Numeric output is full
double precision; timestamps appear only inside manifests.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    CorpusSpec,
    default_corpus_specs,
    generate,
    specs_from_manifest,
    write_corpus_manifest,
)
from .fieldio import read_field, write_csv, write_field, write_json
from .norms import NORMS, BoxFamily, NormResult
from .ns3d import (
    export_trace,
    inflation_probe,
    mild_solve_picard,
    random_divergence_free,
    shear_modes,
    smalldata_probe,
    step_ifrk4,
    taylor_green,
)
from .spectral import TorusGrid
from .verify import (
    CHECKS,
    SCALING_NORMS,
    VerifyConfig,
    Workspace,
    check_inclusions,
    check_scaling,
    prepare,
    run_check,
    write_reports,
)

DEFAULT_ALPHAS = (-0.5, -0.25, 0.0, 0.25, 0.5)
DEFAULT_BETAS = (0.25, 0.5, 0.75)
THEOREMS = tuple(sorted({c.group for c in CHECKS})) + ("scaling", "all")
NORM_NAMES = tuple(sorted(NORMS))


@dataclass(frozen=True)
class RunConfig:
    """One run, fully serialized; reruns from the payload are identical."""

    command: str
    grid: int = 256
    dims: int = 1
    length: float = 1.0
    alphas: tuple[float, ...] = ()
    betas: tuple[float, ...] = ()
    boxes: tuple[int, int, int] | None = None  # (j_min, j_max, stride)
    corpus: str | None = None
    spread_max: float = 30.0
    drift_max: float = 0.25
    out: str | None = None
    seed: int = 0
    threads: int | None = None
    options: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must fit in u64, got {self.seed}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {self.threads}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if self.boxes is not None:
            object.__setattr__(self, "boxes", tuple(int(v) for v in self.boxes))

    def torus_grid(self) -> TorusGrid:
        return TorusGrid(dims=self.dims, size=self.grid, length=self.length)

    def box_family(self, grid: TorusGrid) -> BoxFamily:
        if self.boxes is None:
            return BoxFamily.default(grid)
        j_min, j_max, stride = self.boxes
        return BoxFamily(
            grid=grid, stride=stride, j_values=tuple(range(j_min, j_max + 1))
        )

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)


# --- argument plumbing ---

_LIST_FLAGS = ("--alpha", "--beta", "--deltas")
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d)")


def _fuse_negative_values(argv: list[str]) -> list[str]:
    """argparse reads '-0.5,0,0.5' as a flag; fold such values into '='."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _LIST_FLAGS
            and i + 1 < len(argv)
            and _NEGATIVE_VALUE.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _finite_float(text: str) -> float:
    """Float option value; NaN and infinities are refused here, because
    run_config.json is strict JSON and cannot record them."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_horizon(text: str) -> float | None:
    """Horizon of the inverse-space norm: 'inf' is the default, None."""
    return None if float(text) == math.inf else _finite_float(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    values = tuple(_finite_float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError(f"no numbers in {text!r}")
    return values


def _parse_boxes(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected JMIN:JMAX:STRIDE, got {text!r}")
    return (int(parts[0]), int(parts[1]), int(parts[2]))


def _add_common(parser: argparse.ArgumentParser, grid: int | None, dims: int,
                boxes: bool, seed: bool) -> None:
    """The options a subcommand shares with others: the grid options where
    it makes its grid (grid=None: it reads it from an input file), the box
    family where it measures box norms and the seed where it draws."""
    if grid is not None:
        parser.add_argument("--grid", type=int, default=grid, metavar="N",
                            help=f"points per axis (default {grid})")
        parser.add_argument("--dims", type=int, default=dims, choices=(1, 2, 3),
                            help=f"torus dimension (default {dims})")
        parser.add_argument("--length", type=_finite_float, default=1.0,
                            help="torus side length (default 1.0)")
    if boxes:
        parser.add_argument("--boxes", type=_parse_boxes, default=None,
                            metavar="JMIN:JMAX:STRIDE",
                            help="box family: radius exponents and center stride")
    if seed:
        parser.add_argument("--seed", type=int, default=0, metavar="U64")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruslab",
        description="Carleson-box norms, semigroup extensions, and mild "
                    "flow solutions on the periodic torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="write the seeded function battery")
    _add_common(p, grid=256, dims=1, boxes=False, seed=True)
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("norm", help="evaluate one named norm on a stored field "
                                     "on the grid its header names")
    _add_common(p, grid=None, dims=1, boxes=True, seed=False)
    p.add_argument("--norm", required=True, choices=NORM_NAMES)
    p.add_argument("--input", required=True, metavar="FIELD.BIN")
    p.add_argument("--alpha", type=_finite_float, default=0.0,
                   help="norm parameter (default 0)")
    p.add_argument("--horizon", type=_parse_horizon, default=None,
                   help="time horizon for the inverse-space norm (default inf)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write norm.json and the run config here")

    p = sub.add_parser("verify", help="run equivalence checks and emit reports")
    _add_common(p, grid=256, dims=1, boxes=True, seed=True)
    p.add_argument("--theorem", default="all", choices=THEOREMS,
                   help="which check family to run (default all)")
    p.add_argument("--alpha", type=_parse_floats, default=None,
                   metavar="A1,A2,...",
                   help=f"regularity levels (default {DEFAULT_ALPHAS})")
    p.add_argument("--beta", type=_parse_floats, default=None,
                   metavar="B1,B2,...",
                   help=f"sup-norm levels in (0,1) (default {DEFAULT_BETAS})")
    p.add_argument("--corpus", default=None, metavar="MANIFEST.JSON",
                   help="function battery to use (default: built-in 20)")
    p.add_argument("--spread-max", type=_finite_float, default=30.0)
    p.add_argument("--drift-max", type=_finite_float, default=0.25)
    p.add_argument("--no-refine", action="store_true",
                   help="skip the doubled-grid drift measurement")
    p.add_argument("--threads", type=int, default=None, metavar="K",
                   help="worker threads for the norm evaluations "
                        "(default: one per core, at most 4)")
    p.add_argument("--out", default="toruslab-reports", metavar="DIR")

    p = sub.add_parser("ns", help="3D solver probes and trace export")
    _add_common(p, grid=32, dims=3, boxes=True, seed=True)
    p.add_argument("--probe", required=True,
                   choices=("smalldata", "inflation", "run"))
    p.add_argument("--alpha", type=_finite_float, default=None,
                   help="data-norm regularity (defaults: smalldata -0.5, "
                        "inflation 0.5)")
    p.add_argument("--deltas", type=_parse_floats,
                   default=(0.0, 0.25, 0.5, 1.0, 2.0), metavar="D1,D2,...",
                   help="small-data amplitude ladder")
    p.add_argument("--eps", type=_finite_float, default=1.0,
                   help="inflation data-norm size")
    p.add_argument("--modes", type=int, default=8,
                   help="shear mode count for inflation/shear data")
    p.add_argument("--horizon", type=_finite_float, default=0.1)
    p.add_argument("--nodes", type=int, default=128,
                   help="stored quadrature nodes for the fixed-point solver")
    p.add_argument("--steps", type=int, default=400,
                   help="time steps for the Runge-Kutta reference")
    p.add_argument("--ratio-max", type=_finite_float, default=4.0,
                   help="contraction bound for the small-data ladder")
    p.add_argument("--data", default="random",
                   choices=("taylor-green", "random", "shear"),
                   help="initial data for --probe run")
    p.add_argument("--amplitude", type=_finite_float, default=1.0)
    p.add_argument("--max-freq", type=_finite_float, default=2.0,
                   help="band limit of random initial data; the flow "
                        "solvers refuse data at or above N/3")
    p.add_argument("--solver", default="picard", choices=("picard", "ifrk4"))
    p.add_argument("--linear-only", action="store_true",
                   help="disable the nonlinearity (pure heat flow)")
    p.add_argument("--out", default="toruslab-ns", metavar="DIR")

    return parser


_CORE_KEYS = ("grid", "dims", "length", "boxes", "corpus",
              "spread_max", "drift_max", "out", "seed", "threads")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data = vars(args).copy()
    command = data.pop("command")
    alphas = data.pop("alpha", None)
    if alphas is None:
        alphas = ()
    elif isinstance(alphas, float):
        alphas = (alphas,)
    betas = data.pop("beta", None) or ()
    core = {key: data.pop(key) for key in _CORE_KEYS if key in data}
    return RunConfig(
        command=command, alphas=alphas, betas=betas, options=data, **core
    )


def _write_run_config(config: RunConfig, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_json(config.to_payload(), directory / "run_config.json")


# --- subcommands ---

def cmd_corpus(config: RunConfig) -> int:
    grid = config.torus_grid()
    specs = default_corpus_specs(config.seed)
    out = Path(config.out)
    _write_run_config(config, out)
    for i, spec in enumerate(specs):
        write_field(generate(spec, grid), out / f"member_{i:02d}_{spec.kind}.bin")
    write_corpus_manifest(specs, grid, out / "manifest.json")
    print(f"wrote {len(specs)} members at N={grid.size}, dims={grid.dims} -> {out}")
    return 0


def cmd_norm(config: RunConfig) -> int:
    opts = config.options
    f = read_field(opts["input"])
    # the run's grid is the input's
    config = dataclasses.replace(config, grid=f.grid.size, dims=f.grid.dims,
                                 length=f.grid.length)
    alpha = config.alphas[0] if config.alphas else 0.0
    boxes = config.box_family(f.grid)
    spec = NORMS[opts["norm"]]
    horizon = opts.get("horizon")
    result = spec.result(spec.argument(f, boxes), alpha, boxes,
                         math.inf if horizon is None else horizon)
    payload = {
        "norm": opts["norm"],
        "alpha": alpha,
        "input": opts["input"],
        "result": (result.to_payload() if isinstance(result, NormResult)
                   else {"value": result}),
    }
    print(json.dumps(payload, sort_keys=True))
    if config.out is not None:
        out = Path(config.out)
        _write_run_config(config, out)
        write_json(payload, out / "norm.json")
    return 0


def _scaling_field(alpha: float, grid: TorusGrid, seed: int):
    """The exponent-measurement field: a localized bump for negative
    trace exponents, a low pure mode otherwise (periodic fields saturate
    box averages at large radii, pinning the sup for alpha <= 0)."""
    if alpha < 0.0:
        spec = CorpusSpec.make("bump", seed=seed, width=0.04)
    else:
        spec = CorpusSpec.make("single_mode", seed=seed, k=2)
    return generate(spec, grid)


def _verify_reports(config: RunConfig, ws: Workspace) -> list:
    theorem = config.options["theorem"]
    levels = {"alpha": config.alphas or DEFAULT_ALPHAS,
              "beta": config.betas or DEFAULT_BETAS}
    refine = not config.options.get("no_refine", False)

    def want(name: str) -> bool:
        return theorem in ("all", name)

    # one sweep per table row, or per shared sweep name, in table order
    sweeps = {c.name: c.levels for c in CHECKS
              if c.group != "inclusions" and want(c.group)}
    rows = [(name, x) for name, over in sweeps.items() for x in levels[over]]
    betas = levels["beta"] if want("inclusions") else ()
    scaling = []
    if want("scaling"):
        fields = {a: _scaling_field(a, ws.grid, config.seed) for a in levels["alpha"]}
        scaling = [(fields[a], norm_id, a) for a in levels["alpha"] for norm_id in SCALING_NORMS]
    # every value the reports read, member by member, before any report
    prepare(ws, rows, betas, refine=refine, scaling=scaling)
    reports: list = [run_check(ws, name, x, refine=refine) for name, x in rows]
    reports += [check_inclusions(ws, b, refine=refine) for b in betas]
    # at the -1/2 endpoint no periodic band-limited field can exhibit the
    # trace exponent, so the row is report-only
    reports += [check_scaling(ws, f, norm_id, a, enforce=a > -0.5)
                for f, norm_id, a in scaling]
    return reports


def cmd_verify(config: RunConfig) -> int:
    grid = config.torus_grid()
    specs = (specs_from_manifest(config.corpus) if config.corpus
             else default_corpus_specs(config.seed))
    ws = Workspace(specs, grid, boxes=config.box_family(grid), threads=config.threads)
    reports = _verify_reports(config, ws)
    out = Path(config.out)
    _write_run_config(config, out)
    thresholds = VerifyConfig(
        spread_max=config.spread_max, drift_max=config.drift_max
    )
    all_ok = write_reports(reports, str(out), thresholds)
    verdict = "PASS" if all_ok else "FAIL"
    print(f"{verdict}: {len(reports)} reports -> {out}")
    return 0 if all_ok else 1


def cmd_ns(config: RunConfig) -> int:
    if config.dims != 3:
        raise ValueError("flow probes need --dims 3")
    opts = config.options
    grid = config.torus_grid()
    boxes = config.box_family(grid)
    out = Path(config.out)
    probe = opts["probe"]

    if probe == "smalldata":
        alpha = config.alphas[0] if config.alphas else -0.5
        report = smalldata_probe(
            opts["deltas"], alpha, opts["horizon"], grid, seed=config.seed,
            boxes=boxes, nodes=opts["nodes"], ratio_max=opts["ratio_max"],
        )
        _write_run_config(config, out)
        write_json(report.to_payload(), out / "smalldata.json")
        write_csv(
            out / "smalldata.csv",
            ["delta", "converged", "x_norm", "ratio"],
            [[r.delta, r.converged, r.x_norm, r.ratio] for r in report.rows],
        )
        print(f"smalldata alpha={alpha}: linear ratio {report.linear_ratio:.6g}, "
              f"threshold {report.threshold} -> {out}")
        return 0 if report.passes() else 1

    if probe == "inflation":
        alpha = config.alphas[0] if config.alphas else 0.5
        report = inflation_probe(
            opts["eps"], alpha, grid, mode_count=opts["modes"],
            horizon=opts["horizon"], steps=opts["steps"], seed=config.seed,
            boxes=boxes,
        )
        _write_run_config(config, out)
        write_json(report.to_payload(), out / "inflation.json")
        write_csv(
            out / "inflation.csv",
            ["eps", "modes", "initial_norm", "linear_peak", "nonlinear_peak",
             "growth_ratio", "shell_fraction", "resolved"],
            [[report.eps, report.mode_count, report.initial_norm,
              report.linear_peak, report.nonlinear_peak, report.growth_ratio,
              report.shell_fraction, report.resolved]],
        )
        print(f"inflation K={report.mode_count} eps={report.eps}: growth ratio "
              f"{report.growth_ratio:.6g} (resolved={report.resolved}) -> {out}")
        return 0

    # probe == "run": solve once and export the trace
    kind = opts["data"]
    if kind == "taylor-green":
        a = taylor_green(grid, amplitude=opts["amplitude"])
    elif kind == "shear":
        a = shear_modes(grid, opts["modes"], amplitude=opts["amplitude"],
                        seed=config.seed)
    else:
        a = random_divergence_free(
            grid, seed=config.seed, max_freq=opts["max_freq"]
        ).scaled(opts["amplitude"])
    nonlinear = not opts.get("linear_only", False)
    if opts["solver"] == "picard":
        trace = mild_solve_picard(
            a, opts["horizon"], nodes=opts["nodes"], nonlinear=nonlinear,
        )
    else:
        trace = step_ifrk4(
            a, opts["horizon"], steps=opts["steps"], nonlinear=nonlinear
        )
    _write_run_config(config, out)
    export_trace(trace, out / "trace")
    print(f"{opts['solver']} run: {trace.times.size} nodes, "
          f"converged={trace.converged} -> {out / 'trace'}")
    return 0


_DISPATCH = {
    "corpus": cmd_corpus,
    "norm": cmd_norm,
    "verify": cmd_verify,
    "ns": cmd_ns,
}


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_fuse_negative_values(raw))
    try:
        config = config_from_args(args)
        return _DISPATCH[config.command](config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
