"""Acceptance battery: one test per shipped guarantee, run in order.

Each criterion prints exactly one PASS/FAIL line (use ``-s`` to stream
them) carrying its runtime against the stated budget, then asserts. The
equivalence criteria (04-08) share one cached workspace over the default
20-member battery at N=256; refinement reuses its N=512 twin, so the
first refining criterion pays the build cost once.

Growth figures from the inflation probe are recorded in the printed
line, not asserted against any external number; the K=1 control is the
only inflation value with a hard tolerance.
"""

import math
import time

import numpy as np
import pytest

from toruslab.cli import _scaling_field
from toruslab.corpus import default_corpus_specs
from toruslab.norms import NORMS, BoxFamily
from toruslab.ns3d import (
    divergence_defect,
    inflation_probe,
    mild_solve_picard,
    random_divergence_free,
    smalldata_probe,
    step_ifrk4,
    taylor_green,
)
from toruslab.spectral import (
    Field,
    TorusGrid,
    forward_transform,
    frac_laplacian_power,
    inverse_transform,
    leray_project,
)
from toruslab.verify import (
    SCALING_NORMS,
    VerifyConfig,
    Workspace,
    build_reports,
)

from flow_oracles import scaling_defect, trace_difference, velocity
from transform_oracles import heat_semigroup, poisson_semigroup, riesz_transform

ALPHAS = (-0.5, -0.25, 0.0, 0.25, 0.5)
BETAS = (0.25, 0.5, 0.75)
CONFIG = VerifyConfig()  # spread <= 30, drift <= 25%
TWO_PI = 2.0 * np.pi


def _conclude(num: int, budget: float, start: float, failures: list,
              detail: str) -> None:
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"\ncriterion {num:02d} {status} [{elapsed:6.1f}s/{budget:4.0f}s] {detail}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def _enforce(reports, config, failures) -> tuple:
    """Worst (spread, drift) over reports, folding violations into failures."""
    worst_spread, worst_drift = 0.0, 0.0
    for r in reports:
        worst_spread = max(worst_spread, r.spread)
        if r.drift is not None:
            worst_drift = max(worst_drift, r.drift)
        if not r.passes(config):
            failures.append(
                f"{r.theorem} a={r.alpha}: spread {r.spread:.2f}"
                f" drift {r.drift}"
            )
    return worst_spread, worst_drift


@pytest.fixture(scope="module")
def workspace() -> Workspace:
    grid = TorusGrid(dims=1, size=256, length=1.0)
    return Workspace(default_corpus_specs(0), grid)


# -- 01: spectral operators against closed-form symbols -----------------

def test_criterion_01_multiplier_exactness():
    start = time.perf_counter()
    bad: list = []
    worst = 0.0

    def check(tag: str, got: np.ndarray, want: np.ndarray, scale: float = 1.0):
        nonlocal worst
        err = float(np.max(np.abs(got - want))) / scale
        worst = max(worst, err)
        if err > 1e-12:
            bad.append(f"{tag}: {err:.2e}")

    # decay keeps every output peak far above FFT roundoff, where the
    # round trip's Hermitian-symmetry guard is meaningful
    g = TorusGrid(dims=1, size=64, length=1.0)
    x = g.coordinates()[0]
    for k in (1, 3, 5):
        f = Field(g, np.cos(TWO_PI * k * x))
        fhat = forward_transform(f)
        out = inverse_transform(poisson_semigroup(fhat, 0.37))
        check(f"poisson k={k}", out.samples,
              math.exp(-TWO_PI * k * 0.37) * f.samples)
        out = inverse_transform(heat_semigroup(fhat, 0.01))
        check(f"heat k={k}", out.samples,
              math.exp(-4.0 * np.pi**2 * k * k * 0.01) * f.samples)

    g2 = TorusGrid(dims=1, size=32, length=2.0)
    f = Field(g2, np.cos(TWO_PI * g2.coordinates()[0] / 2.0))
    out = inverse_transform(poisson_semigroup(forward_transform(f), 0.25))
    check("poisson L=2", out.samples, math.exp(-TWO_PI * 0.25 / 2.0) * f.samples)
    out = inverse_transform(heat_semigroup(forward_transform(f), 0.02))
    check("heat L=2", out.samples,
          math.exp(-4.0 * np.pi**2 * 0.02 / 4.0) * f.samples)

    f = Field(g, np.cos(TWO_PI * 2 * x))
    for s in (-0.5, 0.3, 0.75):
        out = inverse_transform(frac_laplacian_power(forward_transform(f), s))
        check(f"frac s={s}", out.samples, (TWO_PI * 2) ** s * f.samples)

    f = Field(g, np.sin(TWO_PI * x))
    out = inverse_transform(riesz_transform(forward_transform(f), 0))
    check("riesz 1d", out.samples, np.cos(TWO_PI * x))
    g2d = TorusGrid(dims=2, size=32, length=1.0)
    _, y = g2d.coordinates()
    fy = forward_transform(Field(g2d, np.sin(TWO_PI * y)))
    check("riesz axis 1", inverse_transform(riesz_transform(fy, 1)).samples,
          np.cos(TWO_PI * y))
    check("riesz orthogonal axis",
          riesz_transform(fy, 0).coefficients, 0.0 * fy.coefficients)

    g3 = TorusGrid(dims=3, size=16, length=1.0)
    x3, y3, _ = g3.coordinates()
    zero = Field(g3, np.zeros(g3.shape))
    transverse = [forward_transform(Field(g3, np.sin(TWO_PI * y3))),
                  forward_transform(zero), forward_transform(zero)]
    kept = leray_project(transverse)
    check("leray keeps transverse",
          kept[0].coefficients, transverse[0].coefficients)
    longitudinal = [forward_transform(Field(g3, np.sin(TWO_PI * x3))),
                    forward_transform(zero), forward_transform(zero)]
    peak = longitudinal[0].max_abs()
    for j, comp in enumerate(leray_project(longitudinal)):
        check(f"leray kills longitudinal c{j}",
              comp.coefficients, 0.0 * comp.coefficients, scale=peak)

    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape)
    fhat = forward_transform(Field(g, vals - vals.mean()))
    scale = max(fhat.max_abs(), 1.0)
    for name, op in (("poisson", poisson_semigroup), ("heat", heat_semigroup)):
        once = op(fhat, 0.35)
        twice = op(op(fhat, 0.2), 0.15)
        check(f"{name} composition", twice.coefficients, once.coefficients,
              scale=scale)

    _conclude(1, 60.0, start, bad,
              f"semigroup/fractional/Riesz/Leray worst deviation {worst:.2e}")


# -- 02: fast norms against exhaustive double loops ----------------------

def _min_image(d: int, n: int) -> int:
    return min(d % n, n - d % n)


def _ball_offsets(grid: TorusGrid, radius: float) -> list:
    offsets = []
    for d in np.ndindex(*grid.shape):
        dist_sq = sum((_min_image(di, grid.size) * grid.spacing) ** 2
                      for di in d)
        if dist_sq < radius**2:
            offsets.append(d)
    return offsets


def _ball_values(g: np.ndarray, n: int, center, offsets) -> np.ndarray:
    return np.array(
        [g[tuple((ci + di) % n for ci, di in zip(center, d))] for d in offsets]
    )


def _brute_campanato(f: Field, alpha: float, boxes: BoxFamily) -> float:
    grid, g = f.grid, f.remove_mean().samples
    best = 0.0
    for radius in boxes.radii:
        offsets = _ball_offsets(grid, radius)
        for c in np.ndindex(*grid.shape):
            pts = _ball_values(g, grid.size, c, offsets)
            integral = np.sum((pts - pts.mean()) ** 2) * grid.cell_volume
            best = max(best, radius ** -(grid.dims + 2 * alpha) * integral)
    return math.sqrt(best)


def _brute_pair(f: Field, alpha: float, boxes: BoxFamily) -> float:
    grid, g = f.grid, f.remove_mean().samples
    best = 0.0
    for radius in boxes.radii:
        offsets = _ball_offsets(grid, radius)
        for c in np.ndindex(*grid.shape):
            pts = _ball_values(g, grid.size, c, offsets)
            pair = np.sum((pts[:, None] - pts[None, :]) ** 2) * grid.cell_volume**2
            best = max(best, radius ** (-2 * (alpha + grid.dims)) * pair)
    return math.sqrt(best)


def _brute_q(f: Field, beta: float, boxes: BoxFamily) -> float:
    grid, g = f.grid, f.remove_mean().samples
    n = grid.size
    best = 0.0
    for radius in boxes.radii:
        offsets = _ball_offsets(grid, radius)
        for c in np.ndindex(*grid.shape):
            vals = _ball_values(g, n, c, offsets)
            total = 0.0
            for a_i, da in enumerate(offsets):
                for b_i, db in enumerate(offsets):
                    if a_i == b_i:
                        continue
                    dist_sq = sum(
                        (_min_image(xa - xb, n) * grid.spacing) ** 2
                        for xa, xb in zip(da, db)
                    )
                    total += (vals[a_i] - vals[b_i]) ** 2 * dist_sq ** (
                        -(grid.dims + 2 * beta) / 2.0
                    )
            best = max(best, radius ** (2 * beta - grid.dims)
                       * total * grid.cell_volume**2)
    return math.sqrt(best)


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    bad: list = []
    worst = 0.0

    def check(tag: str, got: float, want: float):
        nonlocal worst
        err = abs(got - want) / max(abs(want), 1e-30)
        worst = max(worst, err)
        if err > 1e-10:
            bad.append(f"{tag}: rel {err:.2e}")

    rng = np.random.default_rng(5)
    g1 = TorusGrid(dims=1, size=16, length=1.0)
    vals = rng.standard_normal(g1.shape)
    f1 = Field(g1, vals - vals.mean())
    b1 = BoxFamily.default(g1)  # stride 1: every center, N <= 16
    for a in (-0.5, 0.0, 0.5):
        check(f"campanato 1d a={a}", NORMS["campanato"].value(f1, a, b1),
              _brute_campanato(f1, a, b1))
    for a in (-0.25, 0.25):
        check(f"pair 1d a={a}", NORMS["campanato_pair"].value(f1, a, b1),
              _brute_pair(f1, a, b1))
    for beta in (0.25, 0.75):
        check(f"q 1d b={beta}", NORMS["q"].value(f1, beta, b1),
              _brute_q(f1, beta, b1))

    g2 = TorusGrid(dims=2, size=8, length=1.0)
    vals = rng.standard_normal(g2.shape)
    f2 = Field(g2, vals - vals.mean())
    b2 = BoxFamily.default(g2)
    check("campanato 2d", NORMS["campanato"].value(f2, 0.25, b2),
          _brute_campanato(f2, 0.25, b2))
    check("pair 2d", NORMS["campanato_pair"].value(f2, 0.25, b2),
          _brute_pair(f2, 0.25, b2))
    check("q 2d", NORMS["q"].value(f2, 0.5, b2), _brute_q(f2, 0.5, b2))

    _conclude(2, 60.0, start, bad,
              f"direct-sum oracles worst relative deviation {worst:.2e}")


# -- 03: measured scaling exponents under the exact lattice rescale -----

def test_criterion_03_scaling_laws():
    start = time.perf_counter()
    bad: list = []
    grid = TorusGrid(dims=1, size=256, length=1.0)
    ws = Workspace((), grid)
    rows = [(_scaling_field(a, grid, seed=0), norm_id, a)
            for a in ALPHAS for norm_id in SCALING_NORMS]
    enforced_rows = 0
    h_example = None
    for (_, norm_id, a), rep in zip(rows, build_reports(ws, scaling=rows, refine=False)):
        if rep.enforced:
            enforced_rows += 1
        if not rep.passes():
            bad.append(
                f"{norm_id} a={a}: measured {rep.measured:.3f}"
                f" expected {dict(rep.expected)}"
            )
        if norm_id == "h" and a == 0.25:
            h_example = rep
    dual = ", ".join(f"{name} {want:+.2f}" for name, want in h_example.expected)
    _conclude(
        3, 60.0, start, bad,
        f"{enforced_rows} rows within +-0.05; sup-row a=0.25 measured "
        f"{h_example.measured:+.3f} recorded against both ({dual})",
    )


# -- 04-08: corpus-band equivalences at N=256, refined to N=512 ---------

def test_criterion_04_harmonic_box_equivalence(workspace):
    start = time.perf_counter()
    bad: list = []
    reports = build_reports(workspace, [("2.1", a) for a in ALPHAS], refine=True)
    for r in reports:
        if r.drift is None:
            bad.append(f"2.1 a={r.alpha}: no refinement drift")
    spread, drift = _enforce(reports, CONFIG, bad)
    _conclude(4, 180.0, start, bad,
              f"five-alpha bands: max spread {spread:.2f} <= 30, "
              f"max drift {drift:.1%} <= 25%")


def test_criterion_05_scaled_harmonic_equivalence(workspace):
    start = time.perf_counter()
    bad: list = []
    rows = ([("3.1i", a) for a in ALPHAS] + [("3.1ii-bloch", b) for b in BETAS]
            + [("3.3-star", a) for a in ALPHAS])
    reports = build_reports(workspace, rows, refine=True)
    spread, drift = _enforce(reports, CONFIG, bad)
    _conclude(5, 180.0, start, bad,
              f"invariant/Bloch/lifted-stack bands: max spread {spread:.2f},"
              f" max drift {drift:.1%}")


def test_criterion_06_caloric_equivalence(workspace):
    start = time.perf_counter()
    bad: list = []
    parts = ("dagger-linear", "dagger-parabolic")
    rows = ([(name, a) for name in ("4.1i", "4.1ii") for a in ALPHAS]
            + [("4.1iii-bloch", b) for b in BETAS])
    reports = build_reports(workspace, rows + [(f"4.1-{part}", a) for part in parts
                                               for a in ALPHAS], refine=True)
    spread, drift = _enforce(reports[:len(rows)], CONFIG, bad)
    # the full-gradient reports are unenforced: their bands are recorded
    bands = {}
    for part in parts:
        daggers = [r for r in reports if r.theorem == f"4.1-{part}"]
        bands[part] = (min(r.band[0] for r in daggers), max(r.band[1] for r in daggers))
    dagger = ", ".join(f"{p} [{lo:.2g}, {hi:.2g}]"
                       for p, (lo, hi) in bands.items())
    _conclude(6, 180.0, start, bad,
              f"max spread {spread:.2f}, max drift {drift:.1%}; "
              f"full-gradient bands recorded: {dagger}")


def test_criterion_07_inverse_and_oscillation_pairings(workspace):
    start = time.perf_counter()
    bad: list = []
    reports = build_reports(workspace, [("4.2", a) for a in (0.25, 0.5, 0.75, -0.75, -0.5, -0.25)],
                            refine=False)
    spread, _ = _enforce(reports, CONFIG, bad)
    _conclude(7, 120.0, start, bad,
              f"six alpha pairings: max spread {spread:.2f} <= 30")


def test_criterion_08_gradient_constant(workspace):
    start = time.perf_counter()
    bad: list = []
    worst_hi, worst_drift = 0.0, 0.0
    for a, rep in zip(ALPHAS, build_reports(workspace, [("2.2i-gradient", a) for a in ALPHAS],
                                            refine=True)):
        hi = rep.band[1]
        if not math.isfinite(hi):
            bad.append(f"a={a}: constant not finite")
        if rep.drift is None or not rep.passes(CONFIG):
            bad.append(f"a={a}: drift {rep.drift}")
        worst_hi = max(worst_hi, hi)
        worst_drift = max(worst_drift, rep.drift or 0.0)
    _conclude(8, 60.0, start, bad,
              f"largest empirical constant {worst_hi:.3g}, "
              f"max refinement drift {worst_drift:.1%} <= 25%")


# -- 09: flow solver correctness at 32^3 ---------------------------------

def test_criterion_09_flow_correctness():
    start = time.perf_counter()
    bad: list = []
    grid = TorusGrid(dims=3, size=32, length=1.0)

    tg = taylor_green(grid, 0.05)
    iterative = mild_solve_picard(tg, 0.1, nodes=128)
    stepped = step_ifrk4(tg, 0.1, steps=128)
    gap = trace_difference(iterative, stepped)
    if gap > 1e-6:
        bad.append(f"solver gap {gap:.2e} > 1e-6")

    div = max(
        divergence_defect(velocity(trace, c))
        for trace in (iterative, stepped) for c in trace.coefficients
    )
    if div > 1e-8:
        bad.append(f"divergence defect {div:.2e} > 1e-8")

    for trace in (iterative, stepped):
        e = trace.energies()
        if np.any(np.diff(e) > 1e-12 * e[0]):
            bad.append("kinetic energy increased along a trace")

    a = random_divergence_free(grid, seed=4, max_freq=2).scaled(0.05)
    defect = scaling_defect(a, 0.1, nodes=64)
    if defect > 1e-4:
        bad.append(f"rescale defect {defect:.2e} > 1e-4")

    _conclude(9, 300.0, start, bad,
              f"solver gap {gap:.2e}, max divergence {div:.2e}, "
              f"rescale defect {defect:.2e}")


# -- 10: contraction and interaction probes at 32^3 ----------------------

def test_criterion_10_contraction_probes():
    start = time.perf_counter()
    bad: list = []
    grid = TorusGrid(dims=3, size=32, length=1.0)

    thresholds = {}
    for a in (-0.5, 0.0):
        report = smalldata_probe((0.0, 0.25, 0.5, 1.0, 2.0), a, 0.1, grid,
                                 nodes=128, ratio_max=4.0)
        thresholds[a] = report.threshold
        if report.threshold is None or report.threshold <= 0.0:
            bad.append(f"a={a}: empty contraction regime")
            continue
        for row in report.rows:
            if 0.0 < row.delta <= report.threshold:
                if not row.converged or row.ratio > 4.0:
                    bad.append(f"a={a} d={row.delta}: ratio {row.ratio:.2f}")

    grown = inflation_probe(1.0, 0.5, grid, mode_count=8,
                            horizon=0.05, steps=400, seed=2)
    if not (math.isfinite(grown.growth_ratio) and grown.growth_ratio > 0):
        bad.append(f"K=8 growth ratio {grown.growth_ratio}")
    if not grown.resolved:
        bad.append("K=8 run left energy in the dealiasing shell")
    # the single-mode control needs twice the steps: normalizing one
    # high-frequency shear to unit data norm quadruples the amplitude
    control = inflation_probe(1.0, 0.5, grid, mode_count=1,
                              horizon=0.05, steps=800, seed=2)
    if abs(control.growth_ratio - 1.0) > 1e-3:
        bad.append(f"K=1 control ratio {control.growth_ratio}")

    _conclude(
        10, 600.0, start, bad,
        f"ladder thresholds {thresholds}; K=8 growth "
        f"{grown.growth_ratio:.4f} (recorded), K=1 control "
        f"{control.growth_ratio:.6f}",
    )
