"""Equivalence harness: computes both sides of each claimed norm
equivalence over a function corpus and reports ratio bands, scaling
exponents, and inclusion-chain constants.

The underlying theory asserts two-sided bounds with unspecified constants,
so every check here is a regression band: ratios must stay inside a
configured spread, and the band must be stable when the grid is refined.
Constant and zero corpus members are skipped, counted, and listed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import CorpusSpec, generate
from .extensions import Extension, gradient_bound_ratio
from .fieldio import write_csv, write_json
from .norms import (NORMS, BoxFamily, Norm, check_box_heights, default_mesh, gradient_pass,
                    trace_pass)
from .spectral import Field, TorusGrid

DEGENERATE_RTOL = 1e-13

# The scaling rows measure log_lam of norm(f(lam .)) / norm(f) at this
# lam, and an enforced row passes within this distance of an expectation.
SCALING_LAMBDA = 2
SCALING_TOLERANCE = 0.05


@dataclass(frozen=True)
class VerifyConfig:
    """Pass/fail thresholds; the theory fixes none, so these are knobs."""

    spread_max: float = 30.0
    drift_max: float = 0.25


@dataclass(frozen=True)
class MemberRatio:
    label: str
    left: float
    right: float

    @property
    def ratio(self) -> float:
        if self.right == 0.0:
            return math.inf if self.left > 0.0 else math.nan
        return self.left / self.right


@dataclass(frozen=True)
class EquivalenceReport:
    theorem: str
    alpha: float
    members: tuple[MemberRatio, ...]
    skipped: tuple[str, ...]
    drift: float | None = None
    enforce_spread: bool = True
    enforce_drift: bool = True
    note: str = ""

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"{self.theorem}: no usable corpus members")
        for m in self.members:
            if not (math.isfinite(m.ratio) and m.ratio > 0):
                raise ValueError(
                    f"{self.theorem}: ratio for {m.label!r} is {m.ratio}"
                )

    @property
    def band(self) -> tuple[float, float]:
        ratios = [m.ratio for m in self.members]
        return (min(ratios), max(ratios))

    @property
    def spread(self) -> float:
        lo, hi = self.band
        return hi / lo

    def passes(self, config: VerifyConfig) -> bool:
        if self.enforce_spread and self.spread > config.spread_max:
            return False
        if self.enforce_drift and self.drift is not None:
            if self.drift > config.drift_max:
                return False
        return True

    def to_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        for row, member in zip(payload["members"], self.members):
            row["ratio"] = member.ratio
        return payload | {"band": list(self.band), "spread": self.spread}


@dataclass(frozen=True)
class ScalingReport:
    norm_id: str
    alpha: float
    measured: float
    expected: tuple[tuple[str, float], ...]
    enforced: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.measured):
            raise ValueError(f"{self.norm_id}: measured exponent not finite")

    def passes(self) -> bool:
        if not self.enforced:
            return True
        return any(
            abs(self.measured - want) <= SCALING_TOLERANCE
            for _, want in self.expected
        )

    def to_payload(self) -> dict:
        return {
            "norm": self.norm_id,
            "lambda": float(SCALING_LAMBDA),
            "alpha": self.alpha,
            "measured_exponent": self.measured,
            "expected": {name: want for name, want in self.expected},
            "enforced": self.enforced,
            "tolerance": SCALING_TOLERANCE,
        }


@dataclass(frozen=True)
class InclusionReport:
    beta: float
    links: tuple[EquivalenceReport, ...]
    weight_monotone_ok: bool

    def passes(self, config: VerifyConfig) -> bool:
        return self.weight_monotone_ok and all(
            r.passes(config) for r in self.links
        )

    def to_payload(self) -> dict:
        return {
            "beta": self.beta,
            "weight_monotone_ok": self.weight_monotone_ok,
            "links": [r.to_payload() for r in self.links],
        }


# Ops the value table holds besides the registry norms: the unit right
# side, the empirical gradient constant, whose last argument is the value
# of h at its level (its task evaluates h there first and reads it from its
# own values), and the weight-monotone test of the inclusion chains, which reads
# the scaled_h walks the inclusion rows plan. They stay out of NORMS, whose
# names are the `norm` command's choices.
_TABLE_OPS = {
    "one": Norm("trace", lambda *_: 1.0),
    "grad_constant": Norm("poisson", lambda e, a, _, h: gradient_bound_ratio(e, a, h),
                          peak=True),
    "weight_monotone": Norm("poisson", lambda e, b, boxes, _: _weight_monotone_exact(e, b, boxes)),
}


def _op(name: str) -> Norm:
    """The entry of a table op: a side op of ``_TABLE_OPS`` or a norm of
    ``NORMS``."""
    if name in _TABLE_OPS:
        return _TABLE_OPS[name]
    if name not in NORMS:
        raise ValueError(f"unknown norm op {name!r}")
    return NORMS[name]


def default_threads() -> int:
    """Worker threads when none are asked for: one per core, at most 4."""
    return min(4, os.cpu_count() or 1)


class Workspace:
    """Corpus fields and a table of norm values on one grid.

    The table maps (op, member, level) to a value. It is filled from a plan
    that names each member's (op, level) pairs before any work starts, with
    one pool task per member and input: the Poisson ops on one Poisson
    extension of the member, the heat ops on one heat extension, and the
    trace ops on the field. Every op is a ``Norm`` entry, found by ``_op``.
    A trace task makes one trace pass over the field for every level of its
    ops with a sweep (``campanato``, ``q``, ``inverse``), each op's
    level-free work done once, and drops what it keeps when it ends. An
    extension task makes one gradient pass over its extension for the node
    peaks and the lift-0 walks of all its ops, one stream over the union of
    the meshes they read, then evaluates them, and drops the extension when
    it ends; the walks of a fractional lift a != 0 (``star``, or both
    ``dagger`` heights at one level) are read once, and one more pass
    streams them together just before the first is read. A task returns
    its values and writes nothing; the calling thread puts them into the
    table, which ``build_reports`` alone fills. A lookup that misses is an
    error. Reports read the table in corpus order, so they are deterministic.
    A field outside the corpus, such as a scaling field, that ``add_field``
    names is planned and run as a corpus member is, but it is not in
    ``specs``, so ``labels``, ``split_members`` and the reports never see it.
    ``threads`` is the pool's worker count, at least 1; None takes
    ``default_threads()``.
    """

    def __init__(
        self,
        specs: tuple[CorpusSpec, ...] | list[CorpusSpec],
        grid: TorusGrid,
        boxes: BoxFamily | None = None,
        threads: int | None = None,
    ) -> None:
        self.specs = tuple(specs)
        self.grid = grid
        self.boxes = boxes if boxes is not None else BoxFamily.default(grid)
        if self.boxes.grid != grid:
            raise ValueError("box family grid does not match workspace grid")
        if threads is not None and threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        self.threads = default_threads() if threads is None else threads
        self._fields: dict[str, Field | None] = {}
        self._values: dict[tuple, float] = {}
        self._refined: "Workspace | None" = None

    # -- members --

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(spec.label() for spec in self.specs)

    def field(self, label: str) -> Field | None:
        """The generated member, or None if it is constant/zero."""
        if label in self._fields:
            return self._fields[label]
        spec = next((s for s in self.specs if s.label() == label), None)
        if spec is None:
            raise ValueError(f"no corpus member is labelled {label!r}")
        raw = generate(spec, self.grid)
        centered = raw.remove_mean()
        scale = max(abs(raw.mean()), 1.0)
        out = None if centered.max_abs() <= DEGENERATE_RTOL * scale else centered
        self._fields[label] = out
        return out

    def split_members(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        usable, skipped = [], []
        for label in self.labels:
            (usable if self.field(label) is not None else skipped).append(label)
        return tuple(usable), tuple(skipped)

    def add_field(self, f: Field) -> str:
        """The label of ``f``, a field on the workspace grid, as a member of
        the table: a digest of its samples, so that equal fields are one
        member, and without the parentheses of a ``CorpusSpec.label()``."""
        if f.grid != self.grid:
            raise ValueError("field grid does not match workspace grid")
        label = "field:" + hashlib.sha256(f.samples.tobytes()).hexdigest()[:16]
        self._fields.setdefault(label, f)
        return label

    def stack(self, label: str, kind: str) -> Extension:
        """A new extension of the member on the default mesh of its box
        height; the workspace keeps none."""
        f = self.field(label)
        if f is None:
            raise ValueError(f"degenerate member {label!r} has no extension")
        return Extension(f, kind, default_mesh(self.grid, kind))

    # -- the value table --

    def norm(self, op: str, label: str, alpha: float = 0.0) -> float:
        """The table's value of ``op`` on the member at level ``alpha``."""
        key = (op, label, round(alpha, 12))
        if key not in self._values:
            raise ValueError(f"the table holds no {op!r} value of member {label!r} "
                             f"at level {alpha}")
        return self._values[key]

    def evaluate(self, op_pairs: tuple[tuple[str, float], tuple[str, float]]):
        """Member -> (left, right) for an op pair, in corpus order, read from
        the table."""
        (left_op, left_a), (right_op, right_a) = op_pairs
        usable, skipped = self.split_members()
        members = tuple(
            MemberRatio(label=label, left=self.norm(left_op, label, left_a),
                        right=self.norm(right_op, label, right_a))
            for label in usable
        )
        return members, skipped

    def _tasks(self, plan: dict[str, list[tuple[str, float]]]
               ) -> list[tuple["Workspace", str, str, dict]]:
        """(workspace, member, input kind, {(op, level key): level}) for each
        member and kind with keys the table lacks. Every member, op and box
        height is checked, and every member generated, here, before any work."""
        tasks, kinds = [], set()
        for label, pairs in plan.items():
            if self.field(label) is None:
                raise ValueError(f"degenerate member {label!r} has no norm values")
            todo: dict[tuple[str, float], float] = {}
            for op, alpha in pairs:
                kinds.add(_op(op).kind)
                level = round(alpha, 12)
                if (op, label, level) not in self._values:
                    if op == "grad_constant":  # its task evaluates h at its level first
                        todo.setdefault(("h", level), alpha)
                    todo.setdefault((op, level), alpha)
            for kind in ("poisson", "heat", "trace"):
                part = {key: alpha for key, alpha in todo.items() if _op(key[0]).kind == kind}
                if part:
                    tasks.append((self, label, kind, part))
        for kind in sorted(kinds):
            check_box_heights(self.boxes, kind)
        return tasks

    def _task(self, label: str, kind: str, todo: dict[tuple[str, float], float]) -> dict:
        """The {(op, member, level key): value} of one member's ops of one
        input kind: on the field, with one trace pass for the levels of every
        op with a sweep, or on an extension made here, with one gradient pass
        for the peaks and the lift-0 walks of every op. The walks of a lift
        a != 0 (``star``, or ``dagger_linear`` and ``dagger_parabolic`` at one
        level) are read once, so they are walked together, by one stream over
        the union of their meshes, just before the first of them is read, and
        each is dropped once read: no more than one lift is held at a time."""
        x = self.field(label) if kind == "trace" else self.stack(label, kind)
        ops = {key: (_op(key[0]), alpha) for key, alpha in todo.items()}
        lifts: dict[float, list] = {}  # lift -> the walk keys of the ops
        swept = {}
        if kind == "trace":
            swept = trace_pass(x, [(op, alpha) for (op, _), (norm, alpha) in ops.items()
                                   if norm.sweep], self.boxes)
        else:
            for walk in (norm.walk(alpha) for norm, alpha in ops.values()):
                if walk:
                    lifts.setdefault(walk[0], []).append(walk + (self.boxes,))
            gradient_pass(x, lifts.pop(0.0, []),
                          [norm.peak for norm, _ in ops.values() if norm.peak is not None])
        values: dict[tuple, float] = {}
        for (op, level), (norm, alpha) in ops.items():
            walk = norm.walk(alpha)
            if walk and walk[0] in lifts:
                gradient_pass(x, lifts.pop(walk[0]))
            last = values[("h", label, level)] if op == "grad_constant" else math.inf
            values[(op, label, level)] = (swept[op, alpha].value if norm.sweep
                                          else norm.value(x, alpha, self.boxes, last))
        return values

    def refined(self) -> "Workspace":
        """Same corpus on the 2N grid; same physical boxes (stride doubled)."""
        if self._refined is None:
            grid2 = dataclasses.replace(self.grid, size=2 * self.grid.size)
            boxes2 = dataclasses.replace(self.boxes, grid=grid2, stride=2 * self.boxes.stride)
            self._refined = Workspace(self.specs, grid2, boxes2, threads=self.threads)
        return self._refined


def _run_tasks(tasks: list[tuple[Workspace, str, str, dict]], threads: int) -> None:
    """Run member tasks on one pool of ``threads`` workers and put the values
    each returns into its workspace's table, here on the calling thread."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for ws, future in [(ws, pool.submit(ws._task, label, kind, todo))
                           for ws, label, kind, todo in tasks]:
            ws._values.update(future.result())


def _band_drift(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(abs(b[0] / a[0] - 1.0), abs(b[1] / a[1] - 1.0))


@dataclass(frozen=True)
class Check:
    """One row of the check table: a report id and the norm ops it compares.

    Each side is (op, sign): the op runs at sign times the level, sign 0
    meaning level 0. ``levels`` names the sweep the row runs over: "alpha",
    whose levels lie in (-1, 1), the domain of every alpha op, or "beta",
    whose levels lie in (0, 1). ``domain`` narrows the levels a row accepts;
    rows that share a ``sweep`` name split one sweep between them by domain.
    """

    theorem: str
    group: str  # the --theorem group
    left: tuple[str, int]
    right: tuple[str, int]
    levels: str = "alpha"
    domain: Callable[[float], bool] = lambda level: True
    enforce_spread: bool = True
    enforce_drift: bool = True
    note: str = ""
    sweep: str = ""

    @property
    def name(self) -> str:
        return self.sweep or self.theorem

    def admits(self, level: float) -> bool:
        return (-1.0 if self.levels == "alpha" else 0.0) < level < 1.0 and self.domain(level)

    def pair(self, level: float) -> tuple[tuple[str, float], tuple[str, float]]:
        return tuple((op, sign * level if sign else 0.0)
                     for op, sign in (self.left, self.right))


_DAGGER_NOTE = "reported only: box-height reading is an open question"

# Report order: the rows of each group in table order. Inclusion links
# read "A in B" and report the band of norm_B / norm_A.
CHECKS = (
    # Poisson Carleson-box norm against the Campanato trace norm
    Check("2.1", "2.1", ("h", 1), ("campanato", 1)),
    # scaling-invariant box norm vs lifted Campanato; harmonic Bloch sup vs
    # box norm; lifted box norm vs scaling-invariant box norm
    Check("3.1i", "3.1", ("scaled_h", 1), ("frac_campanato", 1)),
    Check("3.1ii-bloch", "3.1", ("bloch_hb", 0), ("scaled_h", 1), levels="beta"),
    Check("3.3-star", "3.1", ("star", 1), ("scaled_h", 1)),
    # heat analogues; the full-gradient lifted box norm is reported only
    Check("4.1i", "4.1", ("t", 1), ("campanato", 1)),
    Check("4.1ii", "4.1", ("scaled_t", 1), ("frac_campanato", 1)),
    Check("4.1iii-bloch", "4.1", ("bloch_cb", 0), ("scaled_t", 1), levels="beta"),
    Check("4.1-dagger-linear", "4.1", ("dagger_linear", 1), ("scaled_t", 1),
          enforce_spread=False, enforce_drift=False, note=_DAGGER_NOTE),
    Check("4.1-dagger-parabolic", "4.1", ("dagger_parabolic", 1), ("scaled_t", 1),
          enforce_spread=False, enforce_drift=False, note=_DAGGER_NOTE),
    # alpha < 0: lifted Campanato vs double-oscillation norm at -alpha;
    # alpha = 0: the BMO endpoint; alpha > 0: inverse-space vs Besov sup norm
    Check("4.2i-q", "4.2", ("frac_campanato", 1), ("q", -1),
          domain=lambda a: a < 0, sweep="4.2"),
    Check("4.2-alpha0-bmo", "4.2", ("inverse", 0), ("besov", 0),
          domain=lambda a: a == 0, sweep="4.2",
          note="alpha=0: both branches collapse to the BMO endpoint"),
    Check("4.2ii-besov", "4.2", ("inverse", 1), ("besov", 0),
          domain=lambda a: a > 0, sweep="4.2"),
    # empirical constant C in sup t^(1-a) |grad u| <= C * box norm
    Check("2.2i-gradient", "2.2", ("grad_constant", 1), ("one", 0),
          enforce_spread=False),
    # the double-oscillation space sits inside BMO, and the harmonic and
    # caloric box-norm scales nest through BMO up to the Bloch spaces
    Check("inc-q-in-bmo", "inclusions", ("campanato", 0), ("q", 1), levels="beta"),
    Check("inc-hneg-in-hmo", "inclusions", ("scaled_h", 0), ("scaled_h", -1), levels="beta"),
    Check("inc-hmo-in-hpos", "inclusions", ("scaled_h", 1), ("scaled_h", 0), levels="beta"),
    Check("inc-hpos-is-hb", "inclusions", ("bloch_hb", 0), ("scaled_h", 1), levels="beta"),
    Check("inc-tneg-in-tmo", "inclusions", ("scaled_t", 0), ("scaled_t", -1), levels="beta"),
    Check("inc-tmo-in-tpos", "inclusions", ("scaled_t", 1), ("scaled_t", 0), levels="beta"),
    Check("inc-tpos-is-cb", "inclusions", ("bloch_cb", 0), ("scaled_t", 1), levels="beta"),
)


def _row(name: str, level: float) -> Check:
    """The table row called ``name`` (its theorem id or its sweep name)
    whose domain holds ``level``."""
    rows = [c for c in CHECKS if name in (c.theorem, c.sweep)]
    if not rows:
        raise ValueError(f"unknown check {name!r}")
    fits = [c for c in rows if c.admits(level)]
    if not fits:
        raise ValueError(f"check {name!r} is not defined at {rows[0].levels} {level}")
    return fits[0]


def _check_report_names(rows: Sequence[tuple[str, float]], betas: Sequence[float],
                        scaling: Sequence[tuple[Field, str, float]]) -> None:
    """Refuse, naming the levels, reports of ``build_reports``'s arguments that
    would share a file name: the reports of one row at levels that agree
    to two decimals."""
    named = ([(_report_name(EquivalenceReport, x, _row(row, x).theorem), x) for row, x in rows]
             + [(_report_name(InclusionReport, b), b) for b in betas]
             + [(_report_name(ScalingReport, a, norm_id), a) for _, norm_id, a in scaling])
    shared: dict[str, list[float]] = {}
    for name, level in named:
        shared.setdefault(name, []).append(level)
    clashes = sorted({tuple(sorted(levels)) for levels in shared.values() if len(levels) > 1})
    if clashes:
        raise ValueError(
            "reports would overwrite each other: levels "
            + "; ".join(", ".join(repr(x) for x in clash) for clash in clashes)
            + " are equal to two decimals, the precision of report file names")


def build_reports(ws: Workspace, rows: Sequence[tuple[str, float]] = (),
                  betas: Sequence[float] = (),
                  scaling: Sequence[tuple[Field, str, float]] = (), refine: bool = True) -> list:
    """The reports of ``rows``, (check name, level) pairs, of the inclusion
    chains at ``betas`` and of the ``scaling`` rows, (field, norm id, level),
    in that order; with ``refine``, each equivalence report has its band
    drift on the doubled grid. Every report name, row and level (alpha in
    (-1, 1), beta in (0, 1)), op and box height of both grids is checked,
    and every value the reports read is planned, member by member, before
    any work starts; a scaling field is a member of ``ws`` alone. One pool
    runs the member tasks of both grids."""
    _check_report_names(rows, betas, scaling)
    scaled = [(_scaling_members(ws, f, norm_id, alpha), norm_id, alpha)
              for f, norm_id, alpha in scaling]
    checks = list(rows) + [(c.theorem, b) for b in betas for c in CHECKS
                           if c.group == "inclusions"]
    pairs = [pair for name, level in checks for pair in _row(name, level).pair(level)]
    # scaling rows alone read no corpus member: none is generated for them
    usable = ws.split_members()[0] if checks else ()
    plan = {label: pairs for label in usable}
    if usable:  # the weight-monotone test reads the first usable member
        plan[usable[0]] = pairs + [("weight_monotone", b) for b in betas]
    for members, norm_id, alpha in scaled:
        for label in members:
            plan.setdefault(label, []).append((norm_id, alpha))
    tasks = ws._tasks(plan)
    if refine and checks:
        fine = ws.refined()
        # the larger grid's tasks first, so the pool's tail is a short task
        tasks = fine._tasks({label: pairs for label in fine.split_members()[0]}) + tasks
    _run_tasks(tasks, ws.threads)
    return ([_equivalence_report(ws, name, level, refine) for name, level in rows]
            + [_inclusion_report(ws, beta, refine) for beta in betas]
            + [_scaling_report(ws, *row) for row in scaled])


def _equivalence_report(ws: Workspace, name: str, level: float,
                        refine: bool) -> EquivalenceReport:
    """The report of the table row called ``name`` (its theorem id or its
    sweep name) whose domain holds ``level``; with ``refine``, its band
    drift on the doubled grid."""
    check = _row(name, level)
    pair = check.pair(level)
    flags = dict(theorem=check.theorem, alpha=level,
                 enforce_spread=check.enforce_spread,
                 enforce_drift=check.enforce_drift)
    members, skipped = ws.evaluate(pair)
    report = EquivalenceReport(members=members, skipped=skipped,
                               note=check.note, **flags)
    if not refine:
        return report
    fine_members, _ = ws.refined().evaluate(pair)
    fine = EquivalenceReport(members=fine_members, skipped=skipped, **flags)
    return dataclasses.replace(report, drift=_band_drift(report.band, fine.band))


def _inclusion_report(ws: Workspace, beta: float, refine: bool) -> InclusionReport:
    """The table's inclusion links at level beta, and the weight-monotone
    test on the first usable member."""
    links = tuple(_equivalence_report(ws, c.theorem, beta, refine)
                  for c in CHECKS if c.group == "inclusions")
    usable, _ = ws.split_members()
    return InclusionReport(
        beta=beta, links=links,
        weight_monotone_ok=ws.norm("weight_monotone", usable[0], beta),
    )


def _weight_monotone_exact(ext: Extension, beta: float, boxes: BoxFamily) -> bool:
    """Per-radius box values of the scaling-invariant norm must decrease
    as the weight exponent grows: exact inequality."""
    tables = [NORMS["scaled_h"].result(ext, a, boxes).per_box_table for a in (-beta, 0.0, beta)]
    for lower, higher in zip(tables[1:], tables):
        for (_, hi_val), (_, lo_val) in zip(higher, lower):
            if lo_val > hi_val * (1 + 1e-12):
                return False
    return True


# --- scaling checks ---

def lattice_rescale(f: Field, lam: int) -> Field:
    """f(x) -> f(lam x) on the same grid, exact for integer lam."""
    if lam < 1 or int(lam) != lam:
        raise ValueError(f"lattice rescale needs a positive integer, got {lam}")
    idx = (int(lam) * np.arange(f.grid.size)) % f.grid.size
    return Field(f.grid, f.samples[np.ix_(*([idx] * f.grid.dims))],
                 mean_zero=f.mean_zero)


SCALING_NORMS = ("campanato", "frac_campanato", "scaled_h", "inverse", "h")


def _scaling_members(ws: Workspace, f: Field, norm_id: str, alpha: float) -> tuple[str, str]:
    """The members of ``ws`` whose ``norm_id`` values give the exponent of f
    at ``alpha``: the mean-free g = f - mean(f) and its rescale g(lam .),
    lam = SCALING_LAMBDA, which is refused unless it is mean-free too. The
    inverse-space norm is invariant under lam*g(lam .), so for it the
    rescale carries the amplitude factor."""
    if norm_id not in SCALING_NORMS:
        raise ValueError(f"unknown scaling norm id {norm_id!r}")
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"scaling row {norm_id} is not defined at alpha {alpha}")
    g = f.remove_mean()
    try:
        g_lam = lattice_rescale(g, SCALING_LAMBDA)
    except ValueError:
        raise ValueError(f"scaling row {norm_id} at alpha {alpha}: the rescale of its field "
                         f"is not mean-free at N={ws.grid.size}, because the field is "
                         "under-resolved on this grid") from None
    if norm_id == "inverse":
        g_lam = g_lam.scaled(float(SCALING_LAMBDA))
    return ws.add_field(g), ws.add_field(g_lam)


def _scaling_report(ws: Workspace, members: tuple[str, str], norm_id: str, alpha: float):
    """Measured exponent log_lam(norm(f_lam)/norm(f)) of the ``members``
    ``_scaling_members`` names for a field f, against the documented
    expectation.

    The plain Carleson box norm is reported against both candidate
    exponents without a pass threshold: the two scaling conventions in
    circulation disagree (see README notes). At the -1/2 endpoint no
    periodic band-limited field can exhibit the trace exponent, so those
    rows are reported without a pass threshold too.
    """
    base, rescaled = (ws.norm(norm_id, label, alpha) for label in members)
    measured = math.log(rescaled / base) / math.log(SCALING_LAMBDA)

    if norm_id == "campanato":
        expected = (("trace-rescale", alpha),)
    elif norm_id == "h":
        expected = (("trace-exponent", alpha),
                    ("halfspace-exponent", 2 * (alpha - 1.0)))
    else:
        expected = (("invariant", 0.0),)
    return ScalingReport(
        norm_id=norm_id, alpha=alpha, measured=measured, expected=expected,
        enforced=norm_id != "h" and alpha > -0.5,
    )


# --- emitters ---

def _report_name(report_type: type, level: float, row: str = "") -> str:
    """The file stem of a report of ``report_type`` on ``row`` (its theorem
    or scaling norm id) at ``level``, written to two decimals: levels that
    agree to two decimals share it."""
    prefix = {EquivalenceReport: f"{row}_a", InclusionReport: "inclusions_b",
              ScalingReport: f"scaling_{row}_a"}[report_type]
    name = f"report_{prefix}{level:+.2f}"
    return name.replace(".", "_").replace("+", "p").replace("-", "m")


def write_reports(
    reports: list, directory: str, config: VerifyConfig | None = None
) -> bool:
    """One JSON file per report plus a summary CSV; True iff all pass."""
    config = config or VerifyConfig()
    os.makedirs(directory, exist_ok=True)
    rows = []
    all_ok = True
    for report in reports:
        if isinstance(report, EquivalenceReport):
            name = _report_name(EquivalenceReport, report.alpha, report.theorem)
            ok = report.passes(config)
            rows.append([report.theorem, report.alpha, report.spread,
                         "" if report.drift is None else report.drift, ok])
        elif isinstance(report, InclusionReport):
            name = _report_name(InclusionReport, report.beta)
            ok = report.passes(config)
            for link in report.links:
                rows.append([link.theorem, link.alpha, link.spread,
                             "" if link.drift is None else link.drift,
                             link.passes(config)])
        elif isinstance(report, ScalingReport):
            name = _report_name(ScalingReport, report.alpha, report.norm_id)
            ok = report.passes()
            rows.append([f"scaling-{report.norm_id}", report.alpha,
                         "", report.measured, ok])
        else:
            raise TypeError(f"unknown report type {type(report).__name__}")
        payload = report.to_payload()
        payload["passed"] = ok
        all_ok = all_ok and ok
        write_json(payload, os.path.join(directory, name + ".json"))
    write_csv(
        os.path.join(directory, "summary.csv"),
        ["check", "alpha", "spread", "drift_or_exponent", "passed"],
        rows,
    )
    return all_ok
