"""Tests for the equivalence harness.

The norm functions themselves are oracled in test_norms.py, so these tests
focus on the harness contract: report invariants, determinism, skip
handling, scaling exponents on fields whose maximizing ball stays interior
and lattice-resolved, the emitted files, and the evaluation plan: how many
extensions it makes, how long each lives and how many gradient passes
they make.
"""

import collections
import json
import math
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import toruslab
import toruslab.extensions as extensions_module
import toruslab.norms as norms_module
import toruslab.verify as verify_module
from toruslab.cli import DEFAULT_ALPHAS, _scaling_field
from toruslab.corpus import CorpusSpec, default_corpus_specs, generate
from toruslab.extensions import Extension, gradient_bound_ratio, row_chunks
from toruslab.norms import NORMS, BoxFamily, inverse_space_norm
from toruslab.spectral import TorusGrid
from toruslab.verify import (
    CHECKS,
    EquivalenceReport,
    MemberRatio,
    SCALING_NORMS,
    SCALING_TOLERANCE,
    ScalingReport,
    VerifyConfig,
    Workspace,
    _run_tasks,
    build_reports,
    default_threads,
    lattice_rescale,
    write_reports,
)


def small_specs() -> list[CorpusSpec]:
    # Band limit 15 keeps every member alias-free after one refinement.
    return [
        CorpusSpec.make("single_mode", seed=0, k=1),
        CorpusSpec.make("single_mode", seed=0, k=4),
        CorpusSpec.make("trig_poly", seed=11, max_freq=4, terms=6),
        CorpusSpec.make("frac_noise", seed=3, s=1.0, max_freq=15),
        CorpusSpec.make("bump", seed=0, width=0.1),
        CorpusSpec.make("step_like", seed=0, k0=1, max_freq=15),
    ]


@pytest.fixture(scope="module")
def grid() -> TorusGrid:
    return TorusGrid(dims=1, size=64, length=1.0)


@pytest.fixture(scope="module")
def ws(grid: TorusGrid) -> Workspace:
    return Workspace(small_specs(), grid, threads=2)


class TestLatticeRescale:
    def test_single_mode_rescale_is_higher_mode(self) -> None:
        grid = TorusGrid(dims=1, size=64, length=1.0)
        for lam, k_out in ((2, 2), (3, 3)):
            f = generate(CorpusSpec.make("single_mode", seed=0, k=1), grid)
            g = generate(CorpusSpec.make("single_mode", seed=0, k=k_out), grid)
            got = lattice_rescale(f, lam)
            np.testing.assert_allclose(got.samples, g.samples, atol=1e-12)
            assert got.mean_zero

    def test_identity_at_lam_one(self) -> None:
        grid = TorusGrid(dims=1, size=32, length=1.0)
        f = generate(CorpusSpec.make("trig_poly", seed=5, max_freq=4), grid)
        np.testing.assert_array_equal(lattice_rescale(f, 1).samples, f.samples)

    def test_two_dimensional_rescale(self) -> None:
        grid = TorusGrid(dims=2, size=16, length=1.0)
        x, y = grid.coordinates()
        from toruslab.spectral import Field

        f = Field(grid, np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
        g = lattice_rescale(f, 2)
        want = np.cos(4 * np.pi * x) * np.cos(4 * np.pi * y)
        np.testing.assert_allclose(g.samples, want, atol=1e-12)

    @pytest.mark.parametrize("lam", [0, -1, 2.5])
    def test_bad_factor_rejected(self, lam) -> None:
        grid = TorusGrid(dims=1, size=16, length=1.0)
        f = generate(CorpusSpec.make("single_mode", seed=0, k=1), grid)
        with pytest.raises(ValueError):
            lattice_rescale(f, lam)


@pytest.fixture(scope="module")
def setup():
    grid = TorusGrid(dims=1, size=256, length=1.0)
    space = Workspace((), grid, threads=2)
    mode2 = generate(CorpusSpec.make("single_mode", seed=0, k=2), grid)
    bump = generate(CorpusSpec.make("bump", seed=0, width=0.04), grid)
    return space, mode2, bump


class TestCheckScaling:
    """Measured exponents on fields chosen so the maximizing ball is
    interior to the dyadic family and resolved after halving: a localized
    bump for the Morrey range, a low mode for the Lipschitz range."""

    @pytest.mark.parametrize("norm_id", ["campanato", "frac_campanato",
                                         "scaled_h", "inverse"])
    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.25, 0.5])
    def test_exponent_matrix(self, setup, norm_id: str, alpha: float) -> None:
        space, mode2, bump = setup
        f = bump if alpha < 0 else mode2
        (report,) = build_reports(space, scaling=[(f, norm_id, alpha)])
        assert report.passes()
        want = alpha if norm_id == "campanato" else 0.0
        assert abs(report.measured - want) <= SCALING_TOLERANCE

    def test_h_norm_dual_reported_without_threshold(self, setup) -> None:
        space, mode2, _ = setup
        (report,) = build_reports(space, scaling=[(mode2, "h", 0.25)])
        assert not report.enforced
        assert report.passes()
        expected = dict(report.expected)
        assert expected == {"trace-exponent": 0.25,
                            "halfspace-exponent": 2 * (0.25 - 1.0)}

    def test_measured_exponent_amplitude_invariant(self, setup) -> None:
        space, mode2, _ = setup
        a, b = (build_reports(space, scaling=[(f, "campanato", 0.25)])[0].measured
                for f in (mode2, mode2.scaled(7.0)))
        assert abs(a - b) < 1e-12

    def test_endpoint_row_reported_without_threshold(self, setup) -> None:
        # no periodic band-limited field exhibits the trace exponent at
        # alpha = -1/2, so that row is recorded, not scored
        space, _, bump = setup
        endpoint, inside = build_reports(space, scaling=[(bump, "campanato", -0.5),
                                                         (bump, "campanato", -0.25)])
        assert not endpoint.enforced and endpoint.passes()
        assert endpoint.to_payload()["enforced"] is False
        assert inside.enforced

    def test_unknown_norm_rejected(self, setup) -> None:
        space, mode2, _ = setup
        with pytest.raises(ValueError):
            build_reports(space, scaling=[(mode2, "besov", 0.25)])

    def test_field_off_the_workspace_grid_rejected(self, setup) -> None:
        space, _, _ = setup
        other = generate(CorpusSpec.make("single_mode", seed=0, k=2),
                         TorusGrid(dims=1, size=128, length=1.0))
        with pytest.raises(ValueError, match="grid"):
            build_reports(space, scaling=[(other, "campanato", 0.25)])

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_planned_rows_match_one_norm_at_a_time(self, seed: int) -> None:
        # the 25 default rows of `verify --theorem scaling`, planned as
        # members of one workspace, against each value computed on its own
        # argument, as the rows were before they joined the plan
        grid = TorusGrid(dims=1, size=256, length=1.0)
        space = Workspace((), grid, threads=2)
        rows = [(_scaling_field(a, grid, seed), norm_id, a)
                for a in DEFAULT_ALPHAS for norm_id in SCALING_NORMS]
        got = [report.measured for report in build_reports(space, scaling=rows, refine=False)]
        # bump, mode and their rescales; the inverse rescales add two more
        assert len(space._fields) == 6

        def value(h, norm_id, a):
            norm = NORMS[norm_id]
            return norm.value(norm.argument(h, space.boxes), a, space.boxes)

        want = []
        for f, norm_id, a in rows:
            g = f.remove_mean()
            g_lam = lattice_rescale(g, 2)
            if norm_id == "inverse":
                g_lam = g_lam.scaled(2.0)
            want.append(math.log(value(g_lam, norm_id, a) / value(g, norm_id, a)) / math.log(2))
        assert got == want

    def test_scaling_rows_alone_generate_no_corpus_member(self) -> None:
        # `verify --theorem scaling` at 1-D N=128: its rows read only the
        # scaling fields, so no corpus member is generated on either grid
        grid = TorusGrid(dims=1, size=128, length=1.0)
        space = Workspace(default_corpus_specs(0), grid, threads=1)
        rows = [(_scaling_field(a, grid, 0), norm_id, a)
                for a in DEFAULT_ALPHAS for norm_id in SCALING_NORMS]
        assert len(build_reports(space, scaling=rows)) == len(rows)
        assert space._fields and not set(space._fields) & set(space.labels)
        assert space._refined is None

    def test_scaling_members_stay_out_of_the_corpus(self, grid: TorusGrid) -> None:
        space = Workspace(small_specs(), grid, threads=1)
        mode2 = generate(CorpusSpec.make("single_mode", seed=0, k=2), grid)
        build_reports(space, scaling=[(mode2, "scaled_h", 0.25)])
        assert space.labels == tuple(spec.label() for spec in small_specs())
        assert space.split_members() == (space.labels, ())
        assert len(set(space._fields) - set(space.labels)) == 2

    def test_payload_fields(self, setup) -> None:
        space, mode2, _ = setup
        (report,) = build_reports(space, scaling=[(mode2, "scaled_h", 0.5)])
        payload = report.to_payload()
        assert payload["norm"] == "scaled_h"
        assert payload["lambda"] == 2.0
        assert payload["tolerance"] == 0.05
        assert payload["expected"] == {"invariant": 0.0}
        assert payload["enforced"] is True


class TestWorkspace:
    def test_field_cached(self, ws: Workspace) -> None:
        label = ws.labels[0]
        assert ws.field(label) is ws.field(label)

    def test_degenerate_member_skipped(self, grid: TorusGrid) -> None:
        dead = CorpusSpec.make("single_mode", seed=0, k=1, amplitude=0.0)
        space = Workspace(small_specs() + [dead], grid, threads=1)
        assert space.field(dead.label()) is None
        usable, skipped = space.split_members()
        assert dead.label() in skipped
        assert dead.label() not in usable
        assert len(usable) == len(small_specs())

    def test_norm_memoized(self, ws: Workspace) -> None:
        label = ws.labels[1]
        build_reports(ws, [("2.1", 0.25)], refine=False)
        value = ws.norm("campanato", label, 0.25)
        assert ws._values[("campanato", label, 0.25)] == value
        assert ws.norm("campanato", label, 0.25) == value

    def test_norm_miss_names_op_member_and_level(self, grid: TorusGrid) -> None:
        # the table is filled by build_reports alone: a lookup it did not
        # plan evaluates nothing
        space = Workspace(small_specs(), grid, threads=1)
        label = space.labels[2]
        with pytest.raises(ValueError, match=rf"'campanato'.*{re.escape(repr(label))}.*0\.25"):
            space.norm("campanato", label, 0.25)
        assert not space._values

    def test_one_op_is_unit(self, ws: Workspace) -> None:
        build_reports(ws, [("2.2i-gradient", 0.25)], refine=False)
        assert ws.norm("one", ws.labels[0]) == 1.0

    def test_unknown_op_rejected(self, ws: Workspace) -> None:
        with pytest.raises(ValueError, match="unknown norm op"):
            ws._tasks({ws.labels[0]: [("sobolev", 0.0)]})

    @pytest.mark.parametrize("call", [
        lambda ws: ws.field("bogus"),
        lambda ws: ws.stack("bogus", "heat"),
        lambda ws: ws.norm("campanato", "bogus", 0.25),
    ])
    def test_unknown_label_named(self, ws: Workspace, call) -> None:
        with pytest.raises(ValueError, match="'bogus'"):
            call(ws)

    def test_refined_geometry(self, ws: Workspace) -> None:
        fine = ws.refined()
        assert fine.grid.size == 2 * ws.grid.size
        assert fine.boxes.stride == 2 * ws.boxes.stride
        assert fine.boxes.j_values == ws.boxes.j_values
        assert fine.specs == ws.specs
        assert ws.refined() is fine

    def test_box_grid_mismatch_rejected(self, grid: TorusGrid) -> None:
        other = TorusGrid(dims=1, size=128, length=1.0)
        with pytest.raises(ValueError):
            Workspace(small_specs(), grid, boxes=BoxFamily.default(other))

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_refused(self, grid: TorusGrid, threads: int) -> None:
        with pytest.raises(ValueError, match="threads must be at least 1"):
            Workspace(small_specs(), grid, threads=threads)

    def test_threads_default(self, grid: TorusGrid) -> None:
        assert Workspace(small_specs(), grid).threads == default_threads()
        assert Workspace(small_specs(), grid, threads=3).threads == 3


class PassCensus:
    """Counts the base extensions a Workspace makes, per (grid size, member,
    kind), and the most alive at any one time, through weak references; and
    the gradient-square streams their passes make, per (grid size, member,
    kind, lift): one per walk's lift and, for node peaks not kept yet, one
    of the trace at lift 0. ``draws`` counts the streams
    ``gradient_square_rows`` draws on any extension, a t = 0 row drawn apart
    included, so that the rule above is checked against the streams really
    drawn."""

    def __init__(self, monkeypatch) -> None:
        self.built: collections.Counter = collections.Counter()
        self.streams: collections.Counter = collections.Counter()
        self.draws = self.alive = self.peak = 0
        self._tags: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        build, real_pass = Workspace.stack, Extension.gradient_pass
        real_rows = extensions_module.gradient_square_rows

        def stack(ws, label, kind):
            out = build(ws, label, kind)
            with self._lock:
                self._tags[out] = (ws.grid.size, label, kind)
                self.built[self._tags[out]] += 1
                self.alive += 1
                self.peak = max(self.peak, self.alive)
            weakref.finalize(out, self._release)
            return out

        def gradient_pass(ext, walks=(), peaks=()):
            peaks = list(peaks)
            lifts = {walk.lift for walk in walks}
            if any(full not in ext.peaks for full in peaks):
                lifts.add(0.0)
            with self._lock:
                for lift in lifts:
                    self.streams[self._tags[ext] + (lift,)] += 1
            return real_pass(ext, walks, peaks)

        def gradient_square_rows(trace, kind, times, fulls=(True,)):
            with self._lock:
                self.draws += 1
            return real_rows(trace, kind, times, fulls)

        monkeypatch.setattr(Workspace, "stack", stack)
        monkeypatch.setattr(Extension, "gradient_pass", gradient_pass)
        monkeypatch.setattr(extensions_module, "gradient_square_rows", gradient_square_rows)

    def _release(self) -> None:
        with self._lock:
            self.alive -= 1

    def base(self) -> collections.Counter:
        """The streams of each base extension's own trace."""
        return collections.Counter({key[:3]: n for key, n in self.streams.items()
                                    if key[3] == 0.0})

    def lifted(self) -> int:
        """The other streams: a fractional lift of the trace."""
        return sum(self.streams.values()) - sum(self.base().values())


class TraceCensus:
    """Counts the work of the trace passes of workspace members, per
    (sweep, grid size, member): the sweeps of each swept trace norm, and
    inside them the Campanato ball sums, the q window transforms and the
    inverse-space heat streams; the (op, level) keys of each trace pass's
    results, per (grid size, member); and every ``_semigroup`` stream by (grid, kind, times) and whether it fits
    one chunk, against the decay tables formed."""

    SWEEPS = {"_campanato_levels": "campanato", "_q_levels": "q",
              "_inverse_levels": "inverse"}

    def __init__(self, monkeypatch, workspaces) -> None:
        self.members = {id(ws.field(label)): (ws.grid.size, label)
                        for ws in workspaces for label in ws.split_members()[0]}
        self.sweeps: collections.Counter = collections.Counter()
        self.work: collections.Counter = collections.Counter()
        self.streams: list[tuple] = []
        self.passes: collections.defaultdict = collections.defaultdict(list)
        self._now = threading.local()
        for name, op in self.SWEEPS.items():
            monkeypatch.setattr(norms_module, name, self._sweep(getattr(norms_module, name), op))
        self._count(monkeypatch, norms_module, "_ball_correlate", "campanato",
                    lambda arr, grid, js: True)
        self._count(monkeypatch, norms_module, "extension_rows", "inverse", lambda *a, **k: True)
        self._count(monkeypatch, np.fft, "rfftn", "q",
                    lambda arr, *a, **k: np.ndim(arr) == 2)  # the 1-D windows of a block
        real_semigroup, real_pass = extensions_module._semigroup, verify_module.trace_pass

        def semigroup(trace, kind, times, unit=1):
            fits = len(list(row_chunks(times.size, trace.grid, unit))) == 1
            self.streams.append((trace.grid, kind, times.tobytes(), fits))
            return real_semigroup(trace, kind, times, unit)

        def trace_pass(f, pairs, boxes):
            out = real_pass(f, pairs, boxes)
            self.passes[self.members.get(id(f), ("other",))].append(sorted(out))
            return out

        monkeypatch.setattr(extensions_module, "_semigroup", semigroup)
        monkeypatch.setattr(verify_module, "trace_pass", trace_pass)
        extensions_module._decay_table.cache_clear()

    def _sweep(self, real, op):
        def sweep(f, *args, **kwargs):
            self._now.tag = (op,) + self.members.get(id(f), ("other",))
            self.sweeps[self._now.tag] += 1
            try:
                return real(f, *args, **kwargs)
            finally:
                self._now.tag = None
        return sweep

    def _count(self, monkeypatch, owner, name, op, counts) -> None:
        real = getattr(owner, name)

        def call(*args, **kwargs):
            tag = getattr(self._now, "tag", None)
            if tag and tag[0] == op and counts(*args, **kwargs):
                self.work[tag] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)


def all_rows(alphas=(-0.25, 0.25), betas=(0.5,)) -> list[tuple[str, float]]:
    """(check name, level) for every sweep of the table, as the CLI runs them."""
    sweeps = {c.name: c.levels for c in CHECKS if c.group != "inclusions"}
    levels = {"alpha": alphas, "beta": betas}
    return [(name, x) for name, over in sweeps.items() for x in levels[over]]


class TestPlan:
    """build_reports() plans every report's values member by member: each
    base extension is made once per grid, makes one gradient pass and lives
    for one member task. Tests of the task mechanics run a plan of their own
    through ``_run_tasks``."""

    def test_each_base_stack_built_once_per_grid(self, grid, monkeypatch) -> None:
        census = PassCensus(monkeypatch)
        space = Workspace(small_specs(), grid, threads=2)
        rows = all_rows()
        build_reports(space, rows, betas=(0.5,), refine=True)
        labels = [spec.label() for spec in small_specs()]
        assert set(census.built) == {(size, label, kind) for size in (64, 128)
                                     for label in labels for kind in ("poisson", "heat")}
        assert set(census.built.values()) == {1}
        assert census.base() == census.built
        assert set(census.streams.values()) == {1}
        assert census.draws == sum(census.streams.values())

    def test_member_tasks_build_one_stack_each(self, grid, monkeypatch) -> None:
        # every extension op of one member reads the one extension its
        # Poisson or heat task makes, which streams its own trace once for
        # all of them, the heat extension's linear mesh included; each
        # fractional lift (star, or dagger_linear and dagger_parabolic
        # together, at alpha != 0) is one more stream of it
        census = PassCensus(monkeypatch)
        space = Workspace(small_specs(), grid, threads=1)
        ops = [op for op, norm in NORMS.items() if norm.kind != "trace"]
        pairs = [(op, level) for op in ops + ["grad_constant", "weight_monotone"]
                 for level in (-0.25, 0.0, 0.25)]
        tasks = space._tasks({space.labels[3]: pairs})
        assert sorted(kind for _, _, kind, _ in tasks) == ["heat", "poisson"]
        _run_tasks(tasks, space.threads)
        base = {(grid.size, space.labels[3], kind): 1 for kind in ("poisson", "heat")}
        assert census.built == census.base() == base
        assert census.lifted() == 2 + 2
        assert set(census.streams.values()) == {1}
        assert census.draws == sum(census.streams.values())
        assert all((op, space.labels[3], round(level, 12)) in space._values
                   for op, level in pairs)

    def test_member_task_plans_and_keeps_only_lift0_walks(self, grid, monkeypatch) -> None:
        # the task's planned pass walks lift-0 keys only; each lift a != 0
        # is one pass when its first norm runs, of its walks at that level
        # (star; dagger_linear and dagger_parabolic), and is not kept, so an
        # extension ends its task holding lift-0 walks alone
        made, lifts = [], collections.defaultdict(list)
        build, real_pass = Workspace.stack, Extension.gradient_pass

        def stack(ws, label, kind):
            made.append(build(ws, label, kind))
            return made[-1]

        def gradient_pass(ext, walks=(), peaks=()):
            if walks:  # a pass with every walk kept draws nothing
                lifts[ext].append(sorted(walk.lift for walk in walks))
            return real_pass(ext, walks, peaks)

        monkeypatch.setattr(Workspace, "stack", stack)
        monkeypatch.setattr(Extension, "gradient_pass", gradient_pass)
        space = Workspace(small_specs(), grid, threads=1)
        pairs = [(op, level) for op in ("h", "star", "dagger_linear", "dagger_parabolic")
                 for level in (-0.25, 0.0, 0.25)]
        _run_tasks(space._tasks({space.labels[3]: pairs}), space.threads)
        assert sorted(ext.kind for ext in made) == ["heat", "poisson"]
        for ext in made:
            planned, *lifted = lifts[ext]
            assert set(planned) == {0.0}
            per_level = 1 if ext.kind == "poisson" else 2  # star; dagger_linear, dagger_parabolic
            assert sorted(lifted) == [[-0.25] * per_level, [0.25] * per_level]
            assert ext.box_integrals and all(key[0] == 0.0 for key in ext.box_integrals)

    def test_grad_constant_reads_h_from_the_table(self, grid, monkeypatch) -> None:
        # grad_constant divides its node-peak sup by h at its level: the
        # task forms h's box sup once per level, for both ops, and its plan
        # brings h into the task when only grad_constant is asked for, so
        # the task reads h from its own values. A box sup's scale exponent
        # 2a + n names its level.
        calls = []
        real = norms_module._box_sup

        def counted(boxes, eligible, integrals, scale_exp, mean):
            calls.append(scale_exp)
            return real(boxes, eligible, integrals, scale_exp, mean)

        monkeypatch.setattr(norms_module, "_box_sup", counted)
        levels = (-0.25, 0.0, 0.25)
        space = Workspace(small_specs(), grid, threads=1)
        label = space.labels[3]
        _run_tasks(space._tasks({label: [(op, a) for op in ("grad_constant", "h")
                                         for a in levels]}), space.threads)
        assert sorted(calls) == sorted(2 * a + grid.dims for a in levels)
        alone = Workspace(small_specs(), grid, threads=1)
        _run_tasks(alone._tasks({label: [("grad_constant", a) for a in levels]}), alone.threads)
        assert len(calls) == 2 * len(levels)
        for a in levels:
            ext = space.stack(label, "poisson")
            want = gradient_bound_ratio(ext, a, NORMS["h"].value(ext, a, space.boxes))
            assert space.norm("grad_constant", label, a) == want
            assert alone.norm("grad_constant", label, a) == want

    def test_trace_tasks_do_level_free_work_once(self, grid, monkeypatch) -> None:
        # per (grid, member): one Campanato sweep of 3 levels on one pair of
        # ball sums, one q sweep of 2 levels with one window transform per
        # radius and chunk of centers, one inverse sweep of 2 levels on one
        # heat stream, all from one trace pass of the member, and a lone
        # norm call gives the task's value bit for bit. Each distinct (grid, kind,
        # times) of the streams that fit one chunk forms one decay table.
        space = Workspace(small_specs(), grid, threads=1)
        workspaces = (space, space.refined())
        census = TraceCensus(monkeypatch, workspaces)
        build_reports(space, all_rows(alphas=(-0.25, 0.0, 0.25)), betas=(0.5,), refine=True)
        levels = {"campanato": (-0.25, 0.0, 0.25), "q": (0.25, 0.5), "inverse": (0.0, 0.25)}
        for ws in workspaces:
            centers = len(ws.boxes.center_view(np.empty(ws.grid.shape)))
            chunks = len(list(row_chunks(centers, ws.grid)))
            work = {"campanato": 2, "q": len(ws.boxes.j_values) * chunks, "inverse": 1}
            for label in ws.split_members()[0]:
                for op, want in work.items():
                    tag = (op, ws.grid.size, label)
                    assert census.sweeps[tag] == 1 and census.work[tag] == want
                assert census.passes[ws.grid.size, label] == [
                    sorted((op, x) for op, xs in levels.items() for x in xs)]
                f = ws.field(label)
                for a in levels["campanato"]:
                    assert ws.norm("campanato", label, a) == NORMS["campanato"].value(
                        f, a, ws.boxes)
                for b in levels["q"]:
                    assert ws.norm("q", label, b) == NORMS["q"].value(f, b, ws.boxes)
                for a in levels["inverse"]:
                    assert (ws.norm("inverse", label, a)
                            == inverse_space_norm(f, a, math.inf, ws.boxes).value)
        assert set(census.passes) == {(ws.grid.size, label) for ws in workspaces
                                      for label in ws.split_members()[0]}
        fitting = [stream[:3] for stream in census.streams if stream[3]]
        assert len(set(fitting)) < len(fitting)
        info = extensions_module._decay_table.cache_info()
        assert (info.misses, info.hits) == (len(set(fitting)), len(fitting) - len(set(fitting)))

    def test_live_base_stacks_bounded_by_threads(self, grid, monkeypatch) -> None:
        census = PassCensus(monkeypatch)
        build_reports(Workspace(small_specs(), grid, threads=2), all_rows(),
                      betas=(0.5,), refine=True)
        assert sum(census.built.values()) == 4 * len(small_specs())
        assert 1 <= census.peak <= 2
        assert census.alive == 0

    def test_reports_match_check_by_check_evaluation(self, grid) -> None:
        rows = all_rows()
        planned = build_reports(Workspace(small_specs(), grid, threads=2), rows,
                                betas=(0.5,), refine=False)
        bare = Workspace(small_specs(), grid, threads=1)
        one_by_one = [build_reports(bare, [row], refine=False)[0] for row in rows]
        one_by_one += build_reports(bare, betas=(0.5,), refine=False)
        assert ([r.to_payload() for r in planned]
                == [r.to_payload() for r in one_by_one])

    def test_table_written_on_the_calling_thread(self, grid) -> None:
        # pool tasks return their values; only the thread that called
        # build_reports writes a workspace's table, on both grids
        writers = set()

        class Table(dict):
            def __setitem__(self, key, value):
                writers.add(threading.get_ident())
                super().__setitem__(key, value)

            def setdefault(self, key, value=None):
                writers.add(threading.get_ident())
                return super().setdefault(key, value)

            def update(self, *args, **kwargs):
                writers.add(threading.get_ident())
                super().update(*args, **kwargs)

        space = Workspace(small_specs(), grid, threads=4)
        for ws in (space, space.refined()):
            ws._values = Table()
        mode2 = generate(CorpusSpec.make("single_mode", seed=0, k=2), grid)
        build_reports(space, all_rows(), betas=(0.5,),
                      scaling=[(mode2, "scaled_h", 0.25)], refine=True)
        assert space._values and space.refined()._values
        assert writers == {threading.get_ident()}

    def test_degenerate_member_refused_before_any_task(self, grid, monkeypatch) -> None:
        # a plan naming a constant member is refused while planning, even
        # after a usable member: no extension is built and no stream drawn
        census = PassCensus(monkeypatch)
        drawn = []
        real = extensions_module._semigroup

        def semigroup(*args, **kwargs):
            drawn.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(extensions_module, "_semigroup", semigroup)
        dead = CorpusSpec.make("single_mode", seed=0, k=1, amplitude=0.0)
        space = Workspace(small_specs() + [dead], grid, threads=2)
        pairs = [("h", 0.25), ("t", 0.25), ("campanato", 0.25)]
        with pytest.raises(ValueError, match=f"degenerate member {re.escape(repr(dead.label()))}"):
            _run_tasks(space._tasks({space.labels[0]: pairs, dead.label(): pairs}),
                       space.threads)
        assert not census.built and not census.streams and not drawn
        assert not space._values

    @pytest.mark.parametrize("row", ["equivalence", "scaling"])
    def test_level_outside_the_domain_refused_before_any_task(self, grid, monkeypatch,
                                                              row) -> None:
        # an alpha outside (-1, 1), after one inside it, is refused while
        # planning, naming its row and level: no member task runs
        tasks = []
        real = Workspace._task

        def counted(ws, *args):
            tasks.append(args)
            return real(ws, *args)

        monkeypatch.setattr(Workspace, "_task", counted)
        space = Workspace(small_specs(), grid, threads=2)
        if row == "equivalence":
            args = dict(rows=[("2.1", 0.5), ("2.1", 1.0)])
            match = "check '2.1' is not defined at alpha 1.0"
        else:
            mode2 = generate(CorpusSpec.make("single_mode", seed=0, k=2), grid)
            args = dict(scaling=[(mode2, "campanato", 0.5), (mode2, "campanato", -1.0)])
            match = "scaling row campanato is not defined at alpha -1.0"
        with pytest.raises(ValueError, match=match):
            build_reports(space, **args)
        assert not tasks and not space._values

    def test_box_below_mesh_floor_refused_before_any_stack(self, monkeypatch) -> None:
        # at N=8192 the j=12 box height r^2 = 2^-24 is under the heat mesh
        # floor 2^-22, while every Poisson height r fits its mesh
        census = PassCensus(monkeypatch)
        drawn = []
        real = extensions_module._semigroup

        def semigroup(*args, **kwargs):
            drawn.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(extensions_module, "_semigroup", semigroup)
        space = Workspace(small_specs(), TorusGrid(dims=1, size=8192), threads=2)
        with pytest.raises(ValueError, match="below the mesh floor"):
            build_reports(space, [("2.1", 0.25), ("4.1i", 0.25)], refine=False)
        assert not census.built and not census.streams and not drawn
        assert not space._values

    def test_unknown_op_refused_before_any_work(self, ws: Workspace) -> None:
        with pytest.raises(ValueError, match="unknown norm op"):
            _run_tasks(ws._tasks({ws.labels[0]: [("h", 0.1), ("sobolev", 0.1)]}), ws.threads)
        assert ("h", ws.labels[0], 0.1) not in ws._values


# A full `verify --theorem all` in a fresh interpreter that counts the
# gradient-square streams by the extension whose pass draws them: a
# workspace's base extension of a (grid, member, kind), per lift, or a
# single-norm extension (``Norm.argument``, which a verify run no longer
# makes: its scaling fields are workspace members too). A pass
# streams once per walk's lift and, for node peaks not kept yet, once at
# lift 0; ``draws`` counts the calls of ``gradient_square_rows``, so a t = 0
# row drawn apart would show there. It also
# reports its own peak RSS. That is VmHWM, the high-water mark of the
# interpreter's own address space: ru_maxrss would also hold the RSS its
# parent had when it forked (a child of a 320 MB process reads 332 MB
# there, 13.5 MB here).
_FULL_RUN = """
import collections, json, sys, threading, weakref
import toruslab.extensions as extensions
from toruslab.cli import main
from toruslab.extensions import Extension, gradient_bound_ratio
from toruslab.norms import Norm
from toruslab.verify import Workspace
lock, tags = threading.Lock(), weakref.WeakKeyDictionary()
made, base, streams, other = (collections.Counter() for _ in range(4))
draws = []
real_stack, real_argument, real_pass = Workspace.stack, Norm.argument, Extension.gradient_pass
real_rows = extensions.gradient_square_rows
def stack(ws, label, kind):
    out = real_stack(ws, label, kind)
    with lock:
        tags[out] = f"{ws.grid.size}/{label}/{kind}"
        made[tags[out]] += 1
    return out
def argument(norm, f, boxes):
    out = real_argument(norm, f, boxes)
    if norm.kind != "trace":
        with lock:
            tags[out] = "single"
    return out
def gradient_pass(ext, walks=(), peaks=()):
    peaks = list(peaks)
    drawn = {walk.lift for walk in walks}
    if any(full not in ext.peaks for full in peaks):
        drawn.add(0.0)
    with lock:
        tag = tags.get(ext, "untagged")
        for lift in drawn:
            if tag in ("single", "untagged"):
                other[tag] += 1
            else:
                streams[f"{tag}/{lift!r}"] += 1
                base[tag] += lift == 0.0
    return real_pass(ext, walks, peaks)
def gradient_square_rows(trace, kind, times, fulls=(True,)):
    draws.append(1)
    return real_rows(trace, kind, times, fulls)
Workspace.stack, Norm.argument, Extension.gradient_pass = stack, argument, gradient_pass
extensions.gradient_square_rows = gradient_square_rows
code = main(["verify", "--theorem", "all", "--out", sys.argv[1]])
with open("/proc/self/status") as fh:
    hwm = [int(line.split()[1]) for line in fh if line.startswith("VmHWM:")]
print(json.dumps({"code": code, "made": made, "base": base, "streams": streams,
                  "other": other, "draws": len(draws),
                  "peak_kb": hwm[0] if hwm else None}))
"""


@pytest.fixture(scope="module")
def full_run(tmp_path_factory) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(toruslab.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = tmp_path_factory.mktemp("verify_all")
    result = subprocess.run([sys.executable, "-c", _FULL_RUN, str(out)],
                            capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestFullRun:
    def test_stack_builds_within_620(self, full_run) -> None:
        # each (grid, member, kind) of the run has one base extension, which
        # streams its own trace exactly once, over the union of its meshes:
        # 20 members x 2 kinds x 2 grids, and the Poisson extensions of the
        # scaling members that h and scaled_h read: the bump, which serves
        # both alpha < 0, the mode, which serves the three alpha >= 0, and
        # the rescale of each
        assert full_run["code"] == 0
        assert len(full_run["made"]) == 80 + 4
        assert set(full_run["made"].values()) == {1}
        assert full_run["base"] == full_run["made"]
        # every (grid, member, kind, lift) is streamed once. Besides the base
        # streams, per member and grid: star at 4 levels and the
        # dagger_linear and dagger_parabolic pair at 4 (alpha = 0 is in the
        # base stream). No single-norm extension is made, and no t = 0 row
        # is drawn apart: 404 draws, where one stream per (lift, mesh) drew
        # 620 and one argument per scaling row and field 420
        assert set(full_run["streams"].values()) == {1}
        assert len(full_run["streams"]) == 80 + (4 + 4) * 20 * 2 + 4
        assert full_run["other"] == {}
        assert full_run["draws"] == 80 + 320 + 4

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="VmHWM is read from /proc")
    def test_peak_rss_guard(self, full_run) -> None:
        # a guard against stacks kept for the whole run (about 166 MB when
        # every stack was cached); the run itself peaks near 48 MB
        assert full_run["peak_kb"] is not None
        assert full_run["peak_kb"] <= 90 * 1024


class TestReportInvariants:
    def test_band_positive_and_finite(self, ws: Workspace) -> None:
        (report,) = build_reports(ws, [("2.1", 0.25)])
        lo, hi = report.band
        assert 0.0 < lo <= hi < math.inf
        assert report.spread >= 1.0
        assert report.drift is not None and report.drift >= 0.0
        assert report.passes(VerifyConfig())

    def test_drift_absent_without_refinement(self, ws: Workspace) -> None:
        (report,) = build_reports(ws, [("2.1", -0.25)], refine=False)
        assert report.drift is None

    def test_members_follow_corpus_order(self, ws: Workspace) -> None:
        (report,) = build_reports(ws, [("2.1", 0.25)])
        assert tuple(m.label for m in report.members) == ws.labels

    def test_deterministic_across_workspaces(self, grid: TorusGrid) -> None:
        (a,) = build_reports(Workspace(small_specs(), grid, threads=3), [("2.1", 0.25)])
        (b,) = build_reports(Workspace(small_specs(), grid, threads=1), [("2.1", 0.25)])
        assert a.to_payload() == b.to_payload()

    def test_spread_invariant_under_global_rescale(self, grid) -> None:
        loud = [
            CorpusSpec.make(s.kind, seed=s.seed,
                            **dict(s.params, amplitude=10.0))
            for s in small_specs()
        ]
        (base,) = build_reports(Workspace(small_specs(), grid, threads=2),
                                [("2.1", 0.25)], refine=False)
        (scaled,) = build_reports(Workspace(loud, grid, threads=2),
                                  [("2.1", 0.25)], refine=False)
        assert scaled.spread == pytest.approx(base.spread, rel=1e-9)

    def test_skipped_member_listed(self, grid: TorusGrid) -> None:
        dead = CorpusSpec.make("single_mode", seed=0, k=1, amplitude=0.0)
        space = Workspace(small_specs() + [dead], grid, threads=1)
        (report,) = build_reports(space, [("2.1", 0.0)], refine=False)
        assert dead.label() in report.skipped
        assert dead.label() not in {m.label for m in report.members}

    def test_all_degenerate_corpus_rejected(self, grid: TorusGrid) -> None:
        dead = [CorpusSpec.make("single_mode", seed=0, k=1, amplitude=0.0)]
        with pytest.raises(ValueError):
            build_reports(Workspace(dead, grid, threads=1), [("2.1", 0.0)])

    def test_nonpositive_ratio_rejected(self) -> None:
        bad = (MemberRatio("x", 1.0, 0.0),)
        with pytest.raises(ValueError):
            EquivalenceReport(theorem="t", alpha=0.0, members=bad, skipped=())
        neg = (MemberRatio("x", -1.0, 1.0),)
        with pytest.raises(ValueError):
            EquivalenceReport(theorem="t", alpha=0.0, members=neg, skipped=())

    def test_payload_complete(self, ws: Workspace) -> None:
        (report,) = build_reports(ws, [("2.1", 0.25)])
        payload = report.to_payload()
        for key in ("theorem", "alpha", "band", "spread", "drift", "members",
                    "skipped", "note", "enforce_spread", "enforce_drift"):
            assert key in payload
        assert len(payload["members"]) == len(small_specs())


class TestCheckDispatch:
    def test_table_ops_resolve(self) -> None:
        ids = [c.theorem for c in CHECKS]
        assert len(set(ids)) == len(ids)
        for check in CHECKS:
            for op, sign in (check.left, check.right):
                assert op in NORMS or op in ("grad_constant", "one"), op
                assert sign in (-1, 0, 1)

    def test_theorem_3_1_parts(self, ws: Workspace) -> None:
        rows = [("3.1i", 0.25), ("3.1ii-bloch", 0.5), ("3.3-star", -0.25)]
        reports = build_reports(ws, rows, refine=False)
        assert [r.theorem for r in reports] == [name for name, _ in rows]
        with pytest.raises(ValueError):
            build_reports(ws, [("3.1ii-bloch", 1.2)], refine=False)
        with pytest.raises(ValueError):
            build_reports(ws, [("3.1nope", 0.2)], refine=False)

    def test_theorem_4_1_parts(self, ws: Workspace) -> None:
        rows = [("4.1i", 0.0), ("4.1ii", 0.25), ("4.1iii-bloch", 0.25)]
        reports = build_reports(ws, rows, refine=False)
        assert [r.theorem for r in reports] == [name for name, _ in rows]
        with pytest.raises(ValueError):
            build_reports(ws, [("4.1iii-bloch", 0.0)], refine=False)
        with pytest.raises(ValueError):
            build_reports(ws, [("4.1iv", 0.0)], refine=False)

    def test_dagger_reported_not_enforced(self, ws: Workspace) -> None:
        rows = [("4.1-dagger-linear", 0.25), ("4.1-dagger-parabolic", 0.25)]
        for report in build_reports(ws, rows, refine=False):
            assert not report.enforce_spread
            assert not report.enforce_drift
            assert report.note
            # Unenforced reports pass even under impossible thresholds.
            assert report.passes(VerifyConfig(spread_max=1e-9, drift_max=0.0))

    def test_theorem_4_2_branches(self, ws: Workspace) -> None:
        besov, q, bmo = build_reports(ws, [("4.2", 0.5), ("4.2", -0.5), ("4.2", 0.0)],
                                      refine=False)
        assert besov.theorem == "4.2ii-besov"
        assert q.theorem == "4.2i-q"
        assert bmo.theorem == "4.2-alpha0-bmo"
        assert bmo.note

    def test_equivalences_pass_default_thresholds(self, ws: Workspace) -> None:
        config = VerifyConfig()
        reports = build_reports(ws, [
            ("3.1i", -0.25), ("3.1ii-bloch", 0.5), ("3.3-star", 0.25), ("4.1i", 0.25),
            ("4.1ii", -0.25), ("4.1iii-bloch", 0.5), ("4.2", 0.5), ("4.2", -0.5),
        ], refine=False)
        for report in reports:
            assert report.passes(config), report.theorem


class TestGradientConstant:
    def test_constant_reported_with_drift_only(self, ws: Workspace) -> None:
        (report,) = build_reports(ws, [("2.2i-gradient", 0.25)])
        assert report.theorem == "2.2i-gradient"
        assert not report.enforce_spread
        assert report.enforce_drift
        for m in report.members:
            assert m.right == 1.0
            assert math.isfinite(m.left) and m.left > 0.0
        assert report.passes(VerifyConfig())


class TestInclusions:
    def test_chain_at_half(self, ws: Workspace) -> None:
        (report,) = build_reports(ws, betas=(0.5,), refine=False)
        assert report.weight_monotone_ok
        names = {link.theorem for link in report.links}
        assert names == {
            "inc-q-in-bmo", "inc-hneg-in-hmo", "inc-hmo-in-hpos",
            "inc-hpos-is-hb", "inc-tneg-in-tmo", "inc-tmo-in-tpos",
            "inc-tpos-is-cb",
        }
        assert report.passes(VerifyConfig())

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.3])
    def test_beta_domain(self, ws: Workspace, beta: float) -> None:
        with pytest.raises(ValueError):
            build_reports(ws, betas=(beta,), refine=False)


@pytest.fixture(scope="module")
def reports(ws: Workspace):
    mode = generate(CorpusSpec.make("single_mode", seed=0, k=2), ws.grid)
    return build_reports(ws, [("2.1", 0.25)], betas=(0.5,),
                         scaling=[(mode, "scaled_h", 0.25)], refine=False)


class TestWriteReports:

    def test_files_written_and_all_ok(self, reports, tmp_path) -> None:
        out = tmp_path / "reports"
        assert write_reports(reports, str(out)) is True
        names = sorted(p.name for p in out.iterdir())
        assert "summary.csv" in names
        json_names = [n for n in names if n.endswith(".json")]
        assert len(json_names) == 3
        payload = json.loads((out / json_names[0]).read_text())
        assert payload["passed"] is True
        lines = (out / "summary.csv").read_text().strip().splitlines()
        # Header, the 2.1 row, seven inclusion links, one scaling row.
        assert len(lines) == 1 + 1 + 7 + 1

    def test_threshold_breach_reported(self, reports, tmp_path) -> None:
        tight = VerifyConfig(spread_max=1.0 + 1e-12, drift_max=0.25)
        assert write_reports(reports, str(tmp_path / "r2"), tight) is False

    def test_emission_deterministic(self, reports, tmp_path) -> None:
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_reports(reports, str(a_dir))
        write_reports(reports, str(b_dir))
        assert (a_dir / "summary.csv").read_bytes() == \
            (b_dir / "summary.csv").read_bytes()
        for p in sorted(a_dir.glob("*.json")):
            assert p.read_bytes() == (b_dir / p.name).read_bytes()

    def test_unknown_report_type_rejected(self, tmp_path) -> None:
        with pytest.raises(TypeError):
            write_reports([object()], str(tmp_path / "x"))
