"""Outside-in span tracer for toruslab.

Nothing in ``src/`` knows about it. ``install()`` replaces, from outside:

- every public function defined in a toruslab module, in every toruslab
  module namespace that holds it (the defining module and each importer),
  so intra-module and cross-module calls are both seen;
- ``Workspace.norm``/``stack``/``evaluate`` and
  ``VelocityField.__post_init__`` (the divergence check every velocity
  field construction runs);
- the ``numpy.fft`` transform entry points, counted as the ``spectral``
  layer;
- ``ThreadPoolExecutor`` in toruslab namespaces, by a subclass whose
  ``submit`` hands the submitting thread's open span to the worker, so
  work done in pool threads is attributed to its caller.

Spans stay in memory as ``(id, parent, name, thread, start, end, extra)``
and are written out once, by ``write()``, at the end of the run.
``analyse()`` turns a span list into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import threading
import time
import types
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MODULES = ("spectral", "extensions", "norms", "corpus", "verify", "ns3d",
           "fieldio", "cli")
# cli is the entry layer: its own functions are not spans, so the part of
# the workload call that no library span covers is cli.unattributed_s.
ENTRY_MODULE = "cli"
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
             "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2",
             "hfft", "ihfft")
_REAL_FFTS = {"rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2",
              "hfft", "ihfft"}
NORM_FUNCTIONS = ("campanato", "frac_campanato", "q", "besov",
                  "inverse_space", "h_alpha2", "scaled_h", "star", "t_alpha2",
                  "scaled_t", "dagger", "bloch_hb", "bloch_cb", "x_space")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording --

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def span(self, name: str, fn, extra=None):
        """Wrap fn so each call records a span; extra(args, kwargs, result)
        may return a small dict stored with the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = extra(args, kwargs, result) if extra is not None else None
            self.spans.append((span_id, parent, name, threading.get_ident(),
                               start, end, info))
            return result

        return wrapper

    # -- installation --

    def _patch(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"toruslab.{m}") for m in MODULES}
        namespaces = [importlib.import_module("toruslab")] + list(mods.values())
        wrapped: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                module = getattr(obj, "__module__", "") or ""
                if not module.startswith("toruslab."):
                    continue
                layer = module.split(".", 1)[1]
                if layer == ENTRY_MODULE:
                    continue
                key = id(obj)
                if key not in wrapped:
                    wrapped[key] = self.span(f"{layer}.{obj.__name__}", obj,
                                             _EXTRAS.get(f"{layer}.{obj.__name__}"))
                self._patch(ns, attr, wrapped[key])

        ws = mods["verify"].Workspace
        for method in ("norm", "stack", "evaluate"):
            name = f"verify.Workspace.{method}"
            self._patch(ws, method, self.span(name, getattr(ws, method),
                                              _EXTRAS.get(name)))
        vf = mods["ns3d"].VelocityField
        self._patch(vf, "__post_init__",
                    self.span("ns3d.velocity_fields", vf.__post_init__))

        for name in FFT_NAMES:
            self._patch(np.fft, name, self.span(f"spectral.{name}",
                                                getattr(np.fft, name),
                                                _fft_extra(name)))

        pool = _traced_pool(self)
        for ns in namespaces:
            if vars(ns).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                self._patch(ns, "ThreadPoolExecutor", pool)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, value = self._installed.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _traced_pool(tracer: Tracer):
    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **kw):
                stack = tracer._stack()
                saved = list(stack)
                stack[:] = [parent] if parent else []
                try:
                    return fn(*a, **kw)
                finally:
                    stack[:] = saved

            return super().submit(run, *args, **kwargs)

    return TracedThreadPoolExecutor


_REAL_INPUT = {"rfft", "rfftn", "rfft2", "ihfft"}
_ONE_D = {"fft", "ifft", "rfft", "irfft", "hfft", "ihfft"}


def _fft_extra(name: str):
    """Points and computed flops of one numpy.fft call.

    5 n log2 n per complex transform of length n (2.5 n log2 n for real
    ones). n is the product of the transformed lengths on the real-space
    side; the remaining axes count as a batch of transforms.
    """
    factor = 2.5 if name in _REAL_FFTS else 5.0

    def extra(args, kwargs, result) -> dict:
        shape = np.shape(args[0] if name in _REAL_INPUT else result)
        if name in _ONE_D:
            axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
        else:
            axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
            if axes is None:
                axes = range(len(shape)) if name.endswith("n") else (-2, -1)
        points = math.prod(shape)
        length = math.prod(shape[ax] for ax in axes)
        flop = factor * length * math.log2(length) * (points // length) \
            if length > 1 else 0.0
        return {"points": points, "flop": flop}

    return extra


def _stack_extra(args, kwargs, result) -> dict:
    nbytes = result.values.nbytes + result.grad_x.nbytes + result.grad_t.nbytes
    return {"nodes": int(result.node_count), "bytes": int(nbytes)}


def _picard_extra(args, kwargs, result) -> dict:
    nonlinear = bool(result.config.get("nonlinear", True))
    sweeps = len(result.residuals)
    nodes = int(result.config["nodes"])
    return {"nonlinear": nonlinear, "sweeps": sweeps,
            "converged": bool(result.converged),
            "evals": sweeps * (nodes + 1) if nonlinear else 0}


def _written_extra(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(result)}


def _reports_extra(args, kwargs, result) -> dict:
    reports = args[0]
    written = [json.loads(path.read_text())
               for path in Path(args[1]).glob("report_*.json")]
    return {"reports": len(reports),
            "failed": sum(1 for payload in written if not payload["passed"])}


_EXTRAS = {
    "verify.write_reports": _reports_extra,
    "extensions.build_stack": _stack_extra,
    "ns3d.mild_solve_picard": _picard_extra,
    "fieldio.write_json": _written_extra,
    "fieldio.write_csv": _written_extra,
    "fieldio.write_field": _written_extra,
}


# --- analysis ---


def self_times(spans) -> tuple[dict[int, float], float]:
    """Wall-clock self time of every span, and the time any span is open.

    A span's self time is its duration minus the part its child spans
    cover. Where spans in different threads run at once, each such
    instant is shared equally between the innermost open spans, so the
    self times of all spans add up to the time any span is open.
    """
    events = []
    for span_id, parent, _name, _tid, start, end, _info in spans:
        events.append((start, 1, span_id, parent))
        events.append((end, 0, span_id, parent))
    # at equal times: ends before starts, parents open before and close
    # after their children (span ids grow with call entry)
    events.sort(key=lambda e: (e[0], e[1], e[2] if e[1] else -e[2]))
    open_children: dict[int, int] = {}
    entered: dict[int, float] = {}  # innermost open span -> `share` on entry
    share = 0.0  # integral of dt / (number of innermost open spans)
    selfs: dict[int, float] = {}
    covered = 0.0
    last = 0.0

    def leave(span_id: int) -> None:
        selfs[span_id] = selfs.get(span_id, 0.0) + share - entered.pop(span_id)

    for t, is_start, span_id, parent in events:
        if entered:
            share += (t - last) / len(entered)
            covered += t - last
        last = t
        if is_start:
            open_children[span_id] = 0
            entered[span_id] = share
            if parent in open_children:
                if open_children[parent] == 0:
                    leave(parent)
                open_children[parent] += 1
        else:
            if span_id in entered:
                leave(span_id)
            del open_children[span_id]
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    entered[parent] = share
    return selfs, covered


def _same_thread_cover(span, children) -> float:
    """Part of span's interval covered by its children in its own thread."""
    _id, _parent, _name, tid, start, end, _info = span
    intervals = sorted((max(c[4], start), min(c[5], end))
                       for c in children if c[3] == tid)
    total, cursor = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def analyse(spans, traced_wall: float, untraced_wall: float
            ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, named <module>.<function>.<stat>, from a span
    list, and the self time summed per layer (module part of each name)."""
    spans = [tuple(s) for s in spans]
    selfs, covered = self_times(spans)
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s[2]] = calls.get(s[2], 0) + 1
        self_s[s[2]] = self_s.get(s[2], 0.0) + selfs.get(s[0], 0.0)

    def has_ancestor(span, name: str) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    def total(name: str, key: str) -> float:
        return sum(s[6][key] for s in spans if s[2] == name and s[6])

    fft = [s for s in spans if s[2].startswith("spectral.") and s[2][9:] in FFT_NAMES]
    m: dict[str, float] = {
        "spectral.fft_calls": len(fft),
        "spectral.fft_points": sum(s[6]["points"] for s in fft),
        "spectral.fft_gflop_computed": sum(s[6]["flop"] for s in fft) / 1e9,
        "spectral.fft_s": sum(selfs.get(s[0], 0.0) for s in fft),
    }

    stack = "extensions.build_stack"
    m[f"{stack}.calls"] = calls.get(stack, 0)
    m[f"{stack}.self_s"] = self_s.get(stack, 0.0)
    m[f"{stack}.nodes"] = total(stack, "nodes")
    m[f"{stack}.mb_computed"] = total(stack, "bytes") / 1e6
    m["extensions.gradient_bound_ratio.self_s"] = self_s.get(
        "extensions.gradient_bound_ratio", 0.0)

    for fn in NORM_FUNCTIONS:
        name = f"norms.{fn}_norm"
        m[f"norms.{fn}.calls"] = calls.get(name, 0)
        m[f"norms.{fn}.self_s"] = self_s.get(name, 0.0)

    m["verify.norm_requests"] = calls.get("verify.Workspace.norm", 0)
    m["verify.norm_computes"] = sum(
        1 for s in spans
        if s[2].startswith("norms.") and has_ancestor(s, "verify.Workspace.norm"))
    m["verify.stack_requests"] = calls.get("verify.Workspace.stack", 0)
    m["verify.evaluate.wait_s"] = sum(
        (s[5] - s[4]) - _same_thread_cover(s, children.get(s[0], ()))
        for s in spans if s[2] == "verify.Workspace.evaluate")
    m["verify.write_reports.self_s"] = self_s.get("verify.write_reports", 0.0)
    m["verify.reports"] = total("verify.write_reports", "reports")
    m["verify.reports_failed"] = total("verify.write_reports", "failed")

    picard = "ns3d.mild_solve_picard"
    nonlinear_picard = [s for s in spans if s[2] == picard and s[6]["nonlinear"]]
    m[f"{picard}.calls"] = calls.get(picard, 0)
    m[f"{picard}.self_s"] = self_s.get(picard, 0.0)
    m["ns3d.picard_sweeps"] = total(picard, "sweeps")
    m["ns3d.picard_converged_ratio"] = (
        sum(1 for s in nonlinear_picard if s[6]["converged"]) / len(nonlinear_picard)
        if nonlinear_picard else 0.0)
    m["ns3d.nonlinear_evals_computed"] = total(picard, "evals")
    m["ns3d.velocity_fields.calls"] = calls.get("ns3d.velocity_fields", 0)
    m["ns3d.velocity_fields.self_s"] = self_s.get("ns3d.velocity_fields", 0.0)
    # inclusive: the divergence check's FFTs are spectral spans below it
    m["ns3d.velocity_fields.total_s"] = sum(
        s[5] - s[4] for s in spans if s[2] == "ns3d.velocity_fields")
    m["ns3d.solution_x_norm.self_s"] = self_s.get("ns3d.solution_x_norm", 0.0)

    m["corpus.generate.calls"] = calls.get("corpus.generate", 0)
    m["corpus.generate.self_s"] = self_s.get("corpus.generate", 0.0)

    m["fieldio.write_json.calls"] = calls.get("fieldio.write_json", 0)
    m["fieldio.write_csv.calls"] = calls.get("fieldio.write_csv", 0)
    m["fieldio.bytes_written"] = sum(
        s[6]["bytes"] for s in spans
        if s[2] in ("fieldio.write_json", "fieldio.write_csv", "fieldio.write_field"))
    m["fieldio.self_s"] = sum(v for k, v in self_s.items() if k.startswith("fieldio."))

    m["cli.unattributed_s"] = traced_wall - covered
    m["trace_overhead_s"] = traced_wall - untraced_wall

    layers: dict[str, float] = {}
    for name, value in self_s.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return m, layers


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("mb_computed"):
        return "MB"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
