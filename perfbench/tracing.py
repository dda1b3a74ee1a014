"""In-process spans around the public functions of every ``polymerlab`` layer.

``instrument(tracer)`` wraps the public functions of each module, the two
``EnvironmentHandle`` methods that carry the field work, the CLI writers
and the verify suite runners, without editing any source file.  The
modules import each other by name (``from .walk import sample_paths``), so
a wrapper is rebound at every import site, not only where the function is
defined.  ``restore()`` undoes all of it.

A span records its name, start, end and parent; spans stay in memory and
are written out once the traced command ends.  Self time is a span's
duration minus the part of it covered by the union of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("cli", "config", "walk", "environment", "kernels", "gibbs", "parallel",
           "quadrature", "exponent", "verify")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Spans, counters and per-estimate samples collected in memory."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, parent, name, start, end)
        self.counters: dict[str, float] = defaultdict(float)
        self.ess_fractions: list[float] = []
        self.distinct_slices: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> tuple:
        # next() on a count and list.append are atomic under the GIL, so the
        # hot path takes no lock.
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((*token, end))

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "ess_fractions": self.ess_fractions,
            "distinct_slices": sorted(self.distinct_slices),
        }


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed inclusive time and summed self time."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own[s.id]
    return dict(out)


# -- instrumentation ---------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, after=None):
    """``fn`` inside a span; ``after(bound_args, result)`` records counters."""
    signature = inspect.signature(fn) if after is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(token)
        if after is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after(bound.arguments, result)
        return result

    return wrapper


def _counter_hooks(tracer: Tracer) -> dict:
    def steps(_, result):
        tracer.count("walk.steps", result.positions.size)

    def ess(_, result):
        frac = result.ess / result.M
        tracer.ess_fractions.append(frac)
        if frac < 0.01:
            tracer.count("gibbs.degenerate")

    def entries(_, result):
        tracer.count("kernels.gamma_matrix.entries", result.size)

    def gh_points(args, _):
        tracer.count("quadrature.gh.points", args["n_nodes"] ** len(args["cov"]))

    def mc_draws(args, _):
        tracer.count("quadrature.mc.draws", args["n_draws"])

    return {
        "walk.sample_paths": steps,
        "gibbs.gibbs_expect": ess,
        "kernels.gamma_matrix": entries,
        "quadrature.gauss_hermite_expect": gh_points,
        "quadrature.gauss_hermite_mean": gh_points,
        "quadrature.monte_carlo_expect": mc_draws,
        "quadrature.monte_carlo_mean": mc_draws,
    }


def _traced_parallel_map(tracer: Tracer, original):
    @functools.wraps(original)
    def parallel_map(fn, items, threads: int = 1):
        items = list(items)
        token = tracer.begin("parallel.parallel_map")
        try:
            if threads <= 1 or len(items) <= 1:
                return original(fn, items, threads)
            map_id = token[0]

            def item(x):
                inner = tracer.begin("parallel.item", parent=map_id)
                try:
                    return fn(x)
                finally:
                    tracer.end(inner)

            start = time.perf_counter()
            out = original(item, items, threads)
            wall = time.perf_counter() - start
            tracer.count("parallel.items", len(items))
            tracer.count("parallel.map_s", wall)
            tracer.count("parallel.capacity_s", wall * threads)
            return out
        finally:
            tracer.end(token)

    return parallel_map


def _traced_methods(tracer: Tracer, handle_cls) -> dict:
    build, sample = handle_cls.build_grid_slice, handle_cls.sample_slice_at

    @functools.wraps(build)
    def build_grid_slice(self, k):
        fresh = self._slices.get(k) is None
        token = tracer.begin("environment.grid.build_grid_slice")
        try:
            return build(self, k)
        finally:
            tracer.end(token)
            if fresh and self._slices.get(k) is not None:
                tracer.count("environment.grid.slices_built")
                tracer.distinct_slices.add((self.seed, self.h, self.L, int(k)))

    @functools.wraps(sample)
    def sample_slice_at(self, k, positions):
        if self.backend == "grid":
            token = tracer.begin("environment.grid.sample_slice_at")
            try:
                values = sample(self, k, positions)
            finally:
                tracer.end(token)
            tracer.count("environment.queries", values.size)
            return values
        cache = self._slices.get(k)
        before = 0 if cache is None else len(cache.points)
        token = tracer.begin("environment.exact.sample_slice_at")
        try:
            values = sample(self, k, positions)
        finally:
            tracer.end(token)
        tracer.count("environment.exact.points", len(self._slices[k].points) - before)
        return values

    return {"build_grid_slice": build_grid_slice, "sample_slice_at": sample_slice_at}


def _traced_writer(tracer: Tracer, original):
    @functools.wraps(original)
    def write(path, *args, **kwargs):
        token = tracer.begin("cli.write")
        try:
            original(path, *args, **kwargs)
        finally:
            tracer.end(token)
        tracer.count("cli.output_bytes", os.path.getsize(path))

    return write


def instrument(tracer: Tracer):
    """Wrap every layer of ``polymerlab`` in spans; returns an undo callable."""
    mods = {short: importlib.import_module(f"polymerlab.{short}") for short in MODULES}
    package = importlib.import_module("polymerlab")
    hooks = _counter_hooks(tracer)
    undo: list[tuple] = []

    def set_attr(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    replacements = {}       # id(original function) -> wrapper
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                if name == "parallel.parallel_map":
                    replacements[id(obj)] = _traced_parallel_map(tracer, obj)
                else:
                    replacements[id(obj)] = _wrap(tracer, name, obj, hooks.get(name))
    cli = mods["cli"]
    for attr in ("_write_csv", "_write_json"):
        replacements[id(getattr(cli, attr))] = _traced_writer(tracer, getattr(cli, attr))

    # Rebind at every import site, including the package namespace.
    for mod in [package, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            wrapper = replacements.get(id(obj))
            if wrapper is not None:
                set_attr(mod, attr, wrapper)

    runners = cli._SUITE_RUNNERS
    for suite, runner in list(runners.items()):
        undo.append((runners, suite, runner))
        runners[suite] = _wrap(tracer, f"verify.suite.{suite}", runner)

    handle_cls = mods["environment"].EnvironmentHandle
    for attr, method in _traced_methods(tracer, handle_cls).items():
        set_attr(handle_cls, attr, method)

    def restore():
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return restore
