"""Outside-in span recording around the public calls of each layer.

The benchmark never edits the program.  A traced run installs wrappers
on the names through which the layers call each other -- the call-site
bindings (``repro.exps.runner.measure_suite_batched``, not only
``repro.microarch.simulator.measure_suite_batched``), because a module
that did ``from x import f`` keeps its own reference and a wrapper on
the defining module would silently miss it.

Each wrapped call records one span ``(id, parent, name, layer, start,
end, thread)``.  Spans stay in memory; :func:`analyse` turns them into
inclusive times per metric group, self time per layer and the coverage
of the timed window.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: (span group, layer, module, attribute) for every wrapped binding.
#: Calls within one group that nest (``demand`` calling
#: ``predict_fmax``) are counted once in the group's inclusive time.
BINDINGS: Tuple[Tuple[str, str, str, str], ...] = (
    ("variation.population", "variation", "repro.variation.population",
     "VariationModel.population"),
    ("variation.factor", "variation", "repro.variation.population",
     "get_factor"),
    ("variation.factor", "variation", "repro.variation", "get_factor"),
    ("microarch.measure", "microarch", "repro.exps.runner",
     "measure_suite_batched"),
    ("ml.bank", "ml", "repro.exps.runner", "get_bank"),
    ("ml.label", "ml", "repro.ml.bank", "generate_training_datasets"),
    ("ml.infer", "ml", "repro.ml.bank", "ControllerBank.predict_fmax"),
    ("ml.infer", "ml", "repro.ml.bank", "ControllerBank.predict_voltages"),
    ("ml.infer", "ml", "repro.ml.bank", "ControllerBank.demand"),
    ("core.units_batched", "core", "repro.exps.runner",
     "ExperimentRunner.run_units_batched"),
    ("core.unit", "core", "repro.exps.runner", "ExperimentRunner.run_unit"),
    ("core.novar", "core", "repro.exps.runner",
     "ExperimentRunner.novar_summary"),
    ("core.optimize", "core", "repro.exps.runner", "optimize_units_batched"),
    ("core.optimize", "core", "repro.exps.runner", "optimize_phases_batched"),
    ("core.optimize", "core", "repro.exps.runner", "optimize_phase"),
    ("core.optimize", "core", "repro.exps.runner", "evaluate_at_fixed_config"),
    ("core.freq", "core", "repro.core.adaptation", "freq_algorithm"),
    ("core.power", "core", "repro.core.adaptation", "power_algorithm"),
    ("thermal.solve", "thermal", "repro.core.state", "solve_temperatures"),
    ("thermal.solve", "thermal", "repro.core.state",
     "solve_temperatures_lanes"),
    ("engine.execute", "engine", "repro.exps.runner", "ExperimentRunner.run"),
) + tuple(
    (f"cache.{kind}.{op}", "cache", "repro.exps.cache",
     f"ExperimentCache.{op}_{kind}")
    for kind in ("summary", "measurement", "bank", "factor")
    for op in ("load", "save")
) + (
    ("serve.submit", "serve", "repro.serve.service", "CampaignService.submit"),
    # A client blocked in result() is waiting, not working: the wait is
    # reported, but kept out of layer self time and coverage.
    ("serve.result", "wait", "repro.serve.service", "CampaignService.result"),
)


def _engine_work(args, kwargs):
    runner, spec = args[0], args[1]
    population = runner.config.n_chips * runner.config.cores_per_chip
    pairs = spec.pairs()
    return {
        "engine.cells": len(pairs),
        "engine.units": sum(population if env.variation else 1
                            for env, _ in pairs),
    }


#: Work counted from a wrapped call's arguments, per span group.
WORK = {
    "microarch.measure": lambda args, kwargs: {
        "microarch.requests": len(args[0])},
    "ml.label": lambda args, kwargs: {
        "ml.examples": sum(request.n_examples for request in args[2])},
    "engine.execute": _engine_work,
}

#: Layers whose self time is reported (``wait`` is not a layer).
LAYERS = ("variation", "microarch", "ml", "core", "thermal", "engine",
          "cache", "serve")


class Tracer:
    """Installs the wrappers and collects spans until :meth:`uninstall`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []
        #: (start, end) of the timed part, set by the caller.
        self.window: Optional[Tuple[float, float]] = None

    # -- installation ---------------------------------------------------
    def install(self) -> "Tracer":
        for group, layer, module_name, attr in BINDINGS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[name] if owner_name else getattr(owner, name)
            wrapped = self._wrap(original, group, layer)
            setattr(owner, name, wrapped)
            self._patched.append((owner, name, original))
        self._verify()
        return self

    def _verify(self) -> None:
        """Every binding must now resolve to a wrapper."""
        for group, _, module_name, attr in BINDINGS:
            target = importlib.import_module(module_name)
            for part in attr.split("."):
                target = getattr(target, part)
            if getattr(target, "_perfbench_group", None) != group:
                raise RuntimeError(f"{module_name}.{attr} is not wrapped")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, fn, group: str, layer: str):
        spans = self.spans
        calls = self.calls
        work = self.work
        count_work = WORK.get(group)
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            if count_work is not None:
                for name, amount in count_work(args, kwargs).items():
                    work[name] += amount
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                calls[group] += 1
                spans.append((span_id, parent, group, layer, start, end,
                               threading.get_ident()))

        wrapper._perfbench_group = group
        return wrapper


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def analyse(tracer: Tracer) -> Dict[str, object]:
    """Inclusive time per group, self time per layer, coverage.

    Only spans that end inside the timed window count towards wall-time
    shares and coverage; spans of the set-up phase (the population draw)
    are reported separately as ``setup_by_group``.
    """
    window_start, window_end = tracer.window
    wall = window_end - window_start
    by_id = {span[0]: span for span in tracer.spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, _, _, start, end, _ in tracer.spans:
        if parent:
            child_time[parent] += end - start

    def nested_in_same_group(span) -> bool:
        parent = span[1]
        while parent:
            ancestor = by_id[parent]
            if ancestor[2] == span[2]:
                return True
            parent = ancestor[1]
        return False

    inclusive: Dict[str, float] = defaultdict(float)
    setup_inclusive: Dict[str, float] = defaultdict(float)
    self_by_group: Dict[str, float] = defaultdict(float)
    self_by_layer: Dict[str, float] = defaultdict(float)
    covered: List[Tuple[float, float]] = []
    for span in tracer.spans:
        span_id, _, group, layer, start, end, _ = span
        in_window = end > window_start
        own = end - start - child_time[span_id]
        if not nested_in_same_group(span):
            (inclusive if in_window else setup_inclusive)[group] += end - start
        if in_window and layer != "wait":
            self_by_group[group] += own
            self_by_layer[layer] += own
            covered.append((max(start, window_start), min(end, window_end)))
    return {
        "wall_s": wall,
        "spans": len(tracer.spans),
        "calls": dict(tracer.calls),
        "work": dict(tracer.work),
        "inclusive": dict(inclusive),
        "setup_by_group": dict(setup_inclusive),
        "self_by_group": dict(self_by_group),
        "self_by_layer": {layer: self_by_layer.get(layer, 0.0)
                          for layer in LAYERS},
        "coverage": _union_length(covered) / wall if wall > 0 else 0.0,
    }


def span_records(tracer: Tracer, limit: int = 5000) -> List[Dict[str, object]]:
    """The first ``limit`` spans as JSON-safe records, relative to the
    start of the timed window (negative times are set-up)."""
    origin = tracer.window[0]
    records = []
    for span_id, parent, group, layer, start, end, thread in sorted(
        tracer.spans, key=lambda span: span[4]
    )[:limit]:
        records.append({
            "id": span_id, "parent": parent, "name": group, "layer": layer,
            "start": round(start - origin, 6), "end": round(end - origin, 6),
            "thread": thread, "run": tracer.run_id,
        })
    return records
