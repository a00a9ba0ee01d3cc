"""Span tracer for the benchmark's traced runs.

The tracer wraps lcalearn's public functions from outside the package. A
wrapped call records one span: name, start, end and the enclosing traced
span. Spans stay in memory and are written once, when the run ends.

Several modules import these functions by name (``run_inference`` into
``experiment`` and ``cli``, ``lca_step`` into ``accumulator``, and so on), so
patching only the defining module would miss those calls. ``install``
replaces every reference to each target object across all loaded
``lcalearn`` modules, and reports a target that no longer exists as absent
instead of failing.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np


def _spike_counts(counters, args, kwargs, result):
    counters["spikes"] += result.total_counts
    counters["max_spikes_per_step"] = max(counters["max_spikes_per_step"], result.max_counts)
    counters["spiking_neurons"] = result.code.size


def _saved_bytes(counters, args, kwargs, result):
    counters["checkpoint_bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _loaded_events(counters, args, kwargs, result):
    counters["events_loaded"] += len(result[0])


def _accumulated_events(counters, args, kwargs, result):
    counters["events_accumulated"] += len(args[0] if args else kwargs["events"])


def _sweep_cells(counters, args, kwargs, result):
    counters["sweep_cells"] += len(result.rows)
    counters["sweep_cells_failed"] += sum(row["failed"] for row in result.rows)


# (span name, module, attribute path, workloads it must fire on, return hook).
# On every other workload the span is predicted to stay at zero calls.
ALL = ("train-graded", "sweep-spiking-events", "eval-frozen-image")
TRAINING = ("train-graded", "sweep-spiking-events")
SPIKING = ("sweep-spiking-events", "eval-frozen-image")
TARGETS = [
    ("cli.main", "lcalearn.cli", "main", TRAINING, None),
    ("lca.lca_step", "lcalearn.lca", "lca_step", ALL, None),
    ("lca.run_inference", "lcalearn.lca", "run_inference", ("train-graded", "eval-frozen-image"), None),
    ("accumulator.run_spiking_inference", "lcalearn.accumulator", "run_spiking_inference", SPIKING,
     _spike_counts),
    ("accumulator.accumulate_step", "lcalearn.accumulator", "accumulate_step", SPIKING, None),
    ("filters.step", "lcalearn.filters", "BoxcarFilter.step", SPIKING, None),
    ("dictionary.analyze", "lcalearn.dictionary", "analyze", ALL, None),
    ("dictionary.synthesize", "lcalearn.dictionary", "synthesize", ALL, None),
    ("dictionary.hebbian_update", "lcalearn.dictionary", "hebbian_update", TRAINING, None),
    ("dictionary.save_checkpoint", "lcalearn.dictionary", "save_checkpoint", ("train-graded",),
     _saved_bytes),
    ("dictionary.load_checkpoint", "lcalearn.dictionary", "load_checkpoint", ("eval-frozen-image",),
     None),
    ("data.load_events", "lcalearn.data", "load_events", ("sweep-spiking-events",), _loaded_events),
    ("data.accumulate_events", "lcalearn.data", "accumulate_events", ("sweep-spiking-events",),
     _accumulated_events),
    ("data.make_windows", "lcalearn.data", "make_windows", ("sweep-spiking-events",), None),
    ("data.load_dataset_npy", "lcalearn.data", "load_dataset_npy", ("train-graded",), None),
    ("data.load_cifar", "lcalearn.data", "load_cifar", ("eval-frozen-image",), None),
    ("experiment.load_dataset", "lcalearn.experiment", "load_dataset", ALL, None),
    ("experiment.run_training", "lcalearn.experiment", "run_training", TRAINING, None),
    ("experiment.run_sweep", "lcalearn.experiment", "run_sweep", ("sweep-spiking-events",),
     _sweep_cells),
    ("experiment.evaluate_codes", "lcalearn.experiment", "evaluate_codes", ("eval-frozen-image",),
     None),
    ("experiment.collect_features", "lcalearn.experiment", "collect_features",
     ("eval-frozen-image",), None),
    ("classifier.train", "lcalearn.classifier", "train", ("eval-frozen-image",), None),
    ("classifier.evaluate", "lcalearn.classifier", "evaluate", ("eval-frozen-image",), None),
]
SPAN_NAMES = [t[0] for t in TARGETS]


class Tracer:
    """In-memory span store: per span a name id, parent index, start and end."""

    def __init__(self):
        self.ids = array("q")      # name id, parent span index (-1 at top level)
        self.times = array("d")    # start, end (perf_counter seconds)
        self.stack = [-1]
        self.counters: dict[str, float] = {
            "spikes": 0, "max_spikes_per_step": 0, "spiking_neurons": 0, "checkpoint_bytes": 0,
            "events_loaded": 0, "events_accumulated": 0, "sweep_cells": 0, "sweep_cells_failed": 0,
        }
        self.absent: list[str] = []
        self.patched: dict[str, int] = {}

    def wrap(self, name_id: int, fn, hook):
        ids, times, stack, counters = self.ids, self.times, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids) // 2
            ids.append(name_id)
            ids.append(stack[-1])
            times.append(clock())
            times.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                times[2 * index + 1] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; count references replaced, record missing ones as absent."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "lcalearn" or name.startswith("lcalearn."))
        ]
        for name_id, (name, module_name, attr, _, hook) in enumerate(TARGETS):
            owner = sys.modules.get(module_name)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            target = None if owner is None else getattr(owner, leaf, None)
            if target is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name_id, target, hook)
            if cls_path:  # a method: patch the class that defines it
                setattr(owner, leaf, wrapped)
                self.patched[name] = 1
                continue
            count = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapped)
                        count += 1
            self.patched[name] = count

    def save(self, path) -> None:
        ids = np.frombuffer(self.ids, dtype=np.int64).reshape(-1, 2)
        times = np.frombuffer(self.times, dtype=np.float64).reshape(-1, 2)
        np.savez(
            path, name=ids[:, 0], parent=ids[:, 1], start=times[:, 0], end=times[:, 1],
            counters=np.array(list(self.counters.values()), dtype=np.float64),
            counter_names=np.array(list(self.counters)),
        )


class Spans:
    """Aggregates over saved spans: calls, total and self time per span name."""

    def __init__(self, path):
        with np.load(path) as data:
            name, parent = data["name"], data["parent"]
            duration = data["end"] - data["start"]
            self.counters = dict(zip(data["counter_names"].tolist(), data["counters"].tolist()))
        covered = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(name))
        self_time = duration - covered
        k = len(SPAN_NAMES)
        self.count = len(name)
        self.calls = dict(zip(SPAN_NAMES, np.bincount(name, minlength=k).tolist()))
        self.total = dict(zip(SPAN_NAMES, np.bincount(name, weights=duration, minlength=k).tolist()))
        self.self_time = dict(zip(SPAN_NAMES, np.bincount(name, weights=self_time, minlength=k).tolist()))
        # Steps integrated inside each inference loop: lca_step spans whose
        # nearest traced caller is that loop.
        step = (name == SPAN_NAMES.index("lca.lca_step")) & (parent >= 0)
        callers = name[parent[step]]
        self.steps_under = {
            loop: int((callers == SPAN_NAMES.index(loop)).sum())
            for loop in ("lca.run_inference", "accumulator.run_spiking_inference")
        }
