"""Per-layer spans for one in-process CLI call, recorded from outside the package.

The tracer replaces each layer's public entry points, at the names their
callers look up (``approvalmle.amle.total_loglik``, ``approvalmle.cli.run_amle``
and so on), with wrappers that record a span: layer, start, end and parent.
Spans stay in memory; ``layer_table`` turns them into per-layer busy time
(outermost spans of the layer), self time (minus the time covered by child
spans) and call counts.  Nothing under ``src/`` is changed, and every
replacement is undone when the ``Tracer`` context exits.

An entry point that no longer exists is recorded as missing instead of
failing, so a refactor that reroutes calls shows up as an unobserved layer.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter
from contextlib import contextmanager

#: (layer, owner, attribute): ``owner`` is the module, or module.Class, whose
#: attribute the caller resolves at call time.
ENTRY_POINTS = (
    ("io", "approvalmle.io", "load_dataset"),
    ("model", "approvalmle.cli", "validate_profile"),
    ("model", "approvalmle.amle", "validate_profile"),
    ("model", "approvalmle.model.Profile", "build"),
    ("initialization", "approvalmle.cli", "anna_karenina_init"),
    ("initialization", "approvalmle.cli", "uniform_init"),
    ("initialization", "approvalmle.cli", "random_init"),
    ("initialization", "approvalmle.benchmark", "anna_karenina_init"),
    ("initialization", "approvalmle.benchmark", "uniform_init"),
    ("initialization", "approvalmle.benchmark", "random_init"),
    ("amle", "approvalmle.cli", "run_amle"),
    ("amle", "approvalmle.benchmark", "run_amle"),
    ("truth_mle", "approvalmle.amle", "estimate_truth"),
    ("truth_mle", "approvalmle.cli", "voter_weights"),
    ("likelihood", "approvalmle.amle", "total_loglik"),
    ("reliability", "approvalmle.amle", "update_reliabilities"),
    ("priors", "approvalmle.amle", "sweep_inclusion_priors"),
    ("priors", "approvalmle.likelihood", "cardinality_mass"),
    ("baselines", "approvalmle.benchmark", "modal_rule"),
    ("baselines", "approvalmle.benchmark", "majority_rule"),
    ("metrics", "approvalmle.cli", "hamming_accuracy"),
    ("metrics", "approvalmle.cli", "subset_accuracy"),
    ("metrics", "approvalmle.cli", "harmonic_accuracy"),
    ("metrics", "approvalmle.benchmark", "hamming_accuracy"),
    ("metrics", "approvalmle.benchmark", "subset_accuracy"),
    ("metrics", "approvalmle.benchmark", "harmonic_accuracy"),
    ("benchmark", "approvalmle.cli", "run_benchmark"),
    ("benchmark", "approvalmle.cli", "save_benchmark_csv"),
    ("benchmark", "approvalmle.cli", "format_benchmark_table"),
)

#: Calls counted without a span: (counter name, owner, attribute).
COUNTED = (("priors.dp_builds", "approvalmle.priors.CardinalityDP", "build"),)


def _resolve(owner: str):
    """Import ``pkg.mod`` or ``pkg.mod.Class``; None when it no longer exists."""
    module_name, _, tail = owner.rpartition(".")
    try:
        return importlib.import_module(owner)
    except ImportError:
        pass
    try:
        return getattr(importlib.import_module(module_name), tail)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    ``spans`` holds ``[layer, start, end, parent_index]`` lists;
    ``amle_results`` the ``(bounds, config, result)`` of every AMLE run;
    ``counts`` the non-span counters; ``bytes_read`` the size of every file
    passed to the dataset reader.
    """

    def __init__(self):
        self.spans = []
        self.amle_results = []
        self.counts = Counter()
        self.bytes_read = 0
        self.missing = []
        self._stack = []
        self._undo = []

    @contextmanager
    def root(self, layer: str):
        """Span around the caller's own call into the package."""
        index = self._enter(layer)
        try:
            yield
        finally:
            self._exit(index)

    def _enter(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, layer: str, attribute: str, fn):
        def traced(*args, **kwargs):
            index = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if attribute == "run_amle":
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                call = bound.arguments
                self.amle_results.append((call["bounds"], call["config"], result))
            elif attribute == "load_dataset":
                self.bytes_read += os.path.getsize(args[0])
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _install(self, owner_name: str, attribute: str, make_wrapper) -> None:
        owner = _resolve(owner_name)
        raw = getattr(owner, "__dict__", {}).get(attribute)
        if raw is None:
            self.missing.append(f"{owner_name}.{attribute}")
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, raw))

    def __enter__(self):
        for layer, owner, attribute in ENTRY_POINTS:
            self._install(
                owner, attribute,
                lambda fn, layer=layer, attribute=attribute: self._span_wrapper(layer, attribute, fn),
            )
        for name, owner, attribute in COUNTED:
            self._install(owner, attribute, lambda fn, name=name: self._count_wrapper(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attribute, raw in reversed(self._undo):
            setattr(owner, attribute, raw)
        self._undo.clear()
        return False


def layer_table(spans) -> dict:
    """Per-layer ``{"busy_s", "self_s", "calls"}`` from one call's spans.

    ``busy_s`` sums the spans of a layer that have no ancestor of the same
    layer, so recursion is not counted twice; ``self_s`` subtracts from each
    span the time its direct children cover.  Self times add up to the root
    span's duration.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {}
    for index, (layer, start, end, parent) in enumerate(spans):
        row = table.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += end - start
    return table
