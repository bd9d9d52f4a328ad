"""Outside-in span and counter tracing of the dualitylab layers.

The tracer wraps every public function of each layer module in each
namespace where a caller looks it up (the package, the layer modules
themselves, the CLI), and the two numpy spectral calls the library makes.
It never touches a private name, so refactors that delete private helpers
do not break it, and ``restore`` puts every original object back.

A span is recorded at each wrapped call: (name, start, end, parent).  A
layer's self time is the duration of its spans minus the part covered by
their child spans.  Spans are only recorded between ``begin_bundle`` and
``end_bundle``, and only for the first few traced bundles, which are kept in
memory and written out by ``dump`` at the end.  Every traced bundle is
folded into per-layer totals as its spans close.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("core_state", "pairwise", "multipath", "fringes", "uqsd", "cli")
# Namespaces searched for references to a layer's public functions.
NAMESPACES = ("dualitylab",) + tuple(f"dualitylab.{name}" for name in
                                     LAYERS + ("sampling",))
# Spectral calls counted against the innermost open layer span.
EIG_FUNCTIONS = ("eigvalsh", "matrix_rank")
KEPT_BUNDLES = 8

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-layer totals for the traced bundles of one run."""

    def __init__(self) -> None:
        self.enabled = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []          # [layer, name, start, child_s, index]
        self._spans: list[tuple] = []         # spans of the current bundle
        self._recording = False               # keep the current bundle's spans
        self.kept: list[list[tuple]] = []     # spans of the first bundles
        self.bundles = 0
        self.bundle_s = 0.0
        self.self_s = {layer: 0.0 for layer in LAYERS + ("bundle",)}
        self.counts = {key: 0 for key in (
            "core_state.states_built", "core_state.eig_calls",
            "pairwise.calls", "pairwise.dark_pairs", "multipath.eig_calls",
            "fringes.samples", "uqsd.trials")}
        self.timers = {key: 0.0 for key in (
            "uqsd.simulate_s", "cli.parse_s", "cli.validate_only_s")}

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function where callers look it up."""
        namespaces = [importlib.import_module(name) for name in NAMESPACES]
        dark_error = importlib.import_module("dualitylab.errors").DarkPairError
        for layer in LAYERS:
            module = importlib.import_module(f"dualitylab.{layer}")
            for name, fn in vars(module).copy().items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn, dark_error)
                for namespace in namespaces:
                    if vars(namespace).get(name) is fn:
                        self._patch(namespace, name, wrapper)
        for name in EIG_FUNCTIONS:
            self._patch(np.linalg, name, self._wrap_eig(getattr(np.linalg, name)))

    def restore(self) -> None:
        for namespace, name, original in reversed(self._patches):
            setattr(namespace, name, original)
        self._patches.clear()

    def _patch(self, namespace, name: str, wrapper) -> None:
        self._patches.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, wrapper)

    def _wrap_eig(self, fn):
        def counted(*args, **kwargs):
            if self.enabled and self._stack:
                layer = self._stack[-1][0]
                if layer in ("core_state", "multipath"):
                    self.counts[f"{layer}.eig_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, layer: str, name: str, fn, dark_error):
        span_name = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if layer == "pairwise":
                self.counts["pairwise.calls"] += 1
            frame = self._open(layer, span_name)
            try:
                result = fn(*args, **kwargs)
            except dark_error:
                parent = self._stack[-2][0] if len(self._stack) > 1 else None
                if layer == "pairwise" and parent != "pairwise":
                    self.counts["pairwise.dark_pairs"] += 1
                raise
            finally:
                duration = self._close(frame)
            self._count(name, args, result, duration)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        frame = [layer, name, _clock(), 0.0, -1]
        if self._recording:
            parent = self._stack[-1][4] if self._stack else -1
            frame[4] = len(self._spans)
            self._spans.append((name, frame[2], None, parent))
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = _clock()
        self._stack.pop()
        duration = end - frame[2]
        self.self_s[frame[0]] += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        if frame[4] >= 0:
            name, start, _, parent = self._spans[frame[4]]
            self._spans[frame[4]] = (name, start, end, parent)
        return duration

    def _count(self, name: str, args, result, duration: float) -> None:
        if name in ("build_pure_state", "build_mixed_state"):
            self.counts["core_state.states_built"] += 1
        elif name in ("intensity_profile", "two_slit_pattern"):
            self.counts["fringes.samples"] += int(result.intensity.size)
        elif name == "simulate":
            self.counts["uqsd.trials"] += int(result.trials)
            self.timers["uqsd.simulate_s"] += duration
        elif name == "parse_config":
            self.timers["cli.parse_s"] += duration
        elif name == "main" and "--validate-only" in (args[0] if args else ()):
            self.timers["cli.validate_only_s"] += duration

    def begin_bundle(self) -> None:
        self._spans = []
        self._recording = len(self.kept) < KEPT_BUNDLES
        self.enabled = True
        self._open("bundle", "bundle")

    def end_bundle(self) -> None:
        """Close the bundle's root span and keep its spans if recorded."""
        duration = self._close(self._stack[0])
        self.enabled = False
        self.bundles += 1
        self.bundle_s += duration
        if self._recording:
            self.kept.append(self._spans)
        self._recording = False
        self._spans = []

    def dump(self, path) -> None:
        """Write the kept spans as JSON: one list of spans per bundle, each
        span [name, start_s, end_s, parent_index] relative to its bundle."""
        bundles = []
        for spans in self.kept:
            origin = spans[0][1]
            bundles.append([[name, start - origin, end - origin, parent]
                            for name, start, end, parent in spans])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"bundles": bundles}, handle)
