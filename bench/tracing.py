"""Timing wrappers installed on orda's layer functions from outside the package.

``Tracer.install`` replaces every module-level binding of each traced
function (``orda.classify.build_monoid`` and ``orda.cli.build`` are the
same object as ``orda.monoid.build``) with a wrapper that records a span;
``Tracer.remove`` puts the originals back.  A span's self time is its
duration minus the durations of the spans it directly encloses.
Generator functions are timed per ``next`` and their yields counted.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

from orda.errors import ResourceError

# the layer boundaries, as "<module>.<function>" under orda
TRACED = (
    "cli.main",
    "core.parse_automaton", "core.validate", "core.format_automaton",
    "minimize.minimize_ordered", "minimize.minimize_with_map", "minimize.reachable_part", "minimize.preorder",
    "languages.parse_regex", "languages.derivative_automaton", "languages.canonical_ordered_automaton",
    "monoid.build", "monoid.is_aperiodic",
    "classify.classify_language", "classify.is_counter_free", "classify.is_acyclic", "classify.is_confluent",
    "classify.is_strongly_acyclic", "classify.is_weakly_confluent", "classify.is_synchronizing",
    "classify.has_extensive_actions", "classify.main_follower", "classify.is_autonomous",
    "omega.parse_query", "omega.check", "omega.valid_substitutions", "omega.length_set",
    "omega.counterexample_words",
)


def _sizes(name: str, args, result, counts) -> None:
    """Size counters read off a layer's arguments and result."""
    if name == "minimize.minimize_with_map":
        minimal = result[1]
        counts["minimize.states_in"] += args[0].state_count
        counts["minimize.states_out"] += minimal.state_count
        counts["minimize.order_pairs_out"] += sum(1 for _ in minimal.order.pairs())
    elif name == "languages.derivative_automaton":
        counts["languages.derivative_states"] += result.state_count
    elif name == "monoid.build":
        counts["monoid.elements"] += len(result)


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)       # inclusive seconds per span name
        self.self_time = defaultdict(float)  # seconds not covered by child spans
        self.counts = defaultdict(int)       # "<name>.calls" and size counters
        self._stack: list[list[float]] = []  # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "orda" or key.startswith("orda.")]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"orda.{module}"], attr)
            wrapper = self._generator_wrapper(name, original) if inspect.isgeneratorfunction(original) \
                else self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def remove(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def _open(self) -> None:
        self._stack.append([0.0])

    def _close(self, name: str, seconds: float) -> None:
        children = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += seconds
        self.time[name] += seconds
        self.self_time[name] += seconds - children

    def _wrapper(self, name, original):
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            self._open()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except ResourceError:
                self.counts[f"{name}.resource_errors"] += 1
                raise
            finally:
                self._close(name, perf_counter() - start)
            _sizes(name, args, result, self.counts)
            return result

        traced.__wrapped__ = original
        return traced

    def _generator_wrapper(self, name, original):
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            inner = original(*args, **kwargs)
            while True:
                self._open()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, perf_counter() - start)
                self.counts[f"{name}.yields"] += 1
                yield item

        traced.__wrapped__ = original
        return traced
