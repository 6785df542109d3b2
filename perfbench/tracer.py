"""Timing wrappers around the library's public functions, installed from outside.

The tracer replaces each target function by a wrapper in every
`subtree_density` module namespace that holds it (so `verify.vertex_view`
is wrapped as well as `dp.vertex_view`), and methods on their class.  Each
call, or each `next()` of a generator, is one span: (name, start, end,
parent).  Spans stay in memory until `write_spans`.  A target that the
library no longer defines is reported as absent, never as an error.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

PACKAGE = "subtree_density"

# (module, qualified name) of every traced function, grouped by layer.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("tree", "Tree.__init__"),
    ("tree", "parse_tree"),
    ("tree", "is_series_reduced"),
    ("enumeration", "rooted_level_sequences"),
    ("enumeration", "tree_from_level_sequence"),
    ("enumeration", "canonical_form"),
    ("enumeration", "enumerate_trees"),
    ("enumeration", "sample_series_reduced"),
    ("dp", "global_stats"),
    ("dp", "all_containment_counts"),
    ("dp", "vertex_view"),
    ("dp", "rooted_counts"),
    ("dp", "good_anchor"),
    ("dp", "edge_counts"),
    ("dp", "SubtreeStats.to_json_dict"),
    ("ranks", "rank_lower_bound"),
    ("ranks", "rank_profile"),
    ("ranks", "simple_lower_bound"),
    ("verify", "run_checks"),
)

LAYERS = ("tree", "enumeration", "dp", "ranks", "verify")


def span_name(module: str, qualname: str) -> str:
    """Metric prefix of a target: `tree.Tree` for the constructor."""
    if qualname.endswith(".__init__"):
        qualname = qualname[: -len(".__init__")]
    return f"{module}.{qualname}"


class Tracer:
    """Span recorder; `install()` patches the targets, `uninstall()` restores them."""

    def __init__(self):
        self.names: List[str] = [span_name(m, q) for m, q in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.starts = array("d")
        self.ends = array("d")
        self.span_names = array("H")
        self.parents = array("i")
        self._stack: List[int] = [-1]
        self.calls: Dict[str, int] = {name: 0 for name in self.names}
        self.items: Dict[str, int] = {name: 0 for name in self.names}
        self.absent: List[str] = []
        self.count_bits_max = 0
        self.sr_rejected = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------
    #
    # A span is opened by appending its parent, name and start, and closed by
    # setting its end; the wrappers inline this to keep tracing overhead low.

    def _on_result(self, name: str, result):
        if name == "dp.global_stats":
            bits = result.subtree_count.bit_length()
            if bits > self.count_bits_max:
                self.count_bits_max = bits
        elif name == "tree.is_series_reduced" and result is False:
            top = self._stack[-1]
            if top >= 0 and self.names[self.span_names[top]] == "enumeration.enumerate_trees":
                self.sr_rejected += 1

    def _wrap_function(self, name: str, fn: Callable) -> Callable:
        nid = self._ids[name]
        watch = name in ("dp.global_stats", "tree.is_series_reduced")
        calls, stack, ends = self.calls, self._stack, self.ends
        add_start, add_end = self.starts.append, self.ends.append
        add_name, add_parent = self.span_names.append, self.parents.append
        clock, on_result = time.perf_counter, self._on_result

        def traced(*args, **kwargs):
            calls[name] += 1
            idx = len(ends)
            add_parent(stack[-1])
            add_name(nid)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if watch:
                on_result(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        nid = self._ids[name]
        calls, items, stack, ends = self.calls, self.items, self._stack, self.ends
        add_start, add_end = self.starts.append, self.ends.append
        add_name, add_parent = self.span_names.append, self.parents.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(ends)
                    add_parent(stack[-1])
                    add_name(nid)
                    add_end(0.0)
                    stack.append(idx)
                    add_start(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    items[name] += 1
                    yield item
            finally:
                gen.close()

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, qualname in TARGETS:
            name = span_name(module_name, qualname)
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_function(name, original)
            if path:  # a method: patch the class only
                self._patch(owner, attr, wrapper, original)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper, original)

    def _patch(self, owner, attr: str, wrapper, original):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span time minus the time of child spans, summed per target."""
        n = len(self.starts)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.span_names[i]]] += self.ends[i] - self.starts[i] - child[i]
        return out

    def write_spans(self, path: str):
        """Write every span as `name start end parent` (tab separated, gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.names[self.span_names[i]]}\t{self.starts[i]!r}\t"
                         f"{self.ends[i]!r}\t{self.parents[i]}\n")
