"""Spans around calls into dilkit, recorded from outside the program.

A `Tracer` replaces named attributes (module functions in the namespace of
the module that calls them, or methods on a class) with wrappers that
record one span per call: name, start, end, parent span and call id (the
root span of the closed-loop call it belongs to).  `Tensor.__init__` is
wrapped as a counter only.  Spans live in flat in-memory columns and are
written out once, when the run ends.  Wrappers read the clock and nothing
else, so tracing cannot change a result.
"""
from __future__ import annotations

import functools
import gzip
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.col_name = array("i")
        self.col_parent = array("q")
        self.col_root = array("q")
        self.col_t0 = array("q")
        self.col_t1 = array("q")
        self.col_nodes0 = array("q")
        self.col_nodes1 = array("q")
        self.col_last = array("q")   # id of the last span opened inside
        self.tags: dict[int, tuple] = {}
        self.missing: list[str] = []  # names the program no longer defines
        self.nodes = 0               # Tensor objects created so far
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, name_idx: int) -> int:
        sid = len(self.col_name)
        parent = self._stack[-1] if self._stack else -1
        self.col_name.append(name_idx)
        self.col_parent.append(parent)
        self.col_root.append(self.col_root[parent] if parent >= 0 else sid)
        self.col_nodes0.append(self.nodes)
        self.col_nodes1.append(0)
        self.col_t1.append(0)
        self.col_last.append(sid)
        self._stack.append(sid)
        self.col_t0.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.col_t1[sid] = time.perf_counter_ns()
        self.col_nodes1[sid] = self.nodes
        self.col_last[sid] = len(self.col_name) - 1
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace owner.attr by a span-recording wrapper.  `tag`, if
        given, maps the call's arguments to a tuple stored with the span;
        it runs before the call, so it sees the arguments unmodified.  A
        name the program no longer defines is skipped and listed in
        `missing`; the caller must then treat the run as invalid, since
        that name's metrics would read 0."""
        fn = vars(owner).get(attr)
        if fn is None:
            self.missing.append(name)
            return
        idx = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(idx)
            if tag is not None:
                try:
                    self.tags[sid] = tag(*args, **kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the tag, never the call
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        self._patch(owner, attr, fn, wrapper)

    def count_constructions(self, cls) -> None:
        """Count calls of cls.__init__ (no span)."""
        init = vars(cls)["__init__"]

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.nodes += 1
            init(obj, *args, **kwargs)

        self._patch(cls, "__init__", init, counting_init)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write(self, path: str, header: str) -> None:
        """Write every span as a tab-separated line (times in ns from the
        first span's start), gzip-compressed."""
        tab = SpanTable(self)
        base = int(tab.t0.min()) if tab.n else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write(f"# {header}\n")
            f.write("id\tname\tparent\tcall\tstart_ns\tend_ns\tnodes\n")
            for i in range(tab.n):
                f.write(f"{i}\t{self.names[tab.name[i]]}\t{tab.parent[i]}\t"
                        f"{tab.root[i]}\t{tab.t0[i] - base}\t{tab.t1[i] - base}\t"
                        f"{tab.nodes1[i] - tab.nodes0[i]}\n")


class SpanTable:
    """Read-only NumPy view of a tracer's spans, with the derived columns
    the per-layer metrics need."""

    def __init__(self, tracer: Tracer):
        def col(a):
            return np.frombuffer(a, dtype=np.int64 if a.typecode == "q" else np.int32).copy()

        self.names = tracer.names
        self.name_id = tracer.name_id
        self.tags = tracer.tags
        self.name = col(tracer.col_name)
        self.parent = col(tracer.col_parent)
        self.root = col(tracer.col_root)
        self.t0 = col(tracer.col_t0)
        self.t1 = col(tracer.col_t1)
        self.nodes0 = col(tracer.col_nodes0)
        self.nodes1 = col(tracer.col_nodes1)
        self.last = col(tracer.col_last)
        self.n = len(self.name)
        self.dur = (self.t1 - self.t0).astype(np.float64)
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=self.dur[has_parent], minlength=self.n)
        self.self_time = self.dur - covered

    def of(self, name: str) -> np.ndarray:
        """Boolean mask of spans with this name (all False if never seen)."""
        idx = self.name_id.get(name)
        if idx is None:
            return np.zeros(self.n, dtype=bool)
        return self.name == idx

    def ids(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.of(name))

    def subtree_mask(self, span_ids) -> np.ndarray:
        """Spans inside any of the given spans, the spans included."""
        diff = np.zeros(self.n + 1, dtype=np.int64)
        for sid in span_ids:
            diff[sid] += 1
            diff[self.last[sid] + 1] -= 1
        return np.cumsum(diff[:-1]) > 0

    def count_inside(self, sid: int, name: str) -> int:
        """Calls of `name` made while span sid was open."""
        return int(self.of(name)[sid + 1:self.last[sid] + 1].sum())
