"""Span tracing of casnuc's layers from outside the package.

install() replaces the public functions of the traced modules (and the
series kernel lifshitz._mode_series) by thin wrappers, in every casnuc
namespace that holds them, so calls made through `from .units import
convert` are caught as well as calls through module attributes.  Each call
records one span: name, start, end, parent span and operation id.  Spans
stay in memory until the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

TRACED_MODULES = ("cli", "lifshitz", "plasma", "units", "nuclear", "svgplot")
KERNEL = "lifshitz.mode_series"
SMALL_A = 1e-2
SMALL_SUFFIX = "[small_a]"


class Recorder:
    """Spans of one traced run, stored column-wise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        return self._wrapper(fn, lambda *args, **kwargs: nid)

    def wrap_kernel(self, fn):
        big, small = self.intern(KERNEL), self.intern(KERNEL + SMALL_SUFFIX)
        return self._wrapper(fn, lambda a: small if a < SMALL_A else big)

    def _wrapper(self, fn, pick):
        stack, clock = self._stack, time.perf_counter
        name_id, parent, op, start, end = (self.name_id, self.parent, self.op,
                                           self.start, self.end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(pick(*args, **kwargs))
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and the number of
        direct children of each other name (for ratios such as series calls
        per Matsubara sum)."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        stats: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child_time[i]
            p = self.parent[i]
            if p >= 0:
                pstats = stats.setdefault(self.names[self.name_id[p]],
                                          {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                key = "children." + name
                pstats[key] = pstats.get(key, 0) + 1
        return stats

    def dump(self, path: str, op_offset: int = 0, mode: str = "wt") -> None:
        """Append the spans as CSV rows: op,span,name,start_s,end_s,parent."""
        with gzip.open(path, mode, compresslevel=1, encoding="utf-8") as fh:
            if mode.startswith("w"):
                fh.write("op,span,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i] + op_offset},{i},{self.names[self.name_id[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")


def install(recorder: Recorder) -> int:
    """Wrap the traced layers of an imported casnuc; return the count wrapped."""
    replacements = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"casnuc.{short}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                replacements[id(obj)] = recorder.wrap(obj, f"{short}.{attr}")
    kernel = sys.modules["casnuc.lifshitz"]._mode_series
    replacements[id(kernel)] = recorder.wrap_kernel(kernel)
    for name, module in list(sys.modules.items()):
        if name == "casnuc" or name.startswith("casnuc."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, attr, replacements[id(obj)])
    return len(replacements)


def merge_stats(into: dict, more: dict) -> None:
    for name, s in more.items():
        t = into.setdefault(name, {})
        for key, value in s.items():
            t[key] = t.get(key, 0) + value
