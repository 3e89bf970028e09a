"""Outside-in span recorder for invarkit.

``install`` replaces every public function that an invarkit module
namespace binds, and every public method of the classes those modules
define, by a wrapper that records one span per call: its name, start,
end, parent span and thread. A function bound in several namespaces
(``pooling.mex`` is also ``kernels.mex``; ``signals.apply`` is also
``pooling.apply`` and ``suites.apply``) gets one wrapper under one name,
put into every namespace, so each call is counted once whichever name the
caller used. Module-level lookups happen at call time, so nested calls
such as ``train -> grad_centers -> radial_basis`` nest.

Spans stay in memory, one compact buffer per thread, and are written out
when the run ends. ``Recorder.profile`` turns the spans of one operation
into per-name call counts, inclusive time and self time, where self time
is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import array
import functools
import inspect
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Namespaces searched for bindings, in the order that names foreign
# functions (e.g. scipy's cdist is named after the first module binding it).
MODULES = (
    "invarkit.signals",
    "invarkit.pooling",
    "invarkit.kernels",
    "invarkit.ramps",
    "invarkit.hbf",
    "invarkit.vq",
    "invarkit.suites",
    "invarkit.cli",
    "invarkit",
)
_FOREIGN_PREFIXES = ("scipy.",)


class _Buffer:
    """Spans of one thread, in entry order; parents index the same buffer."""

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []

    def __len__(self):
        return len(self.start)


@dataclass
class Profile:
    """Per-name totals over the spans of one operation."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    incl_s: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    distinct: dict = field(default_factory=dict)  # key -> number of distinct items


class Recorder:
    """Collects spans from wrapped functions, one buffer per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buffers: list[_Buffer] = []
        self.counts: Counter = Counter()
        self.seen: dict = {}
        self.ops: list[dict] = []  # per operation: {buffer index: (lo, hi)}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._mark: dict | None = None

    def name_id(self, name: str) -> int:
        """Index of ``name``; the same on every install into this recorder."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def see(self, key: str, item) -> None:
        """Note ``item`` under ``key``; profiles report how many were distinct."""
        with self._lock:
            self.seen.setdefault(key, set()).add(item)

    def begin_op(self) -> None:
        """Start one operation: later spans and counts belong to it."""
        with self._lock:
            self._mark = {i: len(b) for i, b in enumerate(self.buffers)}
            self.counts = Counter()
            self.seen = {}

    def end_op(self) -> Profile:
        """Close the operation opened by begin_op and return its profile."""
        with self._lock:
            ranges = {
                i: (self._mark.get(i, 0), len(b)) for i, b in enumerate(self.buffers)
            }
            counts = self.counts
            distinct = {k: len(v) for k, v in self.seen.items()}
        self.ops.append(ranges)
        prof = self.profile(ranges)
        prof.counts, prof.distinct = counts, distinct
        return prof

    def profile(self, ranges: dict) -> Profile:
        m = len(self.names)
        calls = np.zeros(m)
        self_s = np.zeros(m)
        incl_s = np.zeros(m)
        for i, (lo, hi) in ranges.items():
            if hi <= lo:
                continue
            name, parent, start, end = _arrays(self.buffers[i], lo, hi)
            dur = end - start
            par = parent - lo
            child = par >= 0
            kids = np.bincount(par[child], weights=dur[child], minlength=hi - lo)
            calls += np.bincount(name, minlength=m)
            incl_s += np.bincount(name, weights=dur, minlength=m)
            self_s += np.bincount(name, weights=dur - kids, minlength=m)
        prof = Profile()
        for k, nm in enumerate(self.names):
            prof.calls[nm] = int(calls[k])
            prof.self_s[nm] = float(self_s[k])
            prof.incl_s[nm] = float(incl_s[k])
        return prof

    def write(self, path) -> int:
        """Save every span as arrays in one .npz file; returns the span count."""
        parts = []
        offset = 0
        for i, buf in enumerate(self.buffers):
            n = len(buf)
            name, parent, start, end = _arrays(buf, 0, n)
            op = np.full(n, -1, dtype=np.int32)
            for k, ranges in enumerate(self.ops):
                lo, hi = ranges.get(i, (0, 0))
                op[lo:hi] = k
            parts.append(
                (name, np.where(parent >= 0, parent + offset, -1), start, end,
                 np.full(n, buf.thread, dtype=np.int32), op)
            )
            offset += n
        cols = [np.concatenate(c) for c in zip(*parts)] if parts else [np.empty(0)] * 6
        np.savez(
            path,
            names=np.asarray(self.names),
            name=cols[0], parent=cols[1], start=cols[2], end=cols[3],
            thread=cols[4], op=cols[5],
        )
        return offset


def _arrays(buf: _Buffer, lo: int, hi: int):
    return (
        np.frombuffer(buf.name[lo:hi], dtype=np.int32),
        np.frombuffer(buf.parent[lo:hi], dtype=np.int32),
        np.frombuffer(buf.start[lo:hi], dtype=np.float64),
        np.frombuffer(buf.end[lo:hi], dtype=np.float64),
    )


def _train_hook(rec: Recorder, args, kwargs, result) -> None:
    _, trace = result
    rec.count("hbf.train.iters", len(trace.iterations))


def _draw_hook(rec: Recorder, args, kwargs, result) -> None:
    sampler, d, S = args[:3]
    stream = args[3] if len(args) > 3 else kwargs.get("stream", 0)
    rec.count("kernels.draw.rows", result[0].shape[0])
    rec.see("kernels.draw", (sampler, int(d), int(S), int(stream)))


# Result hooks: counts that only the return value or arguments show.
HOOKS = {"hbf.train": _train_hook, "kernels.draw": _draw_hook}


def _wrap(fn, span: int, rec: Recorder, hook):
    perf_counter = time.perf_counter
    local = rec._local

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        buf = getattr(local, "buf", None)
        if buf is None:
            buf = rec.buffer()
        stack = buf.stack
        i = len(buf.start)
        buf.name.append(span)
        buf.parent.append(stack[-1] if stack else -1)
        buf.end.append(0.0)
        stack.append(i)
        buf.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            buf.end[i] = perf_counter()
            stack.pop()
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _targets(modules):
    """Yield (owner, attribute, callable, span name) for every binding to wrap."""
    names_by_obj: dict[int, str] = {}
    for mod in modules:
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                origin = obj.__module__ or ""
                if origin.startswith("invarkit."):
                    span = f"{_short(origin)}.{obj.__name__}"
                elif origin.startswith(_FOREIGN_PREFIXES):
                    span = f"{_short(mod.__name__)}.{attr}"
                else:
                    continue
                names_by_obj.setdefault(id(obj), span)
                yield mod, attr, obj, names_by_obj[id(obj)]
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in sorted(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield obj, meth, fn, f"{_short(mod.__name__)}.{meth}"


def install(rec: Recorder, modules):
    """Wrap every public function bound in ``modules``; returns an undo callable."""
    wrappers: dict[int, object] = {}
    span_of: dict[str, int] = {}
    undo = []
    for owner, attr, fn, span in list(_targets(modules)):
        if id(fn) not in wrappers:
            if span in span_of:
                raise ValueError(f"two callables share the span name {span!r}")
            span_of[span] = rec.name_id(span)
            wrappers[id(fn)] = _wrap(fn, span_of[span], rec, HOOKS.get(span))
        undo.append((owner, attr, fn))
        setattr(owner, attr, wrappers[id(fn)])

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall
