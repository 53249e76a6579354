"""Outside-in span tracer for srhtlab's public functions.

``Tracer.install`` replaces each traced function at every ``srhtlab``
module attribute that refers to it (for example both
``srhtlab.wht.fwht_inplace`` and ``srhtlab.srht.fwht_inplace``), because
callers resolve the name in their own module at call time.  ``uninstall``
puts every original back; use the tracer as a context manager so that
happens in ``finally``.

Each call records one span: name, parent span, start and end
(``perf_counter``).  Spans live in typed arrays, 24 bytes each, because the
criterion-8 sweep alone opens three million of them.  A span's self time is
its duration minus the durations of its direct children, which for strictly
nested spans is the time its children cover.
"""

import math
import sys
import time
from array import array
from functools import wraps

import numpy as np


def fwht_counts(args, kwargs):
    """Work of one radix-2 transform, computed from the input shape.

    ``butterfly_ops`` counts the (n/2) log2(n) butterflies per column;
    ``bytes_computed`` is one float64 read and one write of the whole array
    per stage, 16 n log2(n) bytes per column.
    """
    x = args[0] if args else kwargs["x"]
    n = x.shape[0]
    cols = x.size // n if n else 0
    stages = max(n.bit_length() - 1, 0)
    return {
        "butterfly_ops": n // 2 * stages * cols,
        "bytes_computed": 16 * n * stages * cols,
    }


def eigen_counts(args, kwargs):
    """Number of matrices in one eigenvalue call: the stack depth, or 1."""
    s = np.asarray(args[0] if args else kwargs["s"])
    return {"matrices": int(s.shape[0]) if s.ndim == 3 else 1}


class Tracer:
    """Records spans around traced functions and named benchmark regions."""

    def __init__(self, targets, counters=None):
        """``targets`` are ``"module.function"`` names under ``srhtlab``;
        ``counters`` maps some of them to a function of the call's
        ``(args, kwargs)`` returning extra per-call counts."""
        self.targets = tuple(targets)
        self.counters = dict(counters or {})
        self.names = []
        self._name_ids = {}
        self._patched = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counts; installed wrappers stay."""
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts = {}

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        """Context manager recording one span for a benchmark region."""
        return _Span(self, self._name_id(name))

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        counter = self.counters.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    full = f"{name}.{key}"
                    self.counts[full] = self.counts.get(full, 0) + value
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self):
        """Patch every srhtlab module attribute bound to a traced function."""
        import importlib

        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "srhtlab" or key.startswith("srhtlab."))
        ]
        try:
            for target in self.targets:
                module_name, fn_name = target.rsplit(".", 1)
                original = getattr(importlib.import_module(f"srhtlab.{module_name}"), fn_name)
                wrapper = self._wrap(target, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self):
        """Per-span self time: duration minus the children's durations."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = ends - starts
        if np.isnan(duration).any():
            raise RuntimeError("trace has spans that were never closed")
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=duration[nested], minlength=duration.size
        )
        return duration - covered

    def summary(self):
        """``{name: {"calls": int, "self_s": float}}`` over every span."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        self_s = np.bincount(ids, weights=self.self_times(), minlength=width)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        """Write the spans as arrays with the name table (``numpy.savez``)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


class _Span:
    def __init__(self, tracer, name_id):
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self):
        self._index = self._tracer._open(self._name_id)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._index)
        return False
