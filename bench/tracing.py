"""In-memory span tracer for the traced pass of the benchmark.

The tracer wraps countdiag's layer entry points from outside the package: it
replaces a function with a recording wrapper under every name that holds it in
any ``countdiag`` module, records one span (name, start, end, parent) per call,
and puts every original object back when the pass ends.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "countdiag"

#: Modules whose public functions are wrapped; span names use the short names.
LAYERS = (
    "series", "simulate", "moments", "missingness",
    "asymptotics", "diagnostics", "harness", "cli",
)

#: Names that ``harness._run_chunk`` resolves in the harness namespace for one
#: Monte Carlo chunk, mapped to the span name each is recorded under.  The
#: span names are concepts, not locations, so that moving a kernel to another
#: module keeps its metric.
MC_KERNELS = {
    "_poisson_paths": "simulate.paths",
    "_binomial_paths": "simulate.paths",
    "_markov_mask_from_uniforms": "simulate.mask",
    "_index_estimates": "harness.index_estimates",
    "_aggregate": "harness.aggregate",
}

def _array_size(args, kwargs, result):
    return int(getattr(result, "size", 0))


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


class Tracer:
    """Records spans while installed; use as a context manager.

    ``spans`` holds ``[name, start_ns, end_ns, parent_index]`` lists, where the
    parent is the innermost span open when the call started (-1 for none).
    ``work`` sums a per-call size for names installed with a ``size_of``
    function, such as the elements of each simulated path array.
    """

    def __init__(self):
        self.spans = []
        self.work = defaultdict(int)
        self.absent = []
        self.installed = set()
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, size_of=None):
        spans, stack, work, clock = self.spans, self._stack, self.work, time.perf_counter_ns
        self.installed.add(name)

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if size_of is not None:
                work[name] += size_of(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around a call into a layer."""
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = time.perf_counter_ns()

    # -- patching --------------------------------------------------------

    def _mark_absent(self, what, span_name):
        self.absent.append(what)
        warnings.warn(
            f"traced name {what} is absent; span {span_name!r} records nothing",
            RuntimeWarning,
            stacklevel=3,
        )

    def patch_function(self, module, attr, span_name, size_of=None):
        """Wrap ``module.attr`` under every package module name bound to it."""
        original = module.__dict__.get(attr)
        if original is None or not callable(original):
            self._mark_absent(f"{module.__name__}.{attr}", span_name)
            return
        wrapper = self._wrap(span_name, original, size_of)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name.split(".")[0] != PACKAGE:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, span_name):
        original = cls.__dict__.get(attr)
        if original is None:
            self._mark_absent(f"{cls.__qualname__}.{attr}", span_name)
            return
        setattr(cls, attr, self._wrap(span_name, original))
        self._patches.append((cls, attr, original))

    def install(self, expected=()):
        """Wrap the layer entry points of the package.

        Every public function of each module in ``LAYERS``, the Monte Carlo
        kernels of ``MC_KERNELS`` as ``harness`` sees them, and the
        ``CountSeries`` constructor.  Span names in ``expected`` that no
        wrapped name produces are reported as absent, with a warning.
        """
        modules = {short: sys.modules[f"{PACKAGE}.{short}"] for short in LAYERS}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                span_name = f"{short}.{attr}"
                self.patch_function(module, attr, span_name, SIZE_OF.get(span_name))
        for attr, span_name in MC_KERNELS.items():
            self.patch_function(modules["harness"], attr, span_name, SIZE_OF.get(span_name))
        self.patch_method(modules["series"].CountSeries, "__init__", "series.CountSeries")
        for span_name in expected:
            if span_name not in self.installed:
                self._mark_absent(span_name, span_name)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ---------------------------------------------------------

    def summary(self):
        """Per span name: ``{"calls", "total_ns", "self_ns"}``.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
        return dict(out)

    def write(self, path):
        """Write the spans as CSV: index, name, start_ns, end_ns, parent."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{index},{name},{start},{end},{parent}\n")


#: Per-call work recorded next to the span: array elements or bytes read.
SIZE_OF = {
    "simulate.paths": _array_size,
    "harness.load_series_csv": _file_size,
}
