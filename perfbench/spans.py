"""In-memory spans around the package's layer functions.

The scenarios import layer functions by name (``from .pde import evolve``),
so each function is wrapped where it is looked up, e.g.
``nsblab.scenarios.evolve`` and ``nsblab.kernels.run_field_first_order``;
:func:`traced` restores the originals on exit.  No package source is
changed.  Spans nest strictly (one thread), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans of one run: name, start, end (ns) and parent index."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self.counts: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self.counts.append({})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, key: str, n: float = 1, idx: int | None = None) -> None:
        """Count ``n`` on span ``idx``, default the innermost open span."""
        if idx is None:
            if not self._stack:
                return
            idx = self._stack[-1]
        self.counts[idx][key] = self.counts[idx].get(key, 0) + n

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(tracer, idx, bound_args, result)``
        records counts once the span has closed."""
        sig = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, idx, bound.arguments, result)
            return result

        return wrapper

    def dump(self) -> list[dict]:
        return [{"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3],
                 "counts": c} for s, c in zip(self.spans, self.counts)]

    def summary(self) -> dict:
        """Per span name: total seconds ``s``, ``self_s``, ``calls`` and the
        counts recorded on spans of that name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _), child, counts in zip(self.spans, child_ns,
                                                       self.counts):
            out[f"{name}.s"] += (end - start) * 1e-9
            out[f"{name}.self_s"] += (end - start - child) * 1e-9
            out[f"{name}.calls"] += 1
            for key, n in counts.items():
                out[f"{name}.{key}"] += n
        return dict(out)


def _snapshot_bytes(result) -> int:
    return sum(a.nbytes for a in result if isinstance(a, np.ndarray))


def _after_uniform(tracer, idx, args, result):
    tracer.add("steps", args["n_steps"], idx)
    tracer.add("snapshot_bytes", _snapshot_bytes(result), idx)


def _after_field(tracer, idx, args, result):
    tracer.add("point_steps", len(args["psi0"]) * args["n_steps"], idx)
    tracer.add("snapshots", len(result[0]), idx)
    tracer.add("snapshot_bytes", _snapshot_bytes(result), idx)


def _after_write_csv(tracer, idx, args, result):
    tracer.add("rows", result, idx)
    tracer.add("bytes", os.path.getsize(args["path"]), idx)


# (module where the name is looked up, attribute, span name, count hook)
PATCHES = [
    ("nsblab.cli", "run_scenario", "scenarios.run_scenario", None),
    ("nsblab.scenarios", "write_csv", "scenarios.write_csv", _after_write_csv),
    ("nsblab.scenarios", "integrate_uniform", "integrator.integrate_uniform", None),
    ("nsblab.kernels", "run_uniform", "kernels.run_uniform", _after_uniform),
    ("nsblab.kernels", "run_field_first_order", "kernels.run_field_first_order",
     _after_field),
    ("nsblab.kernels", "run_field_second_order", "kernels.run_field_second_order",
     _after_field),
    ("nsblab.scenarios", "evolve", "pde.evolve", None),
    ("nsblab.scenarios", "PdeProblem", "pde.PdeProblem", None),
    ("nsblab.scenarios", "stability_dt", "pde.stability_dt", None),
    ("nsblab.scenarios", "field_width", "pde.field_width", None),
    ("nsblab.scenarios", "mode_amplitudes", "pde.mode_amplitudes", None),
    ("nsblab.scenarios", "fit_mode_frequency", "pde.fit_mode_frequency", None),
    ("nsblab.scenarios", "free_solution", "analytic.free_solution", None),
    ("nsblab.scenarios", "dispersion_branches", "analytic.dispersion_branches", None),
]


def _counted(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        tracer.add("fft_calls")
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the layer functions and ``numpy.fft.fft``/``ifft`` through
    ``tracer`` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span, after in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, span, after))
        for attr in ("fft", "ifft"):
            original = getattr(np.fft, attr)
            saved.append((np.fft, attr, original))
            setattr(np.fft, attr, _counted(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

