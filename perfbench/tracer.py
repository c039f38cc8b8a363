"""Spans around the calls into dynsub's layers, recorded from outside ``src/``.

A :class:`Tracer` replaces a function or method by a wrapper that records one
span ``(name, start, end, parent)`` per call.  Spans stay in memory and are
written once, when the process ends.  A layer's self time is the duration of
its spans minus the part covered by their direct child spans.

Each name is patched where its caller looks it up: ``dynsub.experiment`` and
``dynsub.cli`` bind most layer functions in their own namespaces, while
``dynsub.solver`` looks up ``free_step``/``coupling_step`` as module globals
and ``dynsub.reduction.reduce`` looks up the two mode builders the same way.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

# (module, attribute, span name).  An attribute "Class.method" patches the
# method on the class, so instances made after installation use the wrapper.
LAYER_TARGETS = (
    ("dynsub.generators", "frame_analog", "generators.frame_analog"),
    ("dynsub.experiment", "frame_analog", "generators.frame_analog"),
    ("dynsub.cli", "frame_analog", "generators.frame_analog"),
    ("dynsub.signals", "generate_signal", "signals.multisine"),
    ("dynsub.signals", "multisine_with_noise_channels", "signals.multisine"),
    ("dynsub.experiment", "multisine_with_noise_channels", "signals.multisine"),
    ("dynsub.cli", "generate_signal", "signals.multisine"),
    ("dynsub.reduction", "fixed_interface_modes", "reduction.fixed_interface_modes"),
    ("dynsub.reduction", "constraint_modes", "reduction.constraint_modes"),
    ("dynsub.reduction", "reduce", "reduction.reduce"),
    ("dynsub.experiment", "cb_reduce", "reduction.reduce"),
    ("dynsub.cli", "cb_reduce", "reduction.reduce"),
    ("dynsub.solver", "assemble_first_order", "models.assemble_first_order"),
    ("dynsub.solver", "PartitionedSolver.__init__", "solver.setup"),
    ("dynsub.solver", "PartitionedSolver.run", "solver.run"),
    ("dynsub.solver", "effective_matrix", "solver.effective_matrix"),
    ("dynsub.solver", "free_step", "solver.free_step"),
    ("dynsub.solver", "EffectiveMatrix.solve", "solver.effective_solve"),
    ("dynsub.solver", "steklov_poincare", "coupling.steklov_poincare"),
    ("dynsub.solver", "coupling_step", "coupling.coupling_step"),
    ("dynsub.coupling", "InterfaceOperator.solve", "coupling.interface_solve"),
    ("dynsub.monolithic", "assemble_global", "monolithic.assemble_global"),
    ("dynsub.experiment", "assemble_global", "monolithic.assemble_global"),
    ("dynsub.cli", "assemble_global", "monolithic.assemble_global"),
    ("dynsub.monolithic", "solve_monolithic", "monolithic.solve_monolithic"),
    ("dynsub.experiment", "solve_monolithic", "monolithic.solve_monolithic"),
    ("dynsub.cli", "solve_monolithic", "monolithic.solve_monolithic"),
    ("dynsub.io", "save_system", "io.save_system"),
    ("dynsub.io", "load_system", "io.load_system"),
    ("dynsub.io", "save_trajectory_csv", "io.save_trajectory_csv"),
    ("dynsub.io", "save_signals_csv", "io.save_signals_csv"),
    ("dynsub.io", "load_csv_columns", "io.load_csv_columns"),
    ("dynsub.io", "save_reduction", "io.save_reduction"),
    ("dynsub.experiment", "run_experiment", "experiment.run_experiment"),
)

# The untraced run times only what its end-to-end metrics need: one timer
# per phase call, so its cost is a few microseconds per run.
PHASE_TARGETS = (
    ("dynsub.experiment", "frame_analog", "generators.frame_analog"),
    ("dynsub.solver", "PartitionedSolver.run", "solver.run"),
    ("dynsub.experiment", "solve_monolithic", "monolithic.solve_monolithic"),
    ("dynsub.cli", "solve_monolithic", "monolithic.solve_monolithic"),
)

# io functions whose first argument is the path they write; the size of that
# file after the call is added to the ``io.bytes_written`` counter.
_WRITERS = {"io.save_system", "io.save_trajectory_csv", "io.save_signals_csv", "io.save_reduction"}


class Tracer:
    """In-memory span recorder with function patching."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name):
        open_, close = self._open, self._close
        writes = name in _WRITERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if writes:
                self.count("io.bytes_written", _written_size(args[0]))
            return result

        return wrapper

    def install(self, targets):
        """Patch every target, importing its module first."""
        for module_name, attr, name in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name))

    def uninstall(self):
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _written_size(path) -> int:
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path += ".npz"  # numpy.savez appends the suffix
    return os.path.getsize(path)


def self_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: total self time (s), total duration (s) and call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own, total, calls = {}, {}, {}
    for (name, start, end, _), inner in zip(spans, child_time):
        own[name] = own.get(name, 0.0) + (end - start) - inner
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    return own, total, calls


def load_dump(path) -> tuple[list, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["spans"], doc["counters"]
