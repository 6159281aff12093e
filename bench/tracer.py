"""Span tracer for the benchmark's traced run.

The tracer replaces selected public functions of the ``deepwarp`` package
with timing wrappers while it is installed. The package imports names with
``from .x import f``, so a wrapper is bound into every ``deepwarp.*``
namespace that holds the original, not only the defining module. Methods
are wrapped on their classes. ``scipy.sparse.linalg.splu`` is wrapped too:
each call is a ``dynamics.factorize`` span, and the returned factor's
``solve`` is a ``dynamics.backsolve`` span.

Every span records its name, start, end, parent and trace id. Only spans
inside a benchmark root span (a set-up, a step, a job) are kept, so that the
library calls of the benchmark's own output checks do not count. Spans stay
in memory until the run ends. Self time is a span's duration minus the time
its direct children cover; calls are synchronous and single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import scipy.sparse.linalg as spla

# (span name, module, attribute path, opens a new trace id)
TARGETS = [
    ("mesh.node_adjacency", "deepwarp.mesh", "node_adjacency", False),
    ("material.assemble_stiffness", "deepwarp.material", "assemble_stiffness", False),
    ("material.piola_stress_differential_batch", "deepwarp.material",
     "piola_stress_differential_batch", False),
    ("material.assemble_force", "deepwarp.material", "assemble_force", False),
    ("material.piola_stress_batch", "deepwarp.material", "piola_stress_batch", False),
    ("dynamics.build_linear_system", "deepwarp.dynamics", "build_linear_system", False),
    ("dynamics.quasistatic_run", "deepwarp.dynamics", "QuasistaticDriver.run", False),
    ("dynamics.newmark_step", "deepwarp.dynamics", "step_newmark_nonlinear", False),
    ("registration.register_nonlinear", "deepwarp.registration",
     "register_nonlinear", True),
    ("registration.gradient_operator", "deepwarp.registration",
     "gradient_operator", False),
    ("registration.rotation_vectors_from_displacement", "deepwarp.registration",
     "rotation_vectors_from_displacement", False),
    ("registration.rotations_from_vectors", "deepwarp.registration",
     "rotations_from_vectors", False),
    ("features.geodesic_all", "deepwarp.features", "geodesic_all", False),
    ("features.align_batch", "deepwarp.features", "align_batch", False),
    ("net.forward_batch", "deepwarp.net", "forward_batch", False),
    ("net.backward", "deepwarp.net", "backward", False),
    ("net.adam_step", "deepwarp.net", "adam_step", False),
    ("warper.deepwarp_step", "deepwarp.warper", "deepwarp_step", False),
    ("warper.correct", "deepwarp.warper", "WarpContext.correct", False),
    ("warper.mw_warp", "deepwarp.warper", "mw_warp", False),
    ("warper.rsw_warp", "deepwarp.warper", "rsw_warp", False),
    ("dataset.generate_poses", "deepwarp.dataset", "generate_poses", False),
    ("dataset.extract_records", "deepwarp.dataset", "extract_records", False),
    ("dataset.write", "deepwarp.dataset", "write_dataset", False),
]
FACTORIZE = "dynamics.factorize"
BACKSOLVE = "dynamics.backsolve"


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace", "child_s", "kept")

    def __init__(self, name, start, parent, trace, kept):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.trace = trace
        self.child_s = 0.0
        self.kept = kept

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class NullTracer:
    """Stands in for the tracer in the untraced run."""

    def root(self, name):
        return contextlib.nullcontext()


class _LuProxy:
    """SuperLU factor whose ``solve`` is traced; ``SuperLU`` attributes are
    read-only, so the factor is wrapped instead of patched."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        span = self._tracer.open(BACKSOLVE)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.missing: list[str] = []
        self.counters: dict[str, float] = {}
        self.lu_nnz: list[int] = []
        self._next_trace = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str, new_trace: bool = False, root: bool = False) -> Span:
        parent = self.stack[-1] if self.stack else None
        if new_trace or parent is None:
            trace = self._next_trace if new_trace else 0
            self._next_trace += new_trace
        else:
            trace = parent.trace
        kept = root or (parent is not None and parent.kept)
        span = Span(name, time.perf_counter(), parent, trace, kept)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        if span.kept:
            self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-level span (one step, one set-up) with its own trace id."""
        span = self.open(name, new_trace=True, root=True)
        try:
            yield span
        finally:
            self.close(span)

    def _inside(self) -> bool:
        """Whether the current call runs inside a kept span."""
        return bool(self.stack) and self.stack[-1].kept

    def count(self, key: str, amount: float = 1) -> None:
        if self._inside():
            self.counters[key] = self.counters.get(key, 0) + amount

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name, new_trace, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, new_trace)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            return after(out, args) if after is not None else out
        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import deepwarp  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "deepwarp" or n.startswith("deepwarp.")]
        afters = {
            "registration.register_nonlinear": self._after_register,
            "dynamics.quasistatic_run": self._after_quasistatic,
            "dataset.generate_poses": self._after_generate,
        }
        for name, module_name, path, new_trace in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if name == "dataset.write":
                wrapped = self._wrap_write(original)
            else:
                wrapped = self._wrap(original, name, new_trace, afters.get(name))
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        self._set(spla, "splu", self._wrap(spla.splu, FACTORIZE, False, self._after_splu))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- counters read from return values ------------------------------------

    def _after_splu(self, lu, args):
        if self._inside():
            self.lu_nnz.append(int(lu.L.nnz + lu.U.nnz))
        return _LuProxy(lu, self)

    def _after_register(self, result, args):
        self.count("registration.newton_iters", result.iterations)
        self.count("registration.converged", int(result.converged))
        return result

    def _after_quasistatic(self, seq, args):
        self.count("dynamics.quasistatic_run.steps_run", seq.steps_run)
        return seq

    def _after_generate(self, report, args):
        self.count("dataset.poses_attempted", report.attempted)
        self.count("dataset.poses_emitted", report.emitted)
        self.count("dataset.dropped_nonconverged", report.dropped_nonconverged)
        return report

    def _wrap_write(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(stream, records):
            start = stream.tell()
            span = tracer.open("dataset.write")
            try:
                fn(stream, records)
            finally:
                tracer.close(span)
            tracer.count("dataset.write_bytes", stream.tell() - start)
        return traced

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += s.duration
            row["self_s"] += s.self_s
        return out

    def count_under(self, ancestor: str, name: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        total = 0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and p.name != ancestor:
                p = p.parent
            total += p is not None
        return total

    def write(self, path: str) -> None:
        """Write every span, one JSON object a line."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "trace": s.trace}) + "\n")
