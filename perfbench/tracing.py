"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every public function of each layer module of
``decfem`` -- and every other ``decfem`` module's imported name for it,
such as ``decfem.poisson.build_hodges`` -- with a wrapper that records a
span (task, name, start, end, parent) into memory.  ``GeometricComplex``
construction is traced through its ``__init__``.  ``uninstall`` restores
the originals, so untraced passes run the library untouched.

A few wrappers also count work where it happens: simplices reduced by
``abstr``, boundary nonzeros built by ``complex_matrices``, Smith normal
form inputs and repeats, and CG iterations (by handing ``cg_solve`` a
matvec-counting operator).  ``exterior.wedge`` and
``exterior.eval_on_frame`` (and the ``num_components`` helper they call)
are only counted: a timer around each of their tiny calls would cost more
than the call.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# decfem.quadrature is left out: simplex_rule is lru_cached and does no
# measurable work.  decfem.meshes only generates inputs, inside setup.
LAYERS = ("mesh", "chains", "homology", "whitney", "exterior", "hodge", "poisson", "cli")
COUNT_ONLY = {"exterior.wedge", "exterior.eval_on_frame", "exterior.num_components"}
# Inclusive times reported for these spans, on top of self times.
INCLUSIVE = {"homology.betti_numbers", "homology.torsion_coefficients", "homology.homology_generators"}
# Per-pass counts taken by the hooks below.
COUNTERS = {
    "mesh.simplices",
    "chains.boundary_nnz",
    "homology.smith_normal_form.input_nnz",
    "homology.smith_normal_form.repeat_ratio",
    "poisson.cg_solve.iterations",
}
# Whole-run figures the runner measures itself.
WHOLE_RUN = {"process.cpu_s", "process.retained_mb_per_pass", "trace.overhead_s"}


class _CountingOperator:
    """Stands in for a sparse matrix in ``cg_solve`` and counts its products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, vec):
        self.products += 1
        return self.matrix @ vec


class Tracer:
    def __init__(self):
        self._stack: list = []  # [span id, child seconds]
        self._next_id = 0
        self._task = None
        self._seen_snf: set = set()
        self._meshes: dict = {}
        self._installed: list = []
        self.reset()

    # -- pass bookkeeping -------------------------------------------------

    def reset(self):
        """Start a new pass: clear the spans and per-pass aggregates."""
        self.spans: list = []  # (task, span id, parent id, name, start, end)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._meshes = {}

    def begin_task(self, name: str):
        self._task = name
        self._seen_snf = set()

    def produces(self, metric: str) -> bool:
        """Whether ``metric`` names something this tracer measures (or a whole-run figure)."""
        if metric in WHOLE_RUN or metric in COUNTERS:
            return True
        name, _, stat = metric.rpartition(".")
        traced = {n for n, _fn in self._targets()} | {"mesh.GeometricComplex"}
        if name in COUNT_ONLY:
            return stat == "calls"
        return name in traced and (stat in ("self_s", "calls") or (stat == "s" and name in INCLUSIVE))

    def pass_metrics(self) -> dict:
        out = {f"{name}.self_s": v for name, v in self.self_s.items()}
        out.update({f"{name}.s": v for name, v in self.inclusive_s.items()})
        out.update(self.counts)
        out["mesh.simplices"] = sum(total for _gc, total in self._meshes.values())
        calls = self.counts.get("homology.smith_normal_form.calls", 0)
        repeats = self.counts.get("homology.smith_normal_form.repeats", 0)
        out["homology.smith_normal_form.repeat_ratio"] = repeats / calls if calls else 0.0
        return out

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        stack = self._stack
        inclusive = name in INCLUSIVE
        calls_key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.self_s[name] += dur - frame[1]
                if inclusive:
                    self.inclusive_s[name] += dur
                self.counts[calls_key] += 1
                self.spans.append((self._task, span_id, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name: str):
        """(before, after) callbacks that count work for particular layers."""
        if name == "mesh.abstr":
            def after(args, kwargs, ac):
                gc = args[0] if args else kwargs["gc"]
                self._meshes[id(gc)] = (gc, sum(ac.face_counts()))
            return None, after
        if name == "chains.complex_matrices":
            def after(args, kwargs, cm):
                self.counts["chains.boundary_nnz"] += sum(b.nnz for b in cm.boundary.values())
            return None, after
        if name == "homology.smith_normal_form":
            def before(args, kwargs):
                mat = args[0] if args else kwargs["mat"]
                self.counts["homology.smith_normal_form.input_nnz"] += mat.nnz
                key = (mat.rows, mat.cols, frozenset(mat.entries.items()))
                if key in self._seen_snf:
                    self.counts["homology.smith_normal_form.repeats"] += 1
                self._seen_snf.add(key)
                return args, kwargs
            return before, None
        if name == "poisson.cg_solve":
            linear_system = sys.modules["decfem.poisson"].LinearSystem

            def before(args, kwargs):
                system = args[0] if args else kwargs.pop("system")
                op = _CountingOperator(system.matrix)
                counted = linear_system(matrix=op, rhs=system.rhs, constrained=system.constrained)
                return (counted,) + tuple(args[1:]), kwargs

            def after(args, kwargs, result):
                # One product forms the initial residual; each iteration adds one.
                self.counts["poisson.cg_solve.iterations"] += args[0].matrix.products - 1
            return before, after
        return None, None

    # -- installation -----------------------------------------------------

    def _targets(self):
        for layer in LAYERS:
            module = sys.modules[f"decfem.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    yield f"{layer}.{attr}", obj

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for name, fn in self._targets():
            if name in COUNT_ONLY:
                replacements[id(fn)] = (fn, self._counter(name, fn))
            else:
                replacements[id(fn)] = (fn, self._span(name, fn, *self._hooks(name)))
        modules = [m for n, m in sys.modules.items() if n == "decfem" or n.startswith("decfem.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, obj))
        geometric = sys.modules["decfem.mesh"].GeometricComplex
        init = geometric.__init__
        geometric.__init__ = self._span("mesh.GeometricComplex", init)
        self._installed.append((geometric, "__init__", init))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []
