"""Span tracing of gbhfem's public functions, from outside the program.

``Tracer.install`` replaces every public function of every gbhfem module
in each namespace where a caller looks it up (``gbhfem.mms.
generate_rect_mesh``, ``gbhfem.solver.memory_weights``, ...) and every
public method and ``__init__`` of its classes.  SuperLU is reached through
a stand-in for ``gbhfem.linalg.spla`` whose ``splu`` times the
factorization and hands back a factor whose ``solve`` is timed too.

Each call records a span [name, start, end, parent index] in ``spans``;
``layer_metrics`` reads them after the run.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

#: The package modules; a span's layer is the module that defines it.
LAYERS = ("mesh", "quadrature", "space_cr", "space_dg", "forms", "kernel",
          "linalg", "solver", "mms", "vtk_io", "cli")

#: Span of the tracer's own work (reading factor fill); not a program layer.
FILL_READ = "trace.fill_read"

CONVECTION = ("forms.convection_cr", "forms.convection_dg")
CONSTANT_FORMS = ("forms.assemble_mass", "forms.assemble_stiffness_cr",
                  "forms.assemble_stiffness_dg", "forms.dg_norm_matrix")
ERRORS = ("mms.error_l2", "mms.error_linf_l2", "mms.error_energy")
SPACES = ("space_cr.CRSpace.__init__", "space_dg.DGSpace.__init__")
WEIGHTS = ("kernel.memory_weights", "kernel.caputo_weights")
VTK = ("vtk_io.write_mesh_vtk", "vtk_io.write_cr_vtk", "vtk_io.write_dg_vtk")
RUN = "solver.BackwardEulerSolver.run"
STEP = "solver.BackwardEulerSolver.step"
SOLVE = "linalg.solve"


class _Factor:
    """SuperLU factor whose triangular solves are traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _Module:
    """Stand-in for a module with some attributes replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index]
        self._stack = [-1]
        self._undo = []
        self.fill_nnz = []        # nnz(L) + nnz(U) of every factorization
        self.vtk_bytes = 0

    # -- recording ---------------------------------------------------------

    def traced(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"gbhfem.{layer}") for layer in LAYERS}
        wrapped = {}                      # id(original function) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.traced(f"{layer}.{name}", obj)
                    if name == "forcing" and layer == "mms":
                        wrapper = self._forcing(wrapper)
                    elif layer == "vtk_io":
                        wrapper = self._count_bytes(wrapper)
                    wrapped[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr == "__init__"
                                                       or not attr.startswith("_")):
                            self._set(obj, attr, self.traced(f"{layer}.{name}.{attr}", fn))

        for mod in (importlib.import_module("gbhfem"), *modules.values()):
            for name, obj in list(vars(mod).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if original is obj:
                    self._set(mod, name, wrapper)

        linalg = modules["linalg"]
        self._set(linalg, "spla", _Module(linalg.spla, splu=self._splu(linalg.spla.splu)))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _forcing(self, make_forcing):
        @functools.wraps(make_forcing)
        def forcing(*args, **kwargs):
            return self.traced("mms.forcing_eval", make_forcing(*args, **kwargs))
        return forcing

    def _count_bytes(self, write):
        signature = inspect.signature(write)

        @functools.wraps(write)
        def counted(*args, **kwargs):
            out = write(*args, **kwargs)
            path = signature.bind(*args, **kwargs).arguments.get("path")
            if path is not None:
                self.vtk_bytes += os.path.getsize(path)
            return out
        return counted

    def _splu(self, splu):
        factor = self.traced("linalg.factor", splu)
        read_fill = self.traced(FILL_READ, lambda lu: lu.L.nnz + lu.U.nnz)

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            self.fill_nnz.append(int(read_fill(lu)))
            return _Factor(lu, self.traced("linalg.trisolve", lu.solve))
        return traced_splu

    # -- reading -----------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer counts and times of the recorded spans.

        ``wall_s`` is the traced wall time of the workload; the share of it
        that the layers' self times cover is reported as ``trace.coverage``.
        """
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        self_s = list(dur)
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self_s[s[3]] -= dur[i]
                children[s[3]].append(i)

        def outermost(names):
            names = set(names)
            return [i for i, s in enumerate(spans)
                    if s[0] in names and (s[3] < 0 or spans[s[3]][0] not in names)]

        def total(*names):
            return sum(dur[i] for i in outermost(names))

        def calls(*names):
            return sum(1 for s in spans if s[0] in names)

        def own(*names):
            return sum(self_s[i] for i, s in enumerate(spans) if s[0] in names)

        steps = [i for i, s in enumerate(spans) if s[0] == STEP]
        newton = [sum(1 for c in children[i] if spans[c][0] == SOLVE) for i in steps]
        solves = [i for i, s in enumerate(spans) if s[0] == SOLVE]
        refines = sum(max(0, sum(1 for c in children[i] if spans[c][0] == "linalg.trisolve") - 1)
                      for i in solves)

        m = {
            "linalg.factor.s": total("linalg.factor"),
            "linalg.factor.calls": calls("linalg.factor"),
            "linalg.factor.fill_nnz": (round(sum(self.fill_nnz) / len(self.fill_nnz))
                                       if self.fill_nnz else 0),
            "linalg.trisolve.s": total("linalg.trisolve"),
            "linalg.solve.s": total(SOLVE),
            "linalg.solve.calls": calls(SOLVE),
            "linalg.refine.calls": refines,
            "forms.convection.s": total(*CONVECTION),
            "forms.convection.calls": calls(*CONVECTION),
            "forms.reaction.s": total("forms.reaction"),
            "forms.reaction.calls": calls("forms.reaction"),
            "forms.assemble_load.self_s": own("forms.assemble_load"),
            "forms.constant.s": total(*CONSTANT_FORMS),
            "mms.forcing_eval.s": total("mms.forcing_eval"),
            "mms.forcing_eval.calls": calls("mms.forcing_eval"),
            "mms.errors.s": total(*ERRORS),
            "mms.self_check.s": total("mms.ManufacturedCase.self_check"),
            "solver.run.s": total(RUN),
            "solver.run.self_s": own(RUN),
            "solver.step.calls": len(steps),
            "solver.step.self_s": own(STEP),
            "solver.newton_iters.total": sum(newton),
            "solver.newton_iters.max": max(newton, default=0),
            "solver.stability_check.s": total("solver.stability_check"),
            "mesh.generate_rect_mesh.s": total("mesh.generate_rect_mesh"),
            "space.construct.s": total(*SPACES),
            "space_dg.face_data.s": total("space_dg.DGSpace.face_data"),
            "kernel.weights.s": total(*WEIGHTS),
            "vtk_io.write.s": total(*VTK),
            "vtk_io.bytes": self.vtk_bytes,
        }
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for i, s in enumerate(spans):
            layer = s[0].split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_s[i]
                layer_calls[layer] += 1
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.calls"] = layer_calls[layer]
        m["trace.wall_s"] = wall_s
        m["trace.fill_read_s"] = total(FILL_READ)
        m["trace.coverage"] = sum(layer_self.values()) / wall_s
        m["trace.spans"] = len(spans)
        return m
