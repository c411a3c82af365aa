"""The benchmark's three workloads, driven through gbhfem's public API.

Each workload has a set-up part (case self-check, mesh, space and solver
construction) and a full run that returns plain-JSON outputs, which
``check`` compares against ``references.json``.  The "mini" scale is a
seconds-long miniature used by the benchmark's own tests.

gbhfem functions are always looked up as module attributes at call time
(``mms.convergence_study``, ``mesh.generate_rect_mesh``, ...), so the
tracer and the set-up probe see every call by patching those attributes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from gbhfem import forms, kernel, mesh, mms, solver, space_cr, space_dg, vtk_io

UNIT = (0.0, 0.0, 1.0, 1.0)
SPIRAL_BOX = (0.0, 0.0, 300.0, 300.0)

# Stored references must survive a change of linear solver or Jacobian at
# Newton tolerance 1e-10 (outputs move by ~1e-10 relative) and must reject
# a wrong discretisation (outputs move by 1e-4 relative or more).
RTOL = 1e-6
ATOL = 1e-12

#: Per-scale inputs.  "full" at seed 0 is exactly the documented workload.
PARAMS = {
    "cr_wave_study": {
        "full": {"reynolds": 100, "base_n": 16, "levels": 2, "coupling": 0.25},
        "mini": {"reynolds": 100, "base_n": 4, "levels": 2, "coupling": 0.25},
    },
    "dg_spiral": {
        "full": {"n": 64, "steps": 8, "snapshot_every": 4, "max_shift": 4},
        "mini": {"n": 8, "steps": 2, "snapshot_every": 1, "max_shift": 1},
    },
    "cr_memory_long": {
        "full": {"n": 16, "steps": 1500},
        "mini": {"n": 4, "steps": 40},
    },
}


def _sqrt_kernel(caputo_order=None):
    return kernel.KernelSpec(kind="power", mu=0.5, caputo_order=caputo_order)


def _params_31(**overrides):
    values = dict(nu=1.0, alpha=1.0, beta=1.0, reaction_gamma=0.5, delta=1, eta=1.0)
    values.update(overrides)
    return forms.ModelParams(**values)


def spiral_shift(seed, max_shift):
    """Whole-cell shifts (dx, dy) of the spiral's split lines; (0, 0) at seed 0."""
    if seed == 0:
        return 0, 0
    dx, dy = np.random.default_rng(seed).integers(-max_shift, max_shift + 1, size=2)
    return int(dx), int(dy)


def inputs(name, scale, seed):
    """Every input of one run, as the JSON object that ``params_hash`` hashes."""
    out = {"workload": name, "scale": scale, **PARAMS[name][scale]}
    if name == "dg_spiral":
        out["shift_cells"] = list(spiral_shift(seed, out["max_shift"]))
    return out


def params_hash(name, scale, seed):
    blob = json.dumps(inputs(name, scale, seed), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- cr_wave_study -----------------------------------------------------------

def _wave_args(p):
    return (mms.traveling_wave(p["reynolds"]), "cr",
            _params_31(nu=1.0 / p["reynolds"]))


def wave_setup(scale, seed):
    """The set-up calls ``convergence_study`` makes before its first step.

    ``convergence_study`` runs set-up and time stepping for every level in
    one call, so a set-up-only run repeats its set-up calls here.
    """
    p = PARAMS["cr_wave_study"][scale]
    case, _, params = _wave_args(p)
    case.self_check(box=UNIT)
    f = mms.forcing(case, params, _sqrt_kernel())
    solvers = []
    for lev in range(p["levels"]):
        n = p["base_n"] * 2**lev
        dt = p["coupling"] / n
        space = space_cr.CRSpace(mesh.generate_rect_mesh(UNIT, n))
        grid = solver.TimeGrid(1.0, int(round(1.0 / dt)))
        solvers.append(solver.BackwardEulerSolver(
            space, params, grid, forcing=f, u0=case.initial, bc=case.boundary,
            kernel_spec=_sqrt_kernel()))
    return solvers


def wave_run(scale, seed, out_dir):
    p = PARAMS["cr_wave_study"][scale]
    case, scheme, params = _wave_args(p)
    result = mms.convergence_study(
        case, scheme, params, levels=p["levels"], base_n=p["base_n"],
        coupling=p["coupling"], kernel_spec=_sqrt_kernel())
    return {
        "err_l2inf": [r.err_l2inf for r in result.rows],
        "err_energy": [r.err_energy for r in result.rows],
        "newton_max": [r.newton_max for r in result.rows],
    }


# -- dg_spiral ---------------------------------------------------------------

def spiral_setup(scale, seed):
    p = PARAMS["dg_spiral"][scale]
    h = (SPIRAL_BOX[2] - SPIRAL_BOX[0]) / p["n"]
    dx, dy = spiral_shift(seed, p["max_shift"])
    x_split, y_split = 150.0 + dx * h, 150.0 + dy * h

    def u0(x):
        return np.where(x[:, 1] >= y_split, 1.0, 0.0)

    def v0(x):
        return np.where(x[:, 0] >= x_split, 0.4, 0.0)

    space = space_dg.DGSpace(mesh.generate_rect_mesh(SPIRAL_BOX, p["n"]))
    params = forms.ModelParams(nu=4.0, alpha=0.1, beta=1.0, reaction_gamma=0.25,
                               delta=1, eta=0.01)
    grid = solver.TimeGrid(float(p["steps"]), p["steps"])      # dt = 1
    return solver.BackwardEulerSolver(
        space, params, grid, forcing=None, u0=u0, v0=v0, fhn=(0.005, 1.0),
        kernel_spec=_sqrt_kernel())


def spiral_run(scale, seed, out_dir):
    p = PARAMS["dg_spiral"][scale]
    sol = spiral_setup(scale, seed)
    traj = sol.run()
    written = 0
    for k in range(0, p["steps"] + 1, p["snapshot_every"]):
        path = os.path.join(out_dir, f"spiral_{k:04d}.vtk")
        vtk_io.write_dg_vtk(sol.space, traj.fields[k], path,
                            comment=f"perfbench dg_spiral t={traj.times[k]:g}",
                            v=traj.v_fields[k])
        written += os.path.getsize(path)
    final = traj.fields[-1]
    return {
        "l2_norm": [r.l2_norm for r in traj.records],
        "grad_norm": [r.grad_norm for r in traj.records],
        "final_u_norm": float(np.linalg.norm(final)),
        "final_v_norm": float(np.linalg.norm(traj.v_fields[-1])),
        "max_abs_u": max(float(np.abs(f).max()) for f in traj.fields),
        "final_variance": float(final.var()),
        "newton_iters": [r.newton_iters for r in traj.records[1:]],
        "vtk_bytes": written,
    }


# -- cr_memory_long ----------------------------------------------------------

def memory_setup(scale, seed):
    p = PARAMS["cr_memory_long"][scale]
    case = mms.type_one()
    params = _params_31()
    spec = _sqrt_kernel(caputo_order=0.5)
    case.self_check(box=UNIT)
    f = mms.forcing(case, params, spec, 0.5)
    space = space_cr.CRSpace(mesh.generate_rect_mesh(UNIT, p["n"]))
    sol = solver.BackwardEulerSolver(
        space, params, solver.TimeGrid(1.0, p["steps"]), forcing=f,
        u0=case.initial, kernel_spec=spec, caputo_order=0.5)
    return case, f, sol


def memory_run(scale, seed, out_dir):
    case, f, sol = memory_setup(scale, seed)
    traj = sol.run()
    space, params = sol.space, sol.params
    stab = solver.stability_check(traj, space, params, f, case.initial)
    return {
        "err_l2inf": mms.error_linf_l2(space, traj, case),
        "err_energy": mms.error_energy(space, traj, case, params),
        "stability_lhs": stab.lhs,
        "stability_rhs": stab.rhs,
        "stability_holds": bool(stab.holds),
    }


SETUP = {"cr_wave_study": wave_setup, "dg_spiral": spiral_setup,
         "cr_memory_long": memory_setup}
RUN = {"cr_wave_study": wave_run, "dg_spiral": spiral_run,
       "cr_memory_long": memory_run}

#: Outputs compared with the stored reference (iteration counts are not:
#: an exact Jacobian or a Krylov solve changes them legitimately).
CHECKED = {
    "cr_wave_study": ("err_l2inf", "err_energy"),
    "dg_spiral": ("l2_norm", "grad_norm", "final_u_norm", "final_v_norm"),
    "cr_memory_long": ("err_l2inf", "err_energy", "stability_lhs", "stability_rhs"),
}


def _close(value, ref):
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref) + ATOL


def check(name, outputs, reference, seed):
    """List of reasons ``outputs`` is wrong; empty when the run is correct.

    ``reference`` holds the stored seed-0 outputs.  Non-zero seeds of
    dg_spiral have no stored reference and are held to criterion 12's
    invariants only; the cr_* workloads ignore the seed.
    """
    failures = []
    if name == "dg_spiral":
        if not outputs["max_abs_u"] <= 2.0:
            failures.append(f"max|u| = {outputs['max_abs_u']!r} exceeds 2")
        if not outputs["final_variance"] > 1e-4:
            failures.append(f"final variance {outputs['final_variance']!r} <= 1e-4")
    if name == "cr_memory_long" and outputs["stability_holds"] is not True:
        failures.append("stability estimate does not hold")
    if name == "dg_spiral" and seed != 0:
        return failures
    for key in CHECKED[name]:
        got, ref = outputs[key], reference[key]
        got_list = got if isinstance(got, list) else [got]
        ref_list = ref if isinstance(ref, list) else [ref]
        if len(got_list) != len(ref_list):
            failures.append(f"{key}: {len(got_list)} values, reference has {len(ref_list)}")
            continue
        for i, (g, r) in enumerate(zip(got_list, ref_list)):
            if not _close(g, r):
                failures.append(f"{key}[{i}] = {g!r}, reference {r!r} (rtol {RTOL:g})")
    return failures
