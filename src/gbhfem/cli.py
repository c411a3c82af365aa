"""Configuration-driven command line driver.

Subcommands: ``convergence`` (refinement study, CSV table),
``simulate`` (single run, diagnostics CSV + VTK snapshots) and
``weights-dump`` (print the memory quadrature weight table).  Runs are
described by an INI-style ``key = value`` config file; unknown sections
or keys are rejected with the offending line.  Exit codes: 0 success,
2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mms, vtk_io
from .errors import ConfigError, SingularMatrixError, StepFailureError
from .forms import ModelParams, nonlinear_quad_degree
from .kernel import KernelSpec, memory_weights
from .mesh import generate_rect_mesh
from .solver import BackwardEulerSolver, TimeGrid

__all__ = ["RunConfig", "parse_config", "cmd_convergence", "cmd_simulate",
           "cmd_weights_dump", "main"]

_SCHEMA = {
    "run": {"scheme", "case", "mesh_n", "levels", "t_final", "n_steps",
            "dt_coupling", "domain", "out_dir", "snapshot_interval",
            "linear_solver"},
    "model": {"nu", "alpha", "beta", "reaction_gamma", "delta", "eta",
              "penalty_gamma"},
    "kernel": {"kind", "mu", "caputo_order"},
    "newton": {"tol", "max_iter"},
    "fhn": {"eps", "rho"},
    "traveling_wave": {"reynolds"},
}

_CASES = ("type1", "type2", "traveling_wave", "spiral")


@dataclass
class RunConfig:
    """Validated run description, defaults already applied."""

    scheme: str = "cr"
    case: str = "type1"
    mesh_n: int = 8
    levels: int = 3
    t_final: float = 1.0
    n_steps: int = 32
    dt_coupling: float = 0.25
    domain: tuple = (0.0, 0.0, 1.0, 1.0)
    out_dir: Path = Path(".")
    snapshot_interval: float = 0.25
    linear_solver: str = "gmres"
    model: ModelParams = field(default_factory=ModelParams)
    kernel: KernelSpec | None = None
    newton_tol: float = 1e-10
    newton_cap: int = 25
    fhn_eps: float | None = None
    fhn_rho: float | None = None
    reynolds: float = 50.0
    seed: int = 0
    config_hash: str = ""
    source: Path | None = None


def _find_line(path, key, section=None):
    """Line of the option ``key`` (within ``section`` if given) or of the
    section header ``[key]``; comment lines never match."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return None
    current = None
    for i, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        if text.startswith("["):
            current = text[1:text.find("]")].strip()
            if current == key:
                return i
        elif (re.split(r"[=:]", text, maxsplit=1)[0].strip().lower() == key
              and section in (None, current)):
            return i
    return None


def _fail(path, message, key=None, section=None):
    line = _find_line(path, key, section) if key else None
    where = f"{path}:{line}" if line else str(path)
    raise ConfigError(f"{where}: {message}")


def _build(path, section, cls, values):
    """``cls(**values)``; a ValueError is reported at the line of the first
    field that ``cls`` rejects on its own."""
    try:
        return cls(**values)
    except ValueError as exc:
        key = next((k for k in values if _rejects(cls, k, values[k])), None)
        _fail(path, str(exc), key, section)


def _rejects(cls, key, value):
    try:
        cls(**{key: value})
    except ValueError:
        return True
    return False


def parse_config(path):
    """Read and validate a config file; unknown keys are rejected."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            _fail(path, f"unknown section [{section}]", section)
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                _fail(path, f"unknown key '{key}' in section [{section}]", key, section)

    cfg = RunConfig()
    cfg.source = path
    cfg.config_hash = hashlib.sha256(path.read_bytes()).hexdigest()

    def get(section, key, cast, default):
        if cp.has_option(section, key):
            raw = cp.get(section, key)
            try:
                return cast(raw)
            except (TypeError, ValueError) as exc:
                _fail(path, f"bad value for {section}.{key}: {raw!r} ({exc})", key, section)
        return default

    cfg.scheme = get("run", "scheme", str, cfg.scheme).lower()
    if cfg.scheme not in mms.SPACES:
        _fail(path, f"scheme must be cr or dg, got {cfg.scheme!r}", "scheme", "run")
    cfg.case = get("run", "case", str, cfg.case).lower()
    if cfg.case not in _CASES:
        _fail(path, f"case must be one of {_CASES}, got {cfg.case!r}", "case", "run")
    cfg.mesh_n = get("run", "mesh_n", int, cfg.mesh_n)
    cfg.levels = get("run", "levels", int, cfg.levels)
    cfg.t_final = get("run", "t_final", float, cfg.t_final)
    cfg.n_steps = get("run", "n_steps", int, cfg.n_steps)
    cfg.dt_coupling = get("run", "dt_coupling", float, cfg.dt_coupling)
    cfg.snapshot_interval = get("run", "snapshot_interval", float, cfg.snapshot_interval)
    cfg.linear_solver = get("run", "linear_solver", str, cfg.linear_solver)
    if cfg.linear_solver not in ("lu", "gmres"):
        _fail(path, "linear_solver must be lu or gmres", "linear_solver", "run")
    cfg.out_dir = Path(get("run", "out_dir", str, str(cfg.out_dir)))
    domain_raw = get("run", "domain", str, None)
    if domain_raw is not None:
        parts = [p for p in domain_raw.replace(",", " ").split() if p]
        if len(parts) != 4:
            _fail(path, "domain needs 4 numbers: xmin ymin xmax ymax", "domain", "run")
        cfg.domain = tuple(float(p) for p in parts)
    for key in ("mesh_n", "levels", "n_steps"):
        if getattr(cfg, key) < 1:
            _fail(path, f"{key} must be positive", key, "run")
    if not cfg.t_final > 0:
        _fail(path, "t_final must be positive", "t_final", "run")

    cfg.model = _build(path, "model", ModelParams, dict(
        nu=get("model", "nu", float, 1.0),
        alpha=get("model", "alpha", float, 1.0),
        beta=get("model", "beta", float, 1.0),
        reaction_gamma=get("model", "reaction_gamma", float, 0.5),
        delta=get("model", "delta", int, 1),
        eta=get("model", "eta", float, 0.0),
        penalty_gamma=get("model", "penalty_gamma", float, 40.0),
    ))

    if cp.has_section("kernel") or cfg.model.eta > 0.0:
        cfg.kernel = _build(path, "kernel", KernelSpec, dict(
            kind=get("kernel", "kind", str, "power"),
            mu=get("kernel", "mu", float, 0.5),
            caputo_order=get("kernel", "caputo_order", float, None),
        ))

    cfg.newton_tol = get("newton", "tol", float, 1e-10)
    cfg.newton_cap = get("newton", "max_iter", int, 25)

    if cp.has_section("fhn"):
        cfg.fhn_eps = get("fhn", "eps", float, None)
        cfg.fhn_rho = get("fhn", "rho", float, None)
    if cfg.case == "spiral" and (cfg.fhn_eps is None or cfg.fhn_rho is None):
        _fail(path, "case=spiral requires [fhn] eps and rho (no defaults)", "fhn")

    cfg.reynolds = get("traveling_wave", "reynolds", float, 50.0)
    if cfg.case == "traveling_wave":
        if not cfg.reynolds > 0:
            _fail(path, "reynolds must be positive", "reynolds", "traveling_wave")
        cfg.model = ModelParams(
            nu=1.0 / cfg.reynolds, alpha=cfg.model.alpha, beta=cfg.model.beta,
            reaction_gamma=cfg.model.reaction_gamma, delta=cfg.model.delta,
            eta=cfg.model.eta, penalty_gamma=cfg.model.penalty_gamma)
    return cfg


def _case_for(cfg):
    if cfg.case == "type1":
        return mms.type_one()
    if cfg.case == "type2":
        return mms.type_two()
    if cfg.case == "traveling_wave":
        return mms.traveling_wave(cfg.reynolds)
    raise ConfigError(f"case {cfg.case!r} has no manufactured solution")


def _metadata_lines(cfg, extra=()):
    m = cfg.model
    lines = [
        f"# config_sha256 = {cfg.config_hash}",
        f"# scheme = {cfg.scheme}",
        f"# case = {cfg.case}",
        f"# nu = {m.nu!r}  alpha = {m.alpha!r}  beta = {m.beta!r}  "
        f"reaction_gamma = {m.reaction_gamma!r}  delta = {m.delta}  eta = {m.eta!r}",
        f"# penalty_gamma = {m.penalty_gamma!r}",
        f"# quad_volume_degree = {nonlinear_quad_degree(m.delta)}  quad_edge_degree = 5  "
        f"error_degree = 5",
        f"# newton_tol = {cfg.newton_tol!r}  newton_cap = {cfg.newton_cap}",
        f"# seed = {cfg.seed}",
    ]
    if cfg.kernel is not None:
        lines.append(f"# kernel = {cfg.kernel.kind} mu={cfg.kernel.mu!r} "
                     f"caputo_order={cfg.kernel.caputo_order!r} "
                     f"weights=power-law-closed-form")
    else:
        lines.append("# kernel = none")
    lines.extend(extra)
    return lines


def _f17(x):
    return "" if x is None else f"{float(x):.17g}"


def cmd_convergence(cfg):
    case = _case_for(cfg)
    result = mms.convergence_study(
        case, cfg.scheme, cfg.model,
        levels=cfg.levels, base_n=cfg.mesh_n, coupling=cfg.dt_coupling,
        t_final=cfg.t_final, kernel_spec=cfg.kernel, box=cfg.domain,
        newton_tol=cfg.newton_tol, newton_cap=cfg.newton_cap,
        linear_solver=cfg.linear_solver)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.out_dir / "convergence.csv"
    lines = _metadata_lines(cfg)
    lines.append("level,h,dt,dofs,errL2inf,errEnergy,rateL2,rateEnergy,newton_max")
    for r in result.rows:
        lines.append(",".join([
            str(r.level), _f17(r.h), _f17(r.dt), str(r.dofs),
            _f17(r.err_l2inf), _f17(r.err_energy),
            _f17(r.rate_l2), _f17(r.rate_energy), str(r.newton_max),
        ]))
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    for line in lines:
        print(line)
    return 0


def _initial_spiral(cfg):
    xmin, ymin, xmax, ymax = cfg.domain
    xm, ym = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)

    def u0(x):
        return np.where(x[:, 1] >= ym, 1.0, 0.0)

    def v0(x):
        return np.where(x[:, 0] >= xm, 0.4, 0.0)

    return u0, v0


def cmd_simulate(cfg):
    mesh = generate_rect_mesh(cfg.domain, cfg.mesh_n)
    space = mms.SPACES[cfg.scheme](mesh)
    grid = TimeGrid(cfg.t_final, cfg.n_steps)

    if cfg.case == "spiral":
        u0, v0 = _initial_spiral(cfg)
        solver = BackwardEulerSolver(
            space, cfg.model, grid, forcing=None, u0=u0, bc=None,
            kernel_spec=cfg.kernel, fhn=(cfg.fhn_eps, cfg.fhn_rho), v0=v0,
            newton_tol=cfg.newton_tol, newton_cap=cfg.newton_cap,
            linear_solver=cfg.linear_solver)
    else:
        case = _case_for(cfg)
        case.self_check(box=cfg.domain)
        f = mms.forcing(case, cfg.model, cfg.kernel)
        bc = None if case.homogeneous_bc else case.boundary
        solver = BackwardEulerSolver(
            space, cfg.model, grid, forcing=f, u0=case.initial, bc=bc,
            kernel_spec=cfg.kernel,
            newton_tol=cfg.newton_tol, newton_cap=cfg.newton_cap,
            linear_solver=cfg.linear_solver)

    traj = solver.run()

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    lines = _metadata_lines(cfg, (f"# mesh_n = {cfg.mesh_n}  dofs = {space.n_dofs}",))
    lines.append("step,t,newton_iters,newton_residual,l2_norm,grad_norm,energy_cum")
    for r in traj.records:
        lines.append(",".join([
            str(r.step), _f17(r.time), str(r.newton_iters), _f17(r.newton_residual),
            _f17(r.l2_norm), _f17(r.grad_norm), _f17(r.energy_cum)]))
    (cfg.out_dir / "diagnostics.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    write = getattr(vtk_io, space.vtk_writer)
    snap = 0
    next_t = 0.0
    for k, t in enumerate(traj.times):
        if t >= next_t - 1e-9 * cfg.t_final:
            v = traj.v_fields[k] if traj.v_fields is not None else None
            comment = (f"gbhfem {cfg.scheme} {cfg.case} t={t:.6g} "
                       f"config={cfg.config_hash[:16]}")
            write(space, traj.fields[k], cfg.out_dir / f"snapshot_{snap:04d}.vtk",
                  comment=comment, v=v)
            snap += 1
            next_t += cfg.snapshot_interval
    umin = min(float(np.min(f)) for f in traj.fields)
    umax = max(float(np.max(f)) for f in traj.fields)
    print(f"simulate: {len(traj.fields) - 1} steps, {snap} snapshots, "
          f"u range [{umin:.6g}, {umax:.6g}]")
    return 0


def cmd_weights_dump(cfg):
    spec = cfg.kernel if cfg.kernel is not None else KernelSpec()
    grid = TimeGrid(cfg.t_final, cfg.n_steps)
    w = memory_weights(spec, grid.delta_t, grid.n_steps)
    print(f"# memory weights: kind={spec.kind} mu={spec.mu!r} "
          f"dt={grid.delta_t!r} n={grid.n_steps}")
    print("k,j,omega")
    for k in range(1, grid.n_steps + 1):
        row = w.row(k)
        for j in range(1, k + 1):
            print(f"{k},{j},{row[j - 1]:.17g}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gbhfem",
        description="Finite element solvers for the generalized Burgers'-Huxley "
                    "equation with memory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("convergence", cmd_convergence),
                     ("simulate", cmd_simulate),
                     ("weights-dump", cmd_weights_dump)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--levels", type=int, default=None, help="level count override")
        p.add_argument("--seed", type=int, default=0,
                       help="seed echoed in metadata (property tests only)")
        p.set_defaults(func=fn)

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        if args.levels is not None:
            cfg.levels = args.levels
        cfg.seed = args.seed
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except SingularMatrixError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
