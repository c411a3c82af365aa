"""Configuration-driven command line driver.

Subcommands: ``convergence`` (refinement study, CSV table),
``simulate`` (single run, diagnostics CSV + VTK snapshots) and
``weights-dump`` (print the memory quadrature weight table).  Runs are
described by an INI-style ``key = value`` config file.  ``_KEYS`` maps
each (section, key) to its cast and to a field of ``RunConfig``,
``ModelParams`` or ``KernelSpec``; the defaults and the checks of each
field live in its dataclass.  Every bad config (unknown section or key,
a value that does not cast, a value a dataclass rejects, a bad
``--levels`` override, a key that the run would ignore, such as
``[kernel] kind`` or ``mu`` for a ``convergence`` or ``simulate`` run
with eta = 0) is a config error naming the offending line.
Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import mms, vtk_io
from .errors import ConfigError, SingularMatrixError, StepFailureError
from .forms import ModelParams, nonlinear_quad_degree
from .kernel import KernelSpec, memory_weights
from .mesh import generate_rect_mesh
from .solver import BackwardEulerSolver, TimeGrid
from .space_dg import EDGE_QUAD_DEGREE

__all__ = ["RunConfig", "parse_config", "cmd_convergence", "cmd_simulate",
           "cmd_weights_dump", "main"]

_CASES = ("type1", "type2", "traveling_wave", "spiral")
#: section -> the one case that reads it
_CASE_SECTIONS = {"fhn": "spiral", "traveling_wave": "traveling_wave"}


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
    model: ModelParams = field(default_factory=ModelParams)
    kernel: KernelSpec | None = None
    newton_tol: float = 1e-10
    newton_cap: int = 25
    fhn_eps: float | None = None
    fhn_rho: float | None = None
    reynolds: float = 50.0
    seed: int = 0
    config_hash: str = ""

    def __post_init__(self):
        # one field per check, so a config error can name its line
        for name, allowed in (("scheme", tuple(mms.SPACES)), ("case", _CASES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        for name in ("mesh_n", "n_steps", "t_final", "dt_coupling", "snapshot_interval"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if self.levels < 2:
            raise ValueError(f"levels must be at least 2, got {self.levels!r}")
        d = self.domain
        if len(d) != 4 or not (math.inf > d[2] > d[0] > -math.inf
                               and math.inf > d[3] > d[1] > -math.inf):
            raise ValueError("domain needs 4 finite numbers xmin ymin xmax ymax with "
                             f"xmax > xmin and ymax > ymin, got {d!r}")
        if not self.newton_tol > 0:
            raise ValueError(f"newton tol must be positive, got {self.newton_tol!r}")
        if self.newton_cap < 1:
            raise ValueError(f"newton max_iter must be at least 1, got {self.newton_cap!r}")
        if not 0 < self.reynolds < math.inf:
            raise ValueError(f"reynolds must be positive and finite, got {self.reynolds!r}")
        if self.fhn_eps is not None and not 0 < self.fhn_eps < math.inf:
            raise ValueError(f"fhn eps must be positive and finite, got {self.fhn_eps!r}")
        if self.fhn_rho is not None and not 0 <= self.fhn_rho < math.inf:
            raise ValueError(f"fhn rho must be nonnegative and finite, got {self.fhn_rho!r}")


def _domain(raw):
    return tuple(float(p) for p in raw.replace(",", " ").split())


#: (section, key) -> (dataclass, field, cast) for every config key
_KEYS = {
    ("run", "scheme"): (RunConfig, "scheme", str.lower),
    ("run", "case"): (RunConfig, "case", str.lower),
    ("run", "mesh_n"): (RunConfig, "mesh_n", int),
    ("run", "levels"): (RunConfig, "levels", int),
    ("run", "t_final"): (RunConfig, "t_final", float),
    ("run", "n_steps"): (RunConfig, "n_steps", int),
    ("run", "dt_coupling"): (RunConfig, "dt_coupling", float),
    ("run", "domain"): (RunConfig, "domain", _domain),
    ("run", "out_dir"): (RunConfig, "out_dir", Path),
    ("run", "snapshot_interval"): (RunConfig, "snapshot_interval", float),
    ("model", "nu"): (ModelParams, "nu", float),
    ("model", "alpha"): (ModelParams, "alpha", float),
    ("model", "beta"): (ModelParams, "beta", float),
    ("model", "reaction_gamma"): (ModelParams, "reaction_gamma", float),
    ("model", "delta"): (ModelParams, "delta", int),
    ("model", "eta"): (ModelParams, "eta", float),
    ("model", "penalty_gamma"): (ModelParams, "penalty_gamma", float),
    ("kernel", "kind"): (KernelSpec, "kind", str),
    ("kernel", "mu"): (KernelSpec, "mu", float),
    ("kernel", "caputo_order"): (KernelSpec, "caputo_order", float),
    ("newton", "tol"): (RunConfig, "newton_tol", float),
    ("newton", "max_iter"): (RunConfig, "newton_cap", int),
    ("fhn", "eps"): (RunConfig, "fhn_eps", float),
    ("fhn", "rho"): (RunConfig, "fhn_rho", float),
    ("traveling_wave", "reynolds"): (RunConfig, "reynolds", float),
}


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


def _build(path, cls, values, **fixed):
    """``cls(**values, **fixed)``.  A ValueError is reported at the line of
    the first field of ``values`` that ``cls`` rejects on its own, with
    that rejection's message."""
    try:
        return cls(**values, **fixed)
    except ValueError as exc:
        for name, value in values.items():
            try:
                cls(**{name: value})
            except ValueError as own:
                section, key = next(k for k, v in _KEYS.items() if v[:2] == (cls, name))
                _fail(path, str(own), key, section)
        _fail(path, str(exc))


def parse_config(path):
    """Read and validate a config file; unknown keys are rejected."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:   # a duplicate key or section has a line
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"{path}:{line}: {exc}" if line else f"{path}: {exc}") from exc

    values = {RunConfig: {}, ModelParams: {}, KernelSpec: {}}
    for section in cp.sections():
        if not any(section == s for s, _ in _KEYS):
            _fail(path, f"unknown section [{section}]", section)
        for key, raw in cp[section].items():
            if (section, key) not in _KEYS:
                _fail(path, f"unknown key '{key}' in section [{section}]", key, section)
            cls, name, cast = _KEYS[section, key]
            try:
                values[cls][name] = cast(raw)
            except (TypeError, ValueError) as exc:
                _fail(path, f"bad value for {section}.{key}: {raw!r} ({exc})", key, section)

    model = _build(path, ModelParams, values[ModelParams])
    kernel = None
    if cp.has_section("kernel") or model.eta > 0.0:
        kernel = _build(path, KernelSpec, values[KernelSpec])
    cfg = _build(path, RunConfig, values[RunConfig], model=model, kernel=kernel,
                 config_hash=hashlib.sha256(path.read_bytes()).hexdigest())
    for section, owner in _CASE_SECTIONS.items():
        if cfg.case != owner and cp.has_section(section) and cp[section]:
            key = next(iter(cp[section]))
            _fail(path, f"{key} must be unset for case {cfg.case} "
                  f"([{section}] is read only for case {owner})", key, section)
    if kernel is not None and kernel.kind == "constant" and "mu" in values[KernelSpec]:
        _fail(path, "mu must be unset for kernel kind constant (its exponent is 0)",
              "mu", "kernel")
    if cfg.case == "spiral" and (cfg.fhn_eps is None or cfg.fhn_rho is None):
        _fail(path, "case=spiral requires [fhn] eps and rho (no defaults)", "case", "run")
    if cfg.case == "traveling_wave":
        if kernel is not None and kernel.caputo_order is not None:
            _fail(path, "caputo_order must be unset for case traveling_wave "
                  "(its forcing has no Caputo term)", "caputo_order", "kernel")
        if "nu" in values[ModelParams]:
            _fail(path, "nu must be unset for case traveling_wave "
                  "(it is 1 / [traveling_wave] reynolds)", "nu", "model")
        cfg.model = replace(model, nu=1.0 / cfg.reynolds)
    return cfg


def _case_for(cfg):
    """The manufactured case of ``cfg.case``; KeyError for spiral, which has none."""
    if cfg.case == "traveling_wave":
        return mms.traveling_wave(cfg.reynolds)
    return {"type1": mms.type_one, "type2": mms.type_two}[cfg.case]()


def _solver_options(cfg):
    """Keyword arguments that ``convergence_study`` and
    ``BackwardEulerSolver`` take alike."""
    return dict(kernel_spec=cfg.kernel, newton_tol=cfg.newton_tol,
                newton_cap=cfg.newton_cap)


def _metadata_lines(cfg, extra=()):
    m = cfg.model
    lines = [
        f"# config_sha256 = {cfg.config_hash}",
        f"# scheme = {cfg.scheme}",
        f"# case = {cfg.case}",
        f"# nu = {m.nu!r}  alpha = {m.alpha!r}  beta = {m.beta!r}  "
        f"reaction_gamma = {m.reaction_gamma!r}  delta = {m.delta}  eta = {m.eta!r}",
        f"# penalty_gamma = {m.penalty_gamma!r}",
        f"# quad_volume_degree = {nonlinear_quad_degree(m.delta)}  "
        f"quad_edge_degree = {EDGE_QUAD_DEGREE}  error_degree = {mms.ERROR_QUAD_DEGREE}",
        f"# newton_tol = {cfg.newton_tol!r}  newton_cap = {cfg.newton_cap}",
        f"# seed = {cfg.seed}",
    ]
    k = cfg.kernel
    if k is None:
        lines.append("# kernel = none")
    elif m.eta == 0.0 and k.caputo_order is not None:   # without memory only this is read
        lines.append(f"# kernel = caputo_order={k.caputo_order!r}")
    else:
        lines.append(f"# kernel = {k.kind} mu={k.mu!r} caputo_order={k.caputo_order!r} "
                     "weights=power-law-closed-form")
    lines.extend(extra)
    return lines


def _f17(x):
    return "" if x is None else f"{float(x):.17g}"


def cmd_convergence(cfg):
    case = _case_for(cfg)
    result = mms.convergence_study(
        case, cfg.scheme, cfg.model, levels=cfg.levels, base_n=cfg.mesh_n,
        coupling=cfg.dt_coupling, t_final=cfg.t_final, box=cfg.domain,
        **_solver_options(cfg))

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
    print("\n".join(lines))
    return 0


def _initial_spiral(cfg):
    xmin, ymin, xmax, ymax = cfg.domain
    xm, ym = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    return (lambda x: np.where(x[:, 1] >= ym, 1.0, 0.0),
            lambda x: np.where(x[:, 0] >= xm, 0.4, 0.0))


def cmd_simulate(cfg):
    mesh = generate_rect_mesh(cfg.domain, cfg.mesh_n)
    space = mms.SPACES[cfg.scheme](mesh)
    grid = TimeGrid(cfg.t_final, cfg.n_steps)

    if cfg.case == "spiral":
        u0, v0 = _initial_spiral(cfg)
        setup = dict(u0=u0, fhn=(cfg.fhn_eps, cfg.fhn_rho), v0=v0)
    else:
        case = _case_for(cfg)
        case.self_check(box=cfg.domain)
        setup = dict(forcing=mms.forcing(case, cfg.model, cfg.kernel), u0=case.initial,
                     bc=None if case.homogeneous_bc else case.boundary)
    solver = BackwardEulerSolver(space, cfg.model, grid, **setup, **_solver_options(cfg))
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
            cfg = replace(cfg, out_dir=Path(args.out))
        if args.levels is not None:
            try:
                cfg = replace(cfg, levels=args.levels)
            except ValueError as exc:
                raise ConfigError(f"{args.config}: --levels {args.levels}: {exc}") from exc
        if args.func is not cmd_weights_dump and cfg.model.eta == 0.0:
            # without memory a run reads the kernel's caputo_order alone
            for key in ("kind", "mu"):
                if _find_line(args.config, key, "kernel"):
                    _fail(args.config, f"{key} must be unset when eta = 0 (only the "
                          "memory term and weights-dump read it)", key, "kernel")
        if args.func is cmd_convergence:
            if cfg.case == "spiral":
                _fail(args.config, "case 'spiral' has no manufactured solution", "case", "run")
            try:
                mms.study_level(0, cfg.domain, cfg.mesh_n, cfg.dt_coupling, cfg.t_final)
            except ValueError as exc:
                _fail(args.config, f"{exc} (dt = dt_coupling * h; level 0 is the coarsest)",
                      "t_final", "run")
        return args.func(replace(cfg, seed=args.seed))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StepFailureError, SingularMatrixError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
