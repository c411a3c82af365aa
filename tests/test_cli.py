from dataclasses import replace

import numpy as np
import pytest

import gbhfem.mms as mms
from gbhfem.cli import _KEYS, RunConfig, main, parse_config
from gbhfem.errors import ConfigError
from gbhfem.forms import ModelParams
from gbhfem.kernel import KernelSpec

MINIMAL = """\
[run]
scheme = cr
case = type1
mesh_n = 2
levels = 3
n_steps = 4
out_dir = {out}
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL.format(out=tmp_path)))
    assert cfg.model.penalty_gamma == 40.0
    assert cfg.newton_tol == 1e-10
    assert cfg.newton_cap == 25
    assert cfg.model.eta == 0.0
    assert cfg.kernel is None
    assert len(cfg.config_hash) == 64


def test_reaction_gamma_range_rejected(tmp_path):
    text = MINIMAL.format(out=tmp_path) + "[model]\nreaction_gamma = 1.5\n"
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, text))
    assert main(["convergence", "--config", str(write(tmp_path, text))]) == 2


def test_kernel_mu_range_rejected(tmp_path):
    text = MINIMAL.format(out=tmp_path) + "[kernel]\nmu = 1.2\n"
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, text))


def test_unknown_key_rejected_with_location(tmp_path):
    text = MINIMAL.format(out=tmp_path) + "[model]\nfrobnicate = 3\n"
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert "frobnicate" in str(info.value)
    assert str(path) in str(info.value)


def _error_line(path):
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    prefix = f"{path}:"
    assert str(info.value).startswith(prefix), str(info.value)
    return int(str(info.value)[len(prefix):].split(":")[0])


def test_model_error_reported_at_failing_field(tmp_path):
    text = MINIMAL.format(out=tmp_path) + (
        "[model]\n"            # line 8
        "nu = -1\n"            # line 9
        "reaction_gamma = 0.5\n"
        "eta = 0.0\n")
    assert _error_line(write(tmp_path, text)) == 9
    text = MINIMAL.format(out=tmp_path) + (
        "[model]\n"
        "nu = 1.0\n"
        "reaction_gamma = 0.5\n"
        "delta = 0\n")         # line 11
    assert _error_line(write(tmp_path, text)) == 11


def test_error_location_matches_whole_keys_outside_comments(tmp_path):
    # beta contains "eta"; the comment mentions mu before the mu line
    text = MINIMAL.format(out=tmp_path) + (
        "[model]\n"
        "beta = 1.0\n"
        "eta = -1.0\n"         # line 10
        "[kernel]\n"
        "# mu is the kernel exponent\n")
    assert _error_line(write(tmp_path, text)) == 10
    text = MINIMAL.format(out=tmp_path) + (
        "[kernel]\n"
        "# mu is the kernel exponent\n"
        "mu = 1.2\n")          # line 10
    assert _error_line(write(tmp_path, text)) == 10


def test_nonpositive_reynolds_is_a_config_error(tmp_path):
    text = MINIMAL.format(out=tmp_path).replace("type1", "traveling_wave") + (
        "[traveling_wave]\n"
        "reynolds = 0\n")      # line 9
    path = write(tmp_path, text)
    assert _error_line(path) == 9
    assert main(["convergence", "--config", str(path)]) == 2


def test_missing_file(tmp_path):
    assert main(["convergence", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_spiral_requires_fhn_params(tmp_path):
    text = """\
[run]
scheme = dg
case = spiral
mesh_n = 4
n_steps = 2
t_final = 2
domain = 0, 0, 300, 300
"""
    assert main(["convergence", "--config", str(write(tmp_path, text))]) == 2


def test_convergence_csv_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    text = """\
[run]
scheme = cr
case = type1
mesh_n = 2
levels = 3
dt_coupling = 0.25

[model]
alpha = 0
beta = 0
"""
    cfg_path = write(tmp_path, text)
    assert main(["convergence", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["convergence", "--config", str(cfg_path), "--out", str(out2)]) == 0
    csv1 = (out1 / "convergence.csv").read_bytes()
    csv2 = (out2 / "convergence.csv").read_bytes()
    assert csv1 == csv2
    body = [l for l in csv1.decode().splitlines() if not l.startswith("#")]
    assert body[0].startswith("level,h,dt,dofs,")
    assert len(body) == 4  # header + 3 levels
    last = body[-1].split(",")
    assert float(last[7]) > 0.5  # energy rate present and sensible


def test_simulate_outputs_byte_identical_with_preconditioner_refreshes(tmp_path, monkeypatch):
    # a DG spiral whose GMRES solves refresh the preconditioner factor
    # writes the same diagnostics.csv and VTK bytes on every run
    import gbhfem.linalg as linalg
    factorize = linalg.factorize
    factored = []
    monkeypatch.setattr(linalg, "factorize", lambda A: factored.append(1) or factorize(A))
    text = """\
[run]
scheme = dg
case = spiral
mesh_n = 8
n_steps = 3
t_final = 3
domain = 0, 0, 300, 300
snapshot_interval = 1

[model]
nu = 4
alpha = 0.1
beta = 1
reaction_gamma = 0.25
eta = 0.01

[kernel]
mu = 0.5

[fhn]
eps = 0.005
rho = 1
"""
    cfg = write(tmp_path, text)
    outputs = []
    for name in ("a", "b"):
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        files = sorted((tmp_path / name).iterdir())
        outputs.append({f.name: f.read_bytes() for f in files})
    assert len(factored) > 2                  # one L_base factor per run, plus refreshes
    assert "diagnostics.csv" in outputs[0] and len(outputs[0]) == 5
    assert outputs[0] == outputs[1]


def test_caputo_flag_changes_results(tmp_path):
    base = """\
[run]
scheme = cr
case = type1
mesh_n = 2
levels = 2

[model]
eta = 1.0

[kernel]
kind = power
mu = 0.5
{caputo}
"""
    outs = []
    for i, cap in enumerate(("", "caputo_order = 0.5")):
        out = tmp_path / f"o{i}"
        cfg = write(tmp_path, base.format(caputo=cap), name=f"c{i}.cfg")
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        outs.append([l for l in lines if not l.startswith("#")])
    assert outs[0][1] != outs[1][1]  # the fractional term changes the errors


def test_simulate_traveling_wave(tmp_path):
    out = tmp_path / "tw"
    text = f"""\
[run]
scheme = cr
case = traveling_wave
mesh_n = 16
n_steps = 64
t_final = 1.0
snapshot_interval = 0.25

[model]
eta = 0.0

[traveling_wave]
reynolds = 50
"""
    cfg = write(tmp_path, text)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    snaps = sorted(out.glob("snapshot_*.vtk"))
    assert len(snaps) == 5  # floor(T / interval) + 1
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert any(l.startswith("# config_sha256") for l in diag)
    body = [l for l in diag if not l.startswith("#")]
    assert len(body) == 1 + 65  # header + N+1 records
    # all dof values stay within the sigmoid range up to discrete wiggle
    txt = snaps[-1].read_text().splitlines()
    start = next(i for i, l in enumerate(txt) if l.startswith("u_edge_midpoints"))
    count = int(txt[start].split()[2])
    vals = np.array([float(v) for v in txt[start + 1 : start + 1 + count]])
    assert vals.min() >= -0.05 and vals.max() <= 1.05


@pytest.mark.parametrize("scheme", ["cr", "dg"])
def test_simulate_traveling_wave_planar_forcing_byte_identical(tmp_path, monkeypatch, scheme):
    # the forcing evaluated once per distinct x + y writes the same
    # diagnostics.csv and VTK bytes as the per-point forcing
    text = f"""\
[run]
scheme = {scheme}
case = traveling_wave
mesh_n = 8
n_steps = 16
t_final = 1.0
snapshot_interval = 0.25

[model]
eta = 1.0

[traveling_wave]
reynolds = 50
"""
    cfg = write(tmp_path, text)
    reductions = []
    reduce = mms._planar_reduction
    monkeypatch.setattr(mms, "_planar_reduction", lambda x: reductions.append(x) or reduce(x))

    def simulate(name):
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

    def per_point_wave(reynolds, wave=mms.traveling_wave):
        case = wave(reynolds)
        case.planar = False
        return case

    outputs = [simulate("planar")]
    monkeypatch.setattr(mms, "traveling_wave", per_point_wave)
    outputs.append(simulate("per_point"))
    assert len(reductions) == 1
    assert "diagnostics.csv" in outputs[0] and len(outputs[0]) == 1 + 5
    assert outputs[0] == outputs[1]


def test_simulate_dg_snapshot(tmp_path):
    out = tmp_path / "dg"
    text = """\
[run]
scheme = dg
case = type1
mesh_n = 2
n_steps = 2
t_final = 0.5
snapshot_interval = 0.25
"""
    cfg = write(tmp_path, text)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    snap = (out / "snapshot_0000.vtk").read_text().splitlines()
    assert snap[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in snap
    ncells = 2 * 2 * 2
    assert f"POINTS {3 * ncells} double" in snap
    assert f"POINT_DATA {3 * ncells}" in snap


def test_weights_dump(tmp_path, capsys):
    text = """\
[run]
scheme = cr
case = type1
n_steps = 4
t_final = 1.0

[kernel]
kind = power
mu = 0.5
"""
    cfg = write(tmp_path, text)
    assert main(["weights-dump", "--config", str(cfg)]) == 0
    outp = capsys.readouterr().out.splitlines()
    assert outp[1] == "k,j,omega"
    rows = [l.split(",") for l in outp[2:]]
    assert len(rows) == 4 + 3 + 2 + 1
    diag = float(next(r[2] for r in rows if r[0] == "1" and r[1] == "1"))
    assert abs(diag - (4.0 / 3.0) * 2.0) < 1e-12  # dt = 1/4 -> (4/3)/sqrt(dt)


def test_solver_failure_exit_code(tmp_path):
    # one Newton iteration cannot absorb a large step of the stiff reaction
    text = """\
[run]
scheme = cr
case = type1
mesh_n = 2
n_steps = 1
t_final = 1.0

[model]
beta = 50

[newton]
max_iter = 1
"""
    cfg = write(tmp_path, text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_non_finite_residual_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mms, "forcing", lambda *a, **kw: lambda x, t: np.full(len(x), np.nan))
    cfg = write(tmp_path, MINIMAL.format(out=tmp_path / "o"))
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert "step 1: residual is not finite" in capsys.readouterr().err


def test_unknown_scheme_is_a_config_error(tmp_path):
    text = MINIMAL.format(out=tmp_path).replace("scheme = cr", "scheme = fem")
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(write(tmp_path, text))


def test_convergence_rejects_spiral(tmp_path, capsys):
    text = """\
[run]
scheme = dg
case = spiral
mesh_n = 4
n_steps = 2
t_final = 2

[fhn]
eps = 0.01
rho = 1.0
"""
    path = write(tmp_path, text)
    assert main(["convergence", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:{_key_line(text, 'case')}: "), err
    assert "spiral" in err


BAD_BASE = """\
[run]
scheme = cr
case = {case}
mesh_n = 2
n_steps = 2
{extra}"""

# (case, lines appended to [run] and after it, offending key)
BAD_CONFIGS = {
    "levels": ("type1", "levels = 1\n", "levels"),
    "domain_cast": ("type1", "domain = a, b, c, d\n", "domain"),
    "domain_order": ("type1", "domain = 1, 0, 0, 1\n", "domain"),
    "dt_coupling": ("type1", "dt_coupling = -0.25\n", "dt_coupling"),
    "t_final_inf": ("type1", "t_final = inf\n", "t_final"),
    "domain_inf": ("type1", "domain = 0, 0, inf, 1\n", "domain"),
    "caputo_wave": ("traveling_wave", "[kernel]\ncaputo_order = 0.5\n", "caputo_order"),
    "newton_tol": ("type1", "[newton]\ntol = -1\n", "tol"),
    "newton_max_iter": ("type1", "[newton]\nmax_iter = 0\n", "max_iter"),
    "newton_both": ("type1", "[newton]\ntol = -1\nmax_iter = 0\n", "tol"),
    "newton_both_reversed": ("type1", "[newton]\nmax_iter = 0\ntol = -1\n", "max_iter"),
    "snapshot_interval": ("type1", "snapshot_interval = -1\n", "snapshot_interval"),
    "reynolds_inf": ("traveling_wave", "[traveling_wave]\nreynolds = inf\n", "reynolds"),
    "kernel_callable": ("type1", "[kernel]\nkind = callable\n", "kind"),
    "linear_solver": ("type1", "linear_solver = lu\n", "linear_solver"),
    "alpha_nan": ("type1", "[model]\nalpha = nan\n", "alpha"),
    "eta_nan": ("type1", "[model]\neta = nan\n", "eta"),
    "nu_inf": ("type1", "[model]\nnu = inf\n", "nu"),
    "nu_wave": ("traveling_wave", "[model]\nnu = 0.3\n", "nu"),
    "reynolds_type1": ("type1", "[traveling_wave]\nreynolds = 7\n", "reynolds"),
    "fhn_type1": ("type1", "[fhn]\neps = 0.1\nrho = 1.0\n", "eps"),
    "mu_constant": ("type1", "[kernel]\nkind = constant\nmu = 0.7\n", "mu"),
    "delta_4": ("type1", "[model]\ndelta = 4\n", "delta"),
    "mu_without_memory": ("type1", "[kernel]\nmu = 0.3\n", "mu"),
    "kind_without_memory": ("type1", "[kernel]\nkind = constant\n", "kind"),
    "mu_caputo_without_memory": ("type1", "[kernel]\ncaputo_order = 0.5\nmu = 0.3\n", "mu"),
}


def _key_line(text, key):
    return next(i for i, line in enumerate(text.splitlines(), start=1)
                if line.split("=")[0].strip() == key)


@pytest.mark.parametrize("command", ["convergence", "simulate"])
@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_bad_config_is_a_config_error_at_its_line(tmp_path, capsys, command, name):
    case, extra, key = BAD_CONFIGS[name]
    text = BAD_BASE.format(case=case, extra=extra)
    path = write(tmp_path, text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    prefix = f"config error: {path}:{_key_line(text, key)}: "
    assert err.startswith(prefix), err
    message = err[len(prefix):]
    assert key in message
    other = {"tol": "max_iter", "max_iter": "tol"}.get(key)
    assert other is None or other not in message
    if name == "kernel_callable":
        assert "('power', 'constant')" in message
    assert not (tmp_path / "o").exists()


def test_weights_dump_reads_the_kernel_without_memory(tmp_path, capsys):
    # with eta = 0, simulate and convergence reject [kernel] mu (BAD_CONFIGS);
    # weights-dump reads it
    dumps = []
    for mu in ("0.3", "0.7"):
        path = write(tmp_path, BAD_BASE.format(case="type1", extra=f"[kernel]\nmu = {mu}\n"))
        assert main(["weights-dump", "--config", str(path)]) == 0
        dumps.append(capsys.readouterr().out)
    assert dumps[0] != dumps[1]


def test_t_final_below_the_coarsest_step(tmp_path, capsys):
    # the coarsest level (h = 1/4, dt = h/4) would round to 0 steps: a
    # convergence study refuses it at the t_final line; simulate runs it
    text = ("[run]\ncase = type1\nmesh_n = 4\nlevels = 2\nt_final = 0.01\n"
            "dt_coupling = 0.25\n")
    path = write(tmp_path, text)
    out = tmp_path / "o"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:{_key_line(text, 't_final')}: t_final"), err
    assert "dt_coupling" in err
    assert not out.exists()
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    text = text.replace("0.01", "0.04")       # rounds to 1 step
    assert main(["convergence", "--config", str(write(tmp_path, text)),
                 "--out", str(out)]) == 0


SPIRAL = """\
[run]
scheme = dg
case = spiral
mesh_n = 4
n_steps = 2
t_final = 2
domain = 0, 0, 300, 300
"""


def test_spiral_without_fhn_is_a_config_error_at_the_case_line(tmp_path, capsys):
    path = write(tmp_path, SPIRAL)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:{_key_line(SPIRAL, 'case')}: "), err
    assert not (tmp_path / "o").exists()


# eps = -1 with rho = 1 at dt = 1 would divide by 1 + dt eps rho = 0
@pytest.mark.parametrize("eps, rho, key", [
    ("-1", "1", "eps"), ("-1", "-1", "eps"), ("0", "1", "eps"), ("inf", "1", "eps"),
    ("0.005", "-1", "rho"), ("0.005", "nan", "rho"),
])
def test_bad_fhn_value_is_a_config_error_at_its_line(tmp_path, capsys, eps, rho, key):
    text = SPIRAL + f"\n[fhn]\neps = {eps}\nrho = {rho}\n"
    path = write(tmp_path, text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    prefix = f"config error: {path}:{_key_line(text, key)}: "
    assert err.startswith(prefix), err
    assert key in err[len(prefix):]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["convergence", "simulate"])
@pytest.mark.parametrize("levels", ["1", "0"])
def test_bad_levels_override_is_a_config_error(tmp_path, capsys, command, levels):
    path = write(tmp_path, BAD_BASE.format(case="type1", extra=""))
    assert main([command, "--config", str(path), "--levels", levels]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: --levels {levels}: levels must be"), err


SWEEP_BASE = {
    "run": {"scheme": "cr", "case": "type1", "mesh_n": "2", "levels": "2",
            "n_steps": "2", "t_final": "0.5", "out_dir": "out"},
}


@pytest.mark.parametrize("value", ["0", "-1", "x", ""])
def test_no_config_value_raises(tmp_path, monkeypatch, capsys, value):
    # every key set in turn to a bad or borderline value either runs, is a
    # config error at that key's line, or is a solver failure
    monkeypatch.chdir(tmp_path)
    for section, key in _KEYS:
        sections = {s: dict(kv) for s, kv in SWEEP_BASE.items()}
        sections.setdefault(section, {})[key] = value
        text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                       for s, kv in sections.items())
        path = write(tmp_path, text)
        for command in ("convergence", "simulate"):
            code = main([command, "--config", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (section, key, code)
            if code == 2:
                assert err.startswith(f"config error: {path}:{_key_line(text, key)}: "), err


def test_duplicate_key_is_a_config_error_at_its_line(tmp_path, capsys):
    path = write(tmp_path, BAD_BASE.format(case="type1", extra="mesh_n = 3\n"))
    assert main(["convergence", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:6: ")


def test_defaults_are_those_of_the_dataclasses(tmp_path):
    cfg = parse_config(write(tmp_path, f"[run]\nout_dir = {tmp_path}\n"))
    assert cfg == replace(RunConfig(), out_dir=tmp_path, config_hash=cfg.config_hash)
    assert cfg.model == ModelParams()
    cfg = parse_config(write(tmp_path, f"[run]\nout_dir = {tmp_path}\n[model]\neta = 0.5\n"))
    assert cfg.model == ModelParams(eta=0.5)
    assert cfg.kernel == KernelSpec()


@pytest.mark.parametrize("eta, kernel_line", [
    ("0.0", "# kernel = caputo_order=0.5"),
    ("1.0", "# kernel = power mu=0.5 caputo_order=0.5 weights=power-law-closed-form")])
def test_kernel_echo_names_what_the_run_reads(tmp_path, eta, kernel_line):
    # without memory a simulate run builds no weights and reads only the
    # kernel's Caputo order, so its diagnostics name only that
    text = MINIMAL.format(out=tmp_path / "o") + f"""\
t_final = 0.5

[model]
eta = {eta}

[kernel]
caputo_order = 0.5
"""
    cfg = write(tmp_path, text)
    assert main(["simulate", "--config", str(cfg)]) == 0
    lines = (tmp_path / "o" / "diagnostics.csv").read_text().splitlines()
    assert [l for l in lines if l.startswith("# kernel")] == [kernel_line]
