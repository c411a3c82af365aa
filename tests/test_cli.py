import numpy as np
import pytest

import gbhfem.mms as mms
from gbhfem.cli import main, parse_config
from gbhfem.errors import ConfigError
from gbhfem.solver import BackwardEulerSolver

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


def test_convergence_forwards_linear_solver(tmp_path, monkeypatch):
    # [run] linear_solver reaches every level's solver: LU makes no Krylov
    # iterations and agrees with the default Newton-Krylov CSV
    krylov = []
    run = BackwardEulerSolver.run

    def recording(self):
        traj = run(self)
        krylov.append((self.linear_solver, sum(r.krylov_iters for r in traj.records)))
        return traj

    monkeypatch.setattr(BackwardEulerSolver, "run", recording)
    text = """\
[run]
scheme = cr
case = type1
mesh_n = 2
levels = 2
linear_solver = {solver}

[model]
eta = 1.0

[kernel]
kind = power
mu = 0.5
"""
    bodies = {}
    for solver in ("gmres", "lu"):
        out = tmp_path / solver
        cfg = write(tmp_path, text.format(solver=solver), name=f"{solver}.cfg")
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        bodies[solver] = [l.split(",") for l in lines if not l.startswith("#")]
    assert [s for s, _ in krylov] == ["gmres"] * 2 + ["lu"] * 2
    assert all(k > 0 for s, k in krylov if s == "gmres")
    assert all(k == 0 for s, k in krylov if s == "lu")
    gm, lu = bodies["gmres"], bodies["lu"]
    assert gm[0] == lu[0] and len(gm) == len(lu) == 3

    def numbers(rows):
        return np.array([[float(v) if v else np.nan for v in r] for r in rows[1:]])

    np.testing.assert_allclose(numbers(lu), numbers(gm), rtol=1e-8, equal_nan=True)


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


def test_convergence_rejects_spiral(tmp_path):
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
    assert main(["convergence", "--config", str(write(tmp_path, text))]) == 2
