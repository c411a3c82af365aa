"""Tests of the benchmark itself, on seconds-long miniatures of its workloads."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]
with open(os.path.join(BENCH, "references.json"), encoding="utf-8") as fh:
    REFS = json.load(fh)


def bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "mini"],
        cwd=root, capture_output=True, text=True, timeout=170)


def summary(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_and_layers_match_benchmark_json():
    assert set(NAMES) == set(workloads.RUN) == set(workloads.SETUP)
    assert set(REFS["full"]) == set(REFS["mini"]) == set(NAMES)
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        groups = json.load(fh)["groups"]
    assert [m for g in groups for m in g["metrics"]] == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = summary(bench(ROOT, workload, trace=0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_every_layer_metric_and_self_times_add_up(workload):
    out = summary(bench(ROOT, workload, trace=1))
    assert out["correct"] is True and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    with open(os.path.join(BENCH, "out", workload, f"spans-{workload}-seed0-mini.jsonl"),
              encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            own[s["parent"]] -= dur[i]
    roots = sum(d for d, s in zip(dur, spans) if s["parent"] < 0)
    assert sum(own) == pytest.approx(roots, rel=1e-9)
    assert min(own) > -1e-6

    report_path = os.path.join(BENCH, "out", workload, "seed0-trace1-mini.json")
    with open(report_path, encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    assert roots <= layers["trace.wall_s"]
    assert 0.8 < layers["trace.coverage"] <= 1.0


@pytest.mark.parametrize("workload", NAMES)
def test_check_accepts_reference_and_rejects_perturbed_one(workload):
    ref = REFS["mini"][workload]
    assert workloads.check(workload, ref, ref, seed=0) == []
    for key in workloads.CHECKED[workload]:
        bad = copy.deepcopy(ref)
        if isinstance(bad[key], list):
            bad[key][-1] *= 1.0 + 1e-4
        else:
            bad[key] *= 1.0 + 1e-4
        assert workloads.check(workload, ref, bad, seed=0), key


def test_check_tolerates_another_linear_solver():
    case, f, sol = workloads.memory_setup("mini", 0)
    sol.linear_solver = "gmres"
    traj = sol.run()
    stab = workloads.solver.stability_check(traj, sol.space, sol.params, f, case.initial)
    outputs = {
        "err_l2inf": workloads.mms.error_linf_l2(sol.space, traj, case),
        "err_energy": workloads.mms.error_energy(sol.space, traj, case, sol.params),
        "stability_lhs": stab.lhs, "stability_rhs": stab.rhs,
        "stability_holds": bool(stab.holds),
    }
    ref = REFS["mini"]["cr_memory_long"]
    assert outputs != {k: ref[k] for k in outputs}
    assert workloads.check("cr_memory_long", outputs, ref, seed=0) == []


def test_spiral_invariants_checked_on_other_seeds():
    ref = REFS["mini"]["dg_spiral"]
    assert workloads.spiral_shift(0, 4) == (0, 0)
    assert workloads.spiral_shift(3, 4) == workloads.spiral_shift(3, 4)
    assert workloads.check("dg_spiral", dict(ref, l2_norm=[0.0]), ref, seed=3) == []
    assert workloads.check("dg_spiral", dict(ref, max_abs_u=2.5), ref, seed=3)


def _copy_benchmark(dest, with_sources):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_perturbed_reference_is_counted_as_failure(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    ref_path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(ref_path.read_text())
    refs["mini"]["cr_memory_long"]["err_energy"] *= 1.001
    ref_path.write_text(json.dumps(refs))
    out = summary(bench(str(tmp_path), "cr_memory_long", trace=0))
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    proc = bench(str(tmp_path), "dg_spiral", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
