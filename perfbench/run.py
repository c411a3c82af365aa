"""gbhfem benchmark: one workload per call, each run in fresh processes.

    python3 perfbench/run.py --workload dg_spiral --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it times the workload untraced and reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs the
workload once traced, once untraced and once under tracemalloc, and
reports the per-layer metrics and the tracing overhead.  Every workload run is checked against the
stored reference.  A table goes to stdout, the full result with its run
manifest to ``perfbench/out/<workload>/``, and the last stdout line is
the JSON summary.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: Fresh set-up-only processes per untraced run; setup_s is their median
#: together with the set-up time of the measured runs.
SETUP_SAMPLES = 4
#: Every child must end within this many seconds of the benchmark's start.
DEADLINE_S = 170.0
#: More BLAS threads made the workloads slower and noisier on 2 cores.
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
}


class ChildFailed(Exception):
    pass


def run_child(workload, seed, mode, scale, out_dir, deadline):
    """Run child.py once; returns its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scale", scale, "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} run of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} run of {workload} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def summary(values):
    """Median, quartiles and sample count of one metric's samples."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def source_hash():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "gbhfem", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def manifest(args, first_child):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "params_sha256": first_child.get("params_sha256"),
        "versions": first_child.get("versions"),
        "blas_threads_pinned": BLAS_THREADS,
        "pinned_env": PINNED_ENV,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, out_dir, deadline):
    """Untraced runs: set-up samples, then workload runs for ``--seconds``."""
    start = time.monotonic()
    setups, runs, failures = [], [], []
    for _ in range(SETUP_SAMPLES):
        setups.append(run_child(args.workload, args.seed, "setup", args.scale,
                                out_dir, deadline)["setup_s"])
    while True:
        t0 = time.monotonic()
        res = run_child(args.workload, args.seed, "run", args.scale, out_dir, deadline)
        runs.append(res)
        if res["failures"]:
            failures.append(res["failures"])
        last = time.monotonic() - t0
        # Another run only if it fits into the measuring time.
        if time.monotonic() + last - start > args.seconds:
            break
    ok = [r for r in runs if not r["failures"]]
    samples = {
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": setups + [r["setup_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "baseline_rss_mb": [r["baseline_rss_mb"] for r in ok],
    }
    return runs, failures, samples


def trace(args, out_dir, deadline):
    """Traced, untraced and tracemalloc runs: per-layer metrics and overhead."""
    runs = [run_child(args.workload, args.seed, mode, args.scale, out_dir, deadline)
            for mode in ("trace", "run", "memory")]
    traced, plain, memory = runs
    failures = [r["failures"] for r in runs if r["failures"]]
    layers = dict(traced.get("layers", {}))
    if not failures:
        layers["solver.run.tracemalloc_peak_mb"] = memory["tracemalloc_peak_mb"]
        layers["trace.untraced_wall_s"] = plain["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return runs, failures, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description="gbhfem benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "mini"), default="full",
                    help="'mini' runs seconds-long miniatures (for the benchmark's tests)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "gbhfem", "__init__.py")):
        ap.exit(2, f"no gbhfem sources under {os.path.join(ROOT, 'src')}\n")
    out_dir = os.path.join(HERE, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)

    try:
        if args.trace:
            runs, failures, values = trace(args, out_dir, deadline)
            wanted = bench["per_layer"]
        else:
            runs, failures, samples = measure(args, out_dir, deadline)
            wanted = bench["end_to_end"]
    except ChildFailed as exc:
        ap.exit(1, f"benchmark failed: {exc}\n")

    report = {"manifest": manifest(args, runs[0]), "runs": runs}
    if args.trace:
        report["layers"] = values
        for name in sorted(values):
            print(f"{name:40s} {values[name]:>16.6g}")
    else:
        report["metrics"] = {k: summary(v) for k, v in samples.items() if v}
        for name, s in report["metrics"].items():
            print(f"{name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n={s['n']}")
        values = {k: s["median"] for k, s in report["metrics"].items()}
    for f in failures:
        print("FAILED:", "; ".join(f)[:2000])
    path = os.path.join(out_dir, f"seed{args.seed}-trace{args.trace}-{args.scale}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"manifest and samples: {os.path.relpath(path, ROOT)}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    print(json.dumps({
        "correct": not failures and len(metrics) == len(wanted),
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
