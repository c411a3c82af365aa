"""One workload in one fresh process; prints one JSON object on stdout.

Run by ``run.py`` with OpenBLAS pinned in the environment::

    python3 perfbench/child.py --workload dg_spiral --seed 0 --mode run \\
        --scale full --out perfbench/out

Modes: ``setup`` times the workload's set-up calls only; ``run`` times the
whole workload, checks its outputs and reports peak RSS; ``trace`` does
the same with every public gbhfem function traced and writes the spans as
JSON lines into ``--out``; ``memory`` runs it with tracemalloc on inside
``BackwardEulerSolver.run`` (too slow to share a run with the timing).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _mb(kib):
    return kib / 1024.0


def blas_info():
    """Thread count and build string of each loaded OpenBLAS, by library file."""
    import numpy
    out = {}
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in sorted(glob.glob(os.path.join(site, "*.libs", "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(handle, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    out[os.path.basename(lib)] = {"threads": threads(),
                                                  "config": config().decode()}
    return out


def versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas_info()}


class SetupProbe:
    """Sums the time from each mesh's first set-up call to its first step.

    The first mesh's set-up starts when the workload starts (the case
    self-check and forcing come before the mesh); a later mesh's starts
    at its ``generate_rect_mesh`` call.  Time stepping starts when
    ``BackwardEulerSolver.run`` is entered.
    """

    def __init__(self):
        self.setup_s = 0.0
        self._opened = None

    def open(self):
        if self._opened is None:
            self._opened = time.perf_counter()

    def close(self):
        if self._opened is not None:
            self.setup_s += time.perf_counter() - self._opened
            self._opened = None

    def install(self):
        import gbhfem.mesh
        import gbhfem.mms
        import gbhfem.solver

        def before(fn, hook):
            def wrapper(*args, **kwargs):
                hook()
                return fn(*args, **kwargs)
            return wrapper

        for mod in (gbhfem.mesh, gbhfem.mms):
            mod.generate_rect_mesh = before(mod.generate_rect_mesh, self.open)
        cls = gbhfem.solver.BackwardEulerSolver
        cls.run = before(cls.run, self.close)


class RunMemoryProbe:
    """Peak traced allocation (numpy arrays included) of each solver run."""

    def __init__(self):
        self.peak_mb = 0.0

    def install(self):
        import gbhfem.solver
        cls = gbhfem.solver.BackwardEulerSolver
        run = cls.run

        def tracked_run(*args, **kwargs):
            tracemalloc.start()
            try:
                return run(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb = max(self.peak_mb, peak / 2**20)

        cls.run = tracked_run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "memory"), required=True)
    ap.add_argument("--scale", choices=("full", "mini"), default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import gbhfem
    if os.path.dirname(os.path.abspath(gbhfem.__file__)) != os.path.join(SRC, "gbhfem"):
        raise SystemExit(f"gbhfem imported from {gbhfem.__file__}, not from {SRC}")
    import workloads
    if args.workload not in workloads.RUN:
        raise SystemExit(f"unknown workload {args.workload!r}")
    baseline_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "params_sha256": workloads.params_hash(args.workload, args.scale, args.seed),
              "versions": versions()}
    if args.mode == "setup":
        t0 = time.perf_counter()
        workloads.SETUP[args.workload](args.scale, args.seed)
        result["setup_s"] = time.perf_counter() - t0
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer().install()
    memory = None
    if args.mode == "memory":
        memory = RunMemoryProbe()
        memory.install()
    probe = SetupProbe()
    probe.install()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(args.scale, {}).get(args.workload)

    t0, c0 = time.perf_counter(), time.process_time()
    probe.open()
    try:
        outputs = workloads.RUN[args.workload](args.scale, args.seed, args.out)
    except Exception:  # a failed run is counted, not fatal
        result["wall_s"] = time.perf_counter() - t0
        result["failures"] = [traceback.format_exc()]
        print(json.dumps(result))
        return 0
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["setup_s"] = probe.setup_s
    result["peak_rss_mb"] = _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    result["baseline_rss_mb"] = _mb(baseline_rss)
    result["outputs"] = outputs
    if reference is None and not (args.workload == "dg_spiral" and args.seed != 0):
        result["failures"] = [f"no stored reference for {args.scale}/{args.workload}"]
    else:
        result["failures"] = workloads.check(args.workload, outputs, reference, args.seed)

    if memory is not None:
        result["tracemalloc_peak_mb"] = memory.peak_mb
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(result["wall_s"])
        spans_path = os.path.join(
            args.out, f"spans-{args.workload}-seed{args.seed}-{args.scale}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
        result["spans_file"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
