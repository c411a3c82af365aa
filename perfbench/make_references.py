"""Regenerate references.json from seed-0 runs of the current sources.

    python3 perfbench/make_references.py [--scale mini]

Run it only when the stored outputs are meant to change; the references
in the repository were made at the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from run import HERE, ROOT, run_child


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=("full", "mini"), action="append")
    scales = ap.parse_args().scale or ["full", "mini"]
    path = os.path.join(HERE, "references.json")
    with open(path, encoding="utf-8") as fh:
        refs = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    out_dir = os.path.join(HERE, "out", "references")
    for scale in scales:
        for name in names:
            res = run_child(name, 0, "run", scale, out_dir, time.monotonic() + 600)
            refs.setdefault(scale, {})[name] = res["outputs"]
            print(scale, name, res["wall_s"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
