#!/usr/bin/env python3
"""Self-test of the benchmark's checker and of its input guard.

Run from the repository root (takes about half a minute):

    python3 perfbench/selftest.py

1. The checker flags exactly the cells that differ from a reference table.
2. A reference table with one outcome count perturbed makes a real
   figs_cold run report exactly one failed cell of the 52 it attempted.
3. A run started with SOFTCHECK_VALIDATE_STATIC_MASKED set refuses to start:
   non-zero exit and no result line.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expect(cond, what, detail=""):
    if not cond:
        sys.exit(f"selftest FAILED: {what}\n{detail}")
    print(f"ok: {what}")


def run(args, env=None):
    return subprocess.run([sys.executable, str(RUN_PY)] + args, cwd=ROOT,
                          env=env, capture_output=True, text=True)


def main():
    bench = load_run_module()
    table = json.loads((bench.REFERENCE_DIR / "figs.json").read_text())
    key = sorted(table["cells"])[0]

    # 1. The checker alone: observed cells equal to the table pass; one
    # perturbed count in the table fails exactly that cell.
    observed = copy.deepcopy(table["cells"])
    expect(bench.failed_cells(observed, table) == [],
           "cells equal to the reference pass")
    perturbed = copy.deepcopy(table)
    perturbed["cells"][key]["counts"]["Masked"] += 1
    expect(bench.failed_cells(observed, perturbed) == [key],
           "one perturbed count fails exactly its cell")
    del observed[key]
    expect(bench.failed_cells(observed, table) == [key],
           "a missing cell fails")

    # 2. End to end: one real figs_cold grid against the perturbed table.
    # --seconds 0 times exactly one grid, however fast the grid is.
    bench.BUILD_DIR.mkdir(exist_ok=True)
    path = bench.BUILD_DIR / "perturbed_figs.json"
    path.write_text(json.dumps(perturbed))
    r = run(["--workload", "figs_cold", "--seed", "0", "--seconds", "0",
             "--trace", "0", "--reference", str(path)])
    lines = r.stdout.splitlines()
    result = json.loads(lines[-1]) if r.returncode == 0 and lines else {}
    expect(result.get("failed") == 1 and result.get("attempted") == 52
           and result.get("correct") is False,
           "a run against the perturbed table reports 1 failed of 52 cells",
           r.stdout + r.stderr)

    # 3. The static-mask validation hook must stop the benchmark.
    env = dict(os.environ, SOFTCHECK_VALIDATE_STATIC_MASKED="1")
    r = run(["--workload", "fig12_fault_free", "--seed", "0", "--seconds",
             "0", "--trace", "0"], env=env)
    expect(r.returncode != 0 and '"correct"' not in r.stdout,
           "SOFTCHECK_VALIDATE_STATIC_MASKED makes the run refuse to start",
           r.stdout + r.stderr)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
