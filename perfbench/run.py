#!/usr/bin/env python3
"""Campaign benchmark: times the grids that regenerate the paper's figures.

Run from the repository root:

    python3 perfbench/run.py --workload figs_cold --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1
    python3 perfbench/run.py --make-reference

Each timed grid runs in a fresh process of the program built from
perfbench/campaign_bench.cc, through runCampaignSuite on the threaded tier
with a 4-thread pool and every other CampaignConfig knob at its default.
Every cell of every grid is checked against a reference table computed on
the interpreter tier with blind sampling. With --trace 1 the same grid is
replayed cell by cell through each layer's entry points with spans around
every call, and the per-layer metrics come from those spans.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "campaign_bench"
POOL_THREADS = 4  # must match kPoolThreads in campaign_bench.cc

DEFAULT_SEED = 0xC0FFEE  # the figure benches' injection seed
BLIND_SEEDS_PER_CELL = 4
WARM_FILLS = 3  # cold cache fills per figs_warm run; setup_s is their median
SETUP_SPAWNS = 25  # set-up-only processes per run of the other workloads
# A fig12 grid takes a few tenths of a second, so one wall_s/cpu_s sample
# of it sums this many grids, each in a fresh process.
GRIDS_PER_SAMPLE = {"fig12_fault_free": 8}
# Host speed. Each grid process runs a fixed probe after its grid (see
# probeSeconds in campaign_bench.cc), and wall_s and cpu_s are scaled by
# PROBE_REF_S / its probe seconds: they read as seconds on a host where
# the probe takes PROBE_REF_S, the probe's typical time on the 4-core
# host the README's figures come from.
PROBE_REF_S = 0.1
MB = 1 << 20

# workload -> (campaign_bench grid, artifact cache use)
WORKLOADS = {
    "figs_cold": ("figs", None),
    "figs_warm": ("figs", "warm"),
    "blind_seeds": ("blind_seeds", None),
    "fig12_fault_free": ("fig12", None),
}
GRIDS = ("figs", "blind_seeds", "fig12")

# Cell fields that must equal the reference; fig12 also checks the
# hardening report's static counts.
REFERENCE_FIELDS = ("counts", "usdc_large", "usdc_small", "golden_dyn_instrs",
                    "golden_cycles", "baseline_cycles", "disabled_checks")
STATIC_FIELDS = ("report",)

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
PER_LAYER = (
    ("frontend.compile_s", "s"), ("profile.collect_s", "s"),
    ("core.build_s", "s"), ("interp.baseline_s", "s"),
    ("interp.golden_s", "s"), ("interp.golden_ns_per_instr", "ns"),
    ("fault.golden_dyn_instrs", "count"), ("fault.snapshots", "count"),
    ("fault.snapshot_mb", "MB"), ("fault.plan_s", "s"),
    ("fault.plan_skipped_ratio", "ratio"), ("fault.trials_s", "s"),
    ("fault.trials_cpu_s", "s"), ("fault.trials_executed", "count"),
    ("fault.us_per_executed_trial", "us"), ("fault.ff_replay_instrs", "count"),
    ("fault.ff_restore_pages", "count"), ("support.pool_idle_s", "s"),
    ("service.cache_load_s", "s"), ("service.cache_store_s", "s"),
    ("service.bundle_mb", "MB"), ("service.cache_hit_ratio", "ratio"),
    ("trace.overhead_cpu_s", "s"),
)


class BenchError(Exception):
    pass


def log(msg=""):
    print(msg, flush=True)


# ---- seeds and provenance ---------------------------------------------------

def injection_seeds(grid, seed):
    """Injection seeds of one run. --seed 0 gives the defaults, which the
    committed reference tables cover; fig12 injects nothing."""
    if grid == "blind_seeds":
        first = DEFAULT_SEED + BLIND_SEEDS_PER_CELL * seed
        return [(first + i) % 2**64 for i in range(BLIND_SEEDS_PER_CELL)]
    if grid == "fig12":
        return [DEFAULT_SEED]
    return [(DEFAULT_SEED + seed) % 2**64]


def source_digest():
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def provenance(run_line):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "pool_threads": run_line["pool_threads"],
        "build_type": run_line["build_type"],
        "compiler": run_line["compiler"],
    }


# ---- build and child processes --------------------------------------------

def build():
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", str(POOL_THREADS)]]
    if (BUILD_DIR / "CMakeCache.txt").exists():
        steps = steps[1:]
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def child_env():
    # The benchmark sets every knob itself: no SOFTCHECK_* variable
    # reaches the library.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SOFTCHECK_")}


def spawn_bench(args, tag="bench"):
    """Start campaign_bench; its output goes to files named by @p tag."""
    cmd = [str(BINARY)] + [str(a) for a in args]
    out_path = BUILD_DIR / f"{tag}.stdout"
    err_path = BUILD_DIR / f"{tag}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawn_ns = time.monotonic_ns()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                             cwd=ROOT)
    return p, cmd, spawn_ns, out_path, err_path


def finish_bench(handle):
    """Wait for a spawned campaign_bench; returns (cells, spans, run line, setup
    seconds from spawn to the suite call)."""
    p, cmd, spawn_ns, out_path, err_path = handle
    if p.wait() != 0:
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                         + err_path.read_text()[-2000:])
    cells, spans, run_line = {}, [], None
    for line in out_path.read_text().splitlines():
        obj = json.loads(line)
        if obj["kind"] == "cell":
            cells[obj["cell"]] = obj
        elif obj["kind"] == "span":
            spans.append(obj)
        else:
            run_line = obj
    setup_s = ((run_line["call_ns"] - spawn_ns) * 1e-9
               if "call_ns" in run_line else None)
    return cells, spans, run_line, setup_s


def run_bench(args):
    return finish_bench(spawn_bench(args))


def seeds_arg(seeds):
    return ",".join(hex(s) for s in seeds)


# ---- reference tables and the checker -------------------------------------

def reference_fields(grid):
    return REFERENCE_FIELDS + (STATIC_FIELDS if grid == "fig12" else ())


def make_table(grid, seeds, cells):
    fields = reference_fields(grid)
    return {
        "grid": grid,
        "seeds": [hex(s) for s in seeds],
        "path": f"interpreter tier, blind sampling, {POOL_THREADS}-thread pool",
        "command": "python3 perfbench/run.py --make-reference",
        "fields": list(fields),
        "cells": {k: {f: c[f] for f in fields} for k, c in sorted(cells.items())},
    }


def compute_reference(grid, seeds):
    cells, _, _, _ = run_bench(["reference", grid, seeds_arg(seeds)])
    return make_table(grid, seeds, cells)


def load_reference(grid, seeds, override=None):
    """The committed table for the default seeds. Other seeds are computed
    on demand on the reference path, and kept in the build directory for
    later runs of the same build."""
    if override:
        return json.loads(Path(override).read_text())
    if seeds == injection_seeds(grid, 0):
        return json.loads((REFERENCE_DIR / f"{grid}.json").read_text())
    cached = BUILD_DIR / "reference" / f"{grid}-{seeds_arg(seeds)}.json"
    if cached.exists():
        return json.loads(cached.read_text())
    table = compute_reference(grid, seeds)
    cached.parent.mkdir(exist_ok=True)
    cached.write_text(json.dumps(table))
    return table


def failed_cells(cells, table):
    """Keys of reference cells that are missing or differ in any field."""
    return [key for key, ref in table["cells"].items()
            if key not in cells
            or any(cells[key][f] != ref[f] for f in table["fields"])]


# ---- timed runs -----------------------------------------------------------

def check_grids(grids, table):
    """Check the cells of every grid a run made: (attempted, failed keys)."""
    failed = [k for cells in grids for k in failed_cells(cells, table)]
    return len(table["cells"]) * len(grids), failed


def fill_cache(grid, seeds, cache_dir, grids):
    """Fill an empty cache with the grid: POOL_THREADS processes side by
    side, each on a 1-thread pool (see the fill mode in campaign_bench.cc).
    Returns seconds from the first spawn to the last exit."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    t0 = time.monotonic()
    handles = [spawn_bench(["fill", grid, seeds_arg(seeds), cache_dir,
                             part, POOL_THREADS], tag=f"fill{part}")
               for part in range(POOL_THREADS)]
    cells, errors = {}, []
    for h in handles:  # reap every process before reporting a failure
        try:
            cells.update(finish_bench(h)[0])
        except BenchError as e:
            errors.append(e)
    if errors:
        raise errors[0]
    elapsed = time.monotonic() - t0
    grids.append(cells)
    return elapsed


def served(cells):
    return sum(c["served_from_cache"] for c in cells.values())


def trial_counts(cells):
    trials = sum(c["trials"] for c in cells.values())
    skipped = sum(c["skipped"] for c in cells.values())
    return trials, trials - skipped


def timed_run(workload, seeds, seconds, grids):
    grid, cache = WORKLOADS[workload]
    samples = {name: [] for name, _ in END_TO_END}
    args = ["grid", grid, seeds_arg(seeds)]
    if cache:
        cache_dir = BUILD_DIR / "warm" / "fill"
        for _ in range(WARM_FILLS):
            samples["setup_s"].append(fill_cache(grid, seeds, cache_dir, grids))
        args.append(cache_dir)
    else:
        for _ in range(SETUP_SPAWNS):
            samples["setup_s"].append(run_bench(["setup"] + args[1:])[3])
    per_sample = GRIDS_PER_SAMPLE.get(workload, 1)
    hits, raw_wall, probes = [], [], []
    start = time.monotonic()
    while not samples["wall_s"] or time.monotonic() - start < seconds:
        wall = cpu = raw = 0.0
        for _ in range(per_sample):
            cells, _, run_line, _ = run_bench(args)
            grids.append(cells)
            scale = PROBE_REF_S / run_line["probe_s"]
            wall += run_line["wall_s"] * scale
            cpu += run_line["cpu_s"] * scale
            raw += run_line["wall_s"]
            probes.append(run_line["probe_s"])
            samples["peak_rss_mb"].append(run_line["peak_rss_kb"] / 1024)
            hits.append((served(cells), len(cells)))
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        raw_wall.append(raw)
    trials, executed = trial_counts(cells)
    notes = [f"samples: {len(samples['wall_s'])} in {seconds} s, each the sum "
             f"of {per_sample} grid(s); every grid in a fresh process with a "
             f"{POOL_THREADS}-thread pool",
             f"host probe: median {statistics.median(probes):.4f} s against "
             f"{PROBE_REF_S} s reference; unscaled wall_s median "
             f"{statistics.median(raw_wall):.4f} s",
             f"trials per grid: {executed} executed of {trials} attempted"]
    samples["unscaled_wall_s"] = raw_wall
    samples["probe_s"] = probes
    if cache:
        notes.append(f"setup_s: cache filled {WARM_FILLS} times by {POOL_THREADS} "
                     "1-thread processes; cells served from cache per timed "
                     "grid: " + ", ".join(f"{h} of {n}" for h, n in hits))
        shutil.rmtree(BUILD_DIR / "warm", ignore_errors=True)
    else:
        notes.append(f"setup_s: {SETUP_SPAWNS} processes timed from spawn to "
                     "the suite call, where each exits")
    return samples, run_line, notes


# ---- traced runs ------------------------------------------------------------

def span_sums(spans):
    sums = {}
    for s in spans:
        sums[s["name"]] = sums.get(s["name"], 0.0) + (s["end_ns"] - s["start_ns"]) * 1e-9
    return sums


def layer_metrics(spans, cells, run_line, bundle_bytes):
    """Per-layer metrics of one traced replay."""
    t = span_sums(spans)
    chars = {}  # one entry per characterization (workload/mode)
    for key, c in cells.items():
        chars.setdefault("/".join(key.split("/")[:2]), c)
    golden_run = [c for c in chars.values() if not c["served_from_cache"]]
    trials = sum(c["trials"] for c in cells.values())
    skipped = sum(c["skipped"] for c in cells.values())
    executed = trials - skipped
    golden_instrs = sum(c["golden_dyn_instrs"] for c in golden_run)
    m = {
        "frontend.compile_s": t.get("frontend.compile", 0.0),
        "profile.collect_s": t.get("profile.collect", 0.0),
        "core.build_s": t.get("core.build", 0.0),
        "interp.baseline_s": t.get("interp.baseline", 0.0),
        "interp.golden_s": t.get("interp.golden", 0.0),
        "fault.golden_dyn_instrs": sum(c["golden_dyn_instrs"] for c in chars.values()),
        "fault.snapshots": sum(c["snapshots"] for c in chars.values()),
        "fault.snapshot_mb": sum(c["snapshot_bytes"] for c in chars.values()) / MB,
        "fault.plan_s": t.get("fault.plan", 0.0),
        "fault.plan_skipped_ratio": skipped / trials if trials else 0.0,
        "fault.trials_s": t.get("fault.trials", 0.0),
        "fault.trials_cpu_s": t.get("fault.trial_batch", 0.0),
        "fault.trials_executed": executed,
        "fault.ff_replay_instrs": sum(c["ff_replay_instrs"] for c in cells.values()),
        "fault.ff_restore_pages": sum(c["ff_restore_pages"] for c in cells.values()),
        "service.cache_load_s": t.get("service.cache_load", 0.0),
        "service.cache_store_s": t.get("service.cache_store", 0.0),
        "service.bundle_mb": bundle_bytes / MB,
        "service.cache_hit_ratio": run_line["cache_hits"] / run_line["cells_requested"],
    }
    m["interp.golden_ns_per_instr"] = (m["interp.golden_s"] * 1e9 / golden_instrs
                                       if golden_instrs else 0.0)
    m["fault.us_per_executed_trial"] = (m["fault.trials_cpu_s"] * 1e6 / executed
                                        if executed else 0.0)
    m["support.pool_idle_s"] = POOL_THREADS * m["fault.trials_s"] - m["fault.trials_cpu_s"]
    bases = {
        "fault.plan_skipped_ratio": f"{skipped} of {trials} trials",
        "fault.us_per_executed_trial": f"{executed} executed trials",
        "interp.golden_ns_per_instr": f"{golden_instrs} golden instructions run",
        "service.cache_hit_ratio": f"{run_line['cache_hits']} of "
                                   f"{run_line['cells_requested']} cells",
    }
    return m, bases, trials


def bundle_bytes(cache_dir):
    return sum(p.stat().st_size for p in Path(cache_dir).glob("*.cell"))


def write_trace(workload, seed, spans):
    out = BUILD_DIR / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(spans))
    return out


def traced_run(workload, seed, seeds, seconds, grids):
    """Untraced grid once, then pairs of replays, tracer off then on, until
    --seconds have passed. figs_warm first fills its cache as its timed
    runs do; the reads leave a complete cache unchanged, so every grid
    reads the same fill."""
    grid, cache = WORKLOADS[workload]
    warm = BUILD_DIR / "warm"
    cache_args, size = [], 0
    if cache:
        fill_cache(grid, seeds, warm / "fill", grids)
        size = bundle_bytes(warm / "fill")
        cache_args = [warm / "fill"]
    untraced, _, untraced_line, _ = run_bench(
        ["grid", grid, seeds_arg(seeds)] + cache_args)
    grids.append(untraced)

    per_replay, base_cpu, notes, mismatched = [], [], [], 0
    start = time.monotonic()
    while not per_replay or time.monotonic() - start < seconds:
        # The same replay with the tracer off: the overhead's base.
        base, _, base_line, _ = run_bench(
            ["replay", grid, seeds_arg(seeds)] + cache_args)
        grids.append(base)
        base_cpu.append(base_line["cpu_s"])
        args = ["trace", grid, seeds_arg(seeds)] + cache_args
        if cache:
            args.append(warm / f"restore{len(per_replay)}")
        cells, spans, run_line, _ = run_bench(args)
        grids.append(cells)
        # The traced replay must reproduce the untraced run's outcomes.
        mismatched += sum(1 for k, c in untraced.items()
                          if k not in cells or cells[k]["counts"] != c["counts"])
        m, bases, trials = layer_metrics(spans, cells, run_line, size)
        m["trace.overhead_cpu_s"] = run_line["cpu_s"] - base_line["cpu_s"]
        per_replay.append(m)
    path = write_trace(workload, seed, spans)
    shutil.rmtree(warm, ignore_errors=True)
    # median_low: a value one replay measured; counts stay whole.
    metrics = {name: statistics.median_low(r[name] for r in per_replay)
               for name, _ in PER_LAYER}
    fault_free = sum(metrics[k] for k in (
        "frontend.compile_s", "profile.collect_s", "core.build_s",
        "interp.baseline_s", "interp.golden_s"))
    leads = {
        "plan share of trial-phase CPU":
            (metrics["fault.plan_s"],
             metrics["fault.plan_s"] + metrics["fault.trials_cpu_s"]),
        "profile share of fault-free time":
            (metrics["profile.collect_s"], fault_free),
        "executed share of trials": (metrics["fault.trials_executed"], trials),
    }
    notes.append(f"traced replays: {len(per_replay)} (medians below); spans "
                 f"of the last in {path.relative_to(ROOT)}")
    notes.append(f"traced vs untraced outcome counts: {mismatched} of "
                 f"{len(untraced) * len(per_replay)} cells differ")
    notes.append("tracing overhead: traced replay CPU minus the CPU of the "
                 "same replay with the tracer off, run just before it "
                 f"(median {statistics.median(base_cpu):.3f} s off)")
    return metrics, bases, leads, untraced_line, notes, mismatched


# ---- one workload -----------------------------------------------------------

def run_workload(workload, seed, seconds, trace, reference_override=None):
    grid, _ = WORKLOADS[workload]
    seeds = injection_seeds(grid, seed)
    grids = []  # cells of every grid the run makes, checked at the end
    extra_failed = 0
    if trace:
        metrics, bases, leads, run_line, notes, extra_failed = traced_run(
            workload, seed, seeds, seconds, grids)
        samples = None
    else:
        samples, run_line, notes = timed_run(workload, seeds, seconds, grids)
        metrics = {k: statistics.median(samples[k]) for k, _ in END_TO_END}
        bases, leads = {}, {}
    table = load_reference(grid, seeds, reference_override)
    attempted, failed = check_grids(grids, table)
    failed_count = len(failed) + extra_failed

    prov = provenance(run_line)
    log(f"== {workload}  seed={seed} (injection seeds {seeds_arg(seeds)})  "
        f"trace={trace}")
    log("   " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    for n in notes:
        log("   " + n)
    units = dict(END_TO_END + PER_LAYER)
    if samples:
        log(f"   {'metric':<12}{'median':>12}{'min':>12}{'max':>12}{'n':>5}  unit")
        for name, unit in END_TO_END:
            v = samples[name]
            log(f"   {name:<12}{metrics[name]:>12.4f}{min(v):>12.4f}"
                f"{max(v):>12.4f}{len(v):>5}  {unit}")
    else:
        for name, unit in PER_LAYER:
            v = metrics[name]
            text = f"{v:>16}" if isinstance(v, int) else f"{v:>16.6f}"
            base = f"  ({bases[name]})" if name in bases else ""
            log(f"   {name:<30}{text} {unit}{base}")
        for lead, (part, whole) in leads.items():
            share = part / whole if whole else 0.0
            log(f"   lead: {lead}: {share:.3f} ({part:g} of {whole:g})")
    log(f"   cells checked against the reference: {failed_count} failed of "
        f"{attempted} attempted" + (f" (first: {failed[0]})" if failed else ""))

    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "provenance": prov, "attempted": attempted, "failed": failed_count,
        "failed_cells": failed[:20],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }
    if samples:
        result["samples"] = samples
    with open(BUILD_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps(result) + "\n")
    return result


def make_references():
    for grid in GRIDS:
        seeds = injection_seeds(grid, 0)
        table = compute_reference(grid, seeds)
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{grid}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        log(f"wrote {path.relative_to(ROOT)}: {len(table['cells'])} cells")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true",
                    help="regenerate perfbench/reference/*.json")
    ap.add_argument("--reference", help="use this reference table instead")
    args = ap.parse_args()
    if os.environ.get("SOFTCHECK_VALIDATE_STATIC_MASKED") is not None:
        # That hook re-executes every statically resolved trial, which
        # would inflate every stratified number without changing a count.
        sys.exit("refusing to run: SOFTCHECK_VALIDATE_STATIC_MASKED is set")
    if not args.make_reference and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        build()
        if args.make_reference:
            make_references()
            return
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, args.trace,
                                args.reference) for n in names]
    except BenchError as e:
        sys.exit(f"perfbench: {e}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
