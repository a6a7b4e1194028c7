"""hybridrt benchmark: four preset workloads, end-to-end metrics, and a
traced run with per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each measurement runs in its own worker
process (`worker.py`), so peak memory is per workload; the package is
imported from `src/`. Work files go to `.perfbench_out/` in the root.

Workloads (sizes are in `workloads.py`):
  two-room   one render of the two-room preset with one thread per core;
             the shadow-masked field march dominates and nearest-hit runs
             on the brute-force side of Bvh.BRUTE_FORCE_FACES.
  field-hit  the `simulate --render-frames` loop: sim.step, sync, render
             per frame, one thread. Two-way mesh/field coupling, no
             emitters, so no shadow rays; the ball's BVH (168 faces, the
             traversal side) is rebuilt every frame.
  calibrate  hdr recover + merge on hdr-bracket, then transport build,
             gradient descent and pruning on estimation-room.
  sdf-bake   bake_sdf_from_mesh of the sphere preset's 320-face icosphere.

--trace 0 prints the end-to-end metrics: set-up time, pass wall and CPU
time, peak memory and the share of operations whose output checks passed;
workload-specific results (paths/s, frame percentiles, HDR ratio spread,
SDF probe error, output digests) are printed above the result line.
--trace 1 runs the workload untraced, then traced, for half the seconds
each, checks that both give the same output digests and that counts
taken at different layers reconcile, and prints the per-layer metrics,
the tracing overhead and lines of source per module.

Timings are medians. `wall_s` and `cpu_s` add up, over the steps of a
pass (a render, a frame, a solve), each step's median across the run's
passes, so that a slow spell of the host in one pass moves only the
steps it overlapped. Passes of the single-threaded workloads take turns
on the cores; for them this sum is taken per core and averaged over the
cores, so a core that runs slower for a while moves the result by its
share only. `setup_s` is the median of the run's set-ups. The median
pass time is printed above the result line for comparison.

The last line of stdout is the result JSON. Exit status is non-zero, with
no result line, when a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("two-room", "field-hit", "calibrate", "sdf-bake")
LOC_MODULES = ("__init__", "assets", "cli", "core", "emitters", "field", "hdr",
               "images", "render", "rng", "scene", "sim", "surface")
DEADLINE_S = 170.0


def run_worker(workload, seed, seconds, trace, work_dir, deadline, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    if spans:
        cmd += ["--spans", spans]
    # One BLAS thread: with a BLAS pool beside two-room's render threads
    # the process would exceed one thread per core, and on two cores the
    # pool made calibrate's pass times bimodal.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["passes"]:
        raise RuntimeError(f"no pass of {workload} completed: {res['failures'][:3]}")
    return res


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(-(-q * len(s) // 100)) - 1))]


def median_pass(passes, which):
    """Sum over a pass's steps of each step's median time across the
    passes that ran on one core, averaged over cores; `which` is 0 for
    wall and 1 for CPU time."""
    by_cpu = {}
    for p in passes:
        by_cpu.setdefault(p["cpu"], []).append(p["steps"])
    return statistics.mean(
        sum(statistics.median(t[which] for t in step) for step in zip(*runs))
        for runs in by_cpu.values())


def end_to_end(res):
    passes = res["passes"]
    return {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "wall_s": (median_pass(passes, 0), "s"),
        "cpu_s": (median_pass(passes, 1), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_rate": ((res["attempted"] - res["failed"]) / res["attempted"], "fraction"),
    }


def workload_results(res):
    """Results that exist on some workloads only, printed for reading."""
    passes = res["passes"]
    out = {"error_rate": (res["failed"] / res["attempted"], "fraction"),
           "pass_wall_s_median": (statistics.median(p["wall_s"] for p in passes), "s")}
    render_s = sum(p["render_s"] for p in passes)
    if render_s > 0:
        out["paths_per_s"] = (sum(p["paths"] for p in passes) / render_s, "paths/s")
    if res["frame_ms"]:
        out["frame_ms_p50"] = (statistics.median(res["frame_ms"]), "ms")
        out["frame_ms_p90"] = (percentile(res["frame_ms"], 90), "ms")
    for key, unit in (("hdr_ratio_spread", "ratio"), ("sdf_err_max", "world units"),
                      ("momentum_x", "kg m/s"), ("restitution", "ratio")):
        vals = [p["quality"][key] for p in passes if key in p["quality"]]
        if vals:
            out[key] = (statistics.median(vals), unit)
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "trace.overhead":
        return "ratio"
    if name.startswith("loc."):
        return "lines"
    return "count"


def lines_of_source():
    src = os.path.join(ROOT, "src", "hybridrt")
    loc = {}
    for mod in LOC_MODULES:
        path = os.path.join(src, mod + ".py")
        if os.path.exists(path):
            with open(path, "rb") as f:
                loc["loc." + mod] = f.read().count(b"\n")
        else:
            loc["loc." + mod] = 0
    total = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                total += f.read().count(b"\n")
    loc["loc.total"] = total
    return loc


def describe(res, label):
    n_frames = len(res["frame_ms"])
    print(f"{label}: {len(res['passes'])} passes, {len(res['setup_s'])} set-ups"
          + (f", {n_frames} frames" if n_frames else "")
          + f"; {res['attempted']} operations, {res['failed']} failed")
    digests = sorted({p["digest"] for p in res["passes"]})
    print(f"  output sha256: {', '.join(digests)}")
    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.4f}" for p in res["passes"]))
    for msg in res["failures"]:
        print(f"  check failed: {msg}")


def show(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if not args.trace:
            res = run_worker(args.workload, args.seed, args.seconds, 0, work_dir, deadline)
            describe(res, f"{args.workload} seed {args.seed}")
            metrics = end_to_end(res)
            print("end-to-end:")
            show(metrics)
            print("workload results:")
            show(workload_results(res))
            attempted, failed = res["attempted"], res["failed"]
            correct = failed == 0
        else:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            half = args.seconds / 2.0
            plain = run_worker(args.workload, args.seed, half, 0, work_dir, deadline)
            traced = run_worker(args.workload, args.seed, half, 1, work_dir, deadline, spans)
            describe(plain, f"{args.workload} seed {args.seed} untraced")
            describe(traced, f"{args.workload} seed {args.seed} traced")
            same = ({q["digest"] for q in plain["passes"]}
                    == {q["digest"] for q in traced["passes"]})
            if not same:
                print("  check failed: traced and untraced output digests differ")
            for msg in traced["reconcile"]:
                print(f"  reconciliation failed: {msg}")
            print(f"  {traced['spans']} spans written to {os.path.relpath(spans, ROOT)}")
            wall_plain = median_pass(plain["passes"], 0)
            wall_traced = median_pass(traced["passes"], 0)
            values = dict(traced["layers"])
            values["trace.overhead"] = wall_traced / wall_plain - 1.0
            values.update(lines_of_source())
            metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
            print("per-layer (median over traced passes):")
            show(metrics)
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            correct = failed == 0 and same and not traced["reconcile"]
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
