"""Run one workload in this process and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR [--spans PATH]

`run.py` starts one worker per measurement so that peak memory is per
workload. The worker sets the workload up afresh before every pass, in a
new directory under --work-dir, runs one untimed warm-up pass, then runs
timed passes, each with its set-up, for --seconds. Every pass's
outputs are checked and must hash like the warm-up pass's. With
--trace 1 it first wraps every layer's entry points and writes the
recorded spans to --spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if not os.path.abspath(sys.modules["hybridrt"].__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"hybridrt was imported from {sys.modules['hybridrt'].__file__}, "
             f"not from {os.path.join(ROOT, 'src')}")

WARM_UP = "warm-up"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    cpus = sorted(os.sched_getaffinity(0))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    setup_s, pass_runs, passes = [], [], []
    failures = []
    attempted = failed = 0
    reference = None

    def set_up(run_id):
        """Fresh inputs for one pass. The warm-up's set-up, which also pays
        for lazy imports, is not timed."""
        d = tempfile.mkdtemp(prefix="setup-", dir=args.work_dir)
        try:
            t0 = time.perf_counter()
            # Asset generation renders ground truth for some presets; it is
            # timed as set-up but kept out of the per-layer trace.
            wl.generate(d)
            traced = tracer is not None and run_id != WARM_UP
            if traced:
                tracer.begin(run_id)
            try:
                state = wl.load(d, args.seed)
            finally:
                if traced:
                    tracer.end()
            if run_id != WARM_UP:
                setup_s.append(time.perf_counter() - t0)
            return state
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def one_pass(run_id):
        """Set up, run and check one pass; returns its result or None."""
        nonlocal attempted, failed, reference
        cpu = None
        if wl.single_threaded:
            # Left alone, the scheduler keeps a run on one core for its
            # whole length, and on a shared host the cores run at speeds
            # that differ for minutes at a time. Successive passes take
            # turns on the cores so that every run weighs them equally.
            cpu = cpus[len(pass_runs) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
        state = set_up(run_id)
        traced = tracer is not None and run_id != WARM_UP
        if traced:
            tracer.begin(run_id)
        try:
            res = wl.run_pass(state, args.seed)
        except Exception:  # a raised error counts as one failed operation
            res = None
            failures.append(f"{run_id}: " + traceback.format_exc(limit=3))
        finally:
            if traced:
                tracer.end()
        if res is None:
            attempted += 1
            failed += 1
            return None
        res.cpu = cpu
        attempted += res.ops
        failed += min(len(res.failures), res.ops)
        failures.extend(f"{run_id}: {msg}" for msg in res.failures)
        if reference is None:
            reference = res.digest
        elif res.digest != reference:
            failed += 1
            failures.append(f"{run_id}: digest {res.digest} differs from "
                            f"{reference} on the same inputs")
        return res

    # One untimed pass first, so that lazy imports and the allocator's
    # first large mappings are behind the timed ones.
    one_pass(WARM_UP)
    stop = time.perf_counter() + args.seconds
    while time.perf_counter() < stop or not pass_runs:
        run_id = f"pass-{len(pass_runs)}"
        res = one_pass(run_id)
        pass_runs.append(run_id)
        if res is not None:
            passes.append(res)

    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "setup_s": setup_s,
        "passes": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "steps": r.steps, "cpu": r.cpu,
                    "paths": r.paths,
                    "render_s": r.render_s, "digest": r.digest, "quality": r.quality}
                   for r in passes],
        "frame_ms": [ms for r in passes for ms in r.frame_ms],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.unwrap_all()
        out["layers"] = tracing.layer_metrics(tracer.spans, pass_runs)
        out["reconcile"] = tracing.reconcile(tracer.spans, pass_runs)
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
