"""Spans and counters recorded around hybridrt's public entry points.

The tracer patches functions and methods from outside the package: each
wrapped call records a span (name, start, end, parent, run id) and the
counts taken from its arguments and return value. Spans stay in memory
until the benchmark writes them out. With tracing disabled a wrapper is a
single flag test before calling through, and the untraced benchmark run
installs no wrappers at all.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time

import numpy as np

# Span name -> the per-layer metrics it feeds: "<span>_s" (inclusive) and
# "<span>_self_s" (minus the part of its interval that child spans cover).
SPANS = (
    "render.frame", "render.shadow",
    "surface.nearest", "surface.anyhit", "surface.bvh_build", "surface.bsdf",
    "field.march", "field.sample", "field.sdf_query", "field.bake",
    "rng.uniform",
    "sim.step", "sim.contacts", "sim.sync",
    "emitters.transport", "emitters.optimize",
    "hdr.recover", "hdr.merge",
    "scene.load",
)

COUNTS = (
    "render.calls", "render.shadow_rays", "render.shadow_masked",
    "surface.nearest_rays", "surface.nearest_hits",
    "surface.anyhit_rays", "surface.anyhit_blocked",
    "surface.bvh_builds", "surface.bvh_faces", "surface.bsdf_samples",
    "field.march_substeps", "field.sample_points", "field.sdf_query_points",
    "field.bake_voxel_face_pairs",
    "rng.draws",
    "sim.steps", "sim.contacts",
    "emitters.transport_entries", "emitters.epochs",
    "hdr.recover_unknowns", "hdr.merge_pixels",
)

# Useful outcomes over attempts; the base is the second count.
RATIOS = {
    "render.shadow_masked_frac": ("render.shadow_masked", "render.shadow_rays"),
    "surface.nearest_hit_frac": ("surface.nearest_hits", "surface.nearest_rays"),
}

class Tracer:
    """Records spans in memory; `run` tags every span with a run id."""

    def __init__(self):
        self.enabled = False
        self.run = None
        self.spans = []           # [name, start, end, parent, run, thread, counts]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # Pool threads of a threaded render: the caller waiting on them
            # is the innermost span still open on the main thread.
            parent = self._main_stack[-1]
        else:
            parent = None
        rec = [name, 0.0, 0.0, parent, self.run, threading.get_ident(), None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack().pop()

    def begin(self, run):
        """Record spans under run id `run`, called from the main thread."""
        self.run = run
        self._main_stack = self._stack()
        self.enabled = True

    def end(self):
        self.enabled = False

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced call; count(args, kwargs, out)
        returns the counters to attach to the span."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count is not None:
                rec[6] = count(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def unwrap_all(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        self.enabled = False

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, run, thread, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "run": run, "thread": thread,
                                    "counts": counts or {}}) + "\n")


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _substeps(args, kwargs, out):
    # march_arrays(grid, o, d, s0, s1, dt, ...): one sample per midpoint
    # substep, ceil(segment / dt) of them and at least one on a non-empty
    # segment.
    s0 = np.asarray(_arg(args, kwargs, 3, "s0"))
    s1 = np.asarray(_arg(args, kwargs, 4, "s1"))
    dt = float(_arg(args, kwargs, 5, "dt"))
    seg = np.maximum(s1 - s0, 0.0)
    n = np.where(seg > 0.0, np.maximum(np.ceil(seg / dt), 1), 0)
    return {"field.march_substeps": int(n.sum())}


def _recover_unknowns(args, kwargs, out):
    # One log-response table of 256 codes plus one log exposure per sample
    # pixel, per channel; fully saturated samples are dropped inside, so
    # this is the solve's upper bound.
    hdr = importlib.import_module("hybridrt.hdr")
    bracket = _arg(args, kwargs, 0, "bracket")
    n_samples = kwargs.get("n_samples", args[2] if len(args) > 2 else 200)
    h, w = bracket.images[0].shape[:2]
    xs, _ = hdr._sample_grid(w, h, n_samples)
    return {"hdr.recover_unknowns": 3 * (256 + len(xs))}


def _bake_pairs(args, kwargs, out):
    indices = np.asarray(_arg(args, kwargs, 1, "indices")).reshape(-1, 3)
    return {"field.bake_voxel_face_pairs": int(np.prod(out.res)) * len(indices)}


def install(tracer: Tracer):
    """Wrap the public entry points of every hybridrt layer.

    `hybridrt` re-exports the function `render`, which shadows the module,
    so the module is reached through importlib. render.py binds the field
    march, the shadow mask and the BSDF samplers by name at import, so they
    are wrapped in its namespace, where the bounce loop looks them up.
    """
    render = importlib.import_module("hybridrt.render")
    surface = importlib.import_module("hybridrt.surface")
    field = importlib.import_module("hybridrt.field")
    rng = importlib.import_module("hybridrt.rng")
    sim = importlib.import_module("hybridrt.sim")
    emitters = importlib.import_module("hybridrt.emitters")
    hdr = importlib.import_module("hybridrt.hdr")
    scene = importlib.import_module("hybridrt.scene")

    w = tracer.wrap
    w(render, "render", "render.frame", lambda a, k, out: {"render.calls": 1})
    w(render, "shadow_mask_batch", "render.shadow",
      lambda a, k, out: {"render.shadow_rays": len(out),
                         "render.shadow_masked": int(np.count_nonzero(out < 1.0))})
    w(render, "march_arrays", "field.march", _substeps)
    for fn in ("cosine_sample_batch", "reflect_batch", "dielectric_sample_batch"):
        w(render, fn, "surface.bsdf", lambda a, k, out: {"surface.bsdf_samples": len(out)})

    w(surface.Bvh, "intersect_batch", "surface.nearest",
      lambda a, k, out: {"surface.nearest_rays": len(out[1]),
                         "surface.nearest_hits": int(np.count_nonzero(out[1] >= 0))})
    w(surface.Bvh, "any_hit_batch", "surface.anyhit",
      lambda a, k, out: {"surface.anyhit_rays": len(out),
                         "surface.anyhit_blocked": int(np.count_nonzero(out))})
    w(surface.Bvh, "__init__", "surface.bvh_build",
      lambda a, k, out: {"surface.bvh_builds": 1, "surface.bvh_faces": a[0].n_faces})

    w(field.RadianceGrid, "sample_batch", "field.sample",
      lambda a, k, out: {"field.sample_points": len(out[0])})
    w(field.SdfGrid, "query_batch", "field.sdf_query",
      lambda a, k, out: {"field.sdf_query_points": len(out[0])})
    w(field, "bake_sdf_from_mesh", "field.bake", _bake_pairs)

    w(rng, "uniform", "rng.uniform", lambda a, k, out: {"rng.draws": int(np.size(out))})

    w(sim, "step", "sim.step", lambda a, k, out: {"sim.steps": 1})
    w(sim, "detect_contacts", "sim.contacts", lambda a, k, out: {"sim.contacts": len(out)})
    w(sim, "sync_to_renderer", "sim.sync")

    w(emitters, "build_transport", "emitters.transport",
      lambda a, k, out: {"emitters.transport_entries": int(out.a.size)})
    w(emitters, "optimize_emission", "emitters.optimize",
      lambda a, k, out: {"emitters.epochs": len(out[1]) - 2})

    w(hdr, "recover_crf", "hdr.recover", _recover_unknowns)
    w(hdr, "merge_hdr", "hdr.merge",
      lambda a, k, out: {"hdr.merge_pixels": out.pixels.shape[0] * out.pixels.shape[1]})

    w(scene, "load_scene", "scene.load")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def per_run_totals(spans):
    """{run id: {metric: value}} with inclusive and self time per span
    name and the counts summed over each run."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    runs = {}
    for i, (name, t0, t1, _parent, run, _thread, counts) in enumerate(spans):
        tot = runs.setdefault(run, {})
        dur = t1 - t0
        self_t = dur - _covered(children.get(i, ()), t0, t1)
        tot[name + "_s"] = tot.get(name + "_s", 0.0) + dur
        tot[name + "_self_s"] = tot.get(name + "_self_s", 0.0) + self_t
        for key, val in (counts or {}).items():
            tot[key] = tot.get(key, 0) + val
    return runs


def layer_metrics(spans, pass_runs):
    """Median over passes of each layer's per-pass total; every layer is
    reported, absent ones as 0. A pass's set-up (scene loading) shares
    the pass's run id."""
    runs = per_run_totals(spans)

    def median_of(key):
        vals = [runs.get(r, {}).get(key, 0) for r in pass_runs]
        return statistics.median(vals) if vals else 0

    out = {}
    for name in SPANS:
        for suffix in ("_s", "_self_s"):
            out[name + suffix] = float(median_of(name + suffix))
    for key in COUNTS:
        out[key] = median_of(key)
    for key, (num, base) in RATIOS.items():
        fracs = []
        for r in pass_runs:
            b = runs.get(r, {}).get(base, 0)
            fracs.append(runs[r][num] / b if b else 0.0)
        out[key] = float(statistics.median(fracs)) if fracs else 0.0
    return out


def reconcile(spans, pass_runs):
    """Checks that two counts taken at different layers agree in every
    pass: each march substep samples the field once, and each shadow ray
    is one any-hit query. Returns a list of failure messages."""
    runs = per_run_totals(spans)
    problems = []
    for r in pass_runs:
        tot = runs.get(r, {})
        for a, b in (("field.march_substeps", "field.sample_points"),
                     ("render.shadow_rays", "surface.anyhit_rays")):
            if tot.get(a, 0) != tot.get(b, 0):
                problems.append(f"run {r}: {a}={tot.get(a, 0)} != {b}={tot.get(b, 0)}")
    return problems
