"""The four benchmark workloads: set-up, one timed pass, output checks.

Every workload builds its inputs with `hybridrt.assets.generate` in a
fresh directory, then drives the pipeline through the package's public
functions. Calls go through module attributes (`render.render`,
`sim.step`, ...) so that the traced run, which patches those attributes,
times exactly the calls the untraced run times.

A pass returns the operations it attempted (renders, frames, solves,
bakes), the checks that failed, a SHA-256 of its outputs and the timings
the end-to-end metrics are built from. A pass is timed step by step (a
render, a frame, a solve), and every pass of a workload has the same
steps in the same order, so a run can compare each step across passes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

assets = importlib.import_module("hybridrt.assets")
core = importlib.import_module("hybridrt.core")
emitters = importlib.import_module("hybridrt.emitters")
fieldmod = importlib.import_module("hybridrt.field")
hdr = importlib.import_module("hybridrt.hdr")
images = importlib.import_module("hybridrt.images")
render = importlib.import_module("hybridrt.render")
scene_mod = importlib.import_module("hybridrt.scene")
sim = importlib.import_module("hybridrt.sim")
surface = importlib.import_module("hybridrt.surface")

NPROC = len(os.sched_getaffinity(0))

# Sizes are chosen so one pass takes one to three seconds on 2 cores and a
# run holds several passes; each keeps the layer mix its BENCHMARK.json
# entry describes.
TWO_ROOM_RES = (32, 32)        # two 16-row tiles, one per thread
TWO_ROOM_SPP = 1
FIELD_HIT_RES = (16, 16)
FIELD_HIT_SPP = 4
FIELD_HIT_FRAMES = 40        # impact near frame 22; >= 100 frames per run
BAKE_RES = 16
# The probe set and tolerance of test_bake_icosphere_matches_analytic. The
# set is fixed: a probe near the centre, where |p| - 1 has a cusp no grid
# resolves, would measure the grid rather than the bake.
BAKE_PROBES = (1234, 300)
BAKE_TOLERANCE = 0.05
# Merged / true radiance, 5th and 95th percentile: 4.48 and 4.58 to two
# decimals (4.4802 and 4.5840 at the preset's exposures).
HDR_RATIO_RANGE = (4.475, 4.585)
MOMENTUM_TOL = 1e-6


@dataclass
class PassResult:
    ops: int = 0
    failures: list = dc_field(default_factory=list)
    digest: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    steps: list = dc_field(default_factory=list)   # [(wall_s, cpu_s)] per step
    cpu: int = None                                 # the core it was pinned to
    frame_ms: list = dc_field(default_factory=list)
    paths: int = 0
    render_s: float = 0.0
    quality: dict = dc_field(default_factory=dict)


class _Step:
    """Wall and process CPU time of one step of a pass, appended to its
    steps and added to its totals."""

    def __init__(self, res: PassResult):
        self.res = res

    def __enter__(self):
        self.w0 = time.perf_counter()
        self.c0 = time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.w0
        cpu = time.process_time() - self.c0
        self.res.steps.append((self.wall, cpu))
        self.res.wall_s += self.wall
        self.res.cpu_s += cpu
        return False


def _check_image(img, what, res: PassResult, h):
    px = img.pixels
    if not np.all(np.isfinite(px)) or np.any(px < 0.0):
        res.failures.append(f"{what}: image has non-finite or negative pixels")
    h.update(np.ascontiguousarray(px, dtype=np.float64).tobytes())


def _resize(scene, resolution):
    cam = scene.camera
    scene.camera = render.Camera(pose=cam.pose, fov=cam.fov, resolution=resolution)


# -- two-room -----------------------------------------------------------------


def gen_two_room(work_dir):
    assets.generate("two-room", work_dir)


def load_two_room(work_dir, seed):
    scene = scene_mod.load_scene(os.path.join(work_dir, "two_room.json"))
    _resize(scene, TWO_ROOM_RES)
    return scene


def pass_two_room(scene, seed) -> PassResult:
    res = PassResult(ops=1)
    h = hashlib.sha256()
    with _Step(res):
        img = render.render(scene, spp=TWO_ROOM_SPP, seed=seed, threads=NPROC)
    res.render_s = res.wall_s
    res.paths = TWO_ROOM_RES[0] * TWO_ROOM_RES[1] * TWO_ROOM_SPP
    _check_image(img, "two-room render", res, h)
    res.digest = h.hexdigest()
    return res


# -- field-hit ------------------------------------------------------------------


def gen_field_hit(work_dir):
    assets.generate("field-hit", work_dir)


def load_field_hit(work_dir, seed):
    scene = scene_mod.load_scene(os.path.join(work_dir, "field_hit.json"))
    _resize(scene, FIELD_HIT_RES)
    world, binding = sim.build_world(scene)
    return scene, world, binding


def pass_field_hit(state, seed) -> PassResult:
    """The `simulate --render-frames` loop: step, sync, render per frame."""
    scene, world, binding = state
    cfg = scene.config.sim
    res = PassResult(ops=FIELD_HIT_FRAMES)
    h = hashlib.sha256()
    ball, blob = world.bodies[0], world.bodies[binding.field_body]
    v_before = float(ball.lin_vel[0] - blob.lin_vel[0])
    p_before = ball.mass * ball.lin_vel + blob.mass * blob.lin_vel
    for k in range(FIELD_HIT_FRAMES):
        with _Step(res) as frame:
            sim.step(world, cfg.dt, cfg.substeps, cfg.iterations)
            sim.sync_to_renderer(world, scene, binding)
            t1 = time.perf_counter()
            img = render.render(scene, spp=FIELD_HIT_SPP, seed=seed, threads=1)
            res.render_s += time.perf_counter() - t1
        res.frame_ms.append(frame.wall * 1e3)
        _check_image(img, f"field-hit frame {k + 1}", res, h)
    res.paths = FIELD_HIT_FRAMES * FIELD_HIT_RES[0] * FIELD_HIT_RES[1] * FIELD_HIT_SPP
    for b in world.bodies:
        h.update(np.concatenate([b.com, b.q, b.lin_vel, b.ang_vel]).tobytes())
    h.update(scene.field.world_from_field.m.tobytes())
    res.digest = h.hexdigest()

    # Two-way coupling: momentum is conserved and the relative velocity
    # reverses with the scene's restitution.
    p_after = ball.mass * ball.lin_vel + blob.mass * blob.lin_vel
    v_after = float(ball.lin_vel[0] - blob.lin_vel[0])
    restitution = -v_after / v_before
    res.quality = {"momentum_x": float(p_after[0]), "restitution": restitution}
    if np.max(np.abs(p_after - p_before)) > MOMENTUM_TOL * np.abs(p_before).max():
        res.failures.append(f"field-hit: momentum {p_before} -> {p_after}")
    if abs(restitution - cfg.restitution) > MOMENTUM_TOL:
        res.failures.append(f"field-hit: restitution {restitution} != {cfg.restitution}")
    return res


# -- calibrate -------------------------------------------------------------------


def _load_poses(path):
    with open(path) as f:
        doc = json.load(f)
    fov = math.radians(float(doc["fov_deg"]))
    resolution = tuple(int(v) for v in doc["resolution"])
    return [render.Camera(pose=core.Transform.look_at(p["position"], p["look_at"], p["up"]),
                          fov=fov, resolution=resolution)
            for p in doc["poses"]]


def gen_calibrate(work_dir):
    assets.generate("hdr-bracket", os.path.join(work_dir, "hdr"))
    assets.generate("estimation-room", os.path.join(work_dir, "estimation"))


def load_calibrate(work_dir, seed):
    hdr_dir = os.path.join(work_dir, "hdr")
    est_dir = os.path.join(work_dir, "estimation")
    bracket = hdr.load_bracket(os.path.join(hdr_dir, "bracket.json"))
    hdr_gt = images.read_pfm(os.path.join(hdr_dir, "hdr_gt.pfm"))
    scene = scene_mod.load_scene(os.path.join(est_dir, "room.json"))
    scene.render.seed = int(seed)
    poses = _load_poses(os.path.join(est_dir, "poses.json"))
    gt_flat = np.concatenate([
        images.read_pfm(os.path.join(est_dir, f"gt_{i:04d}.pfm")).pixels.reshape(-1, 3)
        for i in range(len(poses))])
    return bracket, hdr_gt, scene, poses, gt_flat


def pass_calibrate(state, seed) -> PassResult:
    """hdr-recover + hdr-merge, then estimate-emitters, at CLI defaults."""
    bracket, hdr_gt, scene, poses, gt_flat = state
    res = PassResult(ops=5)
    h = hashlib.sha256()
    config = emitters.EstimatorConfig()
    with _Step(res):
        crf = hdr.recover_crf(bracket)
    with _Step(res):
        merged = hdr.merge_hdr(bracket, crf)
    with _Step(res) as transport:
        op = emitters.build_transport(scene, poses, max_depth=3)
    res.render_s = transport.wall
    with _Step(res):
        emission, _history = emitters.optimize_emission(config, op, gt_flat)
    with _Step(res):
        kept = emitters.prune_emitters(scene.bvh.tri, emission, config.brightness_threshold)
    w, hgt = poses[0].resolution
    res.paths = len(poses) * w * hgt * scene.render.spp

    if np.any(np.diff(crf.g, axis=0) < 0.0):
        res.failures.append("calibrate: recovered CRF is not monotone")
    _check_image(merged, "calibrate merged HDR", res, h)
    gt = hdr_gt.pixels
    ratio = merged.pixels[gt > 0] / gt[gt > 0]
    p5, p95 = (float(v) for v in np.percentile(ratio, [5, 95]))
    lo, hi = HDR_RATIO_RANGE
    if not (lo <= p5 and p95 < hi):
        res.failures.append(f"calibrate: merge ratio p5..p95 {p5:.4f}..{p95:.4f} "
                            f"outside {lo}..{hi}")
    faces = tuple(int(f) for f in np.nonzero(emission.max(axis=1) >=
                                             config.brightness_threshold)[0])
    if faces != tuple(assets.ESTIMATION_GT_FACES):
        res.failures.append(f"calibrate: recovered emitter faces {faces}, "
                            f"expected {tuple(assets.ESTIMATION_GT_FACES)}")
    h.update(crf.g.tobytes())
    h.update(emission.tobytes())
    h.update(kept.r_src.tobytes())
    res.digest = h.hexdigest()
    res.quality = {"hdr_ratio_p5": p5, "hdr_ratio_p95": p95, "hdr_ratio_spread": p95 / p5}
    return res


# -- sdf-bake -----------------------------------------------------------------


def gen_sdf_bake(work_dir):
    assets.generate("sphere", work_dir, res=BAKE_RES)


def load_sdf_bake(work_dir, seed):
    mesh = surface.load_obj(os.path.join(work_dir, "sphere.obj"),
                            bsdf=surface.Lambertian((0.5, 0.5, 0.5)))
    probe_seed, n_probes = BAKE_PROBES
    probes = np.random.default_rng(probe_seed).uniform(-1.3, 1.3, (n_probes, 3))
    return mesh.vertices, mesh.indices, probes


def pass_sdf_bake(state, seed) -> PassResult:
    vertices, indices, probes = state
    res = PassResult(ops=1)
    h = hashlib.sha256()
    with _Step(res):
        sdf = fieldmod.bake_sdf_from_mesh(vertices, indices, (-1.5,) * 3, (1.5,) * 3,
                                          (BAKE_RES,) * 3, jitter_seed=seed)
    phi, _, _ = sdf.query_batch(probes)
    err = float(np.max(np.abs(phi - (np.linalg.norm(probes, axis=1) - 1.0))))
    if not np.all(np.isfinite(sdf.phi)):
        res.failures.append("sdf-bake: non-finite distances")
    if not err < BAKE_TOLERANCE:
        res.failures.append(f"sdf-bake: max probe error {err} >= {BAKE_TOLERANCE}")
    h.update(sdf.phi.tobytes())
    res.digest = h.hexdigest()
    res.quality = {"sdf_err_max": err}
    return res


@dataclass(frozen=True)
class Workload:
    """Set-up is generate(work_dir) then load(work_dir, seed) -> state;
    run_pass(state, seed) is one timed pass."""

    generate: object
    load: object
    run_pass: object
    single_threaded: bool = True


WORKLOADS = {
    "two-room": Workload(gen_two_room, load_two_room, pass_two_room, single_threaded=False),
    "field-hit": Workload(gen_field_hit, load_field_hit, pass_field_hit),
    "calibrate": Workload(gen_calibrate, load_calibrate, pass_calibrate),
    "sdf-bake": Workload(gen_sdf_bake, load_sdf_bake, pass_sdf_bake),
}
