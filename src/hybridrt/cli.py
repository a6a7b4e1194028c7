"""Command-line entry point.

One binary, six subcommands: render, simulate, hdr-recover, hdr-merge,
estimate-emitters, gen-assets. Exit codes: 0 success, 2 configuration or
validation error, 3 numeric failure, 4 I/O failure. Errors print one
machine-parsable line: ``error: <subcommand>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _UsageError(Exception):
    """A command line that does not parse."""


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits on a bad command line; raising
    # instead lets main report it as one error line like any other. prog
    # is "hybridrt" or "hybridrt <subcommand>".
    def error(self, message):
        raise _UsageError(f"{self.prog.split()[-1]}: {message}")


def build_parser() -> argparse.ArgumentParser:
    from .emitters import EstimatorConfig

    p = _Parser(
        prog="hybridrt",
        description="Hybrid surface/volume path tracer with HDR calibration, "
                    "emitter estimation, and XPBD dynamics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common_render(sp):
        sp.add_argument("--scene", required=True, help="scene JSON path")
        sp.add_argument("--out", default=None, help="output path")
        sp.add_argument("--spp", type=int, default=None, help="samples per pixel override")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed override")
        sp.add_argument("--width", type=int, default=None, help="image width override")
        sp.add_argument("--height", type=int, default=None, help="image height override")
        sp.add_argument("--hdr", action="store_true", help="write float PFM instead of 8-bit PPM")
        sp.add_argument("--threads", type=int, default=1, help="render worker threads")

    sp = sub.add_parser("render", help="render one frame of a scene")
    add_common_render(sp)

    sp = sub.add_parser("simulate", help="step the dynamics and write frame snapshots")
    add_common_render(sp)
    sp.add_argument("--frames", type=int, default=30, help="simulation frames to advance")
    sp.add_argument("--render-frames", action="store_true",
                    help="also render every snapshot through the hybrid renderer")

    sp = sub.add_parser("hdr-recover", help="recover the inverse camera response from a bracket")
    sp.add_argument("--bracket", required=True, help="bracket manifest JSON")
    sp.add_argument("--out", required=True, help="CRF CSV output path")
    sp.add_argument("--smoothness", type=float, default=50.0, help="curvature weight lambda")
    sp.add_argument("--samples", type=int, default=200, help="pixel sample count")

    sp = sub.add_parser("hdr-merge", help="merge a bracket into a linear HDR image")
    sp.add_argument("--bracket", required=True, help="bracket manifest JSON")
    sp.add_argument("--crf", required=True, help="CRF CSV from hdr-recover")
    sp.add_argument("--out", required=True, help="output PFM path")
    sp.add_argument("--normalize", action="store_true",
                    help="scale the result to a [0, 255] peak")
    sp.add_argument("--downsample4", action="store_true",
                    help="4x4 box-filter downsample after merging")

    sp = sub.add_parser("estimate-emitters", help="recover per-face emission from GT images")
    sp.add_argument("--scene", required=True, help="estimation scene JSON (Lambertian only)")
    sp.add_argument("--poses", required=True, help="pose list JSON")
    sp.add_argument("--gt-dir", required=True, help="directory of gt_%%04d.pfm images")
    sp.add_argument("--out", required=True, help="emitter set JSON output")
    sp.add_argument("--loss-csv", default=None, help="loss history CSV output")
    sp.add_argument("--alpha", type=float, default=EstimatorConfig.alpha,
                    help="L1 sparsity weight")
    sp.add_argument("--epochs", type=int, default=EstimatorConfig.epochs,
                    help="gradient descent epochs")
    sp.add_argument("--threshold", type=float, default=EstimatorConfig.brightness_threshold,
                    help="clip/prune brightness threshold")
    sp.add_argument("--max-depth", type=int, default=3, help="light transport depth")

    sp = sub.add_parser("gen-assets", help="write analytic preset assets and scenes")
    sp.add_argument("preset", help="preset name; an unknown name lists the presets")
    sp.add_argument("--out", required=True, help="output directory")
    return p


def _apply_overrides(scene, args):
    from .render import Camera
    if args.width is not None or args.height is not None:
        w, h = scene.camera.resolution
        w = w if args.width is None else args.width
        h = h if args.height is None else args.height
        if w < 1 or h < 1:
            raise ValueError("width/height overrides must be positive")
        scene.camera = Camera(pose=scene.camera.pose, fov=scene.camera.fov,
                              resolution=(w, h))
    if args.spp is not None and args.spp < 1:
        raise ValueError("--spp must be >= 1")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")


def _write_image(img, out_path, hdr: bool):
    from .images import write_pfm, write_ppm
    if hdr:
        write_pfm(out_path, img)
    else:
        write_ppm(out_path, img)


def _cmd_render(args) -> int:
    from .render import render
    from .scene import load_scene
    scene = load_scene(args.scene)
    _apply_overrides(scene, args)
    img = render(scene, spp=args.spp, seed=args.seed, threads=args.threads)
    out = args.out or ("render.pfm" if args.hdr else "render.ppm")
    _write_image(img, out, args.hdr)
    print(out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import sim
    from .render import render
    from .scene import load_scene
    from .surface import save_obj

    if args.frames < 0:
        raise ValueError("--frames must be >= 0")
    scene = load_scene(args.scene)
    _apply_overrides(scene, args)
    world, binding = sim.build_world(scene)
    out_dir = args.out or "sim_out"
    os.makedirs(out_dir, exist_ok=True)

    def snapshot(k):
        dyn = [m for m, _ in binding.cloth_meshes] + [m for m, _ in binding.rigid_meshes]
        for mesh in dyn:
            save_obj(os.path.join(out_dir, f"frame_{k:04d}_{mesh.name}.obj"),
                     mesh.vertices, mesh.indices)
        doc = {"frame": k,
               "bodies": [{"name": b.name, "com": b.com.tolist(),
                           "orientation": b.q.tolist(),
                           "lin_vel": b.lin_vel.tolist(),
                           "ang_vel": b.ang_vel.tolist()} for b in world.bodies]}
        if scene.field is not None:
            doc["field_transform"] = scene.field.world_from_field.m.tolist()
        with open(os.path.join(out_dir, f"frame_{k:04d}_transforms.json"), "w") as f:
            json.dump(doc, f, indent=2)
        if args.render_frames:
            img = render(scene, spp=args.spp, seed=args.seed, threads=args.threads)
            ext = "pfm" if args.hdr else "ppm"
            _write_image(img, os.path.join(out_dir, f"frame_{k:04d}.{ext}"), args.hdr)

    snapshot(0)
    for k in sim.run(world, scene, binding, args.frames):
        snapshot(k)
    print(out_dir)
    return EXIT_OK


def _cmd_hdr_recover(args) -> int:
    from .hdr import load_bracket, recover_crf, save_crf_csv
    bracket = load_bracket(args.bracket)
    crf = recover_crf(bracket, lam=args.smoothness, n_samples=args.samples)
    save_crf_csv(args.out, crf)
    print(args.out)
    return EXIT_OK


def _cmd_hdr_merge(args) -> int:
    from .hdr import box_downsample, load_bracket, load_crf_csv, merge_hdr, normalize_radiance
    from .images import write_pfm
    bracket = load_bracket(args.bracket)
    crf = load_crf_csv(args.crf)
    img = merge_hdr(bracket, crf)
    if args.downsample4:
        img = box_downsample(img, 4)
    if args.normalize:
        img = normalize_radiance(img)
    write_pfm(args.out, img)
    print(args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    from . import emitters as est
    from .images import read_pfm
    from .scene import load_poses, load_scene

    config = est.EstimatorConfig(alpha=args.alpha, epochs=args.epochs,
                                 brightness_threshold=args.threshold)
    scene = load_scene(args.scene)
    poses = load_poses(args.poses)
    gt = []
    for i, cam in enumerate(poses):
        path = os.path.join(args.gt_dir, f"gt_{i:04d}.pfm")
        img = read_pfm(path)
        if (img.w, img.h) != cam.resolution:
            raise est.EstimationError(f"{path}: {img.w}x{img.h} image, but pose {i} "
                                      f"renders {cam.resolution[0]}x{cam.resolution[1]}")
        if not np.all(np.isfinite(img.pixels)):
            raise est.EstimationError(f"{path}: non-finite pixel values")
        gt.append(img.pixels.reshape(-1, 3))
    emitter_set, _, history = est.estimate(scene, poses, np.concatenate(gt), config,
                                           args.max_depth)
    est.save_emitters_json(args.out, emitter_set)
    if args.loss_csv:
        est.save_loss_csv(args.loss_csv, history)
    print(args.out)
    return EXIT_OK


def _cmd_gen_assets(args) -> int:
    from . import assets
    for w in assets.generate(args.preset, args.out):
        print(w)
    return EXIT_OK


_COMMANDS = {
    "render": _cmd_render,
    "simulate": _cmd_simulate,
    "hdr-recover": _cmd_hdr_recover,
    "hdr-merge": _cmd_hdr_merge,
    "estimate-emitters": _cmd_estimate,
    "gen-assets": _cmd_gen_assets,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:  # SceneError, HdrError and EstimationError among them
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
