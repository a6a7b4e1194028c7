"""Procedural meshes, grids, and ready-to-render preset scenes.

The presets back the test suite and the `gen-assets` subcommand: each one
writes its grid/mesh files plus a scene JSON next to them, so every
documented pipeline run starts from a generated directory.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .field import RadianceGrid, grid_points, save_rfgrid
from .surface import save_obj


# -- meshes ------------------------------------------------------------------


def quad(corner, edge_u, edge_v):
    """Two triangles spanning corner + [0,1]edge_u + [0,1]edge_v.

    Winding is counter-clockwise seen from the cross(edge_u, edge_v) side,
    which is therefore the front (emitting) side.
    """
    c = np.asarray(corner, dtype=np.float64)
    u = np.asarray(edge_u, dtype=np.float64)
    v = np.asarray(edge_v, dtype=np.float64)
    verts = np.array([c, c + u, c + u + v, c + v])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return verts, faces


def box(lo, hi, inward: bool = False):
    """Axis-aligned box of 12 triangles; inward flips normals for rooms."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    verts = np.array([
        [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
        [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
    ])
    # Outward-facing CCW quads.
    quads = [
        (0, 3, 2, 1),  # z = z0
        (4, 5, 6, 7),  # z = z1
        (0, 1, 5, 4),  # y = y0
        (2, 3, 7, 6),  # y = y1
        (0, 4, 7, 3),  # x = x0
        (1, 2, 6, 5),  # x = x1
    ]
    faces = []
    for a, b, c, d in quads:
        faces.append([a, b, c])
        faces.append([a, c, d])
    faces = np.array(faces)
    if inward:
        faces = faces[:, ::-1]
    return verts, faces


def icosphere(radius: float = 1.0, subdivisions: int = 2, center=(0.0, 0.0, 0.0)):
    """Refined icosahedron; subdivision 2 gives 320 faces."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = verts.tolist()
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = np.array(verts[i]) + np.array(verts[j])
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m.tolist())
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts) * radius + np.asarray(center, dtype=np.float64)
    return v, np.array(faces, dtype=np.int64)


def uv_sphere(radius: float = 0.5, rings: int = 8, segments: int = 12,
              center=(0.0, 0.0, 0.0)):
    """Latitude/longitude sphere with exact pole vertices (z axis)."""
    cz = np.asarray(center, dtype=np.float64)
    verts = [[0.0, 0.0, radius], [0.0, 0.0, -radius]]
    for r in range(1, rings):
        theta = math.pi * r / rings
        for s in range(segments):
            phi = 2 * math.pi * s / segments
            verts.append([
                radius * math.sin(theta) * math.cos(phi),
                radius * math.sin(theta) * math.sin(phi),
                radius * math.cos(theta),
            ])
    faces = []
    def ring_idx(r, s):
        return 2 + (r - 1) * segments + (s % segments)
    for s in range(segments):
        faces.append([0, ring_idx(1, s), ring_idx(1, s + 1)])
        faces.append([1, ring_idx(rings - 1, s + 1), ring_idx(rings - 1, s)])
    for r in range(1, rings - 1):
        for s in range(segments):
            a, b = ring_idx(r, s), ring_idx(r, s + 1)
            c, d = ring_idx(r + 1, s), ring_idx(r + 1, s + 1)
            faces.append([a, d, b])
            faces.append([a, c, d])
    return np.array(verts) + cz, np.array(faces, dtype=np.int64)


def cloth_grid(nx: int, ny: int, corner, edge_u, edge_v):
    """Regular particle grid with triangles, for thin-shell simulation."""
    c = np.asarray(corner, dtype=np.float64)
    u = np.asarray(edge_u, dtype=np.float64)
    v = np.asarray(edge_v, dtype=np.float64)
    verts = np.array([c + u * (i / (nx - 1)) + v * (j / (ny - 1))
                      for j in range(ny) for i in range(nx)])
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b = a + 1
            cx = a + nx
            d = cx + 1
            faces.append([a, b, d])
            faces.append([a, d, cx])
    return verts, np.array(faces, dtype=np.int64)


# -- grids --------------------------------------------------------------------


def gaussian_blob_field(lo, hi, center, width, peak_sigma, radiance, res=(32, 32, 32)) -> RadianceGrid:
    """Smooth density bump; radiance follows the density profile."""
    pts = grid_points(lo, hi, res)
    d2 = np.sum((pts - np.asarray(center)) ** 2, axis=1)
    prof = np.exp(-d2 / (2.0 * width * width))
    prof[prof < 1e-3] = 0.0  # hard zero in the far tail: cheap empty space
    sigma_flat = peak_sigma * prof
    rad_flat = prof[:, None] * np.asarray(radiance, dtype=np.float64)
    return RadianceGrid(lo, hi, sigma_flat.reshape(res, order="F"),
                        rad_flat.reshape((*res, 3), order="F"))


# -- preset scene builders ----------------------------------------------------


def _write_scene(out_dir, name, doc):
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
    return path


def gen_smoke_slab(out_dir: str) -> list:
    """Homogeneous unit slab plus two scenes: a normal view and a 1x1
    head-on probe whose center ray crosses exactly unit thickness."""
    os.makedirs(out_dir, exist_ok=True)
    save_rfgrid(os.path.join(out_dir, "slab.rfgrid"),
                RadianceGrid.constant((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1.0, (1.0, 1.0, 1.0)))
    view = {
        "field": {"path": "slab.rfgrid"},
        "camera": {"position": [0.5, 0.5, -1.5], "look_at": [0.5, 0.5, 0.5],
                   "up": [0.0, 1.0, 0.0], "fov_deg": 40.0, "resolution": [64, 64]},
        "render": {"spp": 4, "march_step": 0.01, "seed": 1},
    }
    probe = {
        "field": {"path": "slab.rfgrid"},
        "camera": {"position": [0.5, 0.5, -1.0], "look_at": [0.5, 0.5, 0.5],
                   "up": [0.0, 1.0, 0.0], "fov_deg": 0.02, "resolution": [1, 1]},
        "render": {"spp": 1, "march_step": 0.001, "seed": 1},
    }
    return [
        _write_scene(out_dir, "slab.json", view),
        _write_scene(out_dir, "slab_oracle.json", probe),
    ]


def gen_sphere(out_dir: str, res: int = 64) -> list:
    """The unit icosphere mesh (320 faces), the input of SDF bakes. res is
    accepted and ignored, for callers that still pass it."""
    os.makedirs(out_dir, exist_ok=True)
    v, f = icosphere(1.0, 2)
    save_obj(os.path.join(out_dir, "sphere.obj"), v, f)
    return [os.path.join(out_dir, "sphere.obj")]


FURNACE_R_ENV = 0.8


def gen_furnace(out_dir: str) -> list:
    """Uniform emissive medium enclosing an albedo-1 sphere: any
    energy-conserving path integrator must return the field radiance."""
    os.makedirs(out_dir, exist_ok=True)
    grid = RadianceGrid.constant((-2, -2, -2), (2, 2, 2), 2.0, (FURNACE_R_ENV,) * 3)
    save_rfgrid(os.path.join(out_dir, "furnace.rfgrid"), grid)
    v, f = icosphere(0.5, 2)
    save_obj(os.path.join(out_dir, "fsphere.obj"), v, f)
    scene = {
        "field": {"path": "furnace.rfgrid"},
        "meshes": [{"path": "fsphere.obj",
                    "bsdf": {"type": "lambertian", "albedo": [1.0, 1.0, 1.0]}}],
        "camera": {"position": [0.0, 0.0, 1.6], "look_at": [0.0, 0.0, 0.0],
                   "up": [0.0, 1.0, 0.0], "fov_deg": 45.0, "resolution": [64, 64]},
        "render": {"spp": 64, "n_bounces": 8, "march_step": 0.2, "seed": 7},
    }
    return [_write_scene(out_dir, "furnace.json", scene)]


def gen_two_room(out_dir: str) -> list:
    """Two connected rooms: a glowing smoke blob lights room A, the camera
    looks through the doorway from room B past a mirror sphere."""
    os.makedirs(out_dir, exist_ok=True)
    field = gaussian_blob_field(
        lo=(-1.9, -0.4, -0.9), hi=(-0.1, 1.0, 0.9),
        center=(-1.0, 0.5, 0.0), width=0.35, peak_sigma=6.0,
        radiance=(3.0, 2.5, 1.8), res=(32, 32, 32),
    )
    save_rfgrid(os.path.join(out_dir, "two_room.rfgrid"), field)

    all_v, all_f = [], []

    def add(v, f):
        all_f.append(f + sum(len(x) for x in all_v))
        all_v.append(v)

    # Floor, ceiling, back and side walls of the joined rooms.
    add(*quad((-2, -1, -1), (4, 0, 0), (0, 0, 2)))          # floor y=-1
    add(*quad((-2, 1, 1), (4, 0, 0), (0, 0, -2)))           # ceiling y=1
    add(*quad((-2, -1, -1), (0, 2, 0), (4, 0, 0)))          # back z=-1
    add(*quad((-2, -1, 1), (0, 0, -2), (0, 2, 0)))          # left x=-2
    add(*quad((2, -1, -1), (0, 0, 2), (0, 2, 0)))           # right x=2
    # Divider at x=0 with a doorway gap for z in [-0.4, 0.4].
    add(*quad((0, -1, -1), (0, 2, 0), (0, 0, 0.6)))
    add(*quad((0, -1, 0.4), (0, 2, 0), (0, 0, 0.6)))
    verts = np.concatenate(all_v)
    faces = np.concatenate(all_f)
    save_obj(os.path.join(out_dir, "two_room_walls.obj"), verts, faces)

    sv, sf = icosphere(0.25, 1, center=(1.0, -0.6, 0.3))
    save_obj(os.path.join(out_dir, "two_room_ball.obj"), sv, sf)

    # A proxy emitter quad at the blob, feeding the shadow pass.
    eq_v, eq_f = quad((-1.3, 0.9, -0.3), (0.6, 0, 0), (0, 0, 0.6))
    emitters = [{"triangle": eq_v[eq_f[i]].tolist(), "r_src": 0.8} for i in range(2)]

    scene = {
        "field": {"path": "two_room.rfgrid"},
        "meshes": [
            {"path": "two_room_walls.obj",
             "bsdf": {"type": "lambertian", "albedo": [0.7, 0.7, 0.7]}},
            {"path": "two_room_ball.obj",
             "bsdf": {"type": "mirror", "reflectance": [0.9, 0.9, 0.9]}},
        ],
        "emitters": emitters,
        "camera": {"position": [1.5, 0.2, -0.6], "look_at": [-0.8, 0.1, 0.2],
                   "up": [0.0, 1.0, 0.0], "fov_deg": 60.0, "resolution": [64, 64]},
        "render": {"spp": 16, "n_bounces": 8, "march_step": 0.05, "seed": 3},
    }
    return [_write_scene(out_dir, "two_room.json", scene)]


ESTIMATION_GT_FACES = (2, 3)      # the ceiling quad of the inward box
ESTIMATION_GT_VALUE = 5.0


def gen_estimation_room(out_dir: str) -> list:
    """12-face inward box with two ground-truth emissive ceiling faces,
    eight interior poses, and ground-truth renders at transport settings."""
    from .images import write_pfm
    from .render import render
    from .scene import load_poses, load_scene

    os.makedirs(out_dir, exist_ok=True)
    v, f = box((-1, -1, -1), (1, 1, 1), inward=True)
    save_obj(os.path.join(out_dir, "room.obj"), v, f)
    scene_doc = {
        "meshes": [{"path": "room.obj",
                    "bsdf": {"type": "lambertian", "albedo": [0.7, 0.7, 0.7]}}],
        "camera": {"position": [0.0, 0.0, 0.0], "look_at": [0.0, 0.0, 0.9],
                   "up": [0.0, 1.0, 0.0], "fov_deg": 70.0, "resolution": [24, 24]},
        "render": {"spp": 8, "n_bounces": 3, "threshold": 1e-4, "seed": 5},
    }
    scene_path = _write_scene(out_dir, "room.json", scene_doc)

    poses_doc = {"fov_deg": 70.0, "resolution": [24, 24], "poses": []}
    for k in range(8):
        ang = 2.0 * math.pi * k / 8.0
        pos = [0.45 * math.cos(ang), -0.2, 0.45 * math.sin(ang)]
        target = [-0.6 * math.cos(ang), 0.15, -0.6 * math.sin(ang)]
        poses_doc["poses"].append({"position": pos, "look_at": target,
                                   "up": [0.0, 1.0, 0.0]})
    poses_path = os.path.join(out_dir, "poses.json")
    with open(poses_path, "w") as fh:
        json.dump(poses_doc, fh, indent=2)

    # Ground-truth images from the same forward renderer with the true
    # per-face emission installed.
    scene = load_scene(scene_path)
    emission = np.zeros((len(scene.meshes[0].indices), 3))
    for face in ESTIMATION_GT_FACES:
        emission[face] = ESTIMATION_GT_VALUE
    scene.meshes[0].emission = emission
    scene.rebuild_bvh()
    for i, cam in enumerate(load_poses(poses_path)):
        img = render(scene, camera=cam)
        write_pfm(os.path.join(out_dir, f"gt_{i:04d}.pfm"), img)
    return [scene_path, poses_path]


def gen_hdr_bracket(out_dir: str) -> list:
    """Zero-variance HDR test target (4x4 emissive panels spanning a
    400:1 range) and its gamma-2.2 five-exposure bracket."""
    from .hdr import save_bracket, synthesize_bracket
    from .images import write_pfm
    from .scene import load_scene
    from .render import render

    os.makedirs(out_dir, exist_ok=True)
    levels = np.exp(np.linspace(np.log(0.05), np.log(20.0), 16))
    all_v, all_f, meshes = [], [], []
    for k, level in enumerate(levels):
        i, j = k % 4, k // 4
        v, f = quad((-2.0 + i, -2.0 + j, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        name = f"panel_{k:02d}.obj"
        save_obj(os.path.join(out_dir, name), v, f)
        meshes.append({"path": name,
                       "bsdf": {"type": "lambertian", "albedo": [0.0, 0.0, 0.0]},
                       "emission": [float(level)] * 3})
    scene_doc = {
        "meshes": meshes,
        "camera": {"position": [0.0, 0.0, 4.6], "look_at": [0.0, 0.0, 0.0],
                   "up": [0.0, 1.0, 0.0], "fov_deg": 45.0, "resolution": [128, 128]},
        "render": {"spp": 1, "n_bounces": 2, "seed": 2},
    }
    scene_path = _write_scene(out_dir, "hdr_scene.json", scene_doc)
    img = render(load_scene(scene_path))
    write_pfm(os.path.join(out_dir, "hdr_gt.pfm"), img)
    bracket = synthesize_bracket(img, HDR_BRACKET_TIMES, gamma=2.2)
    manifest = save_bracket(out_dir, bracket)
    return [scene_path, manifest]


HDR_BRACKET_TIMES = [0.02, 0.08, 0.32, 1.28, 5.12]


def gen_drop(out_dir: str) -> list:
    """Rigid ball dropped on a floor slab whose top is at z = 0; the slab
    is a collider, rendered and collided as one mesh. Exercises
    simulate+render."""
    os.makedirs(out_dir, exist_ok=True)
    sv, sf = uv_sphere(0.5, rings=8, segments=12, center=(0, 0, 0))
    save_obj(os.path.join(out_dir, "ball.obj"), sv, sf)
    save_obj(os.path.join(out_dir, "floor.obj"), *box((-3, -3, -3), (3, 3, 0)))
    grid = RadianceGrid.constant((-3, -3, 0), (3, 3, 4), 0.02, (0.9, 0.9, 1.0))
    save_rfgrid(os.path.join(out_dir, "glow.rfgrid"), grid)
    scene = {
        "field": {"path": "glow.rfgrid"},
        "meshes": [
            {"path": "ball.obj",
             "bsdf": {"type": "lambertian", "albedo": [0.8, 0.3, 0.3]},
             "transform": {"translate": [0.0, 0.0, 2.0]},
             "dynamic": {"type": "rigid", "mass": 1.0}},
            {"path": "floor.obj",
             "bsdf": {"type": "lambertian", "albedo": [0.6, 0.6, 0.6]},
             "dynamic": {"type": "collider"}},
        ],
        "camera": {"position": [0.0, -4.0, 1.5], "look_at": [0.0, 0.0, 0.8],
                   "up": [0.0, 0.0, 1.0], "fov_deg": 45.0, "resolution": [64, 64]},
        "render": {"spp": 4, "n_bounces": 4, "march_step": 0.1, "seed": 4},
        "sim": {"gravity": [0.0, 0.0, -9.81], "dt": 0.016666666666666666,
                "substeps": 4, "iterations": 8, "restitution": 0.0, "friction": 0.5},
    }
    return [_write_scene(out_dir, "drop.json", scene)]


def gen_field_hit(out_dir: str) -> list:
    """A mesh ball flies at a rigid radiance-field blob in zero gravity;
    the blob's transform picks up the impact."""
    os.makedirs(out_dir, exist_ok=True)
    field = gaussian_blob_field(lo=(-0.8, -0.8, -0.8), hi=(0.8, 0.8, 0.8),
                                center=(0.0, 0.0, 0.0), width=0.28,
                                peak_sigma=8.0, radiance=(1.5, 1.2, 0.7),
                                res=(24, 24, 24))
    save_rfgrid(os.path.join(out_dir, "blob.rfgrid"), field)
    sv, sf = uv_sphere(0.2, rings=8, segments=12)
    save_obj(os.path.join(out_dir, "ball.obj"), sv, sf)
    scene = {
        "field": {"path": "blob.rfgrid",
                  "dynamic": {"type": "rigid", "mass": 2.0, "sigma_threshold": 0.5}},
        "meshes": [
            {"path": "ball.obj",
             "bsdf": {"type": "lambertian", "albedo": [0.3, 0.5, 0.8]},
             "transform": {"translate": [-1.6, 0.0, 0.0]},
             "dynamic": {"type": "rigid", "mass": 1.0, "velocity": [3.0, 0.0, 0.0]}},
        ],
        "camera": {"position": [0.0, -3.0, 0.6], "look_at": [0.0, 0.0, 0.0],
                   "up": [0.0, 0.0, 1.0], "fov_deg": 40.0, "resolution": [48, 48]},
        "render": {"spp": 4, "n_bounces": 4, "march_step": 0.05, "seed": 6},
        "sim": {"gravity": [0.0, 0.0, 0.0], "dt": 0.016666666666666666,
                "substeps": 4, "iterations": 8, "restitution": 0.8, "friction": 0.0},
    }
    return [_write_scene(out_dir, "field_hit.json", scene)]


PRESETS = {
    "smoke-slab": gen_smoke_slab,
    "sphere": gen_sphere,
    "furnace": gen_furnace,
    "two-room": gen_two_room,
    "estimation-room": gen_estimation_room,
    "hdr-bracket": gen_hdr_bracket,
    "drop": gen_drop,
    "field-hit": gen_field_hit,
}


def generate(preset: str, out_dir: str, **kwargs) -> list:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; options: {', '.join(sorted(PRESETS))}")
    return PRESETS[preset](out_dir, **kwargs)
