"""Hybrid path tracing: march the radiance field between surface
intersections, bounce at surfaces, repeat.

One bounce loop, `trace_paths`, carries every path: camera paths of
`render` and the transport paths of `emitters.build_transport`. A batch
of paths alternates two updates. Between surface hits the field segment
is integrated by midpoint substeps (throughput times exp(-sigma dt),
radiance accumulating per-substep opacity, optionally shadow-masked). At
a front-facing hit the surface emission weighted by the post-march
throughput is added; given an `on_hit` hook, the loop hands the hit paths,
faces and throughputs to the hook instead. Then a BSDF sample rotates the
ray and multiplies the channel throughput. A path ends when it leaves the
scene, drops below the throughput threshold, or reaches the bounce limit.
The field march, the shadow mask and the BSDF samplers are looked up in
this module's namespace at call time, so a wrapper installed here sees
every path.

A render is cut into tiles by one ray budget, BATCH_RAYS primary rays:
a tile is max(1, BATCH_RAYS // (w · spp)) rows, and a row whose samples
alone exceed the budget splits them over batches (`primary_batches`).
The pool gets one worker per tile at most. At numpy's call overheads a
batch pays per call, not per ray, so a small image runs as one batch on
the calling thread: the benchmark's two-room (32×32×1 spp) and field-hit
(16×16×4 spp) frames are one batch each, where the two-room preset
(64×64×16 spp) keeps four 16-row tiles for its threads.

Everything random is a counter-based function of (seed, pixel, sample,
bounce, purpose, lane), and each pixel adds its samples in sample order,
so renders are bit-identical for any tile schedule, batch size or worker
count.

A still field is marched once. At bounce 1 with no shadow mask (a scene
without emitters), a primary ray enters the march with L = 0 and T = 1,
so its marched (L, T) is a function of the field's values, its pose, the
march step, the ray and its segment [s0, s1] alone, and each ray's bits
are the same in any march batch, as `core.Transform` gives a row its
batch bits. The grid's values are read-only, and s0 follows from the
pose and the ray. So each render keeps, on the field
(`RadianceGrid.march_records`), one record per primary batch: a digest of
the batch's (o, d) bytes, the pose's bytes and the step, and per ray its
segment end min(t_hit, t1) and marched (L, T). The next render takes a
ray's (L, T) from the record of a batch with the same digest when its
segment end is bitwise equal, and marches only the other rays. Its own
records then replace the old ones, so the field holds 56 bytes per
primary ray of its last render.

Shadow rays run through the scene BVH and are blocked only by the faces
of meshes that emit nothing (`Bvh.blocks`), so an emissive mesh never
shadows its own light. They are culled exactly. A shadow segment from a
march point p to any emitter point lies inside box(p and every emitter
vertex); when that box meets no blocking face's box, padded by the spawn
epsilon, no face can block the ray and its mask is 1.0, the value an
unblocked ray returns. Such points draw no light sample and fire no ray
(`shadow_candidates`). Light-sample draws are keyed per (pixel, sample,
bounce, substep), so skipping some leaves every other value unchanged.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import Transform, cross3, max3, sum3
from .field import RadianceGrid, march_arrays
from .images import HdrImage
from .surface import (
    CHUNK_PAIRS,
    Bvh,
    Dielectric,
    Lambertian,
    Mirror,
    cosine_sample_batch,
    dielectric_sample_batch,
    reflect_batch,
)

# Primary rays per batch, the render's one tiling knob (module docstring).
BATCH_RAYS = 16384
SHADOW_T_MAX_SHRINK = 1.0 - 1e-4
BLOCKED_MASK_FLOOR = 0.02


@dataclass
class Camera:
    """Pinhole camera; pose maps camera space (x right, y up, looking down
    -z) to world. fov is the vertical field of view in radians."""

    pose: Transform
    fov: float
    resolution: tuple

    def __post_init__(self):
        w, h = self.resolution
        if w < 1 or h < 1:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if not 0 < self.fov < np.pi:
            raise ValueError(f"vertical fov must be in (0, pi), got {self.fov}")
        self.resolution = (int(w), int(h))

    def primary_rays(self, pixel_ids: np.ndarray, jx: np.ndarray, jy: np.ndarray):
        """World rays through pixel centers offset by jitter in [0, 1)."""
        w, h = self.resolution
        i = pixel_ids % w
        j = pixel_ids // w
        tan_half = np.tan(0.5 * self.fov)
        aspect = w / h
        x = (2.0 * (i + jx) / w - 1.0) * tan_half * aspect
        y = (1.0 - 2.0 * (j + jy) / h) * tan_half
        d_cam = np.stack([x, y, -np.ones_like(x)], axis=1)
        d_world = self.pose.direction(d_cam)
        d_world /= np.linalg.norm(d_world, axis=1, keepdims=True)
        o = np.broadcast_to(self.pose.m[:3, 3], d_world.shape).copy()
        return o, d_world


class EmitterSet:
    """Area-light triangles with source intensities r_src in [0, 1]."""

    def __init__(self, triangles, r_src):
        self.triangles = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
        self.r_src = np.clip(np.asarray(r_src, dtype=np.float64).reshape(-1), 0.0, 1.0)
        if len(self.triangles) != len(self.r_src):
            raise ValueError("emitter triangle/intensity count mismatch")
        with np.errstate(over="ignore", invalid="ignore"):
            cross = cross3(self.triangles[:, 1] - self.triangles[:, 0],
                           self.triangles[:, 2] - self.triangles[:, 0])
            self.areas = 0.5 * np.linalg.norm(cross, axis=1)
            total = self.areas.sum()
        if not np.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(self.areas))
            raise ValueError(f"emitters[{bad[0]}].triangle: area overflows" if len(bad)
                             else "emitters: total triangle area overflows")
        if len(self.areas) and total <= 0:
            raise ValueError("emitter set has zero total area")
        self.cdf = np.cumsum(self.areas) / total if len(self.areas) else np.zeros(0)
        # Box of every emitter vertex: each emitter sample lies inside it.
        verts = self.triangles.reshape(-1, 3)
        self.lo = verts.min(axis=0) if len(verts) else np.full(3, np.inf)
        self.hi = verts.max(axis=0) if len(verts) else np.full(3, -np.inf)

    def __len__(self):
        return len(self.triangles)

    def sample(self, u_pick, u1, u2):
        """Pick triangles by area, then uniform points on them."""
        idx = np.minimum(np.searchsorted(self.cdf, u_pick, side="right"),
                         len(self.triangles) - 1)
        tri = self.triangles[idx]
        su = np.sqrt(u1)
        b0 = 1.0 - su
        b1 = su * (1.0 - u2)
        b2 = su * u2
        pts = (b0[:, None] * tri[:, 0] + b1[:, None] * tri[:, 1]
               + b2[:, None] * tri[:, 2])
        return pts, self.r_src[idx]


def shadow_mask_batch(points, emitters: EmitterSet, bvh: Bvh, u_pick, u1, u2, eps: float):
    """Mask values per point: 1 when no face that `bvh.blocks` hides the
    sampled emitter point, else 1 - r_src clamped to [0.02, 1]."""
    if emitters is None or len(emitters) == 0:
        return np.ones(len(points))
    q, r_src = emitters.sample(u_pick, u1, u2)
    delta = q - points
    dist = np.linalg.norm(delta, axis=1)
    safe = np.maximum(dist, 1e-12)
    d = delta / safe[:, None]
    blocked = bvh.any_hit_batch(points, d, eps, dist * SHADOW_T_MAX_SHRINK)
    masked = np.clip(1.0 - r_src, BLOCKED_MASK_FLOOR, 1.0)
    return np.where(blocked, masked, 1.0)


def shadow_candidates(points, emitters: EmitterSet, bvh: Bvh, pad: float):
    """False where no face that `bvh.blocks` can block any shadow ray
    from the point to the emitters, so its mask is exactly 1.0; True where
    it might.

    A shadow segment lies inside box(p and the emitter vertex box E).
    Moller-Trumbore reports hits only within its barycentric slack of a
    triangle, which `pad` (the spawn epsilon, 1e-4 of the scene diagonal)
    far exceeds, so a blocking face whose padded box misses that box
    cannot block. The faces of emissive meshes block nothing.
    """
    n = len(points)
    if not n:
        return np.zeros(0, dtype=bool)
    lo = bvh.face_lo[bvh.blocks] - pad
    hi = bvh.face_hi[bvh.blocks] + pad
    block_lo = np.minimum(points.min(axis=0), emitters.lo)
    block_hi = np.maximum(points.max(axis=0), emitters.hi)
    near = np.all((lo <= block_hi) & (hi >= block_lo), axis=1)
    if not np.any(near):
        return np.zeros(n, dtype=bool)
    lo = lo[near]
    hi = hi[near]
    # Points from which box(p, E) meets a face box: per axis, p must reach
    # the face on the sides where E alone does not. A face box that meets
    # E's box is unbounded on every axis and keeps every point.
    reach_lo = np.where(emitters.hi < lo, lo, -np.inf)
    reach_hi = np.where(emitters.lo > hi, hi, np.inf)
    cand = np.zeros(n, dtype=bool)
    rows = max(1, CHUNK_PAIRS // len(lo))
    for i in range(0, n, rows):
        p = points[i:i + rows, None, :]
        inside = np.all((p >= reach_lo) & (p <= reach_hi), axis=2)
        cand[i:i + rows] = inside.any(axis=1)
    return cand


def _shadow_fn(scene, m_pix, m_smp, bounce, seed):
    """The march's shadow mask for marching rays with pixel and sample
    indices m_pix and m_smp."""

    def shadow_fn(p, substeps, sub_ids):
        # One call per march block; every point brings its own substep
        # index, the lane of its light-sample draws. Culled points keep
        # the unblocked mask 1.0 and draw nothing.
        m = np.ones(len(p))
        cand = shadow_candidates(p, scene.emitters, scene.bvh, scene.spawn_eps)
        if not np.any(cand):
            return m
        sub_ids = sub_ids[cand]
        substeps = substeps[cand]
        keys = (seed, m_pix[sub_ids], m_smp[sub_ids], bounce)
        u_pick = _rng.uniform(*keys, _rng.LIGHT_PICK, substeps)
        u1 = _rng.uniform(*keys, _rng.LIGHT_U, substeps)
        u2 = _rng.uniform(*keys, _rng.LIGHT_V, substeps)
        m[cand] = shadow_mask_batch(p[cand], scene.emitters, scene.bvh,
                                    u_pick, u1, u2, scene.spawn_eps)
        return m

    return shadow_fn


def _record_key(field: RadianceGrid, step: float, o, d) -> bytes:
    """Digest of a primary batch's rays, the field's pose and the step."""
    h = hashlib.sha256(o.tobytes())
    for a in (d, field.world_from_field.m, field.world_from_field.m_inv, np.float64(step)):
        h.update(a.tobytes())
    return h.digest()


def _march_field(scene, ids, o, d, s_end, bounce, pix, smp, seed, L, T_spec, records=None):
    """March rays `ids` from their bbox entry to min(s_end, bbox exit).

    Given records, a pair (last, now) of dicts, a bounce-1 march without
    a shadow mask takes the rows of last's record of this batch for the
    rays whose segment end is bitwise unchanged, marches the others and
    stores this batch's record in now.
    """
    field: RadianceGrid = scene.field
    step = scene.render.march_step
    o_ids, d_ids = o[ids], d[ids]
    t0, t1 = field.ray_bounds(o_ids, d_ids)
    s0 = np.maximum(t0, 0.0)
    s1 = np.minimum(t1, s_end)
    doit = s1 > s0
    lit = scene.emitters is not None and len(scene.emitters) > 0
    key = None
    if records is not None and bounce == 1 and not lit:
        key = _record_key(field, step, o_ids, d_ids)
        last = records[0].pop(key, None)
        if last is not None:
            same = s1.view(np.uint64) == last[0].view(np.uint64)
            L[ids[same]] = last[1][same]
            T_spec[ids[same]] = last[2][same]
            doit &= ~same
    if np.any(doit):
        mids = ids[doit]
        shadow_fn = _shadow_fn(scene, pix[mids], smp[mids], bounce, seed) if lit else None
        Lm = L[mids]
        Tm = T_spec[mids]
        march_arrays(field, o_ids[doit], d_ids[doit], s0[doit], s1[doit], step, Lm, Tm,
                     shadow_fn)
        L[mids] = Lm
        T_spec[mids] = Tm
    if key is not None:
        records[1][key] = (s1, L[ids], T_spec[ids])


def _sample_bsdf_groups(bvh, faces, wo, n, front, pix, smp, bounce, seed):
    """Vectorized next-direction sampling, grouped by mesh."""
    k = len(faces)
    new_d = np.zeros((k, 3))
    weight = np.ones((k, 3))
    mesh_of = bvh.face_mesh[faces]
    for mi, mesh in enumerate(bvh.meshes):
        sel = mesh_of == mi
        if not np.any(sel):
            continue
        b = mesh.bsdf
        keys = (seed, pix[sel], smp[sel], bounce)
        if isinstance(b, Lambertian):
            u1 = _rng.uniform(*keys, _rng.BSDF_U, 0)
            u2 = _rng.uniform(*keys, _rng.BSDF_V, 0)
            new_d[sel] = cosine_sample_batch(n[sel], u1, u2)
            weight[sel] = b.albedo
        elif isinstance(b, Mirror):
            new_d[sel] = reflect_batch(wo[sel], n[sel])
            weight[sel] = b.reflectance
        elif isinstance(b, Dielectric):
            u = _rng.uniform(*keys, _rng.BSDF_LOBE, 0)
            new_d[sel] = dielectric_sample_batch(wo[sel], n[sel], front[sel], b.ior, u)
            weight[sel] = b.tint
        else:
            raise TypeError(f"unknown bsdf {type(b)}")
    return new_d, weight


def _check_radiance(L):
    if np.any(np.isnan(L)):
        raise FloatingPointError("NaN radiance in path batch")


def trace_paths(scene, o, d, pix, smp, seed, n_bounces, on_hit=None, records=None):
    """Trace a batch of paths from rays (o, d) for up to n_bounces surface
    interactions; returns their linear radiance (N,3).

    pix and smp are each path's pixel and sample index, the keys of its
    random draws. At front-facing hits the stored face emission weighted by
    the path throughput is added to L, unless on_hit is given: then
    on_hit(ids, faces, T_spec) receives the hit paths, their faces and
    their throughputs instead, and L holds the field's radiance only.
    records, if given, are the bounce-1 march records `_march_field`
    reads and writes.
    """
    n = len(o)
    L = np.zeros((n, 3))
    T_spec = np.ones((n, 3))
    ray_o = o.copy()
    ray_d = d.copy()
    alive = np.arange(n)
    bvh = scene.bvh
    for bounce in range(1, n_bounces + 1):
        if not len(alive):
            break
        t_hit, face = bvh.intersect_batch(ray_o[alive], ray_d[alive])
        if scene.field is not None:
            _march_field(scene, alive, ray_o, ray_d, t_hit, bounce,
                         pix, smp, seed, L, T_spec, records)
        hit = face >= 0
        hit_ids = alive[hit]
        if not len(hit_ids):
            break  # every live ray ran out of the scene
        hf = face[hit]
        th = t_hit[hit]
        point = ray_o[hit_ids] + th[:, None] * ray_d[hit_ids]
        n_raw = bvh.face_normal[hf]
        facing = sum3(n_raw * ray_d[hit_ids]) < 0.0
        normal = np.where(facing[:, None], n_raw, -n_raw)

        if on_hit is None:
            emit = bvh.face_emission[hf]
            L[hit_ids] += T_spec[hit_ids] * np.where(facing[:, None], emit, 0.0)
        elif np.any(facing):
            front_ids = hit_ids[facing]
            on_hit(front_ids, hf[facing], T_spec[front_ids])

        wo = -ray_d[hit_ids]
        new_d, weight = _sample_bsdf_groups(bvh, hf, wo, normal, facing,
                                            pix[hit_ids], smp[hit_ids], bounce, seed)
        T_spec[hit_ids] *= weight
        ray_o[hit_ids] = point + scene.spawn_eps * new_d
        ray_d[hit_ids] = new_d

        keep = max3(T_spec[hit_ids]) >= scene.render.threshold
        alive = hit_ids[keep]
    _check_radiance(L)
    return L


def _sample_jitter(seed, pix, sample_ids, spp):
    """Stratified sub-pixel jitter when spp is a perfect square, else pure
    random jitter; both keyed per (pixel, sample)."""
    u1 = _rng.uniform(seed, pix, sample_ids, 0, _rng.PIXEL_X, 0)
    u2 = _rng.uniform(seed, pix, sample_ids, 0, _rng.PIXEL_Y, 0)
    k = int(np.floor(np.sqrt(spp)))
    if k * k == spp and k > 1:
        sx = sample_ids % k
        sy = sample_ids // k
        return (sx + u1) / k, (sy + u2) / k
    return u1, u2


def primary_batches(camera, spp, seed, pix):
    """Jittered camera rays for spp samples of every pixel in pix, in
    batches of BATCH_RAYS // len(pix) samples per pixel; yields
    (pix, smp, o, d) per batch, each pixel's samples adjacent."""
    npix = len(pix)
    per_batch = max(1, BATCH_RAYS // npix)
    for s in range(0, spp, per_batch):
        sb = min(per_batch, spp - s)
        pix_rep = np.repeat(pix, sb)
        smp_rep = np.tile(np.arange(s, s + sb), npix)
        jx, jy = _sample_jitter(seed, pix_rep, smp_rep, spp)
        o, d = camera.primary_rays(pix_rep, jx, jy)
        yield pix_rep, smp_rep, o, d


def _render_tile(scene, camera, spp, seed, rows, records):
    w, _ = camera.resolution
    r0, r1 = rows
    pix = np.arange(r0 * w, r1 * w)
    acc = np.zeros((len(pix), 3))
    for pix_rep, smp_rep, o, d in primary_batches(camera, spp, seed, pix):
        L = trace_paths(scene, o, d, pix_rep, smp_rep, seed, scene.render.n_bounces,
                        records=records)
        # In sample order, so the sum does not depend on the batch split.
        for s in L.reshape(len(pix), -1, 3).swapaxes(0, 1):
            acc += s
    return (acc / spp).reshape(r1 - r0, w, 3)


def render(scene, camera: Camera = None, spp: int = None, seed: int = None,
           threads: int = 1) -> HdrImage:
    """Average spp hybrid paths per pixel into a linear HDR image."""
    camera = camera or scene.camera
    spp = scene.render.spp if spp is None else int(spp)
    seed = scene.render.seed if seed is None else int(seed)
    if spp < 1:
        raise ValueError("spp must be >= 1")
    if not -2**63 <= seed < 2**64:
        raise ValueError(f"seed must be in [-2^63, 2^64), got {seed}")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    w, h = camera.resolution
    out = np.zeros((h, w, 3))
    tile_h = max(1, BATCH_RAYS // (w * spp))
    tiles = [(r, min(r + tile_h, h)) for r in range(0, h, tile_h)]
    # The field's records of its last render are read, and this render's
    # replace them once it is done.
    records = None if scene.field is None else (scene.field.march_records, {})

    def work(rows):
        out[rows[0]:rows[1]] = _render_tile(scene, camera, spp, seed, rows, records)

    threads = min(threads, len(tiles))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, tiles))
    else:
        for rows in tiles:
            work(rows)
    if records is not None:
        scene.field.march_records = records[1]
    img = HdrImage(out)
    if not (np.all(np.isfinite(img.pixels)) and np.all(img.pixels >= 0.0)):
        raise FloatingPointError("rendered image has non-finite or negative pixels")
    return img
