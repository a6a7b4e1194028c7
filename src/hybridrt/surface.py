"""Triangle meshes, BVH intersection, and the three BSDF models.

All geometry is kept in world space; meshes deformed by the simulator get
their normals and the scene BVH rebuilt on sync. Intersection is
Moller-Trumbore with a small barycentric tolerance. The BVH has one layout,
a complete binary heap with padded leaf boxes, and one level-synchronous
traversal that serves nearest-hit and any-hit; both return exactly the hits
of brute force over all faces (strictly nearest t, ties broken toward the
smaller global face id).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .core import Transform, slab_interval, vec3

_BARY_EPS = 1e-7
_DET_EPS = 1e-12
# Leaf box margin per unit of the leaf's longest edge; the bound is in Bvh.
_BOX_PAD = 1e-6
# (ray, box) tests per tree level of a traversal chunk (and per chunk of
# the shadow cull in render.py); bounds the chunk's temporaries.
ANYHIT_CHUNK = 1 << 15
# (ray, face) tests per chunk of the brute-force sweep.
BRUTE_FORCE_CHUNK_PAIRS = 4_000_000


# ---------------------------------------------------------------------------
# BSDFs


def _unit_interval_spectrum(c, name):
    c = vec3(c)
    if np.any(c < 0) or np.any(c > 1):
        raise ValueError(f"{name}: channels must lie in [0, 1], got {c}")
    return c


@dataclass
class Lambertian:
    albedo: np.ndarray

    def __post_init__(self):
        self.albedo = _unit_interval_spectrum(self.albedo, "albedo")


@dataclass
class Mirror:
    reflectance: np.ndarray

    def __post_init__(self):
        self.reflectance = _unit_interval_spectrum(self.reflectance, "reflectance")


@dataclass
class Dielectric:
    ior: float
    tint: np.ndarray = dc_field(default_factory=lambda: np.ones(3))

    def __post_init__(self):
        if not self.ior > 0:
            raise ValueError(f"ior: must be > 0, got {self.ior}")
        self.tint = _unit_interval_spectrum(self.tint, "tint")


Bsdf = Lambertian | Mirror | Dielectric


def _onb(n: np.ndarray):
    """Orthonormal basis with n as the third column (batch of normals)."""
    a = np.where(np.abs(n[:, 0:1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    t = np.cross(a, n)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    b = np.cross(n, t)
    return t, b


def cosine_sample_batch(n: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Cosine-weighted hemisphere directions around each normal."""
    t, b = _onb(n)
    phi = 2.0 * np.pi * u1
    sin_t = np.sqrt(u2)
    z = np.sqrt(1.0 - u2)
    local_x = np.cos(phi) * sin_t
    local_y = np.sin(phi) * sin_t
    return local_x[:, None] * t + local_y[:, None] * b + z[:, None] * n


def reflect_batch(wo: np.ndarray, n: np.ndarray) -> np.ndarray:
    return 2.0 * np.sum(wo * n, axis=1, keepdims=True) * n - wo


def schlick_r0(ior: float) -> float:
    return ((ior - 1.0) / (ior + 1.0)) ** 2


def dielectric_sample_batch(wo, n, front_face, ior, u_lobe):
    """One-sample reflect/refract choice with Schlick reflectance.

    Normals face the incoming side, so dot(n, wo) >= 0; total internal
    reflection always reflects.
    """
    cos_i = np.clip(np.sum(wo * n, axis=1), 0.0, 1.0)
    eta = np.where(front_face, 1.0 / ior, ior)
    sin2_t = eta * eta * np.maximum(1.0 - cos_i * cos_i, 0.0)
    tir = sin2_t > 1.0
    r0 = schlick_r0(ior)
    refl_prob = r0 + (1.0 - r0) * (1.0 - cos_i) ** 5
    take_reflect = tir | (u_lobe < refl_prob)

    refl = reflect_batch(wo, n)
    cos_t = np.sqrt(np.maximum(1.0 - sin2_t, 0.0))
    refr = eta[:, None] * (-wo) + (eta * cos_i - cos_t)[:, None] * n
    refr_norm = np.linalg.norm(refr, axis=1, keepdims=True)
    refr = refr / np.where(refr_norm > 0, refr_norm, 1.0)
    return np.where(take_reflect[:, None], refl, refr)


# ---------------------------------------------------------------------------
# Meshes


class TriangleMesh:
    """Indexed triangles with one BSDF and optional per-face emission."""

    def __init__(self, vertices, indices, bsdf: Bsdf, emission=None,
                 world_from_object: Optional[Transform] = None, name: str = "mesh"):
        self.name = name
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
        if indices.size and (indices.min() < 0 or indices.max() >= len(vertices)):
            raise ValueError(f"mesh '{name}': face index out of range")
        self.world_from_object = world_from_object or Transform.identity()
        self.vertices = self.world_from_object.point(vertices)
        self.indices = indices
        self.bsdf = bsdf
        self.face_normals = np.zeros((len(indices), 3))
        self.recompute_normals()
        if emission is not None:
            emission = np.asarray(emission, dtype=np.float64)
            if emission.ndim == 1:
                emission = np.broadcast_to(emission, (len(indices), 3)).copy()
            if emission.shape != (len(indices), 3) or np.any(emission < 0):
                raise ValueError(f"mesh '{name}': emission must be (faces, 3) and >= 0")
        self.emission = emission

    def recompute_normals(self):
        tri = self.vertices[self.indices]
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        lens = np.linalg.norm(n, axis=1)
        scale = max(float(np.abs(self.vertices).max()), 1.0) if len(self.vertices) else 1.0
        if np.any(lens < 1e-12 * scale * scale):
            raise ValueError(f"mesh '{self.name}': degenerate zero-area triangle")
        self.face_normals = n / lens[:, None]

    def triangle_vertices(self) -> np.ndarray:
        return self.vertices[self.indices]

    @property
    def is_emissive(self) -> bool:
        return self.emission is not None and bool(np.any(self.emission > 0))


def load_obj(text_or_path, **mesh_kwargs) -> TriangleMesh:
    """ASCII OBJ subset: v and triangulated f lines, 1-based indices."""
    if isinstance(text_or_path, (str, bytes)) and "\n" not in str(text_or_path):
        with open(text_or_path, "r") as f:
            text = f.read()
    else:
        text = str(text_or_path)
    verts, faces = [], []
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise ValueError(f"obj line {ln}: vertex needs 3 coordinates")
            verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
        elif parts[0] == "f":
            ids = [int(tok.split("/")[0]) for tok in parts[1:]]
            if len(ids) != 3:
                raise ValueError(f"obj line {ln}: only triangulated faces supported")
            if any(i < 1 for i in ids):
                raise ValueError(f"obj line {ln}: indices must be positive 1-based")
            faces.append([i - 1 for i in ids])
        # vn/vt/usemtl and friends are ignored
    if not verts or not faces:
        raise ValueError("obj contains no triangles")
    return TriangleMesh(np.array(verts), np.array(faces), **mesh_kwargs)


def save_obj(path, vertices: np.ndarray, indices: np.ndarray) -> None:
    lines = [f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in np.asarray(vertices)]
    lines += [f"f {f[0]+1} {f[1]+1} {f[2]+1}" for f in np.asarray(indices)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Intersection


def _ray_arrays(o, d, t_min, t_max):
    """Rays as (N,3) float64 arrays and per-ray (N,) segment bounds."""
    o = np.asarray(o, dtype=np.float64).reshape(-1, 3)
    d = np.asarray(d, dtype=np.float64).reshape(-1, 3)
    n = len(o)
    return (o, d, np.broadcast_to(np.asarray(t_min, dtype=np.float64), (n,)),
            np.broadcast_to(np.asarray(t_max, dtype=np.float64), (n,)))


def _moller_trumbore(o, d, a, e1, e2, t_min, t_max):
    """Batched ray/triangle test over broadcastable pairs: (R, F) ray by
    face grids, or flat (P,) lists of (ray, face) pairs.

    Runs on per-component 2D arrays so no (R, F, 3) temporary is ever
    materialized; this loop carries the whole renderer.
    """
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    e1x, e1y, e1z = e1[..., 0], e1[..., 1], e1[..., 2]
    e2x, e2y, e2z = e2[..., 0], e2[..., 1], e2[..., 2]
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.where(np.abs(det) > _DET_EPS, det, 1.0)
    tx = o[..., 0] - a[..., 0]
    ty = o[..., 1] - a[..., 1]
    tz = o[..., 2] - a[..., 2]
    u = (tx * px + ty * py + tz * pz) * inv
    qx = ty * e1z - tz * e1y
    qy = tz * e1x - tx * e1z
    qz = tx * e1y - ty * e1x
    v = (dx * qx + dy * qy + dz * qz) * inv
    t = (e2x * qx + e2y * qy + e2z * qz) * inv
    ok = (
        (np.abs(det) > _DET_EPS)
        & (u >= -_BARY_EPS)
        & (v >= -_BARY_EPS)
        & (u + v <= 1.0 + _BARY_EPS)
        & (t > t_min)
        & (t <= t_max)
    )
    return np.where(ok, t, np.inf)


class Bvh:
    """Complete binary BVH in heap order, one level-synchronous traversal.

    Layout: every leaf sits at the same depth D, the smallest with
    ceil(faces / 2^D) <= LEAF_SIZE, so node k has children 2k+1 and 2k+2
    and the 2^D leaves start at node 2^D - 1. Row j of `leaf_faces` holds
    the faces of leaf node 2^D - 1 + j, padded with -1. The build is the
    longest-axis median split, one level per step over all segments: a
    segment's box picks the axis and a stable sort of its face centres
    along it gives the halves (the smaller one first).

    Padding: leaf boxes grow by _BOX_PAD = 1e-6 times the leaf's longest
    edge on every side, and inner boxes are the bottom-up min/max of their
    children. Moller-Trumbore accepts u, v >= -1e-7 and u + v <= 1 + 1e-7,
    a region that reaches at most 3e-7 edges beyond the face's box on any
    axis. The other 7e-7 edges absorb rounding: that of u and v grows like
    1e-16 times the origin's distance over the edge and over the cosine to
    the face plane, that of the padded box and the slab t's like 1e-16
    times the coordinates and the distance to the box. So a ray hits a
    face only inside the padded leaf box, and both queries equal
    `brute_force_batch` for any tree, unless ray or mesh lies some 1e9
    leaf edges from the origin or a ray runs within about 1e-9 of a face's
    plane, where Moller-Trumbore's own answer is rounding noise.

    Traversal: `_hits` drops the rays that miss the root box, then walks
    chunks of rays down one level per step, keeping the (ray, child)
    pairs whose padded box meets the ray's [t_min, t_max], and tests the
    faces of the leaves reached in one Moller-Trumbore call. There is no
    best-t pruning. `intersect_batch` keeps per ray the smallest t, ties
    going to the smaller face id; `any_hit_batch` marks the rays with any
    hit.

    At or below BRUTE_FORCE_FACES faces nearest-hit runs one dense sweep
    over all faces instead, a choice of speed only. Replaying the
    nearest-hit calls of one benchmark pass single-threaded, the sweep is
    6-8x faster at 12 faces (calibrate) and 1.1-1.2x at 94 (two-room), the
    traversal 17x faster at 168 (field-hit). Any-hit always traverses.
    """

    LEAF_SIZE = 4
    BRUTE_FORCE_FACES = 160

    def __init__(self, meshes):
        self.meshes = list(meshes)
        tris, mesh_ids, local_ids = [], [], []
        for mi, mesh in enumerate(self.meshes):
            tv = mesh.triangle_vertices()
            tris.append(tv)
            mesh_ids.append(np.full(len(tv), mi, dtype=np.int64))
            local_ids.append(np.arange(len(tv), dtype=np.int64))
        if tris:
            self.tri = np.concatenate(tris)
            self.face_mesh = np.concatenate(mesh_ids)
            self.face_local = np.concatenate(local_ids)
        else:
            self.tri = np.zeros((0, 3, 3))
            self.face_mesh = np.zeros(0, dtype=np.int64)
            self.face_local = np.zeros(0, dtype=np.int64)
        self.edge1 = self.tri[:, 1] - self.tri[:, 0]
        self.edge2 = self.tri[:, 2] - self.tri[:, 0]
        # Flat per-face shading attributes so the batched renderer never
        # has to touch Python-level mesh objects inside the bounce loop.
        if self.meshes:
            self.face_normal = np.concatenate([m.face_normals for m in self.meshes])
            self.face_emission = np.concatenate(
                [m.emission if m.emission is not None
                 else np.zeros((len(m.indices), 3)) for m in self.meshes]
            )
        else:
            self.face_normal = np.zeros((0, 3))
            self.face_emission = np.zeros((0, 3))
        self._build()

    def _build(self):
        nf = len(self.tri)
        # Per-face boxes; the shadow cull in render.py reads them too.
        self.face_lo = lo_f = self.tri.min(axis=1)
        self.face_hi = hi_f = self.tri.max(axis=1)
        center = 0.5 * (lo_f + hi_f)
        depth = 0
        while nf > self.LEAF_SIZE << depth:
            depth += 1
        # Faces in tree order; segment j of a level spans order[start[j]:]
        # up to the next start. Every segment below the root is non-empty.
        order = np.arange(nf)
        start = np.zeros(min(nf, 1), dtype=np.int64)
        for _ in range(depth):
            size = np.diff(start, append=nf)
            seg = np.repeat(np.arange(len(start)), size)
            extent = (np.maximum.reduceat(hi_f[order], start)
                      - np.minimum.reduceat(lo_f[order], start))
            axis = np.argmax(extent, axis=1)
            order = order[np.lexsort((center[order, axis[seg]], seg))]
            start = np.stack([start, start + size // 2], axis=1).ravel()
        size = np.diff(start, append=nf)
        seg = np.repeat(np.arange(len(start)), size)
        self.leaf_faces = np.full((len(start), self.LEAF_SIZE), -1, dtype=np.int64)
        self.leaf_faces[seg, np.arange(nf) - start[seg]] = order
        edge = np.linalg.norm(np.stack([self.edge1, self.edge2, self.edge2 - self.edge1]),
                              axis=2).max(axis=0)
        pad = _BOX_PAD * np.maximum.reduceat(edge[order], start)[:, None]
        lo = [np.minimum.reduceat(lo_f[order], start) - pad]
        hi = [np.maximum.reduceat(hi_f[order], start) + pad]
        while len(lo[-1]) > 1:
            lo.append(np.minimum(lo[-1][0::2], lo[-1][1::2]))
            hi.append(np.maximum(hi[-1][0::2], hi[-1][1::2]))
        self.node_lo = np.concatenate(lo[::-1])
        self.node_hi = np.concatenate(hi[::-1])

    @property
    def n_faces(self) -> int:
        return len(self.tri)

    # -- queries ----------------------------------------------------------

    def _hits(self, o, d, t_min, t_max):
        """Yield (ray, face, t) per chunk of rays for every hit within
        (t_min, t_max], testing the faces of the leaves whose padded boxes
        the ray segment meets."""
        if not self.n_faces:
            return
        with np.errstate(divide="ignore"):
            inv_d = 1.0 / d
        t0, t1 = slab_interval(self.node_lo[0], self.node_hi[0], o, inv_d, t_min, t_max)
        entering = np.flatnonzero(t0 <= t1)
        # No level has more nodes than leaves, so no level of a chunk
        # tests more than ANYHIT_CHUNK (ray, node) pairs.
        leaves = len(self.leaf_faces)
        rows = max(1, ANYHIT_CHUNK // leaves)
        for i in range(0, len(entering), rows):
            ray = entering[i:i + rows]
            node = np.zeros(len(ray), dtype=np.int64)
            while len(ray) and node[0] < leaves - 1:
                ray = np.repeat(ray, 2)
                node = (2 * node[:, None] + [1, 2]).ravel()
                t0, t1 = slab_interval(self.node_lo[node], self.node_hi[node],
                                       o[ray], inv_d[ray], t_min[ray], t_max[ray])
                ray, node = ray[t0 <= t1], node[t0 <= t1]
            if not len(ray):
                continue
            faces = self.leaf_faces[node - (leaves - 1)]
            ray = np.broadcast_to(ray[:, None], faces.shape)[faces >= 0]
            face = faces[faces >= 0]
            t = _moller_trumbore(o[ray], d[ray], self.tri[face, 0], self.edge1[face],
                                 self.edge2[face], t_min[ray], t_max[ray])
            hit = np.isfinite(t)
            if hit.any():
                yield ray[hit], face[hit], t[hit]

    def intersect_batch(self, o, d, t_min=0.0, t_max=np.inf):
        """Nearest hits for rays (N,3): returns (t, face) with face -1 on miss."""
        o, d, t_min, t_max = _ray_arrays(o, d, t_min, t_max)
        if self.n_faces <= self.BRUTE_FORCE_FACES:
            return self.brute_force_batch(o, d, t_min, t_max)
        best_t = np.full(len(o), np.inf)
        best_f = np.full(len(o), -1, dtype=np.int64)
        for ray, face, t in self._hits(o, d, t_min, t_max):
            # Per ray the smallest t, then the smallest face id at that t:
            # the brute-force pick.
            k = np.lexsort((face, t, ray))
            k = k[np.r_[True, ray[k[1:]] != ray[k[:-1]]]]
            best_t[ray[k]] = t[k]
            best_f[ray[k]] = face[k]
        return best_t, best_f

    def any_hit_batch(self, o, d, t_min, t_max):
        """True where any face blocks the ray within (t_min, t_max]."""
        o, d, t_min, t_max = _ray_arrays(o, d, t_min, t_max)
        blocked = np.zeros(len(o), dtype=bool)
        for ray, _, _ in self._hits(o, d, t_min, t_max):
            blocked[ray] = True
        return blocked

    def brute_force_batch(self, o, d, t_min=0.0, t_max=np.inf):
        """Oracle: test every face for every ray, same tie-break rule."""
        o, d, t_min, t_max = _ray_arrays(o, d, t_min, t_max)
        n = len(o)
        best_t = np.full(n, np.inf)
        best_f = np.full(n, -1, dtype=np.int64)
        if self.n_faces == 0:
            return best_t, best_f
        rows = max(1, BRUTE_FORCE_CHUNK_PAIRS // self.n_faces)
        for i in range(0, n, rows):
            sl = slice(i, min(i + rows, n))
            t = _moller_trumbore(
                o[sl][:, None, :], d[sl][:, None, :],
                self.tri[None, :, 0, :], self.edge1[None], self.edge2[None],
                t_min[sl][:, None], t_max[sl][:, None],
            )
            k = np.argmin(t, axis=1)  # first minimum = smallest face id
            tk = t[np.arange(t.shape[0]), k]
            best_t[sl] = tk
            best_f[sl] = np.where(np.isfinite(tk), k, -1)
        return best_t, best_f
