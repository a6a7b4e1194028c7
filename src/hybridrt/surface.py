"""Triangle meshes, BVH intersection, and the three BSDF models.

All geometry is kept in world space; meshes deformed by the simulator get
their normals and the scene BVH rebuilt on sync. Intersection is
Moller-Trumbore with a small barycentric tolerance; the batched BVH
traversal returns exactly the same hits as brute force over all faces
(strictly nearest t, ties broken toward the smaller global face id).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .core import Transform, vec3

_BARY_EPS = 1e-7
_DET_EPS = 1e-12
# (ray, box) tests per chunk of an any-hit query, or per tree level of a
# nearest-hit chunk; bounds the chunk's temporaries.
ANYHIT_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# BSDFs


def _unit_interval_spectrum(c, name):
    c = vec3(c)
    if np.any(c < 0) or np.any(c > 1):
        raise ValueError(f"{name} channels must lie in [0, 1], got {c}")
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
            raise ValueError(f"ior must be > 0, got {self.ior}")
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


def _slab_overlap(lo, hi, o, inv_d, t0, t1):
    """Clipped [t0, t1] of rays against boxes (lo, hi); broadcasts over
    leading axes, the last axis is xyz. Empty overlaps have t0 > t1."""
    with np.errstate(invalid="ignore"):  # 0 * inf at axis-aligned rays
        ta = (lo - o) * inv_d
        tb = (hi - o) * inv_d
    near = np.minimum(ta, tb)
    far = np.maximum(ta, tb)
    near = np.where(np.isnan(near), -np.inf, near)
    far = np.where(np.isnan(far), np.inf, far)
    return np.maximum(near.max(axis=-1), t0), np.minimum(far.min(axis=-1), t1)


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
    """Binary BVH, longest-axis median split, at most 4 faces per leaf.

    Nearest-hit above BRUTE_FORCE_FACES faces is level-synchronous: a
    frontier of (ray, node) pairs is slab-tested one tree level per call,
    the children of the passing inner nodes form the next level, and the
    faces of the passing leaves go through one Moller-Trumbore call. There
    is no best-t pruning, so every (ray, face) pair a depth-first traversal
    would test is tested, and each ray keeps its smallest t, ties going to
    the smaller face id as in brute force.

    At or below BRUTE_FORCE_FACES one dense sweep over all faces runs
    instead. Replaying the nearest-hit calls of one benchmark pass, brute
    force is 4.2x faster at 12 faces (calibrate), the traversal about 9%
    faster at 94 (two-room) and 13x faster at 168 (field-hit). The
    threshold stays above 94 because the slab test is not padded: a ray
    that grazes a box edge can miss a hit in that box which the dense
    sweep finds, and two-room's walls are axis-aligned. BRUTE_FORCE_FACES
    governs nearest-hit only; any-hit always runs the flat leaf test.
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
        centers = 0.5 * (lo_f + hi_f)

        nodes_lo, nodes_hi, children, node_leaf, leaves = [], [], [], [], []

        def build(ids):
            node = len(nodes_lo)
            nodes_lo.append(lo_f[ids].min(axis=0))
            nodes_hi.append(hi_f[ids].max(axis=0))
            children.append([-1, -1])
            node_leaf.append(-1)
            if len(ids) <= self.LEAF_SIZE:
                node_leaf[node] = len(leaves)
                leaves.append(ids)
                return node
            extent = nodes_hi[node] - nodes_lo[node]
            axis = int(np.argmax(extent))
            mid = len(ids) // 2
            part = ids[np.argsort(centers[ids, axis], kind="stable")]
            children[node] = [build(part[:mid]), build(part[mid:])]
            return node

        if nf:
            build(np.arange(nf))
        else:
            nodes_lo.append(np.zeros(3))
            nodes_hi.append(np.full(3, -1.0))
            children.append([-1, -1])
            node_leaf.append(-1)
        self.node_lo = np.array(nodes_lo)
        self.node_hi = np.array(nodes_hi)
        self.node_children = np.array(children, dtype=np.int64)
        self.node_leaf = np.array(node_leaf, dtype=np.int64)
        # Leaf boxes and their faces, padded with -1, rows in node_leaf order.
        self.leaf_lo = self.node_lo[self.node_leaf >= 0]
        self.leaf_hi = self.node_hi[self.node_leaf >= 0]
        self.leaf_faces = np.full((len(leaves), self.LEAF_SIZE), -1, dtype=np.int64)
        for row, ids in enumerate(leaves):
            self.leaf_faces[row, :len(ids)] = ids

    @property
    def n_faces(self) -> int:
        return len(self.tri)

    # -- queries ----------------------------------------------------------

    def intersect_batch(self, o, d, t_min=0.0, t_max=np.inf):
        """Nearest hits for rays (N,3): returns (t, face) with face -1 on miss."""
        o = np.asarray(o, dtype=np.float64).reshape(-1, 3)
        d = np.asarray(d, dtype=np.float64).reshape(-1, 3)
        n = len(o)
        best_t = np.full(n, np.inf)
        best_f = np.full(n, -1, dtype=np.int64)
        if self.n_faces == 0:
            return best_t, best_f
        if self.n_faces <= self.BRUTE_FORCE_FACES:
            return self.brute_force_batch(o, d, t_min, t_max)
        t_min = np.broadcast_to(np.asarray(t_min, dtype=np.float64), (n,))
        t_max = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (n,))
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_d = 1.0 / d
        # Rays that miss the root box are dropped first. No tree level has
        # more nodes than the tree has leaves, so no level of a chunk tests
        # more than ANYHIT_CHUNK (ray, node) pairs.
        t0, t1 = _slab_overlap(self.node_lo[0], self.node_hi[0], o, inv_d, t_min, t_max)
        entering = np.flatnonzero(t0 <= t1)
        rows = max(1, ANYHIT_CHUNK // len(self.leaf_faces))
        for i in range(0, len(entering), rows):
            ray = entering[i:i + rows]
            node = np.zeros(len(ray), dtype=np.int64)
            pair_ray, pair_face = [], []
            while len(ray):
                t0, t1 = _slab_overlap(self.node_lo[node], self.node_hi[node],
                                       o[ray], inv_d[ray], t_min[ray], t_max[ray])
                ray, node = ray[t0 <= t1], node[t0 <= t1]
                leaf = self.node_leaf[node]
                at_leaf = leaf >= 0
                faces = self.leaf_faces[leaf[at_leaf]]
                pair_ray.append(np.broadcast_to(ray[at_leaf, None], faces.shape)[faces >= 0])
                pair_face.append(faces[faces >= 0])
                ray = np.repeat(ray[~at_leaf], 2)
                node = self.node_children[node[~at_leaf]].ravel()
            ray = np.concatenate(pair_ray)
            face = np.concatenate(pair_face)
            t = _moller_trumbore(o[ray], d[ray], self.tri[face, 0], self.edge1[face],
                                 self.edge2[face], t_min[ray], t_max[ray])
            hit = np.isfinite(t)
            if not hit.any():
                continue
            # Per ray the smallest t, then the smallest face id at that t:
            # the brute-force pick.
            k = np.argsort(ray[hit], kind="stable")
            ray, face, t = ray[hit][k], face[hit][k], t[hit][k]
            starts = np.flatnonzero(np.r_[True, ray[1:] != ray[:-1]])
            tk = np.minimum.reduceat(t, starts)
            at_tk = t == np.repeat(tk, np.diff(np.r_[starts, len(t)]))
            best_t[ray[starts]] = tk
            best_f[ray[starts]] = np.minimum.reduceat(np.where(at_tk, face, self.n_faces),
                                                      starts)
        return best_t, best_f

    def any_hit_batch(self, o, d, t_min, t_max):
        """True where any face blocks the ray within (t_min, t_max].

        Flat, not a traversal: every leaf box is slab-tested at once, then
        the faces of the passing leaves. An ancestor's box contains its
        leaf's and rounding is monotone, so a leaf passes exactly when the
        traversal would reach it and the (ray, face) pairs tested are the
        traversal's.
        """
        o = np.asarray(o, dtype=np.float64).reshape(-1, 3)
        d = np.asarray(d, dtype=np.float64).reshape(-1, 3)
        n = len(o)
        blocked = np.zeros(n, dtype=bool)
        if self.n_faces == 0:
            return blocked
        t_min = np.broadcast_to(np.asarray(t_min, dtype=np.float64), (n,))
        t_max = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (n,))
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_d = 1.0 / d
        rows = max(1, ANYHIT_CHUNK // len(self.leaf_faces))
        for i in range(0, n, rows):
            sl = slice(i, i + rows)
            t0, t1 = _slab_overlap(self.leaf_lo, self.leaf_hi,
                                   o[sl, None, :], inv_d[sl, None, :],
                                   t_min[sl, None], t_max[sl, None])
            ray, leaf = np.nonzero(t0 <= t1)
            faces = self.leaf_faces[leaf]
            real = faces >= 0
            ray = np.broadcast_to(ray[:, None] + i, faces.shape)[real]
            faces = faces[real]
            t = _moller_trumbore(o[ray], d[ray], self.tri[faces, 0],
                                 self.edge1[faces], self.edge2[faces],
                                 t_min[ray], t_max[ray])
            blocked[ray[np.isfinite(t)]] = True
        return blocked

    def brute_force_batch(self, o, d, t_min=0.0, t_max=np.inf, chunk=4_000_000):
        """Oracle: test every face for every ray, same tie-break rule."""
        o = np.asarray(o, dtype=np.float64).reshape(-1, 3)
        d = np.asarray(d, dtype=np.float64).reshape(-1, 3)
        n = len(o)
        best_t = np.full(n, np.inf)
        best_f = np.full(n, -1, dtype=np.int64)
        if self.n_faces == 0:
            return best_t, best_f
        t_min = np.broadcast_to(np.asarray(t_min, dtype=np.float64), (n,))
        t_max = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (n,))
        rows = max(1, chunk // self.n_faces)
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
