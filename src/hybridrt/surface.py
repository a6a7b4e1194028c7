"""Triangle meshes, BVH intersection, and the three BSDF models.

All geometry is kept in world space; meshes deformed by the simulator get
their normals recomputed and the scene BVH refit on sync. Intersection is
Moller-Trumbore with a small barycentric tolerance. The BVH has one layout,
a complete binary heap with padded leaf boxes, and one walk, three levels
per step, that serves nearest-hit and any-hit; both return exactly the
hits of brute force over all faces (strictly nearest t, ties broken toward
the smaller global face id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Union

import numpy as np

from .core import Transform, Vec3, cross3, slab_interval, vec3

_BARY_EPS = 1e-7
_DET_EPS = 1e-12
# Leaf box margin per unit of the leaf's longest edge; the bound is in Bvh.
# A face is hit only within this margin of its box, so the shadow cull is
# exact for its pad, the spawn epsilon: 1e-4 scene diagonals exceeds it.
_BOX_PAD = 1e-6
# Pair tests per chunk: (ray, box) per step of a walk chunk, (ray, face)
# per chunk of the brute-force sweep, and (point, face box) per chunk of
# the shadow cull; bounds the chunk's temporaries.
CHUNK_PAIRS = 1 << 15


# ---------------------------------------------------------------------------
# BSDFs


def _unit_interval_spectrum(c, name) -> Vec3:
    c = vec3(c)
    if np.any(c < 0) or np.any(c > 1):
        raise ValueError(f"{name}: channels must lie in [0, 1], got {c}")
    return tuple(c.tolist())


@dataclass
class Lambertian:
    albedo: Vec3 = (0.8, 0.8, 0.8)
    type: Literal["lambertian"] = "lambertian"

    def __post_init__(self):
        self.albedo = _unit_interval_spectrum(self.albedo, "albedo")

    @property
    def weight(self) -> Vec3:
        """The factor by which a bounce scales a path's throughput."""
        return self.albedo


@dataclass
class Mirror:
    reflectance: Vec3 = (1.0, 1.0, 1.0)
    type: Literal["mirror"] = "mirror"

    def __post_init__(self):
        self.reflectance = _unit_interval_spectrum(self.reflectance, "reflectance")

    @property
    def weight(self) -> Vec3:
        return self.reflectance


@dataclass
class Dielectric:
    ior: float = 1.5
    tint: Vec3 = (1.0, 1.0, 1.0)
    type: Literal["dielectric"] = "dielectric"

    def __post_init__(self):
        if not self.ior > 0:
            raise ValueError(f"ior: must be > 0, got {self.ior}")
        self.tint = _unit_interval_spectrum(self.tint, "tint")

    @property
    def weight(self) -> Vec3:
        return self.tint


# The materials are also the scene file's schema: scene.py reads a mesh's
# `bsdf` object straight into one of them, told apart by `type`; an
# omitted `type` means the first one's.
Bsdf = Union[Lambertian, Mirror, Dielectric]


def _onb(n: np.ndarray):
    """Orthonormal basis with n as the third column (batch of normals)."""
    a = np.where(np.abs(n[:, 0:1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    t = cross3(a, n)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    b = cross3(n, t)
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
    """Indexed triangles with one BSDF and per-face emission, black by default."""

    def __init__(self, vertices, indices, bsdf: Bsdf, emission=(0.0, 0.0, 0.0),
                 world_from_object: Optional[Transform] = None, name: str = "mesh"):
        self.name = name
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
        if indices.size and (indices.min() < 0 or indices.max() >= len(vertices)):
            raise ValueError(f"mesh '{name}': face index out of range")
        self.vertices = (world_from_object or Transform.identity()).point(vertices)
        self.indices = indices
        self.bsdf = bsdf
        self.face_normals = np.zeros((len(indices), 3))
        self.recompute_normals()
        emission = np.asarray(emission, dtype=np.float64)
        if emission.ndim == 1:
            emission = np.broadcast_to(emission, (len(indices), 3)).copy()
        if emission.shape != (len(indices), 3) or np.any(emission < 0):
            raise ValueError(f"mesh '{name}': emission must be (faces, 3) and >= 0")
        self.emission = emission

    def recompute_normals(self):
        tri = self.vertices[self.indices]
        with np.errstate(over="ignore", invalid="ignore"):
            n = cross3(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            lens = np.linalg.norm(n, axis=1)
        scale = max(float(np.abs(self.vertices).max()), 1.0) if len(self.vertices) else 1.0
        if not (math.isfinite(scale * scale) and np.isfinite(lens).all()):
            raise ValueError(f"mesh '{self.name}': vertex coordinates of magnitude {scale:g} "
                             "overflow when squared")
        if np.any(lens < 1e-12 * scale * scale):
            raise ValueError(f"mesh '{self.name}': degenerate zero-area triangle")
        self.face_normals = n / lens[:, None]

    def triangle_vertices(self) -> np.ndarray:
        return self.vertices[self.indices]

    @property
    def is_emissive(self) -> bool:
        return bool(np.any(self.emission > 0))


def load_obj(path, **mesh_kwargs) -> TriangleMesh:
    """ASCII OBJ subset: v and triangulated f lines, 1-based indices."""
    with open(path, "r") as f:
        text = f.read()
    verts, faces = [], []
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise ValueError(f"obj line {ln}: vertex needs 3 coordinates")
            v = [float(parts[1]), float(parts[2]), float(parts[3])]
            if not all(map(math.isfinite, v)):
                raise ValueError(f"obj line {ln}: vertex coordinates must be finite")
            verts.append(v)
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


def _moller_trumbore(o, d, f, t_min, t_max):
    """Ray/triangle hit distances, inf on a miss, over component-major
    inputs: o and d are (3, ...) ray rows, f the (9, ...) face planes
    (a, e1, e2) of `Bvh.planes`, broadcast against each other. The dense
    sweep passes (F, 1) planes against (R,) rays, the traversal flat (P,)
    lists of (ray, face) pairs.

    Each value is formed by the same operations in the same order at
    either call shape, so both give the same bits. Products and sums
    accumulate in place in eight broadcast-shape buffers, since
    fresh temporaries, not arithmetic, dominated this kernel, which
    carries the whole renderer.
    """
    ox, oy, oz = o
    dx, dy, dz = d
    ax, ay, az, e1x, e1y, e1z, e2x, e2y, e2z = f
    tmp = np.empty(np.broadcast_shapes(dx.shape, e1x.shape))
    px = np.multiply(dy, e2z)
    px -= np.multiply(dz, e2y, out=tmp)
    py = np.multiply(dz, e2x)
    py -= np.multiply(dx, e2z, out=tmp)
    pz = np.multiply(dx, e2y)
    pz -= np.multiply(dy, e2x, out=tmp)
    det = np.multiply(e1x, px)
    det += np.multiply(e1y, py, out=tmp)
    det += np.multiply(e1z, pz, out=tmp)
    ok = np.abs(det, out=tmp) > _DET_EPS
    inv = det
    np.copyto(inv, 1.0, where=~ok)
    np.divide(1.0, inv, out=inv)
    tx = np.subtract(ox, ax)
    ty = np.subtract(oy, ay)
    tz = np.subtract(oz, az)
    # u accumulates in px's buffer (px * tx is tx * px, bit for bit), q =
    # t x e1 in py's, pz's and tmp's; v and t then take tx's and ty's, with
    # tz, no longer needed, as scratch.
    u = px
    u *= tx
    u += np.multiply(ty, py, out=tmp)
    u += np.multiply(tz, pz, out=tmp)
    u *= inv
    ok &= u >= -_BARY_EPS
    qx = np.multiply(ty, e1z, out=py)
    qx -= np.multiply(tz, e1y, out=tmp)
    qy = np.multiply(tz, e1x, out=pz)
    qy -= np.multiply(tx, e1z, out=tmp)
    qz = np.multiply(tx, e1y, out=tmp)
    qz -= np.multiply(ty, e1x, out=tz)
    v = np.multiply(dx, qx, out=tx)
    v += np.multiply(dy, qy, out=tz)
    v += np.multiply(dz, qz, out=tz)
    v *= inv
    t = np.multiply(e2x, qx, out=ty)
    t += np.multiply(e2y, qy, out=tz)
    t += np.multiply(e2z, qz, out=tz)
    t *= inv
    ok &= v >= -_BARY_EPS
    u += v
    ok &= u <= 1.0 + _BARY_EPS
    ok &= t > t_min
    ok &= t <= t_max
    np.copyto(t, np.inf, where=~ok)
    return t


class Bvh:
    """Complete binary BVH in heap order, walked three levels per step.

    Layout: every leaf sits at the same depth D, the smallest with
    ceil(faces / 2^D) <= LEAF_SIZE, so node k has children 2k+1 and 2k+2
    and the 2^D leaves start at node 2^D - 1. Row j of `leaf_faces` holds
    the faces of leaf node 2^D - 1 + j, padded with -1. The build is the
    longest-axis median split, one level per step over all segments: a
    segment's box picks the axis and a stable sort of its face centres
    along it gives the halves (the smaller one first). `refit` keeps that
    split and recomputes the boxes around the faces' current vertices, as
    the build computes them; a scene refits its BVHs while their meshes
    stay the same (`Scene.rebuild_bvh`).

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

    Walk: `_hits` drops the rays that miss the root box, then walks
    chunks of rays down the heap three levels per step, the last step
    shorter when D is no multiple of 3. From each (ray, node k) pair it
    holds, a step slab-tests at once the 2^s descendants s levels down,
    nodes (k+1)·2^s - 1 ... (k+1)·2^s + 2^s - 2 (for s = 3, the 8 nodes
    (k+1)·8 - 1 ... (k+1)·8 + 6), in one component-major `slab_interval`
    over the flat (ray, node) pairs, and keeps the pairs whose padded box
    meets the ray's [t_min, t_max]. The faces of the leaves reached are
    tested in one Moller-Trumbore call. There is no best-t pruning.

    Skipping two of every three levels reaches exactly the leaves that a
    walk of one level per step reaches. A node's box contains its
    descendants' boxes, and the slab test is monotone under containment:
    each slab bound is a rounded, monotone function of a box plane, so the
    interval of a containing box contains the contained box's, and a ray
    segment that meets a box meets every box around it. So every (t, face)
    stays bitwise that of brute force.

    `intersect_batch` keeps per ray the smallest t, ties going to the
    smaller face id; `any_hit_batch` marks the rays with a hit on a face
    that `blocks`. A face blocks shadow rays unless its mesh emits, so an
    emissive mesh never shadows its own light; the mask follows emission
    through `refit`. Since any tree over the same faces gives the same
    hits, these are the hits of a tree over the blocking faces alone.

    At or below BRUTE_FORCE_FACES faces nearest-hit runs one dense sweep
    over all faces instead, a choice of speed only. Replaying each
    preset's nearest-hit calls on one core of a 2-vCPU host, sweep and
    walk interleaved, medians of 21 rounds, in ms:

      faces  calls of                   calls    rays   sweep   walk
         12  calibrate's transport         24  110590      55    353
         32  hdr-bracket's set-up render    1   16384      20     21
         94  a two-room benchmark pass      8    4421      16     10
        168  a field-hit benchmark pass    74   41729     295     23
        320  a furnace render, 4 spp        2   24326     280     64

    So the sweep keeps 12 and 32 faces (at 32 within a tenth; another host
    measured the walk ahead, 15 against 17-18 ms) and two-room walks. An
    earlier replay had a walk of one level per step at 15, 29 and 103 ms
    for 94, 168 and 320 faces.
    Any-hit always walks.
    """

    LEAF_SIZE = 4
    BRUTE_FORCE_FACES = 32

    def __init__(self, meshes):
        self.meshes = list(meshes)
        self._read()
        self._split()
        self._bound()

    def refit(self):
        """Re-read the meshes' triangles, normals, emission, BSDF weights,
        `blocks` and face boxes and refit the node boxes, keeping the tree:
        `leaf_faces` stays. The meshes must be the ones the tree was built
        on, with the same number of faces."""
        self._read()
        self._bound()

    def _read(self):
        """Triangles, face planes and shading attributes from the meshes,
        per face in mesh order."""
        ms = self.meshes

        def per_face(rows, shape):
            # The leading empty table shapes a tree over no faces.
            return np.concatenate([np.zeros((0, *shape)), *rows])

        self.tri = per_face([m.triangle_vertices() for m in ms], (3, 3))
        self.face_mesh = np.repeat(np.arange(len(ms)), [len(m.indices) for m in ms])
        e1 = self.tri[:, 1] - self.tri[:, 0]
        e2 = self.tri[:, 2] - self.tri[:, 0]
        # Moller-Trumbore's face planes, (9, faces): rows a, e1, e2 by xyz.
        self.planes = np.concatenate([self.tri[:, 0], e1, e2], axis=1).T.copy()
        # Flat per-face shading attributes so the batched renderer never
        # has to touch Python-level mesh objects inside the bounce loop.
        weights = np.array([m.bsdf.weight for m in ms], dtype=np.float64)
        self.face_weight = weights.reshape(-1, 3)[self.face_mesh]
        self.face_normal = per_face([m.face_normals for m in ms], (3,))
        self.face_emission = per_face([m.emission for m in ms], (3,))
        # Shadow rays pass the faces of emissive meshes (`any_hit_batch`).
        emits = np.array([m.is_emissive for m in ms], dtype=bool)
        self.blocks = ~emits[self.face_mesh]
        # Per-face boxes; the shadow cull reads the blocking faces' boxes.
        self.face_lo = self.tri.min(axis=1)
        self.face_hi = self.tri.max(axis=1)
        self.block_lo = self.face_lo[self.blocks]
        self.block_hi = self.face_hi[self.blocks]

    def _split(self):
        """The tree: the median split of the faces, as `leaf_faces`, and
        the faces in tree order with each leaf's start in it."""
        nf = len(self.tri)
        lo_f, hi_f = self.face_lo, self.face_hi
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
        self._order, self._start = order, start

    def _bound(self):
        """Padded leaf boxes from the faces of each leaf, inner boxes from
        their children."""
        order, start = self._order, self._start
        lo_f, hi_f = self.face_lo, self.face_hi
        e1, e2 = self.planes[3:6].T, self.planes[6:9].T
        edge = np.linalg.norm(np.stack([e1, e2, e2 - e1]), axis=2).max(axis=0)
        pad = _BOX_PAD * np.maximum.reduceat(edge[order], start)[:, None]
        lo = [np.minimum.reduceat(lo_f[order], start) - pad]
        hi = [np.maximum.reduceat(hi_f[order], start) + pad]
        while len(lo[-1]) > 1:
            lo.append(np.minimum(lo[-1][0::2], lo[-1][1::2]))
            hi.append(np.maximum(hi[-1][0::2], hi[-1][1::2]))
        # One box table, component-major as the walk reads it: rows lo
        # then hi, by xyz. node_lo and node_hi are (nodes, 3) views of it.
        self._boxes = np.concatenate([np.concatenate(lo[::-1]), np.concatenate(hi[::-1])],
                                     axis=1).T.copy()
        self.node_lo, self.node_hi = self._boxes[:3].T, self._boxes[3:].T

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
        # Rays component-major: rows o then 1 / d, by xyz.
        rays = np.concatenate([o, inv_d], axis=1).T.copy()
        dc = d.T.copy()
        t0, t1 = slab_interval(self.node_lo[0], self.node_hi[0], o, inv_d, t_min, t_max)
        entering = np.flatnonzero(t0 <= t1)
        leaves = len(self.leaf_faces)
        depth = leaves.bit_length() - 1
        # No level has more nodes than leaves, so no step of a chunk tests
        # more than CHUNK_PAIRS (ray, node) pairs.
        rows = max(1, CHUNK_PAIRS // leaves)
        for i in range(0, len(entering), rows):
            ray = entering[i:i + rows]
            node = np.zeros(len(ray), dtype=np.int64)
            level = 0
            while len(ray) and level < depth:
                # Three levels per step, the last step shorter: the 2^s
                # descendants s levels below node k are the nodes
                # (k+1)·2^s - 1 ... (k+1)·2^s + 2^s - 2.
                s = min(3, depth - level)
                span = 1 << s
                ray = np.repeat(ray, span)
                node = ((node[:, None] + 1) * span + np.arange(-1, span - 1)).ravel()
                box = self._boxes.take(node, axis=1)
                r = rays.take(ray, axis=1)
                # Transposed views: slab_interval's xyz axis is last, and
                # the ufuncs keep this component-major memory order.
                t0, t1 = slab_interval(box[:3].T, box[3:].T, r[:3].T, r[3:].T,
                                       t_min[ray], t_max[ray])
                keep = t0 <= t1
                ray, node = ray[keep], node[keep]
                level += s
            if not len(ray):
                continue
            faces = self.leaf_faces[node - (leaves - 1)]
            ray = np.broadcast_to(ray[:, None], faces.shape)[faces >= 0]
            face = faces[faces >= 0]
            t = _moller_trumbore(rays[:3, ray], dc[:, ray], self.planes[:, face],
                                 t_min[ray], t_max[ray])
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
        """True where a face that `blocks` meets the ray within (t_min, t_max]."""
        o, d, t_min, t_max = _ray_arrays(o, d, t_min, t_max)
        blocked = np.zeros(len(o), dtype=bool)
        for ray, face, _ in self._hits(o, d, t_min, t_max):
            blocked[ray[self.blocks[face]]] = True
        return blocked

    def shadow_candidates(self, points, lo, hi, pad):
        """False where no face that `blocks` can meet a segment from the
        point to the box [lo, hi], so no shadow ray from it to a light in
        that box is blocked; True where one might.

        Such a segment lies inside box(p, [lo, hi]), and a face is hit only
        within its box padded by `pad` (for the pads stated at _BOX_PAD), so
        a face whose padded box misses that box cannot block the ray.
        """
        cand = np.zeros(len(points), dtype=bool)
        face_lo = self.block_lo - pad
        face_hi = self.block_hi + pad
        box_lo = np.minimum(points.min(axis=0, initial=np.inf), lo)
        box_hi = np.maximum(points.max(axis=0, initial=-np.inf), hi)
        near = np.all((face_lo <= box_hi) & (face_hi >= box_lo), axis=1)
        if not np.any(near):
            return cand
        face_lo = face_lo[near]
        face_hi = face_hi[near]
        # Points from which box(p, [lo, hi]) meets a face box: per axis, p
        # must reach the face on the sides where [lo, hi] alone does not. A
        # face box that meets [lo, hi] is unbounded on every axis and keeps
        # every point.
        reach_lo = np.where(hi < face_lo, face_lo, -np.inf)
        reach_hi = np.where(lo > face_hi, face_hi, np.inf)
        rows = max(1, CHUNK_PAIRS // len(face_lo))
        for i in range(0, len(points), rows):
            p = points[i:i + rows, None, :]
            cand[i:i + rows] = np.all((p >= reach_lo) & (p <= reach_hi), axis=2).any(axis=1)
        return cand

    def brute_force_batch(self, o, d, t_min=0.0, t_max=np.inf):
        """Oracle: test every face for every ray, same tie-break rule."""
        o, d, t_min, t_max = _ray_arrays(o, d, t_min, t_max)
        n = len(o)
        best_t = np.full(n, np.inf)
        best_f = np.full(n, -1, dtype=np.int64)
        if self.n_faces == 0:
            return best_t, best_f
        oc, dc = o.T.copy(), d.T.copy()
        planes = self.planes[:, :, None]
        rows = max(1, CHUNK_PAIRS // self.n_faces)
        for i in range(0, n, rows):
            sl = slice(i, min(i + rows, n))
            # Face-major (faces, rays) hit distances.
            t = _moller_trumbore(oc[:, sl], dc[:, sl], planes, t_min[sl], t_max[sl])
            k = np.argmin(t, axis=0)  # first minimum = smallest face id
            tk = t[k, np.arange(t.shape[1])]
            best_t[sl] = tk
            best_f[sl] = np.where(np.isfinite(tk), k, -1)
        return best_t, best_f
