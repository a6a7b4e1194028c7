"""Dense radiance/density and signed-distance grids with ray marching.

The radiance field is a trilinear grid of extinction sigma (1/length) and
view-independent linear RGB radiance over an axis-aligned box in field
coordinates; a rigid world_from_field transform places it in the world.
Outside the box the medium is vacuum. Marching uses midpoint substeps with
per-step opacity a = 1 - exp(-sigma * dt), which is exact in homogeneous
media and first-order accurate otherwise.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np

from .core import Transform, slab_interval, vec3, widen_f32


def _as_res(res) -> tuple:
    r = tuple(int(v) for v in res)
    if len(r) != 3 or any(v < 1 for v in r):
        raise ValueError(f"grid resolution must be 3 positive ints, got {res}")
    return r


def _check_bbox(lo, hi):
    lo, hi = vec3(lo), vec3(hi)
    if np.any(hi <= lo):
        raise ValueError(f"grid bbox must have positive extent, got {lo} .. {hi}")
    return lo, hi


def _grid_scale(lo, hi, res):
    return np.array([(r - 1) / (h - l) if r > 1 else 0.0
                     for r, l, h in zip(res, lo, hi)])


def _cell_size(lo, hi, res):
    return (hi - lo) / np.maximum(np.array(res) - 1, 1)


# Corner k of a cell is (k >> 2, (k >> 1) & 1, k & 1) in (x, y, z), so the
# x, y and z lerp partners are the two halves of the corner axis.
_CORNERS = np.array([[k >> 2, (k >> 1) & 1, k & 1] for k in range(8)])


def _trilinear(table: np.ndarray, res, lo, scale, p: np.ndarray) -> np.ndarray:
    """Interpolate a channel-major table (C, nx*ny*nz), cells in C order of
    (nx, ny, nz), at points p (N,3); returns (C, N).

    Callers mask out-of-bbox queries themselves; here coordinates are
    clamped so boundary queries stay continuous. The clamp keeps the lower
    corner index i0 at most res - 2 on every axis with more than one node,
    so the upper one is i0 + 1 there and i0 on a single-node axis: the 8
    corners lie at fixed offsets from the cell's base index and come from
    one gather.
    """
    nx, ny, nz = res
    g = (p - lo) * scale
    hi_idx = np.maximum(np.array(res, dtype=np.float64) - 1.0, 0.0)
    gc = np.clip(g, 0.0, np.maximum(hi_idx - 1e-9, 0.0))
    i0 = np.floor(gc).astype(np.int64)
    fx, fy, fz = (gc - i0).T
    step = np.array([ny * nz, nz, 1]) * (np.array(res) > 1)
    base = i0[:, 0] * (ny * nz) + i0[:, 1] * nz + i0[:, 2]
    c = table.take(base + (_CORNERS @ step)[:, None], axis=1)
    # c0 * (1 - f) + c1 * f per axis, in place: no block-sized temporaries.
    for k, f in ((4, fx), (2, fy), (1, fz)):
        c[:, :k] *= 1 - f
        c[:, k:2 * k] *= f
        c[:, :k] += c[:, k:2 * k]
    return c[:, 0]


def _inside_mask(lo, hi, p):
    return np.all((p >= lo) & (p <= hi), axis=-1)


class RadianceGrid:
    """Emissive/absorptive volume: sigma (nx,ny,nz) and radiance (nx,ny,nz,3)."""

    def __init__(self, bbox_lo, bbox_hi, sigma, radiance, world_from_field=None):
        self.bbox_lo, self.bbox_hi = _check_bbox(bbox_lo, bbox_hi)
        sigma = np.asarray(sigma, dtype=np.float64)
        radiance = np.asarray(radiance, dtype=np.float64)
        self.res = _as_res(sigma.shape)
        if radiance.shape != sigma.shape + (3,):
            raise ValueError(
                f"radiance shape {radiance.shape} does not match sigma {sigma.shape} + (3,)"
            )
        if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
            raise ValueError("sigma must be finite and >= 0")
        if not np.all(np.isfinite(radiance)) or np.any(radiance < 0):
            raise ValueError("radiance must be finite and >= 0")
        # sigma and radiance are views of one channel-major table, so a
        # sample gathers both at once and the values are stored once.
        self._table = np.vstack([sigma.reshape(1, -1), radiance.reshape(-1, 3).T])
        self.sigma = self._table[0].reshape(self.res)
        self.radiance = self._table[1:].T.reshape(self.res + (3,))
        self.world_from_field = world_from_field or Transform.identity()
        self._scale = _grid_scale(self.bbox_lo, self.bbox_hi, self.res)
        # Homogeneous grids skip interpolation entirely (common in tests
        # and the furnace preset; the shortcut is value-identical).
        self._sigma_const = float(sigma.flat[0]) if np.all(sigma == sigma.flat[0]) else None
        rad0 = radiance.reshape(-1, 3)[0]
        self._rad_const = rad0.copy() if np.all(radiance.reshape(-1, 3) == rad0) else None

    @staticmethod
    def constant(bbox_lo, bbox_hi, sigma: float, radiance, res=(2, 2, 2)) -> "RadianceGrid":
        res = _as_res(res)
        sig = np.full(res, float(sigma))
        rad = np.broadcast_to(vec3(radiance), res + (3,)).copy()
        return RadianceGrid(bbox_lo, bbox_hi, sig, rad)

    def _is_identity(self) -> bool:
        m = self.world_from_field.m
        return (m[0, 0] == 1.0 and m[1, 1] == 1.0 and m[2, 2] == 1.0
                and not m[:3, 3].any() and not m[0, 1:3].any()
                and not m[1, 0::2].any() and not m[2, 0:2].any())

    def sample_batch(self, p_world: np.ndarray):
        """(sigma, radiance) at world points (N,3); vacuum outside the bbox."""
        p = np.asarray(p_world, dtype=np.float64).reshape(-1, 3)
        pf = p if self._is_identity() else self.world_from_field.point(p, inverse=True)
        inside = _inside_mask(self.bbox_lo, self.bbox_hi, pf)
        sigma = np.zeros(len(p))
        rad = np.zeros((len(p), 3))
        if np.any(inside):
            if self._sigma_const is None or self._rad_const is None:
                val = _trilinear(self._table, self.res, self.bbox_lo, self._scale, pf[inside])
            sigma[inside] = val[0] if self._sigma_const is None else self._sigma_const
            rad[inside] = val[1:].T if self._rad_const is None else self._rad_const
        return sigma, rad

    def ray_bounds(self, o: np.ndarray, d: np.ndarray):
        """Parametric [t0, t1] of rays against the transformed bbox.

        The transform must be rigid so the field-frame parameter equals the
        world-frame one. Empty overlaps come back with t0 > t1.
        """
        o = np.asarray(o, dtype=np.float64).reshape(-1, 3)
        d = np.asarray(d, dtype=np.float64).reshape(-1, 3)
        if not self._is_identity():
            o = self.world_from_field.point(o, inverse=True)
            d = self.world_from_field.direction(d, inverse=True)
        with np.errstate(divide="ignore"):
            return slab_interval(self.bbox_lo, self.bbox_hi, o, 1.0 / d)


# ---------------------------------------------------------------------------
# Marching


# Field samples per march block; bounds the block's temporaries.
MARCH_BLOCK_POINTS = 4096


def _substep_counts(seg_len: np.ndarray, dt: float) -> np.ndarray:
    n = np.ceil(seg_len / dt).astype(np.int64)
    return np.where(seg_len > 0.0, np.maximum(n, 1), 0)


def march_arrays(grid, o, d, s0, s1, dt, L, T_spec, shadow_fn=None):
    """Vectorized midpoint march over per-ray segments [s0, s1].

    Mutates L (N,3) and T_spec (N,3) in place. Consecutive substeps
    are taken in blocks of at most MARCH_BLOCK_POINTS samples, laid out
    substep-major, with one field sample and one shadow_fn call per block;
    the accumulator updates then run substep by substep in march order, so
    every result is bit-identical to a one-substep-at-a-time march.

    shadow_fn, if given, is called once per block as
    shadow_fn(points, substep_indices, ray_indices), with one substep and
    one ray index per point, and returns mask values in [0, 1]. A segment
    with s1 <= s0 is empty and leaves its ray's state as it was.
    """
    if not dt > 0:
        raise ValueError(f"march step must be > 0, got {dt}")
    seg = np.maximum(s1 - s0, 0.0)
    n = _substep_counts(seg, dt)
    if not len(n) or n.max() == 0:
        return
    # Marching rays, longest first: those alive at substep k are the first
    # alive[k], so every per-substep update below is a prefix slice.
    alive = len(n) - np.cumsum(np.bincount(n))[:-1]
    order = np.argsort(-n, kind="stable")[:alive[0]]
    o, d, s0 = o[order], d[order], s0[order]
    step = seg[order] / n[order]
    L_o, T_spec_o = L[order], T_spec[order]
    ends = np.cumsum(alive)
    k0 = 0
    while k0 < len(alive):
        start = ends[k0] - alive[k0]
        k1 = max(int(np.searchsorted(ends, start + MARCH_BLOCK_POINTS, side="right")), k0 + 1)
        counts = alive[k0:k1]
        rows = np.cumsum(counts)
        kk = np.repeat(np.arange(k0, k1), counts)
        j = np.arange(rows[-1]) - np.repeat(rows - counts, counts)
        delta = step[j]
        t_mid = s0[j] + (kk + 0.5) * delta
        p = o[j] + t_mid[:, None] * d[j]
        sigma, rad = grid.sample_batch(p)
        a = 1.0 - np.exp(-sigma * delta)
        am = a
        if shadow_fn is not None:
            # Substeps with zero opacity or black radiance contribute
            # exactly zero whatever the mask, so skip their shadow rays.
            need = (a > 0.0) & (rad.max(axis=1) > 0.0)
            if np.any(need):
                m = np.ones(len(a))
                m[need] = shadow_fn(p[need], kk[need], order[j[need]])
                am = a * m
        keep = 1.0 - a
        for c, r0, r1 in zip(counts, rows - counts, rows):
            L_o[:c] += T_spec_o[:c] * am[r0:r1, None] * rad[r0:r1]
            T_spec_o[:c] *= keep[r0:r1, None]
        k0 = k1
    L[order], T_spec[order] = L_o, T_spec_o


# ---------------------------------------------------------------------------
# Signed distance grids


class SdfGrid:
    """Trilinear signed-distance grid, negative inside geometry."""

    def __init__(self, bbox_lo, bbox_hi, phi, world_from_grid=None):
        self.bbox_lo, self.bbox_hi = _check_bbox(bbox_lo, bbox_hi)
        phi = np.asarray(phi, dtype=np.float64)
        self.res = _as_res(phi.shape)
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite")
        self.phi = phi
        self.world_from_grid = world_from_grid or Transform.identity()
        self._scale = _grid_scale(self.bbox_lo, self.bbox_hi, self.res)
        self._table = phi.reshape(1, -1)

    def cell_size(self) -> np.ndarray:
        return _cell_size(self.bbox_lo, self.bbox_hi, self.res)

    def _phi_local(self, p: np.ndarray) -> np.ndarray:
        """phi at local-frame points; exterior composes box distance with
        the clamped boundary value so it stays >= 0 outside."""
        p = p.reshape(-1, 3)
        q = np.clip(p, self.bbox_lo, self.bbox_hi)
        base = _trilinear(self._table, self.res, self.bbox_lo, self._scale, q)[0]
        outside = np.linalg.norm(p - q, axis=1)
        return np.where(outside > 0.0, np.maximum(outside + base, 0.0), base)

    def query_batch(self, p_world: np.ndarray):
        """(phi, normal, valid) at world points (N,3).

        Normals are central differences at one-cell spacing, rotated back
        to world; valid is False where the gradient degenerates.
        """
        p = np.asarray(p_world, dtype=np.float64).reshape(-1, 3)
        pl = self.world_from_grid.point(p, inverse=True)
        h = self.cell_size()
        # phi at p and at p +- h[ax] along each axis, from one lookup.
        e = np.diag(h)[:, None, :]
        vals = self._phi_local(np.concatenate([pl[None], pl + e, pl - e])).reshape(7, -1)
        phi = vals[0]
        grad = ((vals[1:4] - vals[4:]) / (2 * h[:, None])).T.copy()
        norm = np.linalg.norm(grad, axis=1)
        valid = norm > 1e-9
        grad[valid] /= norm[valid, None]
        grad[~valid] = (0.0, 0.0, 1.0)
        n_world = self.world_from_grid.direction(grad)
        return phi, n_world, valid


def _grid_axes(lo, hi, res) -> list:
    """Node coordinates along each axis."""
    return [np.linspace(lo[i], hi[i], res[i]) if res[i] > 1 else np.array([lo[i]])
            for i in range(3)]


def _axes_nodes(axes) -> np.ndarray:
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)


def grid_points(bbox_lo, bbox_hi, res):
    """World positions of all grid nodes, shape (nx*ny*nz, 3), x-fastest."""
    lo, hi = _check_bbox(bbox_lo, bbox_hi)
    return _axes_nodes(_grid_axes(lo, hi, _as_res(res)))


def _xfastest_to_grid(flat: np.ndarray, res) -> np.ndarray:
    nx, ny, nz = res
    extra = flat.shape[1:] if flat.ndim > 1 else ()
    return np.ascontiguousarray(
        flat.reshape((nz, ny, nx) + extra).transpose((2, 1, 0) + tuple(range(3, 3 + len(extra))))
    )


def _grid_to_xfastest(values: np.ndarray) -> np.ndarray:
    extra = tuple(range(3, values.ndim))
    return np.ascontiguousarray(values.transpose((2, 1, 0) + extra)).reshape(
        -1, *values.shape[3:]
    )


def sdf_from_function(fn, bbox_lo, bbox_hi, res) -> SdfGrid:
    pts = grid_points(bbox_lo, bbox_hi, res)
    phi = _xfastest_to_grid(np.asarray(fn(pts), dtype=np.float64), _as_res(res))
    return SdfGrid(bbox_lo, bbox_hi, phi)


# ---------------------------------------------------------------------------
# Baking


def mesh_is_watertight(vertices: np.ndarray, indices: np.ndarray) -> bool:
    """Every undirected edge must be shared by exactly two faces."""
    edges = {}
    for tri in indices:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return all(count == 2 for count in edges.values())


def _point_triangle_dist_sq(p: np.ndarray, a, b, c) -> np.ndarray:
    """Squared distances for points (n,1,3) against triangles (1,m,3)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.sum(ab * ap, axis=-1)
    d2 = np.sum(ac * ap, axis=-1)
    bp = p - b
    d3 = np.sum(ab * bp, axis=-1)
    d4 = np.sum(ac * bp, axis=-1)
    cp = p - c
    d5 = np.sum(ab * cp, axis=-1)
    d6 = np.sum(ac * cp, axis=-1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1 / np.where(d1 - d3 != 0, d1 - d3, 1.0)
        w_ac = d2 / np.where(d2 - d6 != 0, d2 - d6, 1.0)
        t_bc = (d4 - d3) / np.where((d4 - d3) + (d5 - d6) != 0, (d4 - d3) + (d5 - d6), 1.0)
        denom = va + vb + vc
        denom = np.where(denom != 0, denom, 1.0)
        v_in = vb / denom
        w_in = vc / denom

    # Candidate closest points per Voronoi region, selected innermost-first.
    closest = a + v_in[..., None] * ab + w_in[..., None] * ac
    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    closest = np.where(on_bc[..., None], b + np.clip(t_bc, 0, 1)[..., None] * (c - b), closest)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    closest = np.where(on_ac[..., None], a + np.clip(w_ac, 0, 1)[..., None] * ac, closest)
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    closest = np.where(on_ab[..., None], a + np.clip(v_ab, 0, 1)[..., None] * ab, closest)
    at_c = (d6 >= 0) & (d5 <= d6)
    closest = np.where(at_c[..., None], c, closest)
    at_b = (d3 >= 0) & (d4 <= d3)
    closest = np.where(at_b[..., None], b, closest)
    at_a = (d1 <= 0) & (d2 <= 0)
    closest = np.where(at_a[..., None], a, closest)
    diff = p - closest
    return np.sum(diff * diff, axis=-1)


# (node, face) pairs tested per chunk; bounds the bake's temporaries.
BAKE_CHUNK_PAIRS = 1 << 17
# The cull's slack scales with the span, the diagonal of the box around the
# grid and the mesh. The reach pad covers rounding in the nearest-vertex
# distance, the box gaps and the closest-point arithmetic.
_REACH_PAD = 1e-6
# Rounding moves the closest point that _point_triangle_dist_sq finds on a
# face of height h and longest edge L by up to about eps * span^2 * L / h^2,
# which for a near-degenerate face could exceed the reach pad. Faces with
# h^2 <= _FLAT_FACE * span * L are therefore never culled, and their
# vertices bound no node's reach.
_FLAT_FACE = 1e-6


def _unsigned_distance(axes_pts, tri_verts: np.ndarray) -> np.ndarray:
    """Distance from every grid node to the nearest face, x-fastest (N,).

    Only (node, face) pairs that can hold the node's minimum are evaluated.
    The distance u(p) from node p to the nearest vertex of a non-flat face
    bounds the minimum from above, as that face's computed distance is at
    most u(p) up to rounding. A non-flat face whose bounding box lies
    farther than u(p) + pad therefore never holds the minimum and is
    skipped; flat faces (see _FLAT_FACE) are kept for every node. The box
    distance is a sum of per-axis squared gaps, looked up from one
    (n_axis, faces) table per axis. _point_triangle_dist_sq runs on the
    kept pairs only; its arithmetic is elementwise, and the minimum over
    any superset of the minimising face is the same float, so the result
    equals the brute-force minimum over all faces bit for bit.
    """
    from scipy.spatial import cKDTree

    nx, ny, _ = (len(ax) for ax in axes_pts)
    pts = _axes_nodes(axes_pts)
    a, b, c = tri_verts[:, 0], tri_verts[:, 1], tri_verts[:, 2]
    face_lo, face_hi = tri_verts.min(axis=1), tri_verts.max(axis=1)
    # The grid's corners are pts[0] and pts[-1].
    span = float(np.linalg.norm(np.maximum(pts[-1], face_hi.max(axis=0))
                                - np.minimum(pts[0], face_lo.min(axis=0))))

    edges = np.stack([b - a, c - b, a - c], axis=1)
    longest = np.linalg.norm(edges, axis=2).max(axis=1)
    twice_area = np.linalg.norm(np.cross(edges[:, 0], edges[:, 2]), axis=1)
    flat = twice_area ** 2 <= _FLAT_FACE * span * longest ** 3
    # A flat face gets an unbounded box, so it is kept for every node.
    face_lo[flat], face_hi[flat] = -np.inf, np.inf
    if np.all(flat):
        reach2 = np.full(len(pts), np.inf)
    else:
        tree = cKDTree(tri_verts[~flat].reshape(-1, 3))
        reach2 = (tree.query(pts)[0] + _REACH_PAD * span) ** 2

    gx, gy, gz = (
        np.maximum(np.maximum(face_lo[:, ax] - col[:, None], col[:, None] - face_hi[:, ax]),
                   0.0) ** 2
        for ax, col in enumerate(axes_pts)
    )
    out = np.empty(len(pts))
    step = max(1, BAKE_CHUNK_PAIRS // len(tri_verts))
    for v0 in range(0, len(pts), step):
        v = np.arange(v0, min(v0 + step, len(pts)))
        ix, iy, iz = v % nx, (v // nx) % ny, v // (nx * ny)
        rows, face = np.nonzero(gx[ix] + gy[iy] + gz[iz] <= reach2[v, None])
        d2 = _point_triangle_dist_sq(pts[v[rows]], a[face], b[face], c[face])
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        out[v[rows[starts]]] = np.sqrt(np.minimum.reduceat(d2, starts))
    return out


def _parity_scanline(tri_verts: np.ndarray, axes_pts, axis: int, jitter_seed: int):
    """Inside/outside votes by counting crossings along one grid axis.

    Rows of voxels parallel to `axis` share one ray; the two cross-axis
    coordinates get a deterministic sub-cell jitter so edge-grazing rays do
    not produce systematic parity errors.
    """
    from . import rng

    u, v = [ax for ax in range(3) if ax != axis]
    xs, us, vs = axes_pts[axis], axes_pts[u], axes_pts[v]
    nu, nv = len(us), len(vs)
    cell_u = (us[-1] - us[0]) / max(nu - 1, 1) if nu > 1 else 1.0
    cell_v = (vs[-1] - vs[0]) / max(nv - 1, 1) if nv > 1 else 1.0

    row_ids = np.arange(nu * nv)
    ju = (rng.uniform(jitter_seed, row_ids, 0) - 0.5) * 0.25 * cell_u
    jv = (rng.uniform(jitter_seed, row_ids, 1) - 0.5) * 0.25 * cell_v
    uu = np.repeat(us, nv) + ju
    vv = np.tile(vs, nu) + jv

    a2 = tri_verts[:, :, [u, v]]
    x3 = tri_verts[:, :, axis]

    # 2D barycentric point-in-triangle for every (row, face) pair.
    pa = np.stack([uu, vv], axis=1)[:, None, :]
    v0 = a2[None, :, 1, :] - a2[None, :, 0, :]
    v1 = a2[None, :, 2, :] - a2[None, :, 0, :]
    v2 = pa - a2[None, :, 0, :]
    den = v0[..., 0] * v1[..., 1] - v0[..., 1] * v1[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.where(den != 0.0, den, 1.0)
        wa = (v2[..., 0] * v1[..., 1] - v2[..., 1] * v1[..., 0]) * inv
        wb = (v0[..., 0] * v2[..., 1] - v0[..., 1] * v2[..., 0]) * inv
    hit = (den != 0.0) & (wa >= 0) & (wb >= 0) & (wa + wb <= 1)
    x_cross = x3[None, :, 0] + wa * (x3[None, :, 1] - x3[None, :, 0]) + wb * (
        x3[None, :, 2] - x3[None, :, 0]
    )
    x_cross = np.where(hit, x_cross, np.inf)
    x_cross.sort(axis=1)

    inside = np.zeros((nu * nv, len(xs)), dtype=bool)
    for r in range(nu * nv):
        counts = np.searchsorted(x_cross[r], xs)
        inside[r] = (counts % 2) == 1

    votes = np.zeros((len(xs), len(us), len(vs)), dtype=bool)
    votes[:, :, :] = inside.reshape(nu, nv, len(xs)).transpose(2, 0, 1)
    # Reorder (axis, u, v) back to (x, y, z).
    order = np.argsort([axis, u, v])
    return votes.transpose(order)


def bake_sdf_from_mesh(vertices: np.ndarray, indices: np.ndarray, bbox_lo, bbox_hi,
                       res, jitter_seed: int = 11) -> SdfGrid:
    """Signed distance grid of a triangle mesh.

    The unsigned distance at each node is the minimum point-triangle
    distance over the faces that survive an exact cull: a face is skipped
    only when its bounding box lies farther from the node than the nearest
    vertex of a non-flat face (plus a rounding pad), so it cannot hold the
    minimum, and the result equals the minimum over all faces bit for bit
    (see _unsigned_distance). The sign is the majority vote of three
    jittered axis-parity scans. Non-watertight input warns and bakes
    all-positive.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise ValueError(f"vertices must have shape (n, 3), got {vertices.shape}")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertices must be finite")
    if indices.ndim != 2 or indices.shape[1] != 3:
        raise ValueError(f"face indices must have shape (m, 3), got {indices.shape}")
    if len(indices) == 0:
        raise ValueError("mesh has no faces")
    bad = (indices < 0) | (indices >= len(vertices))
    if np.any(bad):
        raise ValueError(f"face index {int(indices[bad][0])} out of range "
                         f"for {len(vertices)} vertices")
    lo, hi = _check_bbox(bbox_lo, bbox_hi)
    res = _as_res(res)
    tri_verts = vertices[indices]
    axes_pts = _grid_axes(lo, hi, res)
    dist = _unsigned_distance(axes_pts, tri_verts)

    if mesh_is_watertight(vertices, indices):
        votes = sum(
            _parity_scanline(tri_verts, axes_pts, ax, jitter_seed + ax).astype(np.int8)
            for ax in range(3)
        )
        inside = votes >= 2
    else:
        warnings.warn("mesh is not watertight; baked SDF has no interior")
        inside = np.zeros(res, dtype=bool)

    phi = _xfastest_to_grid(dist, res)
    # votes come back in (x, y, z) layout already
    phi = np.where(inside, -phi, phi)
    return SdfGrid(lo, hi, phi)


def sdf_from_density(grid: RadianceGrid, threshold_frac: float = 0.5) -> SdfGrid:
    """Collision proxy for a field: occupancy at sigma >= frac*max, then a
    Euclidean redistancing of the voxel set."""
    from scipy import ndimage

    peak = float(grid.sigma.max())
    if peak <= 0.0:
        raise ValueError("cannot derive an SDF from an all-zero density field")
    mask = grid.sigma >= threshold_frac * peak
    h = _cell_size(grid.bbox_lo, grid.bbox_hi, grid.res)
    outside = ndimage.distance_transform_edt(~mask, sampling=h)
    inside = ndimage.distance_transform_edt(mask, sampling=h)
    return SdfGrid(grid.bbox_lo, grid.bbox_hi, outside - inside)


# ---------------------------------------------------------------------------
# File formats (.rfgrid / .sdfgrid)
#
# Header: nx, ny, nz as little-endian int32, then bbox min xyz and max xyz
# as little-endian float32. Payload: float32 samples in x-fastest order
# (index = ix + nx*(iy + ny*iz)); .rfgrid stores the sigma block then the
# RGB block (3 floats per sample), .sdfgrid stores the phi block.

_GRID_HEADER = "<3i6f"


def save_rfgrid(path, grid: RadianceGrid) -> None:
    nx, ny, nz = grid.res
    header = struct.pack(_GRID_HEADER, nx, ny, nz, *grid.bbox_lo, *grid.bbox_hi)
    sig = _grid_to_xfastest(grid.sigma).astype("<f4").tobytes()
    rad = _grid_to_xfastest(grid.radiance).astype("<f4").tobytes()
    with open(path, "wb") as f:
        f.write(header + sig + rad)


def _read_grid(path, floats_per_sample):
    """Header fields and payload offset of a grid file, after checking that
    its size is exactly header + samples * floats_per_sample float32s."""
    with open(path, "rb") as f:
        data = f.read()
    off = struct.calcsize(_GRID_HEADER)
    if len(data) < off:
        raise ValueError(f"{path}: grid file has {len(data)} bytes, "
                         f"need at least a {off}-byte header")
    nx, ny, nz, *box = struct.unpack_from(_GRID_HEADER, data)
    if min(nx, ny, nz) < 1:
        raise ValueError(f"{path}: grid dimensions must be positive, got {(nx, ny, nz)}")
    n = nx * ny * nz
    want = off + 4 * floats_per_sample * n
    if len(data) != want:
        raise ValueError(f"{path}: {nx}x{ny}x{nz} grid needs {want} bytes, "
                         f"file has {len(data)}")
    return data, (nx, ny, nz), box, off


def load_rfgrid(path) -> RadianceGrid:
    data, (nx, ny, nz), box, off = _read_grid(path, 4)
    n = nx * ny * nz
    sig = widen_f32(np.frombuffer(data, dtype="<f4", count=n, offset=off))
    rad = widen_f32(np.frombuffer(data, dtype="<f4", count=3 * n, offset=off + 4 * n))
    res = (nx, ny, nz)
    return RadianceGrid(box[:3], box[3:],
                        _xfastest_to_grid(sig, res),
                        _xfastest_to_grid(rad.reshape(n, 3), res))


def save_sdfgrid(path, sdf: SdfGrid) -> None:
    nx, ny, nz = sdf.res
    header = struct.pack(_GRID_HEADER, nx, ny, nz, *sdf.bbox_lo, *sdf.bbox_hi)
    with open(path, "wb") as f:
        f.write(header + _grid_to_xfastest(sdf.phi).astype("<f4").tobytes())


def load_sdfgrid(path) -> SdfGrid:
    data, (nx, ny, nz), box, off = _read_grid(path, 1)
    n = nx * ny * nz
    phi = widen_f32(np.frombuffer(data, dtype="<f4", count=n, offset=off))
    return SdfGrid(box[:3], box[3:], _xfastest_to_grid(phi, (nx, ny, nz)))
