"""Dense radiance/density and signed-distance grids with ray marching.

The radiance field is a trilinear grid of extinction sigma (1/length) and
view-independent linear RGB radiance over an axis-aligned box in field
coordinates; a rigid world_from_field transform places it in the world.
Outside the box the medium is vacuum. Marching uses midpoint substeps with
per-step opacity a = 1 - exp(-sigma * dt), which is exact in homogeneous
media and first-order accurate otherwise.

Grids are arrays of shape (nx, ny, nz), with a trailing axis of 3 for RGB.
Wherever nodes are listed flat (grid_points, the bake's distances, the
grid files) they run x-fastest, index ix + nx*(iy + ny*iz): numpy's
Fortran order: a flat list becomes a grid with reshape(res, order="F"),
and a grid becomes a flat list with ravel(order="F") (reshape(-1, 3,
order="F") for RGB). The one other flat order is the table each grid
interpolates from in memory: node-major, one row of channels per node
(sigma, r, g, b for a radiance grid; phi for an SDF), rows in C order,
index ix*ny*nz + iy*nz + iz. A C-ordered grid reshapes into it without a
copy, and a cell's 8 corners are 8 rows at fixed offsets.

Radiance grid files (.rfgrid) hold a header of nx, ny, nz as
little-endian int32 and bbox min xyz and max xyz as little-endian float32,
then a sigma block (1 float per sample) and an RGB block (3) of
little-endian float32 samples, nodes in that x-fastest order with a
sample's channels adjacent.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .core import Transform, cross3, max3, slab_interval, vec3, widen_f32


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
    """Interpolate a node-major table (nx*ny*nz, C) at points p (N,3);
    returns (N, C).

    Callers mask out-of-bbox queries themselves; here coordinates are
    clamped so boundary queries stay continuous. The clamp keeps the lower
    corner index i0 at most res - 2 on every axis with more than one node,
    so the upper one is i0 + 1 there and i0 on a single-node axis: the 8
    corners lie at fixed row offsets from the cell's base row, and one
    gather reads each point's corners as 8 contiguous rows of C values.
    """
    nx, ny, nz = res
    g = (p - lo) * scale
    hi_idx = np.maximum(np.array(res, dtype=np.float64) - 1.0, 0.0)
    np.maximum(g, 0.0, out=g)
    np.minimum(g, np.maximum(hi_idx - 1e-9, 0.0), out=g)
    i0 = np.floor(g).astype(np.int64)
    f = g - i0
    step = np.array([ny * nz, nz, 1]) * (np.array(res) > 1)
    base = i0[:, 0] * (ny * nz) + i0[:, 1] * nz + i0[:, 2]
    n, channels = len(p), table.shape[1]
    c = table.take(base + (_CORNERS @ step)[:, None], axis=0).reshape(8, n * channels)
    # c0 * (1 - f) + c1 * f per axis, x then y then z, in place over each
    # corner's N*C values, with f repeated per channel.
    for k, ax in ((4, 0), (2, 1), (1, 2)):
        fa = np.repeat(f[:, ax], channels)
        c[:k] *= 1 - fa
        c[k:2 * k] *= fa
        c[:k] += c[k:2 * k]
    return c[0].reshape(n, channels)


class RadianceGrid:
    """Emissive/absorptive volume: sigma (nx,ny,nz) and radiance (nx,ny,nz,3).

    The node table is read-only: sigma and radiance are read-only views of
    it, so an in-place edit raises. A grid's values are fixed for its life,
    which lets a render reuse the last render's marches through it
    (`march_records`, see hybridrt.render); build a new grid to change
    them. Its placement, world_from_field, may be replaced at any time.
    """

    def __init__(self, bbox_lo, bbox_hi, sigma, radiance, world_from_field=None):
        self.bbox_lo, self.bbox_hi = _check_bbox(bbox_lo, bbox_hi)
        # C-contiguous, so the reshapes below are views, not copies.
        sigma = np.ascontiguousarray(sigma, dtype=np.float64)
        radiance = np.ascontiguousarray(radiance, dtype=np.float64)
        self.res = _as_res(sigma.shape)
        if radiance.shape != sigma.shape + (3,):
            raise ValueError(
                f"radiance shape {radiance.shape} does not match sigma {sigma.shape} + (3,)"
            )
        if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
            raise ValueError("sigma must be finite and >= 0")
        if not np.all(np.isfinite(radiance)) or np.any(radiance < 0):
            raise ValueError("radiance must be finite and >= 0")
        # sigma and radiance are views of one node-major table, one row of
        # (sigma, r, g, b) per node, so a sample gathers both at once and
        # the values are stored once.
        self._table = np.hstack([sigma.reshape(-1, 1), radiance.reshape(-1, 3)])
        self._table.flags.writeable = False
        self.sigma = self._table[:, 0].reshape(self.res)
        self.radiance = self._table[:, 1:].reshape(self.res + (3,))
        self.world_from_field = world_from_field or Transform.identity()
        self._scale = _grid_scale(self.bbox_lo, self.bbox_hi, self.res)
        # Homogeneous grids skip interpolation entirely (common in tests
        # and the furnace preset; the shortcut is value-identical).
        self._sigma_const = float(sigma.flat[0]) if np.all(sigma == sigma.flat[0]) else None
        rad0 = radiance.reshape(-1, 3)[0]
        self._rad_const = rad0.copy() if np.all(radiance.reshape(-1, 3) == rad0) else None
        # Bounce-1 march results of the last render through this grid, by
        # primary batch; hybridrt.render reads and replaces them.
        self.march_records = {}

    @staticmethod
    def constant(bbox_lo, bbox_hi, sigma: float, radiance, res=(2, 2, 2)) -> "RadianceGrid":
        res = _as_res(res)
        sig = np.full(res, float(sigma))
        rad = np.broadcast_to(vec3(radiance), res + (3,)).copy()
        return RadianceGrid(bbox_lo, bbox_hi, sig, rad)

    def sample_batch(self, p_world: np.ndarray):
        """(sigma, radiance) at world points (N,3); vacuum outside the bbox.

        A point's values have the same bits in any batch. The outputs may
        be read-only views.
        """
        pf = self.world_from_field.point(np.reshape(p_world, (-1, 3)), inverse=True)
        n = len(pf)
        (x, y, z), lo, hi = pf.T, self.bbox_lo, self.bbox_hi
        inside = ((x >= lo[0]) & (x <= hi[0]) & (y >= lo[1]) & (y <= hi[1])
                  & (z >= lo[2]) & (z <= hi[2]))
        if self._sigma_const is None or self._rad_const is None:
            val = _trilinear(self._table, self.res, lo, self._scale, pf)
            if self._sigma_const is not None:
                val[:, 0] = self._sigma_const
            if self._rad_const is not None:
                val[:, 1:] = self._rad_const
        else:
            val = np.r_[self._sigma_const, self._rad_const]
        # March midpoints lie inside the box but for rounding. The copy of
        # interpolated rows frees the corner buffer they are a view of,
        # eight times their size, which the caller would keep alive.
        if inside.all():
            out = np.broadcast_to(val, (n, 4)) if val.ndim == 1 else val.copy()
        else:
            out = np.where(inside[:, None], val, 0.0)
        return out[:, 0], out[:, 1:]

    def ray_bounds(self, o: np.ndarray, d: np.ndarray):
        """Parametric [t0, t1] of rays against the transformed bbox.

        world_from_field is a Transform, so rigid: the field-frame
        parameter equals the world-frame one. Empty overlaps come back with
        t0 > t1.
        """
        o = self.world_from_field.point(np.reshape(o, (-1, 3)), inverse=True)
        d = self.world_from_field.direction(np.reshape(d, (-1, 3)), inverse=True)
        with np.errstate(divide="ignore"):
            return slab_interval(self.bbox_lo, self.bbox_hi, o, 1.0 / d)


# ---------------------------------------------------------------------------
# Marching


# Field samples per march block; bounds the block's temporaries. Replaying
# field-hit passes in-process on one core of a 2-vCPU host, 10 alternating
# rounds of 4 passes, the median pass took 0.555 s at 4096 against 0.591 s
# at 2048 and 0.606 s at 8192, each faster than 4096 in only 4 of 10
# rounds; at 8192 a pass took up to 17,788 minor page faults, at 4096 310.
MARCH_BLOCK_POINTS = 4096


def _substep_counts(seg_len: np.ndarray, dt: float) -> np.ndarray:
    """Substeps of length at most dt per segment; ValueError when a count
    does not fit int64."""
    with np.errstate(over="ignore"):  # an infinite count fails the test below
        n = np.ceil(seg_len / dt)
    if len(n) and not n.max() < 2.0**63:
        raise ValueError(f"march step {dt:g} gives {n.max():g} substeps on one segment, "
                         "more than int64 holds")
    return np.where(seg_len > 0.0, np.maximum(n.astype(np.int64), 1), 0)


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
        delta = step.take(j)
        t_mid = s0.take(j) + (kk + 0.5) * delta
        p = o.take(j, axis=0)
        p += t_mid[:, None] * d.take(j, axis=0)
        sigma, rad = grid.sample_batch(p)
        a = 1.0 - np.exp(-sigma * delta)
        am = a
        if shadow_fn is not None:
            # Substeps with zero opacity or black radiance contribute
            # exactly zero whatever the mask, so skip their shadow rays.
            need = (a > 0.0) & (max3(rad) > 0.0)
            if np.any(need):
                m = np.ones(len(a))
                m[need] = shadow_fn(p[need], kk[need], order[j[need]])
                am = a * m
        keep = 1.0 - a
        for c, r0, r1 in zip(counts.tolist(), (rows - counts).tolist(), rows.tolist()):
            L_o[:c] += T_spec_o[:c] * am[r0:r1, None] * rad[r0:r1]
            T_spec_o[:c] *= keep[r0:r1, None]
        k0 = k1
    L[order], T_spec[order] = L_o, T_spec_o


# ---------------------------------------------------------------------------
# Signed distance grids


class SdfGrid:
    """Trilinear signed-distance grid over the box [bbox_lo, bbox_hi],
    negative inside geometry.

    The grid has no placement of its own: points are given in its frame,
    which is its owner's body frame, and normals come back in that frame.
    phi is a read-only view, fixed for the grid's life, so what is derived
    from it (`negative_box`) is computed once.
    """

    def __init__(self, bbox_lo, bbox_hi, phi):
        self.bbox_lo, self.bbox_hi = _check_bbox(bbox_lo, bbox_hi)
        phi = np.ascontiguousarray(phi, dtype=np.float64).view()
        self.res = _as_res(phi.shape)
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite")
        phi.flags.writeable = False
        self.phi = phi
        self._scale = _grid_scale(self.bbox_lo, self.bbox_hi, self.res)
        self._table = phi.reshape(-1, 1)

    def cell_size(self) -> np.ndarray:
        return _cell_size(self.bbox_lo, self.bbox_hi, self.res)

    @functools.cached_property
    def negative_box(self):
        """(lo, hi): the box outside of which phi >= 0, or None when no
        node has phi < 0.

        `phi_batch` is >= 0 outside the grid's box. Inside it, a
        trilinear value sums products of corner values and weights in
        [0, 1], so it is negative only in a cell with a negative corner,
        and such a cell lies within one cell of that corner on every axis.
        So the box is the phi < 0 nodes' bounding box grown by one cell on
        every side and clipped to the grid's box, exact but for the
        rounding of a few ulps in its corners and in a query's grid
        coordinates, which a caller's slack must cover.
        """
        neg = np.argwhere(self.phi < 0.0)
        if not len(neg):
            return None
        h = self.cell_size()
        return (np.maximum(self.bbox_lo + (neg.min(axis=0) - 1) * h, self.bbox_lo),
                np.minimum(self.bbox_lo + (neg.max(axis=0) + 1) * h, self.bbox_hi))

    def phi_batch(self, p: np.ndarray) -> np.ndarray:
        """phi at points (N, 3), bitwise query_batch's phi, without the six
        lookups its normals take. Outside the box it composes the distance
        to the box with the clamped boundary value, so it stays >= 0."""
        p = np.reshape(p, (-1, 3))
        q = np.clip(p, self.bbox_lo, self.bbox_hi)
        base = _trilinear(self._table, self.res, self.bbox_lo, self._scale, q)[:, 0]
        outside = np.linalg.norm(p - q, axis=1)
        return np.where(outside > 0.0, np.maximum(outside + base, 0.0), base)

    def query_batch(self, p: np.ndarray):
        """(phi, normal, valid) at points (N, 3).

        Normals are central differences at one-cell spacing; valid is False
        where the gradient degenerates.
        """
        p = np.reshape(p, (-1, 3))
        h = self.cell_size()
        # phi at p and at p +- h[ax] along each axis, from one lookup.
        e = np.diag(h)[:, None, :]
        vals = self.phi_batch(np.concatenate([p[None], p + e, p - e])).reshape(7, -1)
        phi = vals[0]
        grad = ((vals[1:4] - vals[4:]) / (2 * h[:, None])).T.copy()
        norm = np.linalg.norm(grad, axis=1)
        valid = norm > 1e-9
        grad[valid] /= norm[valid, None]
        grad[~valid] = (0.0, 0.0, 1.0)
        return phi, grad, valid


def _grid_axes(lo, hi, res) -> list:
    """Node coordinates along each axis."""
    return [np.linspace(lo[i], hi[i], res[i]) if res[i] > 1 else np.array([lo[i]])
            for i in range(3)]


def _axes_nodes(axes) -> np.ndarray:
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3, order="F")


def grid_points(bbox_lo, bbox_hi, res):
    """World positions of all grid nodes, shape (nx*ny*nz, 3), x-fastest."""
    lo, hi = _check_bbox(bbox_lo, bbox_hi)
    return _axes_nodes(_grid_axes(lo, hi, _as_res(res)))


# ---------------------------------------------------------------------------
# Baking


def mesh_edges(indices: np.ndarray) -> tuple:
    """(edges, counts, inverse) of a triangle list: its undirected edges as
    rows (i, j) with i <= j, sorted, the number of faces that hold each, and
    the edge id of each face's sides ab, bc, ca as (faces, 3)."""
    tri = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    edges = np.stack([tri, np.roll(tri, -1, axis=1)], axis=-1).reshape(-1, 2)
    edges, inverse, counts = np.unique(np.sort(edges, axis=1), axis=0,
                                       return_inverse=True, return_counts=True)
    return edges, counts, inverse.reshape(-1, 3)


def oriented_edge_ids(indices: np.ndarray):
    """The edge id of each face's sides (mesh_edges' inverse) if the
    triangle list is closed and consistently oriented, else None. It is
    when every edge has two faces, which traverse it in opposite
    directions."""
    tri = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    _, counts, inverse = mesh_edges(tri)
    turns = np.sign(np.roll(tri, -1, axis=1) - tri)
    if np.all(counts == 2) and not np.any(np.bincount(inverse.ravel(), turns.ravel())):
        return inverse
    return None


def _point_triangle_dist_sq(p: np.ndarray, a, b, c) -> tuple:
    """(d2, feature, p - q) of (node, face) pairs from (3, P) rows: the
    squared distance (P,) to the closest point q, its region and p - q.

    p holds the pairs' points and a, b, c their faces' vertices, one row
    per component. q is found by Voronoi region (Ericson, Real-Time
    Collision Detection, section 5.1.5), whose int8 code is the feature: 0
    the interior, 1-3 the edges bc, ac, ab, 4-6 the vertices c, b, a, a
    later region taking a pair from an earlier one. Each region's point is
    computed only for the pairs that pass its test, by one expression.
    A 3-term dot product is summed as (x0*y0 + x1*y1) + x2*y2, the order in
    which np.sum adds a last axis of 3, so every result is the float of a
    (P, 3) evaluation. Only a sum of three zero terms can differ, -0.0
    against np.sum's 0.0; that sign reaches zero intermediates only, never
    the result, which is a sum of squares.
    """
    def dot(x, y):
        t = x * y
        t[0] += t[1]
        t[0] += t[2]
        return t[0]

    ab = b - a
    ac = c - a
    ap = p - a
    d1 = dot(ab, ap)
    d2 = dot(ac, ap)
    bp = p - b
    d3 = dot(ab, bp)
    d4 = dot(ac, bp)
    cp = p - c
    d5 = dot(ab, cp)
    d6 = dot(ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    at_c = (d6 >= 0) & (d5 <= d6)
    at_b = (d3 >= 0) & (d4 <= d3)
    at_a = (d1 <= 0) & (d2 <= 0)
    closest = np.empty_like(p)
    feature = np.empty(p.shape[1], dtype=np.int8)
    with np.errstate(divide="ignore", invalid="ignore"):
        i = np.flatnonzero(~(on_bc | on_ac | on_ab | at_c | at_b | at_a))
        va_i, vb_i, vc_i = va[i], vb[i], vc[i]
        denom = va_i + vb_i + vc_i
        denom = np.where(denom != 0, denom, 1.0)
        closest[:, i] = (a.take(i, axis=1) + (vb_i / denom) * ab.take(i, axis=1)
                         + (vc_i / denom) * ac.take(i, axis=1))
        feature[i] = 0
        i = np.flatnonzero(on_bc)
        d43, d56 = d4[i] - d3[i], d5[i] - d6[i]
        t_bc = d43 / np.where(d43 + d56 != 0, d43 + d56, 1.0)
        b_i = b.take(i, axis=1)
        closest[:, i] = b_i + np.clip(t_bc, 0, 1) * (c.take(i, axis=1) - b_i)
        feature[i] = 1
        i = np.flatnonzero(on_ac)
        d2_i, d26 = d2[i], d2[i] - d6[i]
        w_ac = d2_i / np.where(d26 != 0, d26, 1.0)
        closest[:, i] = a.take(i, axis=1) + np.clip(w_ac, 0, 1) * ac.take(i, axis=1)
        feature[i] = 2
        i = np.flatnonzero(on_ab)
        d1_i, d13 = d1[i], d1[i] - d3[i]
        v_ab = d1_i / np.where(d13 != 0, d13, 1.0)
        closest[:, i] = a.take(i, axis=1) + np.clip(v_ab, 0, 1) * ab.take(i, axis=1)
        feature[i] = 3
    for code, at, vertex in ((4, at_c, c), (5, at_b, b), (6, at_a, a)):
        i = np.flatnonzero(at)
        closest[:, i] = vertex.take(i, axis=1)
        feature[i] = code
    diff = p - closest
    return dot(diff, diff), feature, diff


# Pairs per chunk, (node, face) in the bake and (line entry, node) in the
# density SDF's distance transform; bounds their temporaries.
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


def _axis_gaps(axes_pts, lo: np.ndarray, hi: np.ndarray) -> list:
    """Squared gaps from each axis's nodes to boxes [lo, hi], (n_axis, boxes)
    per axis; a node's squared distance to a box is the sum over its axes."""
    return [np.maximum(np.maximum(lo[:, ax] - col[:, None], col[:, None] - hi[:, ax]),
                       0.0) ** 2
            for ax, col in enumerate(axes_pts)]


def _unsigned_distance(axes_pts, tri_verts: np.ndarray, normals: np.ndarray) -> tuple:
    """Distance from every grid node to the nearest face and whether the
    node is behind it, both x-fastest (N,).

    Only (node, face) pairs that can hold the node's minimum are evaluated.
    The distance u(p) from node p to the nearest vertex of a non-flat face
    bounds the minimum from above, as that face's computed distance is at
    most u(p) up to rounding. A non-flat face whose bounding box lies
    farther than u(p) + pad therefore never holds the minimum and is
    skipped; flat faces (see _FLAT_FACE) are kept for every node. Both
    u(p)^2 and the box distance are sums of per-axis squared gaps, looked
    up from one (n_axis, vertices) and one (n_axis, faces) table per axis
    (a vertex is a box with lo = hi). _point_triangle_dist_sq runs on the
    kept pairs only; its arithmetic is elementwise, and the minimum over
    any superset of the minimising face is the same float, so the distance
    equals the brute-force minimum over all faces bit for bit. A node is
    behind when (p - q) . normals[face, feature] < 0 at its first pair that
    holds the minimum (see _pseudonormals).
    """
    nx, ny, _ = (len(ax) for ax in axes_pts)
    pts = np.ascontiguousarray(_axes_nodes(axes_pts).T)
    a, b, c = np.ascontiguousarray(tri_verts.transpose(1, 2, 0))
    face_lo, face_hi = tri_verts.min(axis=1), tri_verts.max(axis=1)
    # The grid's corners are the first and last nodes.
    span = float(np.linalg.norm(np.maximum(pts[:, -1], face_hi.max(axis=0))
                                - np.minimum(pts[:, 0], face_lo.min(axis=0))))

    edges = np.roll(tri_verts, -1, axis=1) - tri_verts  # b - a, c - b, a - c
    longest = np.linalg.norm(edges, axis=2).max(axis=1)
    twice_area = np.linalg.norm(cross3(edges[:, 0], edges[:, 2]), axis=1)
    flat = twice_area ** 2 <= _FLAT_FACE * span * longest ** 3
    # A flat face gets an unbounded box, so it is kept for every node.
    face_lo[flat], face_hi[flat] = -np.inf, np.inf
    verts = np.unique(tri_verts[~flat].reshape(-1, 3), axis=0)

    gx, gy, gz = _axis_gaps(axes_pts, face_lo, face_hi)
    ux, uy, uz = _axis_gaps(axes_pts, verts, verts)
    out = np.empty(pts.shape[1])
    behind = np.empty(pts.shape[1], dtype=bool)
    step = max(1, BAKE_CHUNK_PAIRS // max(len(tri_verts), len(verts)))
    for v0 in range(0, len(out), step):
        v = np.arange(v0, min(v0 + step, len(out)))
        ix, iy, iz = v % nx, (v // nx) % ny, v // (nx * ny)
        # Sums in place: a fresh (chunk, faces) temporary per add costs
        # more than the add.
        near2 = ux[ix]
        near2 += uy[iy]
        near2 += uz[iz]
        # With every face flat there is no vertex, and the reach is inf.
        reach2 = (np.sqrt(near2.min(axis=1, initial=np.inf)) + _REACH_PAD * span) ** 2
        box2 = gx[ix]
        box2 += gy[iy]
        box2 += gz[iz]
        rows, face = np.divmod(np.flatnonzero(box2 <= reach2[:, None]), len(tri_verts))
        node = v[rows]
        d2, feature, diff = _point_triangle_dist_sq(
            pts.take(node, axis=1), a.take(face, axis=1), b.take(face, axis=1),
            c.take(face, axis=1))
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        low = np.minimum.reduceat(d2, starts)
        # Pairs above their node's minimum are masked, so each group's
        # minimum index is its first pair that holds the minimum.
        pair = np.where(d2 > np.repeat(low, np.diff(np.r_[starts, len(d2)])),
                        len(d2), np.arange(len(d2)))
        first = np.minimum.reduceat(pair, starts)
        side = np.sum(diff[:, first].T * normals[face[first], feature[first]], axis=1)
        out[node[starts]] = np.sqrt(low)
        behind[node[starts]] = side < 0
    return out, behind


def _pseudonormals(vertices: np.ndarray, indices: np.ndarray, inverse: np.ndarray):
    """Angle-weighted pseudonormals (Baerentzen & Aanaes, TVCG 2005) of each
    face's regions, (faces, 7, 3) in _point_triangle_dist_sq's codes: the
    unit face normal; at an edge (ids in inverse, see mesh_edges) the sum of
    its faces' unit normals; at a vertex the sum of its faces' unit normals,
    each times the face's angle there. A zero-area face has a zero normal.
    The table is negated when the mesh's signed volume is negative, so that
    on a closed, consistently oriented mesh p is inside exactly when
    (p - q) . n < 0 at the region of its closest point q."""
    tri_verts = vertices[indices]
    sides = np.roll(tri_verts, -1, axis=1) - tri_verts   # b - a, c - b, a - c
    back = np.roll(sides, 1, axis=1)                      # a - c, b - a, c - b
    normal = cross3(back[:, 0], sides[:, 0])              # (b - a) x (c - a)
    length = np.linalg.norm(normal, axis=1, keepdims=True)
    unit = np.divide(normal, length, out=np.zeros_like(normal), where=length > 0)
    # arctan2 gives a corner with a side of zero length angle 0, not NaN.
    angle = np.arctan2(np.linalg.norm(cross3(sides, back), axis=2),
                       -np.sum(sides * back, axis=2))
    edge_n = np.zeros((inverse.max() + 1, 3))
    np.add.at(edge_n, inverse, unit[:, None])
    vertex_n = np.zeros((len(vertices), 3))
    np.add.at(vertex_n, indices, angle[..., None] * unit[:, None])
    table = np.concatenate([unit[:, None], edge_n[inverse[:, [1, 2, 0]]],
                            vertex_n[indices[:, ::-1]]], axis=1)
    volume = np.sum(tri_verts[:, 0] * cross3(tri_verts[:, 1], tri_verts[:, 2]))
    return -table if volume < 0 else table


def bake_sdf_from_mesh(vertices: np.ndarray, indices: np.ndarray, bbox_lo, bbox_hi,
                       res, jitter_seed: int = 11) -> SdfGrid:
    """Signed distance grid of a closed, consistently oriented triangle mesh.

    |phi| at each node is the minimum point-triangle distance over the faces
    that survive an exact cull, equal to the minimum over all faces bit for
    bit (see _unsigned_distance). The sign comes from the face, edge or
    vertex that holds the minimum, by its angle-weighted pseudonormal (see
    _pseudonormals), for either winding. Input that is open, or whose faces
    disagree on orientation (see oriented_edge_ids), has no inside and
    raises ValueError. jitter_seed is accepted and ignored, for callers
    that still pass it.
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

    inverse = oriented_edge_ids(indices)
    if inverse is None:
        raise ValueError("mesh is not closed and consistently oriented, so it has no inside")
    normals = _pseudonormals(vertices, indices, inverse)
    dist, inside = _unsigned_distance(_grid_axes(lo, hi, res), vertices[indices], normals)
    phi = dist.reshape(res, order="F")
    return SdfGrid(lo, hi, np.where(inside.reshape(res, order="F"), -phi, phi))


def occupancy(grid: RadianceGrid, frac: float) -> np.ndarray:
    """Occupied nodes of a density grid, shape res: sigma >= frac * max."""
    peak = float(grid.sigma.max())
    if peak <= 0.0:
        raise ValueError("density field is all zero, so nothing is occupied")
    return grid.sigma >= frac * peak


def _min_plus(g: np.ndarray, axis: int, h: float) -> np.ndarray:
    """min over j of g[..., j, ...] + ((i - j) * h)^2 along one axis, for
    every i; only the finite entries of g are visited."""
    lines = np.moveaxis(g, axis, -1)
    shape, n = lines.shape, lines.shape[-1]
    lines = lines.reshape(-1, n)
    k = np.arange(n)
    step_sq = (k * h) ** 2
    step_sq = step_sq[np.abs(k[:, None] - k)]  # (j, i) -> ((i - j) * h)^2
    out = np.full(lines.shape, np.inf)
    row, col = np.nonzero(np.isfinite(lines))
    chunk = max(1, BAKE_CHUNK_PAIRS // n)
    for s in range(0, len(row), chunk):
        r, j = row[s:s + chunk], col[s:s + chunk]
        cand = lines[r, j][:, None] + step_sq[j]
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        r = r[starts]
        out[r] = np.minimum(out[r], np.minimum.reduceat(cand, starts, axis=0))
    return np.moveaxis(out.reshape(shape), -1, axis)


def _edt_sq(feature: np.ndarray, h) -> np.ndarray:
    """Squared Euclidean distance from every node of a grid to its nearest
    feature node (0 on a feature), with cell size h; see sdf_from_density."""
    d2 = np.zeros(feature.shape)
    need = np.nonzero(~feature)
    if len(need[0]) == 0:
        return d2
    box = tuple(slice(max(int(i.min()) - 1, 0), int(i.max()) + 2) for i in need)
    sub = feature[box]
    i = np.arange(sub.shape[0], dtype=np.float64)[:, None, None]
    before = np.maximum.accumulate(np.where(sub, i, -np.inf), axis=0)
    after = np.minimum.accumulate(np.where(sub, i, np.inf)[::-1], axis=0)[::-1]
    dx = np.minimum(i - before, after - i) * h[0]
    g = dx * dx
    for axis in (1, 2):
        g = _min_plus(g, axis, h[axis])
    d2[box] = g
    return d2


def sdf_from_density(grid: RadianceGrid, threshold_frac: float = 0.5) -> SdfGrid:
    """Collision proxy for a field: its occupancy, then an exact Euclidean
    distance transform of the node set, outside distance minus inside.

    Each side is a distance to the nearest node of the other (its
    features). Only the box of the nodes that need a distance, grown by one
    node and clipped to the grid, is transformed: every feature outside it
    has one inside that is no farther along any axis. Three passes, one per
    axis (Felzenszwalb & Huttenlocher, Theory of Computing 2012), carry
    squared distances: x gives (dx * h0)^2 to the nearest feature in the
    row, from running maxima and minima of feature indices; y, then z,
    take min over j of d2[j] + ((i - j) * h)^2 over the line's finite
    entries. Float addition is monotone, so each node gets the float
    minimum over all features of ((dx*h0)^2 + (dy*h1)^2) + (dz*h2)^2,
    the expression scipy.ndimage.distance_transform_edt evaluates at the
    one feature it picks. Where features tie in exact arithmetic but not in
    floats, the result can be an ulp below scipy's.
    """
    mask = occupancy(grid, threshold_frac)
    if mask.all():
        raise ValueError("density field is occupied at every node, so it has no surface")
    h = _cell_size(grid.bbox_lo, grid.bbox_hi, grid.res)
    outside = np.sqrt(_edt_sq(mask, h))
    inside = np.sqrt(_edt_sq(~mask, h))
    return SdfGrid(grid.bbox_lo, grid.bbox_hi, outside - inside)


# ---------------------------------------------------------------------------
# Grid files (layout in the module docstring)

_GRID_HEADER = "<3i6f"


def save_rfgrid(path, grid: RadianceGrid) -> None:
    header = struct.pack(_GRID_HEADER, *grid.res, *grid.bbox_lo, *grid.bbox_hi)
    sigma = grid.sigma.ravel(order="F").astype("<f4").tobytes()
    rgb = grid.radiance.reshape(-1, 3, order="F").astype("<f4").tobytes()
    with open(path, "wb") as f:
        f.write(header + sigma + rgb)


def load_rfgrid(path) -> RadianceGrid:
    """The radiance grid of a .rfgrid file, after checking that its size is
    exactly the header plus the sigma and RGB blocks."""
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
    want = off + 4 * 4 * n
    if len(data) != want:
        raise ValueError(f"{path}: {nx}x{ny}x{nz} grid needs {want} bytes, "
                         f"file has {len(data)}")
    flat = widen_f32(np.frombuffer(data, dtype="<f4", count=4 * n, offset=off))
    sigma = flat[:n].reshape((nx, ny, nz), order="F")
    rgb = flat[n:].reshape(-1, 3).reshape((nx, ny, nz, 3), order="F")
    return RadianceGrid(box[:3], box[3:], sigma, rgb)
