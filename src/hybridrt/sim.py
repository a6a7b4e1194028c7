"""Extended position-based dynamics: cloth particles, rigid bodies, and
SDF contacts, with rigid radiance-field objects coupled through their
transform.

Each substep integrates predictions, then runs Gauss-Seidel iterations of
XPBD constraint projection (distance constraints sequentially in fixed
order, then contacts in fixed order against start-of-iteration SDF
samples), reconstructs velocities from positions, and finishes with a
restitution/friction velocity pass that also removes the artificial
bounce a pure position projection would inject. Everything runs
single-threaded in deterministic order, so trajectories are bit-stable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .core import Transform
from .field import SdfGrid, sdf_from_density

log = logging.getLogger(__name__)


# -- quaternions (w, x, y, z) -------------------------------------------------


def quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v):
    u = q[1:4]
    w = q[0]
    t = 2.0 * np.cross(u, np.atleast_2d(v))
    out = np.atleast_2d(v) + w * t + np.cross(u, t)
    return out[0] if np.ndim(v) == 1 else out


def quat_normalize(q):
    return q / np.linalg.norm(q)


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# -- state --------------------------------------------------------------------


class ParticleSystem:
    """Positions/velocities/inverse-masses; inv_mass 0 pins a particle."""

    def __init__(self, positions, inv_mass, velocities=None):
        self.pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3).copy()
        self.inv_mass = np.asarray(inv_mass, dtype=np.float64).reshape(-1).copy()
        if len(self.inv_mass) != len(self.pos):
            raise ValueError("positions/inv_mass length mismatch")
        if np.any(self.inv_mass < 0):
            raise ValueError("inv_mass must be >= 0")
        self.vel = (np.zeros_like(self.pos) if velocities is None
                    else np.asarray(velocities, dtype=np.float64).reshape(-1, 3).copy())
        self.prev = self.pos.copy()

    def __len__(self):
        return len(self.pos)


@dataclass
class DistanceConstraint:
    i: int
    j: int
    rest: float
    compliance: float = 0.0

    def __post_init__(self):
        if self.rest <= 0:
            raise ValueError("rest length must be > 0")
        if self.compliance < 0:
            raise ValueError("compliance must be >= 0")


class RigidBody:
    """Rigid state about the center of mass; body frame origin is the com.

    collision_vertices are body-frame points queried against other SDFs;
    `sdf` (body-frame, optional) lets other objects collide with this body.
    An infinite mass (inv_mass 0) makes the body kinematic.
    """

    def __init__(self, com, mass, collision_vertices, inertia=None,
                 orientation=(1.0, 0.0, 0.0, 0.0), lin_vel=(0.0, 0.0, 0.0),
                 ang_vel=(0.0, 0.0, 0.0), sdf: Optional[SdfGrid] = None,
                 name: str = "body"):
        self.name = name
        self.com = np.asarray(com, dtype=np.float64).reshape(3).copy()
        self.q = quat_normalize(np.asarray(orientation, dtype=np.float64).reshape(4))
        self.lin_vel = np.asarray(lin_vel, dtype=np.float64).reshape(3).copy()
        self.ang_vel = np.asarray(ang_vel, dtype=np.float64).reshape(3).copy()
        if not mass > 0:
            raise ValueError("mass must be > 0 (use np.inf for kinematic)")
        self.mass = float(mass)
        self.inv_mass = 0.0 if np.isinf(mass) else 1.0 / float(mass)
        self.verts = np.asarray(collision_vertices, dtype=np.float64).reshape(-1, 3).copy()
        if inertia is None:
            inertia = point_mass_inertia(self.verts, self.mass)
        self.inertia = np.asarray(inertia, dtype=np.float64).reshape(3, 3)
        self.inv_inertia = _safe_inv(self.inertia) if self.inv_mass > 0 else np.zeros((3, 3))
        self.sdf = sdf
        self.prev_com = self.com.copy()
        self.prev_q = self.q.copy()

    def world_from_body(self) -> Transform:
        return Transform.from_quaternion(self.q, origin=self.com)

    def world_verts(self) -> np.ndarray:
        return quat_rotate(self.q, self.verts) + self.com

    def inv_inertia_world(self) -> np.ndarray:
        r = quat_to_matrix(self.q)
        return r @ self.inv_inertia @ r.T

    def point_velocity(self, r_world: np.ndarray) -> np.ndarray:
        """Velocity of a material point at world arm r (point - com)."""
        return self.lin_vel + np.cross(self.ang_vel, r_world)


def point_mass_inertia(verts_body: np.ndarray, mass: float) -> np.ndarray:
    if np.isinf(mass) or len(verts_body) == 0:
        return np.eye(3)
    m = mass / len(verts_body)
    i = np.zeros((3, 3))
    for r in verts_body:
        i += m * (float(r @ r) * np.eye(3) - np.outer(r, r))
    return i


def _safe_inv(m: np.ndarray) -> np.ndarray:
    """Inverse, or zeros for singular inertia (point masses cannot spin)."""
    if abs(np.linalg.det(m)) < 1e-12:
        return np.zeros((3, 3))
    return np.linalg.inv(m)


@dataclass
class Contact:
    """One penetrating vertex: phi < 0 along the owner SDF's normal."""

    kind: str              # "particle" or "body"
    index: int             # particle index or body index
    vert: int              # collision-vertex index for body contacts
    owner: int             # -1 static SDF id encoded separately; body index otherwise
    owner_sdf: SdfGrid
    owner_is_body: bool
    phi: float
    normal: np.ndarray
    v_pre: float = 0.0     # approach speed recorded before the position solve


class World:
    """All simulation state plus the solver parameters."""

    def __init__(self, gravity=(0.0, 0.0, -9.81), restitution=0.3, friction=0.5,
                 damping=0.0, velocity_cap=1e3):
        self.particles: Optional[ParticleSystem] = None
        self.constraints: list = []
        self.bodies: list = []
        self.static_sdfs: list = []
        self.gravity = np.asarray(gravity, dtype=np.float64).reshape(3)
        self.restitution = float(restitution)
        self.friction = float(friction)
        self.damping = float(damping)
        self.velocity_cap = float(velocity_cap)
        self._lambdas = np.zeros(0)

    def add_cloth(self, positions, inv_mass, edges, rest, compliance=0.0,
                  velocities=None) -> ParticleSystem:
        """compliance is one value for every edge or a sequence, one per edge."""
        if self.particles is not None:
            raise ValueError("one particle system per world")
        if np.ndim(compliance) == 0:
            compliance = [compliance] * len(edges)
        if len(compliance) != len(edges):
            raise ValueError(f"{len(compliance)} compliances for {len(edges)} edges")
        self.particles = ParticleSystem(positions, inv_mass, velocities)
        for (i, j), r, c in zip(edges, rest, compliance):
            self.constraints.append(DistanceConstraint(int(i), int(j), float(r), float(c)))
        return self.particles


def cloth_edges(indices: np.ndarray):
    """Unique triangle edges as constraint pairs."""
    es = set()
    for tri in np.asarray(indices).reshape(-1, 3):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            es.add((min(int(a), int(b)), max(int(a), int(b))))
    return sorted(es)


# -- contacts ------------------------------------------------------------------


def _body_sdf_query(body: RigidBody, p_world: np.ndarray):
    """Query a body-attached SDF at world points."""
    world_from_body = body.world_from_body()
    saved = body.sdf.world_from_grid
    body.sdf.world_from_grid = world_from_body
    try:
        return body.sdf.query_batch(p_world)
    finally:
        body.sdf.world_from_grid = saved


def detect_contacts(world: World, sdfs=None) -> list:
    """Every particle and rigid collision vertex against every SDF."""
    contacts = []
    static_sdfs = world.static_sdfs if sdfs is None else sdfs

    sources = []
    if world.particles is not None and len(world.particles):
        sources.append(("particle", -1, world.particles.pos))
    for bi, b in enumerate(world.bodies):
        if len(b.verts):
            sources.append(("body", bi, b.world_verts()))

    owners = [(False, si, s) for si, s in enumerate(static_sdfs)]
    owners += [(True, bi, b.sdf) for bi, b in enumerate(world.bodies) if b.sdf is not None]

    for kind, src_body, pts in sources:
        for owner_is_body, owner_id, sdf in owners:
            if owner_is_body and kind == "body" and owner_id == src_body:
                continue  # a body does not collide with itself
            if owner_is_body:
                phi, n, valid = _body_sdf_query(world.bodies[owner_id], pts)
            else:
                phi, n, valid = sdf.query_batch(pts)
            pen = phi < 0.0
            for k in np.nonzero(pen)[0]:
                if not valid[k]:
                    log.debug("skipping contact with degenerate SDF normal at %s", pts[k])
                    continue
                contacts.append(Contact(
                    kind=kind,
                    index=int(k) if kind == "particle" else src_body,
                    vert=int(k) if kind == "body" else -1,
                    owner=owner_id,
                    owner_sdf=sdf,
                    owner_is_body=owner_is_body,
                    phi=float(phi[k]),
                    normal=n[k].copy(),
                ))
    return contacts


def _contact_world_point(world: World, c: Contact) -> np.ndarray:
    if c.kind == "particle":
        return world.particles.pos[c.index]
    b = world.bodies[c.index]
    return quat_rotate(b.q, b.verts[c.vert]) + b.com


def _relative_velocity(world: World, c: Contact, p: np.ndarray) -> np.ndarray:
    """Penetrator-minus-owner velocity at contact point p."""
    if c.kind == "particle":
        v = world.particles.vel[c.index].copy()
    else:
        b = world.bodies[c.index]
        v = b.point_velocity(p - b.com)
    if c.owner_is_body:
        ob = world.bodies[c.owner]
        v = v - ob.point_velocity(p - ob.com)
    return v


def _apply_body_position(b: RigidBody, dp: np.ndarray, r: np.ndarray):
    """Positional correction dp applied at world arm r."""
    b.com += b.inv_mass * dp
    dw = b.inv_inertia_world() @ np.cross(r, dp)
    b.q = quat_normalize(b.q + 0.5 * quat_mul(np.array([0.0, *dw]), b.q))


def _generalized_w(world: World, c: Contact, p: np.ndarray, n: np.ndarray):
    """Inverse-mass sum of both participants along direction n."""
    if c.kind == "particle":
        w_src = float(world.particles.inv_mass[c.index])
    else:
        b = world.bodies[c.index]
        rn = np.cross(p - b.com, n)
        w_src = b.inv_mass + float(rn @ b.inv_inertia_world() @ rn)
    w_own = 0.0
    if c.owner_is_body:
        ob = world.bodies[c.owner]
        rn = np.cross(p - ob.com, n)
        w_own = ob.inv_mass + float(rn @ ob.inv_inertia_world() @ rn)
    return w_src, w_own


def _solve_contacts_position(world: World, contacts: list):
    """Project penetrating points to phi = 0 along the sampled normal.

    Depths and normals are sampled per iteration, then corrections apply
    in fixed contact order.
    """
    if not contacts:
        return
    pts = np.array([_contact_world_point(world, c) for c in contacts])
    for ci, c in enumerate(contacts):
        if c.owner_is_body:
            phi, n, valid = _body_sdf_query(world.bodies[c.owner], pts[ci:ci + 1])
        else:
            phi, n, valid = c.owner_sdf.query_batch(pts[ci:ci + 1])
        if phi[0] >= 0.0 or not valid[0]:
            continue
        n0 = n[0]
        p = pts[ci]
        w_src, w_own = _generalized_w(world, c, p, n0)
        w_total = w_src + w_own
        if w_total == 0.0:
            continue
        dlam = -phi[0] / w_total
        if c.kind == "particle":
            world.particles.pos[c.index] += (
                world.particles.inv_mass[c.index] * dlam * n0
            )
        else:
            b = world.bodies[c.index]
            _apply_body_position(b, dlam * n0, p - b.com)
        if c.owner_is_body:
            ob = world.bodies[c.owner]
            _apply_body_position(ob, -dlam * n0, p - ob.com)


def _apply_velocity_impulse(world: World, c: Contact, p: np.ndarray, j: np.ndarray):
    """Impulse j on the penetrator, -j on a dynamic owner."""
    if c.kind == "particle":
        world.particles.vel[c.index] += world.particles.inv_mass[c.index] * j
    else:
        b = world.bodies[c.index]
        b.lin_vel += b.inv_mass * j
        b.ang_vel += b.inv_inertia_world() @ np.cross(p - b.com, j)
    if c.owner_is_body:
        ob = world.bodies[c.owner]
        ob.lin_vel -= ob.inv_mass * j
        ob.ang_vel += ob.inv_inertia_world() @ np.cross(p - ob.com, -j)


def _solve_contact_velocities(world: World, contacts: list, h: float):
    """Restitution on the normal component, Coulomb friction tangentially.

    The normal target is -e * v_pre (approach speed before the position
    solve), which also cancels the artificial bounce injected by position
    projection.
    """
    e = world.restitution
    mu = world.friction
    for c in contacts:
        p = _contact_world_point(world, c)
        n = c.normal
        w_src, w_own = _generalized_w(world, c, p, n)
        w_n = w_src + w_own
        if w_n == 0.0:
            continue
        v_n = float(_relative_velocity(world, c, p) @ n)
        target = -e * min(c.v_pre, 0.0)
        j_n = (target - v_n) / w_n
        _apply_velocity_impulse(world, c, p, j_n * n)

        # Friction against the post-normal-impulse tangential velocity.
        v = _relative_velocity(world, c, p)
        v_t = v - (v @ n) * n
        speed_t = float(np.linalg.norm(v_t))
        if speed_t < 1e-12 or mu <= 0.0:
            continue
        t_hat = v_t / speed_t
        w_src_t, w_own_t = _generalized_w(world, c, p, t_hat)
        w_t = w_src_t + w_own_t
        if w_t == 0.0:
            continue
        j_stop = speed_t / w_t
        j_t = min(j_stop, mu * abs(j_n))
        _apply_velocity_impulse(world, c, p, -j_t * t_hat)


# -- stepping ------------------------------------------------------------------


def _integrate(world: World, h: float):
    g = world.gravity
    damp = float(np.exp(-world.damping * h)) if world.damping > 0 else 1.0
    ps = world.particles
    if ps is not None and len(ps):
        free = ps.inv_mass > 0
        ps.vel[free] += g * h
        if damp != 1.0:
            ps.vel *= damp
        ps.prev[:] = ps.pos
        ps.pos += ps.vel * h
    for b in world.bodies:
        b.prev_com[:] = b.com
        b.prev_q[:] = b.q
        if b.inv_mass == 0.0:
            continue
        b.lin_vel += g * h
        if damp != 1.0:
            b.lin_vel *= damp
            b.ang_vel *= damp
        b.com += b.lin_vel * h
        if np.any(b.ang_vel != 0.0):
            b.q = quat_normalize(b.q + 0.5 * h * quat_mul(np.array([0.0, *b.ang_vel]), b.q))


def _constraint_buffer(world: World):
    """Flat tuples for the hot Gauss-Seidel loop; plain floats beat numpy
    scalar indexing by an order of magnitude here."""
    buf = getattr(world, "_cbuf", None)
    if buf is None or len(buf) != len(world.constraints):
        buf = [(dc.i, dc.j, dc.rest, dc.compliance) for dc in world.constraints]
        world._cbuf = buf
    return buf


def _solve_distance_constraints(world: World, h: float, lambdas: list):
    import math

    ps = world.particles
    pos = ps.pos.tolist()
    inv = ps.inv_mass.tolist()
    h2 = h * h
    for k, (i, j, rest, compliance) in enumerate(_constraint_buffer(world)):
        pi = pos[i]
        pj = pos[j]
        dx = pi[0] - pj[0]
        dy = pi[1] - pj[1]
        dz = pi[2] - pj[2]
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist < 1e-12:
            continue
        alpha_tilde = compliance / h2
        wi = inv[i]
        wj = inv[j]
        denom = wi + wj + alpha_tilde
        if denom == 0.0:
            continue
        dlam = (-(dist - rest) - alpha_tilde * lambdas[k]) / denom
        lambdas[k] += dlam
        s = dlam / dist
        pi[0] += wi * s * dx
        pi[1] += wi * s * dy
        pi[2] += wi * s * dz
        pj[0] -= wj * s * dx
        pj[1] -= wj * s * dy
        pj[2] -= wj * s * dz
    ps.pos[:] = pos


def _velocity_update(world: World, h: float):
    ps = world.particles
    if ps is not None and len(ps):
        ps.vel[:] = (ps.pos - ps.prev) / h
    for b in world.bodies:
        if b.inv_mass == 0.0:
            continue
        b.lin_vel = (b.com - b.prev_com) / h
        dq = quat_mul(b.q, quat_conj(b.prev_q))
        if dq[0] < 0.0:
            dq = -dq
        b.ang_vel = 2.0 * dq[1:4] / h


def _stability_check(world: World):
    worst = 0.0
    what = "none"
    ps = world.particles
    if ps is not None and len(ps):
        v = float(np.max(np.linalg.norm(ps.vel, axis=1)))
        if v > worst:
            worst, what = v, "particles"
    for b in world.bodies:
        v = float(np.linalg.norm(b.lin_vel))
        if v > worst:
            worst, what = v, b.name
    if worst > world.velocity_cap:
        state = {
            "max_velocity": worst,
            "source": what,
            "bodies": [{"name": b.name, "com": b.com.tolist(),
                        "lin_vel": b.lin_vel.tolist()} for b in world.bodies],
        }
        raise RuntimeError(f"simulation unstable: |v|={worst:.3g} exceeds cap "
                           f"{world.velocity_cap:.3g}; state: {state}")


def step(world: World, dt: float, substeps: int, iterations: int) -> World:
    """Advance the world by dt using substeps x iterations XPBD."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    h = dt / substeps
    for _ in range(substeps):
        _integrate(world, h)
        contacts = detect_contacts(world)
        for c in contacts:
            p = _contact_world_point(world, c)
            c.v_pre = float(_relative_velocity(world, c, p) @ c.normal)
        lambdas = [0.0] * len(world.constraints)
        for _ in range(iterations):
            if world.constraints:
                _solve_distance_constraints(world, h, lambdas)
            _solve_contacts_position(world, contacts)
        _velocity_update(world, h)
        _solve_contact_velocities(world, contacts, h)
        _stability_check(world)
    return world


# -- scene coupling ------------------------------------------------------------


@dataclass
class SimBinding:
    """Mapping from world objects back to renderer assets."""

    cloth_meshes: list = dc_field(default_factory=list)   # (mesh, particle slice)
    rigid_meshes: list = dc_field(default_factory=list)   # (mesh, body idx, base verts body frame)
    field_body: int = -1
    field_origin: np.ndarray = None  # field-frame com at registration


def build_world(scene) -> tuple:
    """World + binding from a loaded Scene's dynamic declarations."""
    cfg = scene.config.sim
    world = World(gravity=cfg.gravity, restitution=cfg.restitution,
                  friction=cfg.friction, damping=cfg.damping,
                  velocity_cap=cfg.velocity_cap)
    binding = SimBinding()
    world.static_sdfs = list(scene.collider_sdfs)

    cloth_positions = []
    cloth_inv_mass = []
    cloth_edges_all = []
    cloth_rest = []
    cloth_compliance = []
    offset = 0
    for mesh, mc in zip(scene.meshes, scene.config.meshes):
        dyn = mc.dynamic
        if dyn is None:
            continue
        if dyn.type == "cloth":
            n = len(mesh.vertices)
            inv = np.full(n, n / dyn.mass)
            for pin in dyn.pinned:
                if not 0 <= pin < n:
                    raise ValueError(f"mesh '{mesh.name}': pinned vertex {pin} "
                                     f"out of range [0, {n})")
                inv[pin] = 0.0
            cloth_positions.append(mesh.vertices.copy())
            cloth_inv_mass.append(inv)
            for a, b in cloth_edges(mesh.indices):
                cloth_edges_all.append((a + offset, b + offset))
                cloth_rest.append(float(np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])))
                cloth_compliance.append(dyn.compliance)
            binding.cloth_meshes.append((mesh, slice(offset, offset + n)))
            offset += n
        elif dyn.type == "rigid":
            com = mesh.vertices.mean(axis=0)
            body = RigidBody(com=com, mass=dyn.mass,
                             collision_vertices=mesh.vertices - com,
                             lin_vel=dyn.velocity, name=mesh.name)
            binding.rigid_meshes.append((mesh, len(world.bodies), mesh.vertices - com))
            world.bodies.append(body)
    if cloth_positions:
        world.add_cloth(np.concatenate(cloth_positions),
                        np.concatenate(cloth_inv_mass),
                        cloth_edges_all, cloth_rest, compliance=cloth_compliance)

    fc = scene.config.field
    if fc is not None and fc.dynamic is not None and scene.field is not None:
        dyn = fc.dynamic
        if dyn.sdf is not None:
            import os
            from .field import load_sdfgrid
            sdf = load_sdfgrid(os.path.join(scene.base_dir, dyn.sdf))
        else:
            sdf = sdf_from_density(scene.field, dyn.sigma_threshold)
        body, origin = make_field_body(scene.field, sdf, dyn.mass,
                                       velocity=dyn.velocity,
                                       sigma_threshold=dyn.sigma_threshold)
        binding.field_body = len(world.bodies)
        binding.field_origin = origin
        world.bodies.append(body)
    return world, binding


def make_field_body(grid, sdf: SdfGrid, mass: float, velocity=(0.0, 0.0, 0.0),
                    sigma_threshold: float = 0.5, max_surface_verts: int = 200) -> tuple:
    """Rigid body for a radiance-field object.

    Returns (body, field_origin): the body frame sits at the occupancy
    centroid of the density field; collision vertices are near-surface SDF
    grid nodes, deterministically subsampled.
    """
    from .field import grid_points, _grid_to_xfastest

    occ_flat = _grid_to_xfastest(grid.sigma) >= sigma_threshold * float(grid.sigma.max())
    pts = grid_points(grid.bbox_lo, grid.bbox_hi, grid.res)
    if not np.any(occ_flat):
        raise ValueError("field has no occupied density; cannot build a body")
    origin = pts[occ_flat].mean(axis=0)

    phi_flat = _grid_to_xfastest(sdf.phi)
    cell = float(np.max(sdf.cell_size()))
    near = np.abs(phi_flat) <= 0.75 * cell
    surf = pts[near]
    if len(surf) == 0:
        surf = pts[occ_flat]
    stride = max(1, len(surf) // max_surface_verts)
    surf = surf[::stride]

    body_sdf = SdfGrid(sdf.bbox_lo - origin, sdf.bbox_hi - origin, sdf.phi)
    body = RigidBody(com=origin, mass=mass, collision_vertices=surf - origin,
                     lin_vel=velocity, sdf=body_sdf, name="field")
    return body, origin


def sync_to_renderer(world: World, scene, binding: SimBinding):
    """Copy simulated state back into renderer assets.

    Mesh vertex buffers and the field transform only change when the new
    values differ bitwise, and the BVH is rebuilt only when a mesh moved.
    """
    dirty = False
    for mesh, sl in binding.cloth_meshes:
        new = world.particles.pos[sl]
        if not np.array_equal(new, mesh.vertices):
            mesh.vertices = new.copy()
            dirty = True
    for mesh, bi, base in binding.rigid_meshes:
        b = world.bodies[bi]
        new = quat_rotate(b.q, base) + b.com
        if not np.array_equal(new, mesh.vertices):
            mesh.vertices = new
            dirty = True
    if binding.field_body >= 0 and scene.field is not None:
        b = world.bodies[binding.field_body]
        new_t = b.world_from_body().compose(Transform.translate(-binding.field_origin))
        if not np.array_equal(new_t.m, scene.field.world_from_field.m):
            scene.field.world_from_field = new_t
    if dirty:
        scene.rebuild_bvh()
    return scene
