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
import math
import os
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

import numpy as np

from .core import Transform, quat_to_matrix
from .field import SdfGrid, _grid_to_xfastest, grid_points, load_sdfgrid, sdf_from_density
from .scene import SimConfig

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


def quat_rotate(q, v):
    u = q[1:4]
    w = q[0]
    t = 2.0 * np.cross(u, np.atleast_2d(v))
    out = np.atleast_2d(v) + w * t + np.cross(u, t)
    return out[0] if np.ndim(v) == 1 else out


def quat_normalize(q):
    return q / np.linalg.norm(q)


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


class DistanceConstraint(NamedTuple):
    """|x_i - x_j| = rest, with XPBD compliance; plain Python numbers,
    which the Gauss-Seidel loop reads an order of magnitude faster than
    numpy scalars."""

    i: int
    j: int
    rest: float
    compliance: float


# -- contact participants -----------------------------------------------------
#
# Each side of a contact answers five questions (Mueller et al. 2020): its
# contact point, its velocity at a point p, its generalized inverse mass
# w = 1/m + (r x n)^T I^-1 (r x n) along n at p, and how a position
# correction s * n or an impulse j at p moves it. A particle is a body
# without inertia; a static collider has w = 0 and never moves.


class RigidBody:
    """Rigid state about the center of mass; body frame origin is the com.

    A body starts unrotated and without spin, moving at lin_vel; its inertia
    is that of its collision_vertices as equal point masses. The
    collision_vertices are body-frame points queried against other SDFs;
    `sdf` (body-frame, optional) lets other objects collide with this body.
    An infinite mass (inv_mass 0) makes the body kinematic.
    """

    def __init__(self, com, mass, collision_vertices, lin_vel=(0.0, 0.0, 0.0),
                 sdf: Optional[SdfGrid] = None, name: str = "body"):
        self.name = name
        self.com = np.asarray(com, dtype=np.float64).reshape(3).copy()
        self.q = np.array([1.0, 0.0, 0.0, 0.0])
        self.lin_vel = np.asarray(lin_vel, dtype=np.float64).reshape(3).copy()
        self.ang_vel = np.zeros(3)
        if not mass > 0:
            raise ValueError("mass must be > 0 (use np.inf for kinematic)")
        self.mass = float(mass)
        self.inv_mass = 0.0 if np.isinf(mass) else 1.0 / float(mass)
        self.verts = np.asarray(collision_vertices, dtype=np.float64).reshape(-1, 3).copy()
        self.inertia = point_mass_inertia(self.verts, self.mass)
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

    def query(self, p_world: np.ndarray):
        """The body SDF's (phi, normal, valid) at world points, at the
        body's current pose."""
        world_from_body = self.world_from_body()
        phi, n, valid = self.sdf.query_batch(world_from_body.point(p_world, inverse=True))
        return phi, world_from_body.direction(n), valid

    def point(self, vert: int) -> np.ndarray:
        return quat_rotate(self.q, self.verts[vert]) + self.com

    def velocity(self, p: np.ndarray) -> np.ndarray:
        return self.lin_vel + np.cross(self.ang_vel, p - self.com)

    def w(self, p: np.ndarray, n: np.ndarray) -> float:
        rn = np.cross(p - self.com, n)
        return self.inv_mass + float(rn @ self.inv_inertia_world() @ rn)

    def shift(self, s: float, n: np.ndarray, p: np.ndarray):
        dp = s * n
        r = p - self.com
        self.com += self.inv_mass * dp
        dw = self.inv_inertia_world() @ np.cross(r, dp)
        self.q = quat_normalize(self.q + 0.5 * quat_mul(np.array([0.0, *dw]), self.q))

    def push(self, j: np.ndarray, p: np.ndarray):
        self.lin_vel += self.inv_mass * j
        self.ang_vel += self.inv_inertia_world() @ np.cross(p - self.com, j)


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


class Particle:
    """Particle k of a ParticleSystem, as a contact participant: its one
    collision point is its position."""

    def __init__(self, ps: ParticleSystem, k: int):
        self.ps = ps
        self.k = k

    def point(self, vert: int) -> np.ndarray:
        return self.ps.pos[self.k].copy()  # a copy: corrections move pos

    def velocity(self, p: np.ndarray) -> np.ndarray:
        return self.ps.vel[self.k].copy()

    def w(self, p: np.ndarray, n: np.ndarray) -> float:
        return float(self.ps.inv_mass[self.k])

    def shift(self, s: float, n: np.ndarray, p: np.ndarray):
        self.ps.pos[self.k] += self.ps.inv_mass[self.k] * s * n

    def push(self, j: np.ndarray, p: np.ndarray):
        self.ps.vel[self.k] += self.ps.inv_mass[self.k] * j


class StaticCollider:
    """A fixed world-frame SDF: infinite mass, at rest, never moved."""

    def __init__(self, sdf: SdfGrid):
        self.sdf = sdf

    def query(self, p_world: np.ndarray):
        return self.sdf.query_batch(p_world)

    def velocity(self, p: np.ndarray) -> np.ndarray:
        return np.zeros(3)

    def w(self, p: np.ndarray, n: np.ndarray) -> float:
        return 0.0

    def shift(self, s: float, n: np.ndarray, p: np.ndarray):
        pass

    def push(self, j: np.ndarray, p: np.ndarray):
        pass


@dataclass
class Contact:
    """Collision point `vert` of `src` inside `owner`'s SDF, along `normal`.

    The methods combine both sides: `src` moves along +n, `owner` along -n.
    """

    src: object
    vert: int
    owner: object
    normal: np.ndarray
    v_pre: float = 0.0     # approach speed recorded before the position solve

    def point(self) -> np.ndarray:
        return self.src.point(self.vert)

    def velocity(self, p: np.ndarray) -> np.ndarray:
        """Source-minus-owner velocity at p."""
        return self.src.velocity(p) - self.owner.velocity(p)

    def w(self, p: np.ndarray, n: np.ndarray) -> float:
        return self.src.w(p, n) + self.owner.w(p, n)

    def shift(self, s: float, n: np.ndarray, p: np.ndarray):
        self.src.shift(s, n, p)
        self.owner.shift(-s, n, p)

    def push(self, j: np.ndarray, p: np.ndarray):
        self.src.push(j, p)
        self.owner.push(-j, p)


class World:
    """All simulation state plus the SimConfig it steps with."""

    def __init__(self, config: Optional[SimConfig] = None):
        self.config = SimConfig() if config is None else config
        self.particles = ParticleSystem(np.zeros((0, 3)), np.zeros(0))
        self.constraints: list[DistanceConstraint] = []
        self.bodies: list[RigidBody] = []
        self.static_sdfs: list[SdfGrid] = []

    def add_cloth(self, positions, inv_mass, edges, rest, compliance,
                  velocities=None) -> ParticleSystem:
        """rest and compliance hold one value per edge."""
        if len(self.particles):
            raise ValueError("one particle system per world")
        if len(compliance) != len(edges):
            raise ValueError(f"{len(compliance)} compliances for {len(edges)} edges")
        self.particles = ParticleSystem(positions, inv_mass, velocities)
        for (i, j), r, c in zip(edges, rest, compliance):
            if not r > 0:
                raise ValueError("rest length must be > 0")
            if not c >= 0:
                raise ValueError("compliance must be >= 0")
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


def detect_contacts(world: World) -> list:
    """Every particle and rigid collision vertex against every SDF but its own."""
    ps = world.particles
    # (body the points belong to, world points, contact participant of point k)
    sources = [(None, ps.pos, lambda k: (Particle(ps, k), 0))] if len(ps) else []
    sources += [(b, b.world_verts(), lambda k, b=b: (b, k)) for b in world.bodies if len(b.verts)]
    owners = [StaticCollider(s) for s in world.static_sdfs]
    owners += [b for b in world.bodies if b.sdf is not None]

    contacts = []
    for body, pts, participant in sources:
        for owner in owners:
            if owner is body:
                continue
            phi, n, valid = owner.query(pts)
            for k in np.nonzero(phi < 0.0)[0]:
                if not valid[k]:
                    log.debug("skipping contact with degenerate SDF normal at %s", pts[k])
                    continue
                contacts.append(Contact(*participant(int(k)), owner, n[k].copy()))
    return contacts


def _solve_contacts_position(contacts: list):
    """Project penetrating points to phi = 0 along the sampled normal.

    Depths and normals are sampled per iteration, then corrections apply
    in fixed contact order.
    """
    pts = [c.point() for c in contacts]
    for c, p in zip(contacts, pts):
        phi, n, valid = c.owner.query(p[None])
        if phi[0] >= 0.0 or not valid[0]:
            continue
        w = c.w(p, n[0])
        if w == 0.0:
            continue
        c.shift(-phi[0] / w, n[0], p)


def _solve_contact_velocities(world: World, contacts: list):
    """Restitution on the normal component, Coulomb friction tangentially.

    The normal target is -e * v_pre (approach speed before the position
    solve), which also cancels the artificial bounce injected by position
    projection.
    """
    e = world.config.restitution
    mu = world.config.friction
    for c in contacts:
        p = c.point()
        n = c.normal
        w_n = c.w(p, n)
        if w_n == 0.0:
            continue
        v_n = float(c.velocity(p) @ n)
        target = -e * min(c.v_pre, 0.0)
        j_n = (target - v_n) / w_n
        c.push(j_n * n, p)

        # Friction against the post-normal-impulse tangential velocity.
        v = c.velocity(p)
        v_t = v - (v @ n) * n
        speed_t = float(np.linalg.norm(v_t))
        if speed_t < 1e-12 or mu <= 0.0:
            continue
        t_hat = v_t / speed_t
        w_t = c.w(p, t_hat)
        if w_t == 0.0:
            continue
        j_t = min(speed_t / w_t, mu * abs(j_n))
        c.push(-j_t * t_hat, p)


# -- stepping ------------------------------------------------------------------


def _integrate(world: World, h: float):
    g = np.asarray(world.config.gravity, dtype=np.float64)
    damping = world.config.damping
    damp = float(np.exp(-damping * h)) if damping > 0 else 1.0
    ps = world.particles
    ps.vel[ps.inv_mass > 0] += g * h
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


def _solve_distance_constraints(world: World, h: float, lambdas: list):
    ps = world.particles
    pos = ps.pos.tolist()
    inv = ps.inv_mass.tolist()
    h2 = h * h
    for k, (i, j, rest, compliance) in enumerate(world.constraints):
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
    ps.vel[:] = (ps.pos - ps.prev) / h
    for b in world.bodies:
        if b.inv_mass == 0.0:
            continue
        b.lin_vel = (b.com - b.prev_com) / h
        dq = quat_mul(b.q, b.prev_q * (1.0, -1.0, -1.0, -1.0))
        if dq[0] < 0.0:
            dq = -dq
        b.ang_vel = 2.0 * dq[1:4] / h


def _stability_check(world: World):
    ps = world.particles
    speeds = [(float(np.max(np.linalg.norm(ps.vel, axis=1))), "particles")] if len(ps) else []
    speeds += [(float(np.linalg.norm(b.lin_vel)), b.name) for b in world.bodies]
    worst, what = max(speeds, key=lambda s: s[0], default=(0.0, "none"))
    cap = world.config.velocity_cap
    if worst > cap:
        state = {
            "max_velocity": worst,
            "source": what,
            "bodies": [{"name": b.name, "com": b.com.tolist(),
                        "lin_vel": b.lin_vel.tolist()} for b in world.bodies],
        }
        raise RuntimeError(f"simulation unstable: |v|={worst:.3g} exceeds cap "
                           f"{cap:.3g}; state: {state}")


def step(world: World, dt: float, substeps: int, iterations: int) -> World:
    """Advance the world by dt using substeps x iterations XPBD."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    h = dt / substeps
    for _ in range(substeps):
        _integrate(world, h)
        contacts = detect_contacts(world)
        for c in contacts:
            c.v_pre = float(c.velocity(c.point()) @ c.normal)
        lambdas = [0.0] * len(world.constraints)
        for _ in range(iterations):
            if world.constraints:
                _solve_distance_constraints(world, h, lambdas)
            _solve_contacts_position(contacts)
        _velocity_update(world, h)
        _solve_contact_velocities(world, contacts)
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
    world = World(scene.config.sim)
    binding = SimBinding()
    world.static_sdfs = list(scene.collider_sdfs)

    offset = 0
    inv_mass, vel, compliance = [], [], []  # per particle of every cloth mesh
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
            inv_mass.append(inv)
            # Pinned particles stay at rest: _integrate moves every particle.
            vel.append(np.where(inv[:, None] > 0, dyn.velocity, 0.0))
            compliance += [dyn.compliance] * n
            binding.cloth_meshes.append((mesh, slice(offset, offset + n)))
            offset += n
        elif dyn.type == "rigid":
            com = mesh.vertices.mean(axis=0)
            body = RigidBody(com=com, mass=dyn.mass,
                             collision_vertices=mesh.vertices - com,
                             lin_vel=dyn.velocity, name=mesh.name)
            binding.rigid_meshes.append((mesh, len(world.bodies), mesh.vertices - com))
            world.bodies.append(body)
    if binding.cloth_meshes:
        pos = np.concatenate([m.vertices for m, _ in binding.cloth_meshes])
        # Sorted over all meshes, edges keep the meshes' order.
        edges = cloth_edges(np.concatenate([m.indices + sl.start
                                            for m, sl in binding.cloth_meshes]))
        world.add_cloth(pos, np.concatenate(inv_mass), edges,
                        [float(np.linalg.norm(pos[a] - pos[b])) for a, b in edges],
                        compliance=[compliance[a] for a, _ in edges],
                        velocities=np.concatenate(vel))

    fc = scene.config.field
    if fc is not None and fc.dynamic is not None and scene.field is not None:
        dyn = fc.dynamic
        if dyn.sdf is not None:
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


# Collision vertices a field body keeps, at most.
FIELD_BODY_SURFACE_VERTS = 200


def make_field_body(grid, sdf: SdfGrid, mass: float, velocity=(0.0, 0.0, 0.0),
                    sigma_threshold: float = 0.5) -> tuple:
    """Rigid body for a radiance-field object.

    Returns (body, field_origin): the body frame sits at the occupancy
    centroid of the density field; collision vertices are near-surface SDF
    grid nodes, deterministically subsampled.
    """
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
    stride = max(1, len(surf) // FIELD_BODY_SURFACE_VERTS)
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
