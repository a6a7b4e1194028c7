"""Extended position-based dynamics: cloth particles, rigid bodies, and
SDF contacts, with rigid radiance-field objects coupled through their
transform. A static obstacle is a kinematic rigid body: infinite mass, no
collision vertices, and an SDF baked from its mesh. An SDF has no
placement of its own: it lives in its owner's body frame, so every lookup
crosses one transform, the owner's world_from_body().

Each substep integrates predictions, then runs Gauss-Seidel iterations of
XPBD constraint projection (distance constraints sequentially in fixed
order, then contacts in fixed order: each contact's point is taken at the
start of the iteration, but its owner's SDF is queried at the owner's
current pose, after the corrections of the contacts before it),
reconstructs velocities from positions, and finishes with a
restitution/friction velocity pass that also removes the artificial
bounce a pure position projection would inject. Everything runs
single-threaded in deterministic order, so trajectories are bit-stable.

Contact detection first culls by bounding volumes: an owner's SDF is
skipped for a source when the source's bounding sphere misses the SDF's
`negative_box`, outside of which phi >= 0. A rigid source's sphere is its
com and the largest distance of a collision vertex from it; a particle
system's is the one around the box of the current positions. The sphere is taken into
the owner's body frame through the transform a query takes, and it
must miss the box by more than a slack of 1e-9 times the sum of the
magnitudes met on the way (1, the radius, the center in both frames and
the transform's translation). Rounding in that transform, in the
vertices' world positions and in the grid coordinates is a few ulps of
those magnitudes, far inside the slack, so a culled pair has no point
with phi < 0: detection finds the contacts, order and normal bits that it
finds without the cull. A source's points are computed only when some
owner is left, and each left owner tests them with a phi-only lookup
first; the full query, normals included, runs only on the points inside
(phi < 0).

An iteration whose position solve shifts nothing leaves the state as it
found it. With no distance constraints, every later iteration of the
substep would then shift nothing too, so they are skipped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

import numpy as np

from .core import Transform, cross3, quat_to_matrix
from .field import SdfGrid, bake_sdf_from_mesh, grid_points, mesh_edges, sdf_from_density
from .scene import SimConfig, TransformConfig

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
# without inertia; a static obstacle is a rigid body of infinite mass, so
# its w is 0 and it never moves.


class RigidBody:
    """Rigid state about the center of mass; body frame origin is the com.

    A body starts at orientation q, a unit quaternion (w, x, y, z), and
    without spin, moving at lin_vel; its inertia is that of its
    collision_vertices as equal point masses. The collision_vertices are
    body-frame points queried against other SDFs; `sdf` (in the body
    frame, optional) lets other objects collide with this body. The pose
    (q, com) is the only placement between the world and either. An
    infinite mass (inv_mass 0) makes the body kinematic.

    `verts` is read-only; assigning new vertices also sets `radius`, their
    largest distance from the com, the body's bounding sphere for contact
    culling. What the pose determines is cached: world_from_body() is
    rebuilt only when the bytes of (q, com) change, inv_inertia_world()
    when those of q do, so either is bitwise a fresh build. Keys of bytes,
    not of identity, see the in-place `self.com += ...` of `shift` and any
    other edit of q or com.
    """

    def __init__(self, com, mass, collision_vertices, lin_vel=(0.0, 0.0, 0.0),
                 sdf: Optional[SdfGrid] = None, name: str = "body", q=(1.0, 0.0, 0.0, 0.0)):
        self.name = name
        self.com = np.asarray(com, dtype=np.float64).reshape(3).copy()
        self.q = np.array(q, dtype=np.float64).reshape(4)
        self.lin_vel = np.asarray(lin_vel, dtype=np.float64).reshape(3).copy()
        self.ang_vel = np.zeros(3)
        if not mass > 0:
            raise ValueError("mass must be > 0 (use np.inf for kinematic)")
        self.mass = float(mass)
        self.inv_mass = 0.0 if np.isinf(mass) else 1.0 / float(mass)
        self.verts = collision_vertices
        self.inertia = point_mass_inertia(self.verts, self.mass)
        self.inv_inertia = _safe_inv(self.inertia) if self.inv_mass > 0 else np.zeros((3, 3))
        self.sdf = sdf
        self.prev_com = self.com.copy()
        self.prev_q = self.q.copy()
        self._pose = self._inv_inertia_w = (None, None)

    @property
    def verts(self) -> np.ndarray:
        return self._verts

    @verts.setter
    def verts(self, v):
        v = np.asarray(v, dtype=np.float64).reshape(-1, 3).copy()
        v.flags.writeable = False
        self._verts = v
        self.radius = float(np.linalg.norm(v, axis=1).max()) if len(v) else 0.0

    def world_from_body(self) -> Transform:
        key = self.q.tobytes() + self.com.tobytes()
        if key != self._pose[0]:
            t = Transform.from_quaternion(self.q, origin=self.com)
            t.m.flags.writeable = t.m_inv.flags.writeable = False
            self._pose = key, t
        return self._pose[1]

    def world_verts(self) -> np.ndarray:
        return self.world_from_body().point(self.verts)

    def inv_inertia_world(self) -> np.ndarray:
        key = self.q.tobytes()
        if key != self._inv_inertia_w[0]:
            r = quat_to_matrix(self.q)
            m = r @ self.inv_inertia @ r.T
            m.flags.writeable = False
            self._inv_inertia_w = key, m
        return self._inv_inertia_w[1]

    def reaches(self, center, radius: float) -> bool:
        """False only if the body SDF's phi is >= 0 in all of the world
        ball (center, radius), which is taken into the body frame by
        world_from_body(). The module docstring gives the slack."""
        box = self.sdf.negative_box
        if box is None:
            return False
        c = np.asarray(center, dtype=np.float64)
        # One matrix-vector product: the slack covers its rounding, which
        # may differ from Transform.point's by an ulp.
        m_inv = self.world_from_body().m_inv
        c_body = m_inv[:3, :3] @ c + m_inv[:3, 3]
        gap = np.maximum(np.maximum(box[0] - c_body, c_body - box[1]), 0.0)
        met = float(np.abs(np.concatenate([c, m_inv[:3, 3], c_body])).sum())
        slack = 1e-9 * (1.0 + radius + met)
        # A NaN center does not cull: the lookups then see what they saw
        # before the cull.
        return not math.sqrt(float(gap @ gap)) > radius + slack

    def phi(self, p_world: np.ndarray) -> np.ndarray:
        """The body SDF's phi at world points, bitwise query's phi."""
        return self.sdf.phi_batch(self.world_from_body().point(p_world, inverse=True))

    def query(self, p_world: np.ndarray):
        """The body SDF's (phi, normal, valid) at world points, at the
        body's current pose."""
        world_from_body = self.world_from_body()
        phi, n, valid = self.sdf.query_batch(world_from_body.point(p_world, inverse=True))
        return phi, world_from_body.direction(n), valid

    def point(self, vert: int) -> np.ndarray:
        return self.world_from_body().point(self.verts[vert])

    def velocity(self, p: np.ndarray) -> np.ndarray:
        return self.lin_vel + cross3(self.ang_vel, p - self.com)

    def w(self, p: np.ndarray, n: np.ndarray) -> float:
        rn = cross3(p - self.com, n)
        return self.inv_mass + float(rn @ self.inv_inertia_world() @ rn)

    def shift(self, s: float, n: np.ndarray, p: np.ndarray):
        dp = s * n
        r = p - self.com
        self.com += self.inv_mass * dp
        dw = self.inv_inertia_world() @ cross3(r, dp)
        self.q = quat_normalize(self.q + 0.5 * quat_mul(np.array([0.0, *dw]), self.q))

    def push(self, j: np.ndarray, p: np.ndarray):
        self.lin_vel += self.inv_mass * j
        self.ang_vel += self.inv_inertia_world() @ cross3(p - self.com, j)


def point_mass_inertia(verts_body: np.ndarray, mass: float) -> np.ndarray:
    if np.isinf(mass) or len(verts_body) == 0:
        return np.eye(3)
    m = mass / len(verts_body)
    # r @ r per vertex: a batched dot rounds some of them differently.
    rr = np.array([float(r @ r) for r in verts_body])
    terms = m * (rr[:, None, None] * np.eye(3) - verts_body[:, :, None] * verts_body[:, None, :])
    # Summed over vertices in their order, one 3x3 term after another.
    return np.add.reduce(terms, axis=0)


def _safe_inv(m: np.ndarray) -> np.ndarray:
    """Inverse, or zeros for singular inertia (point masses on a line
    cannot spin about it). Singular is relative to the tensor's scale:
    det(m / trace(m)), at most 1/27 for an inertia tensor, is below
    1e-12, so a light body spins as a heavy one does."""
    with np.errstate(invalid="ignore"):  # an all-zero tensor: 0 / 0
        if not np.linalg.det(m / np.trace(m)) >= 1e-12:
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


# -- contacts ------------------------------------------------------------------


def detect_contacts(world: World) -> list:
    """Every particle and rigid collision vertex against every SDF but its
    own, culled by bounding volumes as the module docstring describes."""
    ps = world.particles
    # (body the points belong to, its bounding sphere's center and radius,
    # its world points, contact participant of point k); the points are
    # computed only for a source with an owner left.
    sources = []
    if len(ps):
        lo, hi = ps.pos.min(axis=0), ps.pos.max(axis=0)
        sources.append((None, 0.5 * (lo + hi), float(np.linalg.norm(0.5 * (hi - lo))),
                        lambda: ps.pos, lambda k: (Particle(ps, k), 0)))
    sources += [(b, b.com, b.radius, b.world_verts, lambda k, b=b: (b, k))
                for b in world.bodies if len(b.verts)]
    owners = [b for b in world.bodies if b.sdf is not None]

    contacts = []
    for body, center, radius, points, participant in sources:
        targets = [o for o in owners if o is not body and o.reaches(center, radius)]
        if not targets:
            continue
        pts = points()
        for owner in targets:
            inside = np.nonzero(owner.phi(pts) < 0.0)[0]
            if not len(inside):
                continue
            _, n, valid = owner.query(pts[inside])
            for k, nk, ok in zip(inside.tolist(), n, valid):
                if not ok:
                    log.debug("skipping contact with degenerate SDF normal at %s", pts[k])
                    continue
                contacts.append(Contact(*participant(k), owner, nk.copy()))
    return contacts


def _solve_contacts_position(contacts: list) -> bool:
    """Project penetrating points to phi = 0 along the sampled normal;
    returns whether any contact was shifted.

    Every contact's point is taken once, at the start of the iteration.
    Its depth and normal come from its owner's SDF at the owner's current
    pose, so they see the corrections of the contacts before it, which
    apply in fixed contact order.
    """
    pts = [c.point() for c in contacts]
    shifted = False
    for c, p in zip(contacts, pts):
        phi, n, valid = c.owner.query(p[None])
        if phi[0] >= 0.0 or not valid[0]:
            continue
        w = c.w(p, n[0])
        if w == 0.0:
            continue
        c.shift(-phi[0] / w, n[0], p)
        shifted = True
    return shifted


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
    damp = float(np.exp(-world.config.damping * h))
    ps = world.particles
    ps.vel[ps.inv_mass > 0] += g * h
    ps.vel *= damp
    ps.prev[:] = ps.pos
    ps.pos += ps.vel * h
    for b in world.bodies:
        b.prev_com[:] = b.com
        b.prev_q[:] = b.q
        if b.inv_mass == 0.0:
            continue
        b.lin_vel += g * h
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
    """Raise when a speed exceeds velocity_cap or is NaN, or a spin is not
    finite: the cap is in m/s and does not bound a spin, in rad/s."""
    ps, bodies = world.particles, world.bodies
    cap = world.config.velocity_cap
    with np.errstate(over="ignore"):  # an overflowing speed is inf, over the cap
        speeds = np.linalg.norm(np.vstack([ps.vel, *(b.lin_vel for b in bodies)]), axis=1)
    # NaN compares false both ways, so it fails the cap.
    if np.all(speeds <= cap) and np.isfinite([b.ang_vel for b in bodies]).all():
        return
    worst = int(np.argmax(np.nan_to_num(speeds, nan=np.inf)))
    state = {"max_velocity": float(speeds[worst]),
             "source": (["particles"] * len(ps) + [b.name for b in bodies])[worst],
             "bodies": [{"name": b.name, "com": b.com.tolist(), "lin_vel": b.lin_vel.tolist(),
                         "ang_vel": b.ang_vel.tolist()} for b in bodies]}
    what = f"|v|={speeds[worst]:.3g} exceeds cap {cap:.3g}"
    if speeds[worst] <= cap:
        b = next(b for b in bodies if not np.isfinite(b.ang_vel).all())
        what = f"body '{b.name}' has angular velocity {b.ang_vel.tolist()}"
    raise RuntimeError(f"simulation unstable: {what}; state: {state}")


def step(world: World, dt: float, substeps: int, iterations: int) -> World:
    """Advance the world by dt using substeps x iterations XPBD."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    h = dt / substeps
    # A state handed in with a NaN or too-fast velocity would reach contact
    # detection first, which cannot look up a NaN point.
    _stability_check(world)
    for _ in range(substeps):
        _integrate(world, h)
        contacts = detect_contacts(world)
        for c in contacts:
            c.v_pre = float(c.velocity(c.point()) @ c.normal)
        lambdas = [0.0] * len(world.constraints)
        for _ in range(iterations):
            if world.constraints:
                _solve_distance_constraints(world, h, lambdas)
            # An iteration that shifts nothing changes nothing, so without
            # distance constraints the ones after it would shift nothing.
            if not _solve_contacts_position(contacts) and not world.constraints:
                break
        _velocity_update(world, h)
        _solve_contact_velocities(world, contacts)
        _stability_check(world)
    return world


# -- scene coupling ------------------------------------------------------------


@dataclass
class SimBinding:
    """Mapping from world objects back to renderer assets."""

    cloth_meshes: list = dc_field(default_factory=list)   # (mesh, particle slice)
    rigid_meshes: list = dc_field(default_factory=list)   # (mesh, body idx)
    field_body: int = -1
    body_from_field: Optional[Transform] = None  # fixed at registration


def build_world(scene) -> tuple:
    """World + binding from a loaded Scene's dynamic declarations."""
    world = World(scene.config.sim)
    binding = SimBinding()

    offset = 0
    inv_mass, vel, compliance = [], [], []  # per particle of every cloth mesh
    for mesh, mc in zip(scene.meshes, scene.config.meshes):
        dyn = mc.dynamic
        if dyn is None:
            continue
        if dyn.type == "cloth":
            n = len(mesh.vertices)
            if not np.isfinite(n / dyn.mass):
                raise ValueError(f"mesh '{mesh.name}': mass {dyn.mass} gives an infinite "
                                 f"inverse mass over {n} particles")
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
            binding.rigid_meshes.append((mesh, len(world.bodies)))
            world.bodies.append(body)
        elif dyn.type == "collider":
            world.bodies.append(make_collider_body(mesh, mc.transform or TransformConfig()))
    if binding.cloth_meshes:
        pos = np.concatenate([m.vertices for m, _ in binding.cloth_meshes])
        # Sorted over all meshes, edges keep the meshes' order.
        edges = mesh_edges(np.concatenate([m.indices + sl.start
                                           for m, sl in binding.cloth_meshes]))[0]
        world.add_cloth(pos, np.concatenate(inv_mass), edges,
                        [float(np.linalg.norm(pos[a] - pos[b])) for a, b in edges],
                        compliance=[compliance[a] for a, _ in edges],
                        velocities=np.concatenate(vel))

    fc = scene.config.field
    if fc is not None and fc.dynamic is not None:
        dyn = fc.dynamic
        body, binding.body_from_field = make_field_body(
            scene.field, dyn.mass, dyn.velocity, dyn.sigma_threshold,
            (fc.transform or TransformConfig()).quaternion())
        binding.field_body = len(world.bodies)
        world.bodies.append(body)
    return world, binding


# Cells across a collider mesh's box on every axis; its SDF grid has two
# more beyond each side.
COLLIDER_CELLS = 16


def make_collider_body(mesh, transform: TransformConfig) -> RigidBody:
    """Static obstacle for a mesh placed by transform: an infinite-mass
    body without collision vertices, at the transform's translation and
    oriented by its quaternion. Its SDF is baked in the mesh's own frame,
    from its vertices taken back through that pose, on their box grown by
    two cells a side. The cells are as anisotropic as the box, so a thin
    slab has as many across as along it however it is turned. The body
    is the solid the surface encloses, whichever way it is wound, so the
    mesh must be closed, consistently oriented and around a volume."""
    body = RigidBody(com=transform.translate, q=transform.quaternion(), mass=np.inf,
                     collision_vertices=np.zeros((0, 3)), name=mesh.name)
    verts = body.world_from_body().point(mesh.vertices, inverse=True)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    msg = (f"mesh '{mesh.name}': a collider must be closed, consistently oriented and "
           "enclose a volume")
    if not np.all(hi > lo):
        raise ValueError(msg)
    h = (hi - lo) / COLLIDER_CELLS
    try:
        body.sdf = bake_sdf_from_mesh(verts, mesh.indices, lo - 2 * h, hi + 2 * h,
                                      (COLLIDER_CELLS + 5,) * 3)
    except ValueError:  # the mesh's own checks and the box leave only its closedness
        raise ValueError(msg) from None
    return body


# A field body keeps every (n // FIELD_BODY_MIN_VERTS)-th of its n occupied
# nodes, all of them when n < 400: at least min(n, 200) collision vertices
# and at most 399.
FIELD_BODY_MIN_VERTS = 200


def make_field_body(grid, mass: float, velocity=(0.0, 0.0, 0.0),
                    sigma_threshold: float = 0.5, q=(1.0, 0.0, 0.0, 0.0)) -> tuple:
    """Rigid body for a radiance-field object, placed where the grid's
    world_from_field puts it; q is the quaternion of that transform's
    rotation.

    Returns (body, body_from_field). The body SDF is sdf_from_density of
    the grid at sigma_threshold, whose occupied nodes are exactly those
    with phi < 0. The body frame is the field frame shifted to their
    centroid, so the body starts at q with its com at the centroid's
    world position, and body_from_field is a pure translation. The
    collision vertices are every (n // FIELD_BODY_MIN_VERTS)-th of the n
    occupied nodes, in x-fastest order.
    """
    sdf = sdf_from_density(grid, sigma_threshold)
    occupied = grid_points(grid.bbox_lo, grid.bbox_hi, grid.res)[sdf.phi.ravel(order="F") < 0.0]
    origin = occupied.mean(axis=0)
    verts = occupied[::max(1, len(occupied) // FIELD_BODY_MIN_VERTS)]

    body_sdf = SdfGrid(sdf.bbox_lo - origin, sdf.bbox_hi - origin, sdf.phi)
    body = RigidBody(com=grid.world_from_field.point(origin), mass=mass,
                     collision_vertices=verts - origin, lin_vel=velocity, sdf=body_sdf,
                     name="field", q=q)
    return body, Transform.translate(-origin)


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
    for mesh, bi in binding.rigid_meshes:
        new = world.bodies[bi].world_verts()
        if not np.array_equal(new, mesh.vertices):
            mesh.vertices = new
            dirty = True
    if binding.field_body >= 0:
        b = world.bodies[binding.field_body]
        new_t = b.world_from_body().compose(binding.body_from_field)
        if not np.array_equal(new_t.m, scene.field.world_from_field.m):
            scene.field.world_from_field = new_t
    if dirty:
        scene.rebuild_bvh()
    return scene


def run(world: World, scene, binding: SimBinding, frames: int):
    """Advance `frames` frames, each one `step` with world.config's dt,
    substeps and iterations and then one `sync_to_renderer`; yields the
    frame number, 1..frames, once the scene holds that frame."""
    cfg = world.config
    for k in range(1, frames + 1):
        step(world, cfg.dt, cfg.substeps, cfg.iterations)
        sync_to_renderer(world, scene, binding)
        yield k
