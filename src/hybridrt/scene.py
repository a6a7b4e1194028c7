"""Scene and pose files: JSON documents read into config dataclasses.

The dataclasses below are the schema, with the material classes
Lambertian, Mirror and Dielectric, which live in surface.py: a mesh's
`bsdf` object is read directly into one of them. A field's annotation is
its JSON type, its default is what an omitted key means, and each
class's `__post_init__` checks its own ranges, raising
ValueError("key: msg").
One reader, `_read`, walks a document against the annotations. It
rejects unknown keys, missing required keys, values of the wrong type and
non-finite numbers, checks that referenced files exist next to the scene
file, and reports each failure as a SceneError whose message starts with
the offending key path. A field's or mesh's `dynamic` is an object or
null; null, like an omitted key, leaves it out of the simulation, and a
mesh's {"type": "collider"} makes it a static obstacle. A scene's
`emitters` may also be the path of a JSON file holding the list.
serialize_scene writes text that parses back to an equal SceneConfig.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field as dc_field, fields, is_dataclass
from typing import Literal, NewType, Optional, Union

import numpy as np

from .core import Transform, Vec3, cross3, unit
from .field import RadianceGrid, load_rfgrid
from .render import Camera, EmitterSet
from .surface import Bsdf, Bvh, Lambertian, load_obj


class SceneError(ValueError):
    """Validation failure; the message starts with the offending key path."""


# A path relative to the scene file's directory, naming a file that exists.
File = NewType("File", str)


def _check(*rules):
    """Raise ValueError("key: msg") for the first (key, ok, msg) that fails."""
    for key, ok, msg in rules:
        if not ok:
            raise ValueError(f"{key}: {msg}")


def _direction(v) -> Optional[np.ndarray]:
    """unit(v), or None where unit rejects v (non-finite, overflowing or
    near-zero)."""
    try:
        return unit(v)
    except ValueError:
        return None


# -- config dataclasses (plain data, value-comparable) ----------------------


@dataclass
class TransformConfig:
    """A rotation by rotate_deg about rotate_axis, then a translation."""

    translate: Vec3 = (0.0, 0.0, 0.0)
    rotate_axis: Vec3 = (0.0, 0.0, 1.0)
    rotate_deg: float = 0.0

    def __post_init__(self):
        _check(("rotate_axis", self.rotate_deg == 0.0 or _direction(self.rotate_axis) is not None,
                "must be nonzero"))

    def quaternion(self) -> np.ndarray:
        """The rotation as a unit quaternion (w, x, y, z); (1, 0, 0, 0), an
        exact identity, when rotate_deg is 0."""
        if self.rotate_deg == 0.0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        half = 0.5 * math.radians(self.rotate_deg)
        return np.array([math.cos(half), *(math.sin(half) * unit(self.rotate_axis))])

    def build(self) -> Transform:
        """Transform.from_quaternion of quaternion() and translate: a rigid
        body placed there has these bits as its world_from_body()."""
        return Transform.from_quaternion(self.quaternion(), self.translate)


@dataclass
class RigidConfig:
    """A mesh that moves as one rigid body."""

    type: Literal["rigid"] = "rigid"
    mass: float = 1.0
    velocity: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        # 1 / mass is the inverse mass the solver applies; a subnormal
        # mass makes it inf. An infinite mass (inverse 0) is kinematic.
        _check(("mass", self.mass > 0 and math.isfinite(1 / self.mass),
                "must be > 0 with a finite inverse"))


@dataclass
class ClothConfig:
    """A mesh whose vertices are particles held together by its edges."""

    type: Literal["cloth"] = "cloth"
    mass: float = 1.0
    velocity: Vec3 = (0.0, 0.0, 0.0)
    pinned: list[int] = dc_field(default_factory=list)
    compliance: float = 0.0

    def __post_init__(self):
        _check(("mass", self.mass > 0, "must be > 0"),
               ("compliance", self.compliance >= 0, "must be >= 0"))


@dataclass
class ColliderConfig:
    """A static obstacle: an infinite-mass body that collides through the
    SDF baked from the mesh's own placed triangles. It is the solid its
    surface encloses, whichever way the surface is wound, so the mesh
    must be closed and consistently oriented."""

    type: Literal["collider"] = "collider"


@dataclass
class FieldDynamicConfig(RigidConfig):
    """The field as one rigid body. It collides through the SDF of its
    density cut at sigma_threshold of the peak."""

    sigma_threshold: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        _check(("sigma_threshold", 0 < self.sigma_threshold <= 1, "must be in (0, 1]"))


@dataclass
class FieldConfig:
    path: File
    transform: Optional[TransformConfig] = None
    dynamic: Optional[FieldDynamicConfig] = None


@dataclass
class MeshConfig:
    path: File
    bsdf: Bsdf = dc_field(default_factory=Lambertian)
    transform: Optional[TransformConfig] = None
    emission: Optional[Vec3] = None
    dynamic: Union[RigidConfig, ClothConfig, ColliderConfig, None] = None  # by `type`

    def __post_init__(self):
        _check(("emission", self.emission is None or min(self.emission) >= 0, "must be >= 0"))


@dataclass
class EmitterConfig:
    triangle: tuple[Vec3, Vec3, Vec3]
    r_src: float

    def __post_init__(self):
        _check(("r_src", 0.0 <= self.r_src <= 1.0, "must lie in [0, 1]"))


@dataclass
class PoseConfig:
    """Where a camera stands and looks."""

    position: Vec3
    look_at: Vec3
    up: Vec3 = (0.0, 1.0, 0.0)

    def __post_init__(self):
        # The tests Transform.look_at makes, without building the view.
        with np.errstate(over="ignore"):  # an infinite offset is rejected
            fwd = _direction(np.subtract(self.look_at, self.position))
        _check(("look_at", fwd is not None, "must differ from position"))
        up = _direction(self.up)
        _check(("up", up is not None and _direction(cross3(fwd, up)) is not None,
                "must be nonzero and not along the view"))


def _check_lens(fov_deg, resolution):
    # In radians, as Camera checks it: a tiny fov_deg rounds to 0.
    _check(("fov_deg", 0.0 < math.radians(fov_deg) < math.pi, "must lie in (0, 180)"),
           ("resolution", min(resolution) >= 1, "must be positive"))


@dataclass(kw_only=True)
class CameraConfig(PoseConfig):
    resolution: tuple[int, int]
    fov_deg: float = 45.0

    def __post_init__(self):
        super().__post_init__()
        _check_lens(self.fov_deg, self.resolution)

    def build(self) -> Camera:
        return Camera(pose=Transform.look_at(self.position, self.look_at, self.up),
                      fov=math.radians(self.fov_deg), resolution=self.resolution)


@dataclass
class PosesConfig:
    """A pose file: the lens every view shares, and one pose per view."""

    fov_deg: float
    resolution: tuple[int, int]
    poses: list[PoseConfig]

    def __post_init__(self):
        _check_lens(self.fov_deg, self.resolution)


@dataclass
class RenderConfig:
    spp: int = 16
    n_bounces: int = 8
    threshold: float = 1e-3
    march_step: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _check(("spp", self.spp >= 1, "must be >= 1"),
               ("n_bounces", self.n_bounces >= 1, "must be >= 1"),
               ("march_step", self.march_step > 0, "must be > 0"),
               ("threshold", self.threshold >= 0, "must be >= 0"),
               ("seed", -2**63 <= self.seed < 2**64, "must be in [-2^63, 2^64)"))


@dataclass
class SimConfig:
    gravity: Vec3 = (0.0, 0.0, -9.81)
    dt: float = 1.0 / 60.0
    substeps: int = 4
    iterations: int = 8
    restitution: float = 0.3
    friction: float = 0.5
    damping: float = 0.0
    velocity_cap: float = 1e3

    def __post_init__(self):
        _check(("dt", self.dt > 0, "must be > 0"),
               ("substeps", self.substeps >= 1, "must be >= 1"),
               ("iterations", self.iterations >= 1, "must be >= 1"),
               ("restitution", 0.0 <= self.restitution <= 1.0, "must lie in [0, 1]"),
               ("friction", self.friction >= 0, "must be >= 0"),
               ("damping", self.damping >= 0, "must be >= 0"),
               ("velocity_cap", self.velocity_cap > 0, "must be > 0"))


@dataclass
class SceneConfig:
    camera: CameraConfig
    field: Optional[FieldConfig] = None
    meshes: list[MeshConfig] = dc_field(default_factory=list)
    emitters: list[EmitterConfig] = dc_field(default_factory=list)
    render: RenderConfig = dc_field(default_factory=RenderConfig)
    sim: SimConfig = dc_field(default_factory=SimConfig)


# -- reading ----------------------------------------------------------------

@functools.cache
def _schema(cls):
    """A config dataclass's field annotations and its required keys."""
    return typing.get_type_hints(cls), [f.name for f in fields(cls) if f.default is MISSING
                                        and f.default_factory is MISSING]


_form = functools.cache(lambda tp: (typing.get_origin(tp), typing.get_args(tp)))


def _fail(path: str, msg: str):
    raise SceneError(f"{path}: {msg}" if path else msg)


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _read(tp, v, path: str, base_dir: str = "."):
    """The parsed JSON value `v`, found at key `path`, read as annotation `tp`."""
    if tp is float or tp is int or tp is str:
        if isinstance(v, bool) or not isinstance(v, (int, float) if tp is float else tp):
            _fail(path, f"expected {tp.__name__}, got {type(v).__name__}")
        if tp is float:
            if not abs(v) <= sys.float_info.max:  # also NaN, and ints too large for a float
                _fail(path, "must be finite")
            v = float(v)
        return v
    if is_dataclass(tp):
        hints, required = _schema(tp)
        if not isinstance(v, dict):
            _fail(path, "expected an object")
        for k in v:
            if k not in hints:  # quoted if it would break the message's line
                _fail(_key(path, k if k.isprintable() else json.dumps(k)), "unknown key")
        for k in required:
            if k not in v:
                _fail(_key(path, k), "missing required key")
        kwargs = {k: _read(hints[k], x, _key(path, k), base_dir) for k, x in v.items()}
        try:
            return tp(**kwargs)
        except ValueError as e:
            raise SceneError(_key(path, str(e))) from None
    origin, args = _form(tp)
    if origin is Union:
        if v is None and type(None) in args:
            return None
        kinds = [a for a in args if a is not type(None)]
        if len(kinds) > 1 and isinstance(v, dict):  # configs told apart by `type`
            # An omitted `type` means the first config's.
            kinds = [a for a in kinds if a.type == v.get("type", kinds[0].type)]
            if not kinds:
                _fail(_key(path, "type"), f"unknown type {v.get('type')!r}")
        return _read(kinds[0], v, path, base_dir)
    if origin is Literal:
        if v not in args:
            _fail(path, f"expected one of {', '.join(map(repr, args))}")
        return v
    if origin is list:
        if not isinstance(v, list):
            _fail(path, "expected a list")
        return [_read(args[0], x, f"{path}[{i}]", base_dir) for i, x in enumerate(v)]
    if origin is tuple:
        if not isinstance(v, list) or len(v) != len(args):
            _fail(path, f"expected a list of {len(args)}")
        return tuple([_read(a, x, f"{path}[{i}]", base_dir)
                      for i, (a, x) in enumerate(zip(args, v))])
    if tp is File:
        v = _read(str, v, path)
        if not os.path.isfile(os.path.join(base_dir, v)):
            _fail(path, f"referenced file not found: {v}")
        return v
    raise TypeError(f"no JSON reading for {tp!r}")


def _parse_json(text, what: str):
    try:
        return json.loads(text)
    except ValueError as e:  # bad JSON, or bytes that are not UTF-8
        raise SceneError(f"{what}: not valid JSON: {e}") from None


def _read_file(path, what: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise SceneError(f"{what}: cannot read {path}: {e}") from e


def parse_scene(text, base_dir: str = ".") -> SceneConfig:
    """Validate a scene JSON document into a SceneConfig."""
    doc = _parse_json(text, "scene")
    if isinstance(doc, dict) and isinstance(doc.get("emitters"), str):
        path = os.path.join(base_dir, _read(File, doc["emitters"], "emitters", base_dir))
        doc["emitters"] = _parse_json(_read_file(path, "emitters"), "emitters")
    return _read(SceneConfig, doc, "", base_dir)


def load_scene_config(path) -> SceneConfig:
    return parse_scene(_read_file(path, "scene"),
                       base_dir=os.path.dirname(os.path.abspath(path)))


def load_poses(path) -> list[Camera]:
    """The cameras of a pose file, one per pose, all with the file's lens."""
    cfg = _read(PosesConfig, _parse_json(_read_file(path, "pose file"), "pose file"), "")
    cams = []
    for i, p in enumerate(cfg.poses):
        try:
            cams.append(CameraConfig(position=p.position, look_at=p.look_at, up=p.up,
                                     resolution=cfg.resolution, fov_deg=cfg.fov_deg).build())
        except ValueError as e:  # Transform and Camera checks the config does not repeat
            raise SceneError(f"poses[{i}]: {e}") from None
    return cams


def serialize_scene(cfg: SceneConfig) -> str:
    """JSON text that parses back to an equal SceneConfig."""

    def prune(x):
        if isinstance(x, dict):
            return {k: prune(v) for k, v in x.items() if v is not None}
        if isinstance(x, list):
            return [prune(v) for v in x]
        return x

    return json.dumps(prune(asdict(cfg)), indent=2)


# -- runtime scene -----------------------------------------------------------


@dataclass
class Scene:
    """Loaded, render-ready scene; immutable during a render pass."""

    config: SceneConfig
    camera: Camera
    render: RenderConfig
    field: Optional[RadianceGrid]
    meshes: list
    bvh: Bvh
    emitters: Optional[EmitterSet]
    spawn_eps: float

    def rebuild_bvh(self):
        """Bring the BVH to the meshes' current vertices and emission,
        which also set the faces that block shadow rays (`Bvh.blocks`). It
        is refit (`Bvh.refit`) while it holds the same mesh objects, in
        the same order and with as many faces, else built anew: any tree
        over the same faces gives the same hits."""
        for m in self.meshes:
            m.recompute_normals()
        old = self.bvh.meshes
        if (len(old) == len(self.meshes) and all(a is b for a, b in zip(old, self.meshes))
                and self.bvh.n_faces == sum(len(m.indices) for m in self.meshes)):
            self.bvh.refit()
        else:
            self.bvh = Bvh(self.meshes)


def scene_diagonal(field: Optional[RadianceGrid], meshes) -> float:
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)
    if field is not None:
        corners = np.array([[x, y, z]
                            for x in (field.bbox_lo[0], field.bbox_hi[0])
                            for y in (field.bbox_lo[1], field.bbox_hi[1])
                            for z in (field.bbox_lo[2], field.bbox_hi[2])])
        wc = field.world_from_field.point(corners)
        lo = np.minimum(lo, wc.min(axis=0))
        hi = np.maximum(hi, wc.max(axis=0))
    for m in meshes:
        if len(m.vertices):
            lo = np.minimum(lo, m.vertices.min(axis=0))
            hi = np.maximum(hi, m.vertices.max(axis=0))
    if np.any(hi < lo):
        return 1.0
    with np.errstate(over="ignore"):
        diag = float(np.linalg.norm(hi - lo))
    if not math.isfinite(diag):
        raise ValueError(f"scene diagonal overflows: the field and meshes span {lo.tolist()} "
                         f"to {hi.tolist()}")
    return max(diag, 1e-6)


def build_scene(cfg: SceneConfig, base_dir: str = ".") -> Scene:
    """Load assets and assemble the render-ready structures."""

    def full(p):
        return os.path.join(base_dir, p)

    field = None
    if cfg.field is not None:
        field = load_rfgrid(full(cfg.field.path))
        if cfg.field.transform is not None:
            field.world_from_field = cfg.field.transform.build()

    meshes = []
    for mc in cfg.meshes:
        mesh = load_obj(
            full(mc.path),
            bsdf=mc.bsdf,
            emission=np.array(mc.emission) if mc.emission is not None else None,
            world_from_object=mc.transform.build() if mc.transform else None,
            name=os.path.splitext(os.path.basename(mc.path))[0],
        )
        meshes.append(mesh)

    emitters = None
    if cfg.emitters:
        emitters = EmitterSet(
            [e.triangle for e in cfg.emitters],
            [e.r_src for e in cfg.emitters],
        )

    diag = scene_diagonal(field, meshes)
    return Scene(
        config=cfg,
        camera=cfg.camera.build(),
        render=cfg.render,
        field=field,
        meshes=meshes,
        bvh=Bvh(meshes),
        emitters=emitters,
        spawn_eps=1e-4 * diag,
    )


def load_scene(path) -> Scene:
    cfg = load_scene_config(path)
    return build_scene(cfg, base_dir=os.path.dirname(os.path.abspath(path)))
