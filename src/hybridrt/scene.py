"""Scene description: a single JSON document, strictly validated.

Top-level keys: `field`, `meshes`, `emitters`, `camera`, `render`, `sim`,
`colliders`. Unknown keys anywhere are rejected with a path-qualified
error, file references are checked against the scene file's directory,
and omitted render settings fall back to documented defaults (spp 16,
8 bounces, throughput threshold 1e-3). parse/serialize round-trip to the
same SceneConfig.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field, asdict
from typing import Optional

import numpy as np

from .core import Transform
from .field import RadianceGrid, SdfGrid, load_rfgrid, load_sdfgrid
from .render import Camera, EmitterSet
from .surface import Bvh, Dielectric, Lambertian, Mirror, TriangleMesh, load_obj


class SceneError(ValueError):
    """Validation failure; the message starts with the offending key path."""


def _fail(path: str, msg: str):
    raise SceneError(f"{path}: {msg}")


def _need(obj: dict, path: str, allowed: dict):
    """Reject unknown keys and type-check the known ones."""
    for k in obj:
        if k not in allowed:
            _fail(f"{path}.{k}" if path else k, "unknown key")
    out = {}
    for k, (typ, required, default) in allowed.items():
        here = f"{path}.{k}" if path else k
        if k not in obj:
            if required:
                _fail(here, "missing required key")
            out[k] = default
            continue
        v = obj[k]
        if typ is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if typ is not None and not isinstance(v, typ):
            _fail(here, f"expected {getattr(typ, '__name__', typ)}, got {type(v).__name__}")
        out[k] = v
    return out


def _vec(v, path, n=3):
    if (not isinstance(v, list) or len(v) != n
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
        _fail(path, f"expected a list of {n} numbers")
    if not all(math.isfinite(float(x)) for x in v):
        _fail(path, "components must be finite")
    return [float(x) for x in v]


def _check_file(rel_path, key_path, base_dir):
    p = os.path.join(base_dir, rel_path) if base_dir else rel_path
    if not os.path.isfile(p):
        _fail(key_path, f"referenced file not found: {rel_path}")
    return p


# -- config dataclasses (plain data, value-comparable) ----------------------


@dataclass
class TransformConfig:
    translate: list = dc_field(default_factory=lambda: [0.0, 0.0, 0.0])
    rotate_axis: list = dc_field(default_factory=lambda: [0.0, 0.0, 1.0])
    rotate_deg: float = 0.0

    def build(self) -> Transform:
        t = Transform.translate(self.translate)
        if self.rotate_deg != 0.0:
            t = t.compose(Transform.rotate(self.rotate_axis, math.radians(self.rotate_deg)))
        return t


@dataclass
class DynamicConfig:
    type: str = "rigid"  # "rigid" or "cloth"
    mass: float = 1.0
    velocity: list = dc_field(default_factory=lambda: [0.0, 0.0, 0.0])
    pinned: list = dc_field(default_factory=list)
    compliance: float = 0.0
    sigma_threshold: float = 0.5  # rigid field objects: density cut for the SDF
    sdf: Optional[str] = None     # optional precomputed collision SDF


@dataclass
class FieldConfig:
    path: str
    transform: Optional[TransformConfig] = None
    dynamic: Optional[DynamicConfig] = None


@dataclass
class MeshConfig:
    path: str
    bsdf: dict = dc_field(default_factory=lambda: {"type": "lambertian", "albedo": [0.8, 0.8, 0.8]})
    transform: Optional[TransformConfig] = None
    emission: Optional[list] = None
    dynamic: Optional[DynamicConfig] = None


@dataclass
class EmitterConfig:
    triangle: list  # three [x, y, z] corners
    r_src: float


@dataclass
class CameraConfig:
    position: list
    look_at: list
    resolution: list
    up: list = dc_field(default_factory=lambda: [0.0, 1.0, 0.0])
    fov_deg: float = 45.0

    def build(self) -> Camera:
        return Camera(
            pose=Transform.look_at(self.position, self.look_at, self.up),
            fov=math.radians(self.fov_deg),
            resolution=(int(self.resolution[0]), int(self.resolution[1])),
        )


@dataclass
class RenderConfig:
    spp: int = 16
    n_bounces: int = 8
    threshold: float = 1e-3
    march_step: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for key, ok, msg in (("spp", self.spp >= 1, "must be >= 1"),
                             ("n_bounces", self.n_bounces >= 1, "must be >= 1"),
                             ("march_step", self.march_step > 0, "must be > 0"),
                             ("threshold", self.threshold >= 0, "must be >= 0")):
            if not ok:
                raise ValueError(f"{key}: {msg}")


@dataclass
class ColliderConfig:
    sdf: str
    transform: Optional[TransformConfig] = None


@dataclass
class SimConfig:
    gravity: list = dc_field(default_factory=lambda: [0.0, 0.0, -9.81])
    dt: float = 1.0 / 60.0
    substeps: int = 4
    iterations: int = 8
    restitution: float = 0.3
    friction: float = 0.5
    damping: float = 0.0
    velocity_cap: float = 1e3


@dataclass
class SceneConfig:
    camera: CameraConfig
    field: Optional[FieldConfig] = None
    meshes: list = dc_field(default_factory=list)
    emitters: list = dc_field(default_factory=list)
    render: RenderConfig = dc_field(default_factory=RenderConfig)
    sim: SimConfig = dc_field(default_factory=SimConfig)
    colliders: list = dc_field(default_factory=list)


# -- parsing ----------------------------------------------------------------


def _parse_transform(obj, path) -> Optional[TransformConfig]:
    if obj is None:
        return None
    got = _need(obj, path, {
        "translate": (list, False, [0.0, 0.0, 0.0]),
        "rotate_axis": (list, False, [0.0, 0.0, 1.0]),
        "rotate_deg": (float, False, 0.0),
    })
    return TransformConfig(
        translate=_vec(got["translate"], f"{path}.translate"),
        rotate_axis=_vec(got["rotate_axis"], f"{path}.rotate_axis"),
        rotate_deg=float(got["rotate_deg"]),
    )


def _parse_dynamic(obj, path) -> Optional[DynamicConfig]:
    if obj is None or obj is False:
        return None
    if not isinstance(obj, dict):
        _fail(path, "expected false or an object")
    got = _need(obj, path, {
        "type": (str, False, "rigid"),
        "mass": (float, False, 1.0),
        "velocity": (list, False, [0.0, 0.0, 0.0]),
        "pinned": (list, False, []),
        "compliance": (float, False, 0.0),
        "sigma_threshold": (float, False, 0.5),
        "sdf": (str, False, None),
    })
    if got["type"] not in ("rigid", "cloth"):
        _fail(f"{path}.type", f"unknown dynamic type {got['type']!r}")
    if got["mass"] <= 0:
        _fail(f"{path}.mass", "mass must be > 0")
    return DynamicConfig(
        type=got["type"], mass=float(got["mass"]),
        velocity=_vec(got["velocity"], f"{path}.velocity"),
        pinned=[int(i) for i in got["pinned"]],
        compliance=float(got["compliance"]),
        sigma_threshold=float(got["sigma_threshold"]),
        sdf=got["sdf"],
    )


def _parse_bsdf(obj, path) -> dict:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    kind = obj.get("type")
    if kind == "lambertian":
        got = _need(obj, path, {"type": (str, True, None), "albedo": (list, False, [0.8, 0.8, 0.8])})
        albedo = _vec(got["albedo"], f"{path}.albedo")
        if any(c < 0 or c > 1 for c in albedo):
            _fail(f"{path}.albedo", "channels must lie in [0, 1]")
        return {"type": "lambertian", "albedo": albedo}
    if kind == "mirror":
        got = _need(obj, path, {"type": (str, True, None), "reflectance": (list, False, [1.0, 1.0, 1.0])})
        refl = _vec(got["reflectance"], f"{path}.reflectance")
        if any(c < 0 or c > 1 for c in refl):
            _fail(f"{path}.reflectance", "channels must lie in [0, 1]")
        return {"type": "mirror", "reflectance": refl}
    if kind == "dielectric":
        got = _need(obj, path, {"type": (str, True, None), "ior": (float, False, 1.5),
                                "tint": (list, False, [1.0, 1.0, 1.0])})
        if got["ior"] <= 0:
            _fail(f"{path}.ior", "ior must be > 0")
        tint = _vec(got["tint"], f"{path}.tint")
        if any(c < 0 or c > 1 for c in tint):
            _fail(f"{path}.tint", "channels must lie in [0, 1]")
        return {"type": "dielectric", "ior": float(got["ior"]), "tint": tint}
    _fail(f"{path}.type", f"unknown bsdf type {kind!r}")


def build_bsdf(spec: dict):
    if spec["type"] == "lambertian":
        return Lambertian(np.array(spec["albedo"]))
    if spec["type"] == "mirror":
        return Mirror(np.array(spec["reflectance"]))
    return Dielectric(spec["ior"], np.array(spec["tint"]))


def parse_scene(text, base_dir: str = ".", check_files: bool = True) -> SceneConfig:
    """Validate a scene JSON document into a SceneConfig."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError(f"scene is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SceneError("scene root must be a JSON object")
    got = _need(doc, "", {
        "field": (dict, False, None),
        "meshes": (list, False, []),
        "emitters": (None, False, []),
        "camera": (dict, True, None),
        "render": (dict, False, {}),
        "sim": (dict, False, {}),
        "colliders": (list, False, []),
    })

    cam = _need(got["camera"], "camera", {
        "position": (list, True, None),
        "look_at": (list, True, None),
        "up": (list, False, [0.0, 1.0, 0.0]),
        "fov_deg": (float, False, 45.0),
        "resolution": (list, True, None),
    })
    res = cam["resolution"]
    if (not isinstance(res, list) or len(res) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in res)
            or res[0] < 1 or res[1] < 1):
        _fail("camera.resolution", "expected [width, height] positive integers")
    if not 0.0 < float(cam["fov_deg"]) < 180.0:
        _fail("camera.fov_deg", "must lie in (0, 180)")
    camera = CameraConfig(
        position=_vec(cam["position"], "camera.position"),
        look_at=_vec(cam["look_at"], "camera.look_at"),
        up=_vec(cam["up"], "camera.up"),
        fov_deg=float(cam["fov_deg"]),
        resolution=[int(res[0]), int(res[1])],
    )

    rset = _need(got["render"], "render", {
        "spp": (int, False, 16),
        "n_bounces": (int, False, 8),
        "threshold": (float, False, 1e-3),
        "march_step": (float, False, 0.05),
        "seed": (int, False, 0),
    })
    try:
        render = RenderConfig(spp=rset["spp"], n_bounces=rset["n_bounces"],
                              threshold=float(rset["threshold"]),
                              march_step=float(rset["march_step"]), seed=rset["seed"])
    except ValueError as e:
        raise SceneError(f"render.{e}") from None

    sset = _need(got["sim"], "sim", {
        "gravity": (list, False, [0.0, 0.0, -9.81]),
        "dt": (float, False, 1.0 / 60.0),
        "substeps": (int, False, 4),
        "iterations": (int, False, 8),
        "restitution": (float, False, 0.3),
        "friction": (float, False, 0.5),
        "damping": (float, False, 0.0),
        "velocity_cap": (float, False, 1e3),
    })
    if sset["dt"] <= 0:
        _fail("sim.dt", "must be > 0")
    if sset["substeps"] < 1:
        _fail("sim.substeps", "must be >= 1")
    if sset["iterations"] < 1:
        _fail("sim.iterations", "must be >= 1")
    if not 0.0 <= sset["restitution"] <= 1.0:
        _fail("sim.restitution", "must lie in [0, 1]")
    if sset["friction"] < 0:
        _fail("sim.friction", "must be >= 0")
    sim = SimConfig(gravity=_vec(sset["gravity"], "sim.gravity"), dt=float(sset["dt"]),
                    substeps=sset["substeps"], iterations=sset["iterations"],
                    restitution=float(sset["restitution"]), friction=float(sset["friction"]),
                    damping=float(sset["damping"]), velocity_cap=float(sset["velocity_cap"]))

    field_cfg = None
    if got["field"] is not None:
        f = _need(got["field"], "field", {
            "path": (str, True, None),
            "transform": (dict, False, None),
            "dynamic": (None, False, None),
        })
        if check_files:
            _check_file(f["path"], "field.path", base_dir)
        field_cfg = FieldConfig(
            path=f["path"],
            transform=_parse_transform(f["transform"], "field.transform"),
            dynamic=_parse_dynamic(f["dynamic"], "field.dynamic"),
        )
        dyn = field_cfg.dynamic
        if dyn is not None and dyn.sdf is not None and check_files:
            _check_file(dyn.sdf, "field.dynamic.sdf", base_dir)

    meshes = []
    for i, m in enumerate(got["meshes"]):
        if not isinstance(m, dict):
            _fail(f"meshes[{i}]", "expected an object")
        mm = _need(m, f"meshes[{i}]", {
            "path": (str, True, None),
            "bsdf": (dict, False, {"type": "lambertian", "albedo": [0.8, 0.8, 0.8]}),
            "transform": (dict, False, None),
            "emission": (list, False, None),
            "dynamic": (None, False, None),
        })
        if check_files:
            _check_file(mm["path"], f"meshes[{i}].path", base_dir)
        emission = None
        if mm["emission"] is not None:
            emission = _vec(mm["emission"], f"meshes[{i}].emission")
            if any(c < 0 for c in emission):
                _fail(f"meshes[{i}].emission", "must be >= 0")
        meshes.append(MeshConfig(
            path=mm["path"],
            bsdf=_parse_bsdf(mm["bsdf"], f"meshes[{i}].bsdf"),
            transform=_parse_transform(mm["transform"], f"meshes[{i}].transform"),
            emission=emission,
            dynamic=_parse_dynamic(mm["dynamic"], f"meshes[{i}].dynamic"),
        ))

    emitters = []
    esrc = got["emitters"]
    if isinstance(esrc, str):
        p = _check_file(esrc, "emitters", base_dir) if check_files else esrc
        try:
            with open(p) as fh:
                esrc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise SceneError(f"emitters: cannot read {p}: {e}") from e
    if not isinstance(esrc, list):
        _fail("emitters", "expected a list or a path to an emitter JSON file")
    for i, e in enumerate(esrc):
        if not isinstance(e, dict):
            _fail(f"emitters[{i}]", "expected an object")
        ee = _need(e, f"emitters[{i}]", {
            "triangle": (list, True, None),
            "r_src": (float, True, None),
        })
        tri = ee["triangle"]
        if not isinstance(tri, list) or len(tri) != 3:
            _fail(f"emitters[{i}].triangle", "expected three corner points")
        tri = [_vec(c, f"emitters[{i}].triangle[{j}]") for j, c in enumerate(tri)]
        if not 0.0 <= float(ee["r_src"]) <= 1.0:
            _fail(f"emitters[{i}].r_src", "must lie in [0, 1]")
        emitters.append(EmitterConfig(triangle=tri, r_src=float(ee["r_src"])))

    collider_cfgs = []
    for i, c in enumerate(got["colliders"]):
        if not isinstance(c, dict):
            _fail(f"colliders[{i}]", "expected an object")
        cc = _need(c, f"colliders[{i}]", {
            "sdf": (str, True, None),
            "transform": (dict, False, None),
        })
        if check_files:
            _check_file(cc["sdf"], f"colliders[{i}].sdf", base_dir)
        collider_cfgs.append(ColliderConfig(
            sdf=cc["sdf"],
            transform=_parse_transform(cc["transform"], f"colliders[{i}].transform"),
        ))

    return SceneConfig(camera=camera, field=field_cfg, meshes=meshes,
                       emitters=emitters, render=render, sim=sim,
                       colliders=collider_cfgs)


def load_scene_config(path) -> SceneConfig:
    try:
        with open(path, "rb") as f:
            text = f.read()
    except OSError as e:
        raise SceneError(f"cannot read scene file {path}: {e}") from e
    return parse_scene(text, base_dir=os.path.dirname(os.path.abspath(path)))


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
    blocker_bvh: Bvh
    emitters: Optional[EmitterSet]
    collider_sdfs: list
    spawn_eps: float
    base_dir: str = "."

    def rebuild_bvh(self):
        for m in self.meshes:
            m.recompute_normals()
        self.bvh, self.blocker_bvh = _build_bvhs(self.meshes)


def _build_bvhs(meshes):
    """The scene BVH and the shadow blockers' BVH, which is the same object
    when no mesh emits."""
    bvh = Bvh(meshes)
    blockers = [m for m in meshes if not m.is_emissive]
    return bvh, bvh if len(blockers) == len(meshes) else Bvh(blockers)


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
    return max(float(np.linalg.norm(hi - lo)), 1e-6)


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
            bsdf=build_bsdf(mc.bsdf),
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

    colliders = []
    for col in cfg.colliders:
        sdf = load_sdfgrid(full(col.sdf))
        if col.transform is not None:
            sdf.world_from_grid = col.transform.build()
        colliders.append(sdf)

    bvh, blocker = _build_bvhs(meshes)
    diag = scene_diagonal(field, meshes)
    return Scene(
        config=cfg,
        camera=cfg.camera.build(),
        render=cfg.render,
        field=field,
        meshes=meshes,
        bvh=bvh,
        blocker_bvh=blocker,
        emitters=emitters,
        collider_sdfs=colliders,
        spawn_eps=1e-4 * diag,
        base_dir=base_dir,
    )


def load_scene(path) -> Scene:
    cfg = load_scene_config(path)
    return build_scene(cfg, base_dir=os.path.dirname(os.path.abspath(path)))
