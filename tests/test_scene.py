import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridrt import assets
from hybridrt.field import RadianceGrid, save_rfgrid
from hybridrt.render import Camera
from hybridrt.scene import (
    ClothConfig,
    ColliderConfig,
    FieldDynamicConfig,
    RenderConfig,
    RigidConfig,
    SceneConfig,
    SceneError,
    SimConfig,
    build_scene,
    load_poses,
    load_scene,
    parse_scene,
    serialize_scene,
)
from hybridrt.surface import Dielectric, Lambertian, Mirror, save_obj


def minimal_doc():
    return {
        "field": {"path": "f.rfgrid"},
        "camera": {"position": [0, 0, 3], "look_at": [0, 0, 0],
                   "resolution": [8, 8]},
    }


def write_assets(d):
    save_rfgrid(d / "f.rfgrid", RadianceGrid.constant((0, 0, 0), (1, 1, 1), 1.0, (1, 1, 1)))
    v, f = assets.quad((-1, -1, 0), (2, 0, 0), (0, 2, 0))
    save_obj(d / "q.obj", v, f)


def test_minimal_scene_defaults(tmp_path):
    write_assets(tmp_path)
    cfg = parse_scene(json.dumps(minimal_doc()), base_dir=str(tmp_path))
    assert cfg.render.spp == 16
    assert cfg.render.n_bounces == 8
    assert cfg.render.threshold == 1e-3
    assert cfg.camera.fov_deg == 45.0
    assert cfg.field.path == "f.rfgrid"


def test_unknown_key_rejected_with_path(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["render"] = {"sppp": 4}
    with pytest.raises(SceneError, match="render.sppp"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


def test_spp_zero_names_key(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["render"] = {"spp": 0}
    with pytest.raises(SceneError, match="render.spp"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


@pytest.mark.parametrize("key, value", [("spp", 0), ("n_bounces", 0), ("threshold", -1e-3),
                                        ("march_step", 0.0), ("march_step", float("nan")),
                                        ("seed", 2**64), ("seed", -2**63 - 1)])
def test_render_config_validates_direct_construction(key, value):
    # Built without a scene file, a bad setting still fails by name; a
    # zero bounce count used to render an all-black image.
    with pytest.raises(ValueError, match=f"^{key}: must be"):
        RenderConfig(**{key: value})


@pytest.mark.parametrize("cls, key, value", [
    (SimConfig, "dt", float("nan")), (SimConfig, "damping", float("nan")),
    (SimConfig, "damping", -0.1), (SimConfig, "velocity_cap", 0.0),
    (SimConfig, "velocity_cap", -1.0), (RigidConfig, "mass", float("nan")),
    (ClothConfig, "compliance", -1e-3), (FieldDynamicConfig, "sigma_threshold", 0.0),
    (FieldDynamicConfig, "sigma_threshold", 1.5), (ClothConfig, "mass", 0.0),
    (FieldDynamicConfig, "mass", -1.0)])
def test_sim_configs_validate_direct_construction(cls, key, value):
    with pytest.raises(ValueError, match=f"^{key}: must be"):
        cls(**{key: value})


def cloth_mesh(**dynamic):
    return {"path": "q.obj", "dynamic": {"type": "cloth", **dynamic}}


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.update(meshes=[cloth_mesh(pinned=[1.5])]),
     r"^meshes\[0\]\.dynamic\.pinned\[0\]: expected int, got float"),
    (lambda d: d.update(meshes=[cloth_mesh(pinned=[True])]),
     r"^meshes\[0\]\.dynamic\.pinned\[0\]: expected int, got bool"),
    (lambda d: d.update(meshes=[cloth_mesh(mass=float("nan"))]), r"^meshes\[0\]\.dynamic\.mass"),
    (lambda d: d.update(meshes=[{"path": "q.obj", "bsdf": {"type": "dielectric",
                                                           "ior": float("nan")}}]),
     r"^meshes\[0\]\.bsdf\.ior: must be finite"),
    (lambda d: d.update(meshes=[{"path": "q.obj", "bsdf": {"type": "dielectric", "ior": 0.0}}]),
     r"^meshes\[0\]\.bsdf\.ior: must be > 0"),
    (lambda d: d.update(meshes=[{"path": "q.obj", "bsdf": {"type": "dielectric",
                                                           "tint": [1.0, 1.5, 1.0]}}]),
     r"^meshes\[0\]\.bsdf\.tint: channels must lie in \[0, 1\]"),
    (lambda d: d.update(meshes=[{"path": "q.obj", "bsdf": {"albedo": [-0.1, 0.5, 0.5]}}]),
     r"^meshes\[0\]\.bsdf\.albedo: channels must lie in \[0, 1\]"),
    (lambda d: d.update(meshes=[{"path": "q.obj", "bsdf": {"type": "mirror", "ior": 1.5}}]),
     r"^meshes\[0\]\.bsdf\.ior: unknown key$"),
    (lambda d: d.update(sim={"dt": float("nan")}), r"^sim\.dt: must be finite"),
    (lambda d: d.update(sim={"velocity_cap": -1}), r"^sim\.velocity_cap: must be > 0"),
    (lambda d: d.update(sim={"gravity": [0, 0, float("inf")]}), r"^sim\.gravity\[2\]: must be finite"),
    (lambda d: d.update(render={"spp": 2.5}), r"^render\.spp: expected int"),
    (lambda d: d["camera"].update(look_at=[0, 0, 3]), r"^camera\.look_at: must differ"),
    (lambda d: d["camera"].update(up=[0, 0, -2]), r"^camera\.up: must be nonzero and not along"),
    (lambda d: d["camera"].update(up=[0, 0, 0]), r"^camera\.up: must be nonzero"),
    (lambda d: d["field"].update(transform={"rotate_axis": [0, 0, 0], "rotate_deg": 30}),
     r"^field\.transform\.rotate_axis: must be nonzero"),
    (lambda d: d["field"].update(dynamic={"sigma_threshold": -1}),
     r"^field\.dynamic\.sigma_threshold: must be in \(0, 1\]"),
])
def test_malformed_value_names_key(tmp_path, edit, match):
    write_assets(tmp_path)
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(SceneError, match=match):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


@pytest.mark.parametrize("position, look_at", [
    ([1.5e154, 0, 0], [0, 0, 0]),  # the offset's length overflows
    ([-1e308, 0, 0], [1e308, 0, 0]),  # the offset itself overflows
])
def test_overflowing_view_offset_is_rejected(tmp_path, recwarn, position, look_at):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["camera"].update(position=position, look_at=look_at)
    with pytest.raises(SceneError, match=r"^camera\.look_at: must differ"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))
    assert not recwarn.list


def test_missing_mesh_path_named(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["meshes"] = [{"path": "nope.obj"}]
    with pytest.raises(SceneError, match="nope.obj"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


def test_missing_field_file_named(tmp_path):
    doc = minimal_doc()
    with pytest.raises(SceneError, match="field.path"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


def test_bad_json_rejected():
    with pytest.raises(SceneError, match="JSON"):
        parse_scene(b"{nope")


def test_resolution_validation(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["camera"]["resolution"] = [0, 8]
    with pytest.raises(SceneError, match="camera.resolution"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


def test_emitter_validation(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["emitters"] = [{"triangle": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "r_src": 1.5}]
    with pytest.raises(SceneError, match=r"emitters\[0\].r_src"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


def test_bsdf_validation(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["meshes"] = [{"path": "q.obj", "bsdf": {"type": "chrome"}}]
    with pytest.raises(SceneError, match=r"meshes\[0\].bsdf.type"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


@pytest.mark.parametrize("bsdf, expect", [
    ({"type": "lambertian", "albedo": [0.2, 0.4, 0.6]}, Lambertian((0.2, 0.4, 0.6))),
    ({"type": "mirror"}, Mirror((1.0, 1.0, 1.0))),
    ({"type": "dielectric", "ior": 1.33}, Dielectric(1.33, (1.0, 1.0, 1.0))),
    (None, Lambertian((0.8, 0.8, 0.8))),  # omitted
])
def test_bsdf_reads_into_the_material_class(tmp_path, bsdf, expect):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["meshes"] = [{"path": "q.obj"} if bsdf is None else {"path": "q.obj", "bsdf": bsdf}]
    cfg = parse_scene(json.dumps(doc), base_dir=str(tmp_path))
    assert type(cfg.meshes[0].bsdf) is type(expect)
    assert cfg.meshes[0].bsdf == expect
    assert build_scene(cfg, base_dir=str(tmp_path)).meshes[0].bsdf is cfg.meshes[0].bsdf
    if bsdf is None:
        assert cfg.meshes[0].bsdf == Lambertian()


def test_round_trip_equality(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["meshes"] = [{
        "path": "q.obj",
        "bsdf": {"type": "dielectric", "ior": 1.33, "tint": [1.0, 0.9, 0.9]},
        "transform": {"translate": [1.0, 2.0, 3.0], "rotate_axis": [0.0, 0.0, 1.0],
                      "rotate_deg": 45.0},
        "emission": [2.0, 2.0, 2.0],
        "dynamic": {"type": "rigid", "mass": 2.5, "velocity": [1.0, 0.0, 0.0]},
    }]
    doc["emitters"] = [{"triangle": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "r_src": 0.7}]
    doc["render"] = {"spp": 4, "n_bounces": 3, "threshold": 1e-4,
                     "march_step": 0.01, "seed": 11}
    doc["sim"] = {"gravity": [0.0, 0.0, -1.0], "dt": 0.01, "substeps": 2,
                  "iterations": 4, "restitution": 0.5, "friction": 0.2,
                  "damping": 0.0, "velocity_cap": 100.0}
    cfg = parse_scene(json.dumps(doc), base_dir=str(tmp_path))
    text = serialize_scene(cfg)
    cfg2 = parse_scene(text, base_dir=str(tmp_path))
    assert cfg == cfg2


@pytest.mark.parametrize("where, dynamic, key", [
    ("mesh", {"type": "rigid"}, "sigma_threshold"),
    ("mesh", {"type": "rigid"}, "sdf"),
    ("mesh", {"type": "rigid"}, "pinned"),
    ("mesh", {"type": "rigid"}, "compliance"),
    ("mesh", {}, "pinned"),  # an omitted type means rigid
    ("mesh", {"type": "cloth"}, "sigma_threshold"),
    ("mesh", {"type": "cloth"}, "sdf"),
    ("field", {"type": "rigid"}, "pinned"),
    ("field", {}, "compliance"),
    ("field", {}, "sdf"),  # the field's own density is its only SDF
    ("mesh", {"type": "collider"}, "mass"),  # a collider's mass is infinite
])
def test_dynamic_key_of_another_kind_is_rejected(tmp_path, where, dynamic, key):
    # Each kind of dynamic object reads only the keys that apply to it.
    write_assets(tmp_path)
    value = {"sigma_threshold": 0.9, "sdf": "q.obj", "pinned": [0], "compliance": 5.0,
             "mass": 1}[key]
    doc = minimal_doc()
    if where == "mesh":
        doc["meshes"] = [{"path": "q.obj", "dynamic": {**dynamic, key: value}}]
        path = r"meshes\[0\]\.dynamic"
    else:
        doc["field"]["dynamic"] = {**dynamic, key: value}
        path = r"field\.dynamic"
    with pytest.raises(SceneError, match=rf"^{path}\.{key}: unknown key$"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


def test_dynamic_kinds_are_told_apart_by_type(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["field"]["dynamic"] = {"mass": 2.0, "sigma_threshold": 0.3}
    doc["meshes"] = [{"path": "q.obj", "dynamic": {"mass": 3.0}},
                     {"path": "q.obj", "dynamic": {"type": "cloth", "pinned": [1]}},
                     {"path": "q.obj", "dynamic": {"type": "collider"}}]
    cfg = parse_scene(json.dumps(doc), base_dir=str(tmp_path))
    assert cfg.field.dynamic == FieldDynamicConfig(mass=2.0, sigma_threshold=0.3)
    assert [m.dynamic for m in cfg.meshes] == [RigidConfig(mass=3.0), ClothConfig(pinned=[1]),
                                               ColliderConfig()]
    doc["field"]["dynamic"]["type"] = "cloth"
    with pytest.raises(SceneError, match=r"^field\.dynamic\.type: expected one of 'rigid'$"):
        parse_scene(json.dumps(doc), base_dir=str(tmp_path))


def test_static_is_spelled_null_or_omitted(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["field"]["dynamic"] = None
    doc["meshes"] = [{"path": "q.obj", "dynamic": None}, {"path": "q.obj"}]
    cfg = parse_scene(json.dumps(doc), base_dir=str(tmp_path))
    assert cfg.field.dynamic is None
    assert [m.dynamic for m in cfg.meshes] == [None, None]
    for where, path in ((doc["field"], r"field\.dynamic"),
                        (doc["meshes"][0], r"meshes\[0\]\.dynamic")):
        where["dynamic"] = False
        with pytest.raises(SceneError, match=rf"^{path}: expected an object$"):
            parse_scene(json.dumps(doc), base_dir=str(tmp_path))
        where["dynamic"] = None


def test_every_preset_scene_parses_and_round_trips(tmp_path):
    checked = []
    for preset in sorted(assets.PRESETS):
        d = tmp_path / preset
        assets.generate(preset, str(d))
        for path in sorted(d.glob("*.json")):
            if "camera" in json.loads(path.read_text()):  # a scene, not poses or a bracket
                cfg = parse_scene(path.read_text(), base_dir=str(d))
                assert parse_scene(serialize_scene(cfg), base_dir=str(d)) == cfg
                checked.append(path.name)
    assert {"drop.json", "field_hit.json", "two_room.json", "furnace.json"} <= set(checked)


def test_round_trip_minimal(tmp_path):
    write_assets(tmp_path)
    cfg = parse_scene(json.dumps(minimal_doc()), base_dir=str(tmp_path))
    assert parse_scene(serialize_scene(cfg), base_dir=str(tmp_path)) == cfg


def test_emitters_from_file(tmp_path):
    write_assets(tmp_path)
    with open(tmp_path / "em.json", "w") as f:
        json.dump([{"triangle": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "r_src": 0.4}], f)
    doc = minimal_doc()
    doc["emitters"] = "em.json"
    cfg = parse_scene(json.dumps(doc), base_dir=str(tmp_path))
    assert len(cfg.emitters) == 1
    assert cfg.emitters[0].r_src == 0.4


def test_build_scene_loads_assets(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["meshes"] = [{"path": "q.obj", "emission": [1.0, 1.0, 1.0]}]
    path = tmp_path / "scene.json"
    with open(path, "w") as f:
        json.dump(doc, f)
    scene = load_scene(path)
    assert scene.field is not None
    assert scene.bvh.n_faces == 2
    assert not scene.bvh.blocks.any()  # the only mesh is emissive
    assert scene.spawn_eps > 0
    assert scene.camera.resolution == (8, 8)


def test_scene_rebuild_bvh_after_deform(tmp_path):
    write_assets(tmp_path)
    doc = minimal_doc()
    doc["meshes"] = [{"path": "q.obj"}]
    path = tmp_path / "scene.json"
    with open(path, "w") as f:
        json.dump(doc, f)
    scene = load_scene(path)
    bvh = scene.bvh
    scene.meshes[0].vertices = scene.meshes[0].vertices + np.array([0, 0, 5.0])
    scene.rebuild_bvh()
    assert scene.bvh is bvh and bvh.node_lo[0][2] >= 4.9
    # No mesh emits, so every face blocks shadow rays, and the shadow cull
    # reads their refit boxes.
    assert bvh.blocks.tolist() == [True, True]
    assert bvh.block_lo[:, 2].min() >= 4.9


def test_bvh_blocks_leave_out_emissive_meshes(tmp_path):
    write_assets(tmp_path)
    v, f = assets.quad((-1, -1, 1), (2, 0, 0), (0, 2, 0))
    save_obj(tmp_path / "lamp.obj", v, f)
    doc = minimal_doc()
    doc["meshes"] = [{"path": "q.obj"}, {"path": "lamp.obj", "emission": [1.0, 1.0, 1.0]}]
    path = tmp_path / "scene.json"
    with open(path, "w") as f:
        json.dump(doc, f)
    scene = load_scene(path)
    bvh = scene.bvh
    for _ in range(2):
        assert scene.bvh is bvh and bvh.n_faces == 4
        assert bvh.blocks.tolist() == [True, True, False, False]
        assert np.array_equal(bvh.tri[bvh.blocks], scene.meshes[0].triangle_vertices())
        scene.rebuild_bvh()


def test_rebuild_bvh_refits_the_same_meshes_and_builds_for_others(estimation_dir):
    # As the estimation-room preset does, emission turns on before
    # rebuild_bvh: the scene BVH, over the same mesh, is refit, reads it,
    # and its faces stop blocking shadow rays; they block again once the
    # emission goes. A mesh with fewer faces, or one more mesh, builds anew.
    scene = load_scene(estimation_dir / "room.json")
    bvh = scene.bvh
    mesh = scene.meshes[0]
    assert bvh.blocks.all()
    mesh.emission = np.full((len(mesh.indices), 3), 0.5)
    scene.rebuild_bvh()
    assert scene.bvh is bvh and bvh.face_emission.tobytes() == mesh.emission.tobytes()
    assert not bvh.blocks.any()
    scene.rebuild_bvh()
    assert scene.bvh is bvh and not bvh.blocks.any()
    mesh.emission = np.zeros((len(mesh.indices), 3))
    scene.rebuild_bvh()
    assert scene.bvh is bvh and not bvh.face_emission.any() and bvh.blocks.all()
    mesh.indices, mesh.emission = mesh.indices[:-1], mesh.emission[:-1]
    scene.rebuild_bvh()
    assert scene.bvh is not bvh and scene.bvh.n_faces == len(mesh.indices)
    bvh = scene.bvh
    lamp = load_scene(estimation_dir / "room.json").meshes[0]
    lamp.emission = np.ones((len(lamp.indices), 3))
    scene.meshes.append(lamp)
    scene.rebuild_bvh()
    assert scene.bvh is not bvh and scene.bvh.meshes == scene.meshes
    assert scene.bvh.blocks.tolist() == [True] * len(mesh.indices) + [False] * len(lamp.indices)


# -- fuzzing the readers ------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=4),
    max_leaves=8)


def full_doc():
    """A valid scene that uses every section and key kind."""
    tri = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    return {
        "field": {"path": "f.rfgrid", "transform": {"translate": [0, 0, 1], "rotate_deg": 30},
                  "dynamic": {"type": "rigid", "mass": 2, "sigma_threshold": 0.4}},
        "meshes": [{"path": "q.obj", "bsdf": {"type": "dielectric", "ior": 1.3},
                    "emission": [1, 1, 1], "dynamic": {"type": "cloth", "pinned": [0, 1]}},
                   {"path": "q.obj", "bsdf": {"type": "mirror"}, "dynamic": None},
                   {"path": "q.obj", "transform": {"rotate_axis": [1, 0, 0]},
                    "dynamic": {"type": "collider"}}],
        "emitters": [{"triangle": tri, "r_src": 0.5}],
        "camera": {"position": [0, 0, 3], "look_at": [0, 0, 0], "resolution": [8, 8]},
        "render": {"spp": 2, "seed": 1},
        "sim": {"dt": 0.01, "damping": 0.1, "velocity_cap": 50},
    }


def subtrees(x, here=()):
    """Key paths to every value in a JSON document, the root included."""
    yield here
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from subtrees(v, here + (k,))


def replace_one(doc, data):
    """`doc` with one value drawn by `data` in place of one drawn subtree."""
    path = data.draw(st.sampled_from(list(subtrees(doc))))
    value = data.draw(json_values)
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_assets(d)
    return d


def test_full_doc_is_valid(fuzz_dir):
    cfg = parse_scene(json.dumps(full_doc()), base_dir=str(fuzz_dir))
    assert parse_scene(serialize_scene(cfg), base_dir=str(fuzz_dir)) == cfg


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_scene_parses_or_names_its_error(fuzz_dir, data):
    text = json.dumps(replace_one(full_doc(), data))
    try:
        assert isinstance(parse_scene(text, base_dir=str(fuzz_dir)), SceneConfig)
    except SceneError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_poses_load_or_name_their_error(estimation_dir, tmp_path_factory, data):
    doc = json.loads((estimation_dir / "poses.json").read_text())
    path = tmp_path_factory.getbasetemp() / "fuzzed_poses.json"
    path.write_text(json.dumps(replace_one(doc, data)))
    try:
        cams = load_poses(path)
    except SceneError:
        return
    assert all(isinstance(c, Camera) for c in cams)
