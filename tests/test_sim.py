import json

import numpy as np
import pytest

from hybridrt import assets, cli, sim
from hybridrt.field import RadianceGrid, save_rfgrid
from hybridrt.scene import load_scene
from hybridrt.surface import save_obj


def write_cloth_scene(d, cloths):
    """Scene with one cloth mesh per (name, dynamic) pair, side by side."""
    save_rfgrid(d / "f.rfgrid", RadianceGrid.constant((0, 0, 0), (1, 1, 1), 0.1, (1, 1, 1)))
    meshes = []
    for k, (name, dynamic) in enumerate(cloths):
        v, f = assets.cloth_grid(3, 3, (2.0 * k, 0, 1), (1, 0, 0), (0, 1, 0))
        save_obj(d / f"{name}.obj", v, f)
        meshes.append({"path": f"{name}.obj", "dynamic": dict(type="cloth", **dynamic)})
    doc = {"field": {"path": "f.rfgrid"}, "meshes": meshes,
           "camera": {"position": [0, 0, 3], "look_at": [0, 0, 0], "resolution": [8, 8]}}
    path = d / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def test_each_cloth_keeps_its_own_compliance(tmp_path):
    path = write_cloth_scene(tmp_path, [("stiff", {"compliance": 0.0}),
                                        ("soft", {"compliance": 0.25})])
    scene = load_scene(path)
    world, binding = sim.build_world(scene)
    (_, stiff), _ = binding.cloth_meshes
    got = {(stiff.start <= c.i < stiff.stop, c.compliance) for c in world.constraints}
    assert got == {(True, 0.0), (False, 0.25)}

def test_add_cloth_per_edge_compliance():
    world = sim.World()
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0]])
    world.add_cloth(pos, np.ones(3), [(0, 1), (1, 2)], [1.0, 1.0], compliance=[0.1, 0.2])
    assert [c.compliance for c in world.constraints] == [0.1, 0.2]
    with pytest.raises(ValueError, match="2 edges"):
        sim.World().add_cloth(pos, np.ones(3), [(0, 1), (1, 2)], [1.0, 1.0],
                              compliance=[0.1])


@pytest.mark.parametrize("pin", [9, -1])
def test_out_of_range_pin_names_mesh_and_index(tmp_path, pin):
    path = write_cloth_scene(tmp_path, [("sheet", {"pinned": [0, pin]})])
    scene = load_scene(path)
    with pytest.raises(ValueError, match=rf"'sheet'.*{pin}"):
        sim.build_world(scene)


def test_simulate_out_of_range_pin_exits_2(tmp_path, capsys):
    path = write_cloth_scene(tmp_path, [("sheet", {"pinned": [42]})])
    code = cli.main(["simulate", "--scene", str(path), "--frames", "1",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: simulate: ") and "42" in err
