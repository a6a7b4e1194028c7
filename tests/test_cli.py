"""Malformed inputs reach the CLI as one `error: <cmd>: <msg>` line and
exit 2, never a traceback; the files one command writes are the input of
the next."""

import contextlib
import io
import json
import pathlib
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hybridrt import assets, cli, emitters
from hybridrt.field import RadianceGrid, save_rfgrid
from hybridrt.hdr import CrfTable, HdrError, load_crf_csv, save_crf_csv
from hybridrt.images import HdrImage, read_pfm, write_pfm
from hybridrt.scene import load_scene
from hybridrt.surface import save_obj


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


def drop_image_key(key):
    def edit(doc):
        del doc["images"][2][key]
        return doc
    return edit


def nan_image_time(doc):
    doc["images"][2]["time"] = float("nan")
    return doc


def bool_image_time(doc):
    doc["images"][2]["time"] = True
    return doc


@pytest.mark.parametrize("edit, match", [
    (drop_image_key("path"), "images[2]"),
    (drop_image_key("time"), "images[2]"),
    (lambda doc: doc["images"], "'images' list"),
    (nan_image_time, "exposure times must be finite"),
    (bool_image_time, "images[2]"),
])
def test_malformed_bracket_manifest_exits_2(hdr_dir, tmp_path, capsys, edit, match):
    d = tmp_path / "hdr"
    shutil.copytree(hdr_dir, d)
    manifest = d / "broken.json"
    manifest.write_text(json.dumps(edit(json.loads((d / "bracket.json").read_text()))))
    code, err = run_cli(capsys, "hdr-recover", "--bracket", str(manifest),
                        "--out", str(tmp_path / "crf.csv"))
    assert code == 2
    assert err.startswith("error: hdr-recover: ") and match in err


def drop_pose_key(key):
    def edit(doc):
        del doc["poses"][1][key]
        return doc
    return edit


def set_pose_field(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def pose_looks_at_itself(doc):
    doc["poses"][1]["look_at"] = doc["poses"][1]["position"]
    return doc


@pytest.mark.parametrize("edit, match", [
    (drop_pose_key("look_at"), "poses[1]"),
    (pose_looks_at_itself, "poses[1].look_at: must differ from position"),
    (drop_pose_key("position"), "poses[1]"),
    (set_pose_field("resolution", 24), "resolution: expected a list of 2"),
    (lambda doc: {k: v for k, v in doc.items() if k != "fov_deg"}, "fov_deg: missing required key"),
])
def test_malformed_pose_file_exits_2(estimation_dir, tmp_path, capsys, edit, match):
    doc = json.loads((estimation_dir / "poses.json").read_text())
    poses = tmp_path / "poses.json"
    poses.write_text(json.dumps(edit(doc)))
    code, err = run_cli(capsys, "estimate-emitters",
                        "--scene", str(estimation_dir / "room.json"),
                        "--poses", str(poses), "--gt-dir", str(estimation_dir),
                        "--out", str(tmp_path / "em.json"))
    assert code == 2
    assert err.startswith("error: estimate-emitters: ") and match in err


def nan_pixel(img):
    img.pixels[3, 5, 1] = np.nan
    return img


@pytest.mark.parametrize("edit, match", [
    (nan_pixel, "gt_0002.pfm: non-finite pixel values"),
    (lambda img: HdrImage(img.pixels[1:]), "gt_0002.pfm: 24x23 image, but pose 2 renders 24x24"),
])
def test_malformed_ground_truth_exits_2(estimation_dir, tmp_path, capsys, edit, match):
    gt_dir = tmp_path / "gt"
    shutil.copytree(estimation_dir, gt_dir)
    write_pfm(gt_dir / "gt_0002.pfm", edit(read_pfm(gt_dir / "gt_0002.pfm")))
    out = tmp_path / "em.json"
    code, err = run_cli(capsys, "estimate-emitters",
                        "--scene", str(estimation_dir / "room.json"),
                        "--poses", str(estimation_dir / "poses.json"),
                        "--gt-dir", str(gt_dir), "--out", str(out))
    assert code == 2
    assert err.startswith("error: estimate-emitters: ") and match in err
    assert not out.exists()


@pytest.mark.parametrize("command, edit, match", [
    ("simulate", lambda doc: doc["sim"].update(damping=float("nan")), "sim.damping: "),
    ("render", lambda doc: doc["meshes"][0]["dynamic"].update(type="cloth", pinned=[None]),
     "meshes[0].dynamic.pinned[0]: "),
])
def test_malformed_scene_exits_2(tmp_path, capsys, command, edit, match):
    assets.gen_drop(str(tmp_path))
    scene = tmp_path / "drop.json"
    doc = json.loads(scene.read_text())
    edit(doc)
    scene.write_text(json.dumps(doc))
    code, err = run_cli(capsys, command, "--scene", str(scene), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(f"error: {command}: {match}")


@pytest.mark.parametrize("command", ["render", "simulate"])
@pytest.mark.parametrize("key, value", [("sigma_threshold", 0.9), ("pinned", [0]),
                                        ("compliance", 5.0), ("sdf", "plane.sdfgrid")])
def test_rigid_mesh_rejects_keys_of_other_kinds_exits_2(tmp_path, capfd, command, key, value):
    # The drop preset's rigid ball used to take field and cloth keys, which
    # the simulation then ignored.
    assets.gen_drop(str(tmp_path))
    scene = tmp_path / "drop.json"
    doc = json.loads(scene.read_text())
    doc["meshes"][0]["dynamic"][key] = value
    scene.write_text(json.dumps(doc))
    out = tmp_path / "out"
    size = ["--spp", "1"] if command == "render" else ["--frames", "1"]
    code = cli.main([command, "--scene", str(scene), "--out", str(out), *size])
    assert code == 2
    assert capfd.readouterr().err.splitlines() == [
        f"error: {command}: meshes[0].dynamic.{key}: unknown key"]
    assert not out.exists()


@pytest.mark.parametrize("threshold", [0.0, -1.0, 1.5])
def test_field_sigma_threshold_out_of_range_exits_2(tmp_path, capsys, threshold):
    # At 0 or below the whole grid box became solid; above 1 the body
    # failed late with a message that named no key.
    assets.gen_field_hit(str(tmp_path))
    scene = tmp_path / "field_hit.json"
    doc = json.loads(scene.read_text())
    doc["field"]["dynamic"]["sigma_threshold"] = threshold
    scene.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, err = run_cli(capsys, "simulate", "--scene", str(scene), "--out", str(out),
                        "--frames", "1")
    assert code == 2
    assert err.startswith("error: simulate: field.dynamic.sigma_threshold: must be in (0, 1]")
    assert not out.exists()


@pytest.mark.parametrize("edit, msg", [
    (lambda doc: doc["field"]["dynamic"].update(sdf="blob.rfgrid"),
     "field.dynamic.sdf: unknown key"),
    (lambda doc: doc["field"].update(dynamic=False), "field.dynamic: expected an object"),
    (lambda doc: doc["meshes"][0].update(dynamic=False),
     "meshes[0].dynamic: expected an object"),
    (lambda doc: doc["field"]["dynamic"].update({"a\nb\x85": 1}),
     'field.dynamic."a\\nb\\u0085": unknown key'),
])
def test_field_hit_rejects_sdf_file_and_false_dynamic_exits_2(tmp_path, capfd, edit, msg):
    # A field body's SDF comes from its density alone, and a static object
    # is spelled null or left out.
    assets.gen_field_hit(str(tmp_path))
    scene = tmp_path / "field_hit.json"
    doc = json.loads(scene.read_text())
    edit(doc)
    scene.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli.main(["simulate", "--scene", str(scene), "--out", str(out), "--frames", "1"])
    assert code == 2
    assert capfd.readouterr().err.splitlines() == [f"error: simulate: {msg}"]
    assert not out.exists()


json_leaves = (st.none() | st.booleans() | st.just(float("nan")) | st.integers(-10, 10)
               | st.floats(-10, 10) | st.text(max_size=6)
               | st.sampled_from(["blob.rfgrid", "ball.obj", "rigid", "cloth"]))
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=4),
    max_leaves=8)
dynamic_keys = st.sampled_from(["type", "mass", "velocity", "sigma_threshold", "sdf",
                                "pinned", "compliance"]) | st.text(max_size=6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_field_hit_dynamics_simulate_or_exit_2(field_hit_dir, tmp_path_factory, data):
    # Random JSON in place of, or merged into, the field's and the ball's
    # `dynamic`: one frame runs, or one error line names it and no output
    # directory is left. Numbers stay small, so one frame meets no
    # contact and cannot go unstable.
    d = tmp_path_factory.getbasetemp() / "fuzzed_dynamics"
    if not d.exists():
        shutil.copytree(field_hit_dir, d)
    doc = json.loads((field_hit_dir / "field_hit.json").read_text())
    for owner in (doc["field"], doc["meshes"][0]):
        if data.draw(st.booleans()):
            owner["dynamic"] = data.draw(json_values)
        else:
            owner["dynamic"].update(data.draw(st.dictionaries(dynamic_keys, json_values,
                                                              max_size=3)))
    (d / "field_hit.json").write_text(json.dumps(doc))
    out = d / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["simulate", "--scene", str(d / "field_hit.json"),
                         "--out", str(out), "--frames", "1"])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        shutil.rmtree(out)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: simulate: ")
        assert not out.exists()


def test_field_occupied_at_every_node_exits_2(tmp_path, capfd):
    # A dynamic field with no free node has no surface to derive an SDF from.
    assets.gen_field_hit(str(tmp_path))
    save_rfgrid(tmp_path / "blob.rfgrid",
                RadianceGrid.constant((-0.8,) * 3, (0.8,) * 3, 8.0, (1, 1, 1), res=(4, 4, 4)))
    code = cli.main(["simulate", "--scene", str(tmp_path / "field_hit.json"),
                     "--out", str(tmp_path / "out"), "--frames", "1"])
    assert code == 2
    assert capfd.readouterr().err.splitlines() == [
        "error: simulate: density field is occupied at every node, so it has no surface"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["render", "simulate"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bad_thread_count_exits_2(tmp_path, capfd, recwarn, command, threads):
    assets.gen_drop(str(tmp_path))
    out = tmp_path / "out"
    code = cli.main([command, "--scene", str(tmp_path / "drop.json"), "--out", str(out),
                     "--threads", threads])
    lines = capfd.readouterr().err.splitlines()
    assert code == 2
    assert lines == [f"error: {command}: --threads must be >= 1"]
    assert not recwarn.list
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "simulate"])
@pytest.mark.parametrize("option", ["--width", "--height"])
def test_zero_image_size_exits_2(tmp_path, capfd, command, option):
    # 0 used to read as no override and render at the scene's size.
    assets.gen_drop(str(tmp_path))
    out = tmp_path / "out"
    size = ["--spp", "1"] if command == "render" else ["--frames", "1"]
    code = cli.main([command, "--scene", str(tmp_path / "drop.json"), "--out", str(out),
                     option, "0", *size])
    assert code == 2
    assert capfd.readouterr().err.splitlines() == [
        f"error: {command}: width/height overrides must be positive"]
    assert not out.exists()


def estimate_args(d):
    return ["estimate-emitters", "--scene", str(d / "room.json"),
            "--poses", str(d / "poses.json"), "--gt-dir", str(d)]


def recover_args(d):
    return ["hdr-recover", "--bracket", str(d / "bracket.json")]


@pytest.mark.parametrize("args, option, match", [
    pytest.param(estimate_args, ["--alpha", "nan"], "alpha must be finite and >= 0",
                 id="alpha-nan"),
    pytest.param(estimate_args, ["--alpha", "inf"], "alpha must be finite and >= 0",
                 id="alpha-inf"),
    pytest.param(estimate_args, ["--threshold", "nan"],
                 "brightness_threshold must be finite and >= 0", id="threshold-nan"),
    pytest.param(recover_args, ["--smoothness", "nan"],
                 "smoothness lambda must be finite and >= 0", id="smoothness-nan"),
    pytest.param(recover_args, ["--smoothness", "inf"],
                 "smoothness lambda must be finite and >= 0", id="smoothness-inf"),
    pytest.param(recover_args, ["--samples", "-4"], "n_samples must be >= 1",
                 id="samples-negative"),
])
def test_bad_solver_option_exits_2(estimation_dir, hdr_dir, tmp_path, capfd, recwarn,
                                   args, option, match):
    # capfd, not capsys: LAPACK writes its own complaints to file descriptor 2.
    argv = args(estimation_dir if args is estimate_args else hdr_dir)
    out = tmp_path / "out"
    code = cli.main(argv + ["--out", str(out)] + option)
    lines = capfd.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {argv[0]}: ")
    assert match in lines[0]
    assert not recwarn.list
    assert not out.exists()


def crf_table():
    z = np.arange(256, dtype=np.float64)
    g = np.log1p(z)[:, None] * np.array([1.0, 1.1, 0.9]) - np.log1p(128.0)
    return CrfTable(g=g)


def test_crf_csv_round_trip(tmp_path):
    path = tmp_path / "crf.csv"
    save_crf_csv(path, crf_table())
    loaded = load_crf_csv(path)
    assert np.allclose(loaded.g, crf_table().g, rtol=1e-8, atol=1e-12)
    again = tmp_path / "again.csv"
    save_crf_csv(again, loaded)
    assert again.read_text() == path.read_text()


@pytest.mark.parametrize("edit, match", [
    (lambda ls: ls[:100], r"crf\.csv: CRF table lacks 157 of 256 codes"),
    (lambda ls: ls[1:], r"header"),
    (lambda ls: ls[:5] + [ls[4]] + ls[6:], r"crf\.csv:6: code 3 out of range or repeated"),
    (lambda ls: ls[:9] + ["8,1,nan,2"] + ls[10:], r"crf\.csv:10: non-finite"),
    (lambda ls: ls[:9] + ["8,1,2"] + ls[10:], r"crf\.csv:10: bad CRF row"),
    (lambda ls: ls + ["256,0,0,0"], r"crf\.csv:258: code 256"),
])
def test_malformed_crf_csv_rejected(tmp_path, edit, match):
    path = tmp_path / "crf.csv"
    save_crf_csv(path, crf_table())
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(HdrError, match=match):
        load_crf_csv(path)


def test_hdr_merge_truncated_crf_exits_2(hdr_dir, tmp_path, capsys):
    crf = tmp_path / "crf.csv"
    save_crf_csv(crf, crf_table())
    crf.write_text("\n".join(crf.read_text().splitlines()[:100]) + "\n")
    out = tmp_path / "merged.pfm"
    code, err = run_cli(capsys, "hdr-merge", "--bracket", str(hdr_dir / "bracket.json"),
                        "--crf", str(crf), "--out", str(out))
    assert code == 2
    assert err.startswith("error: hdr-merge: ") and "crf.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("cut", ["empty", "header", "payload", "extra", "dims"])
def test_render_bad_rfgrid_exits_2(tmp_path, capsys, cut):
    assets.gen_smoke_slab(str(tmp_path))
    grid = tmp_path / "slab.rfgrid"
    data = grid.read_bytes()
    grid.write_bytes({"empty": b"", "header": data[:20], "payload": data[:-7],
                      "extra": data + b"\0",
                      "dims": data[:4] + (0).to_bytes(4, "little") + data[8:]}[cut])  # ny = 0
    code, err = run_cli(capsys, "render", "--scene", str(tmp_path / "slab.json"),
                        "--out", str(tmp_path / "out.ppm"))
    assert code == 2
    assert err.startswith("error: render: ") and "slab.rfgrid" in err
    if cut in ("payload", "extra"):
        assert f"needs {len(data)} bytes, file has {len(grid.read_bytes())}" in err
    if cut == "dims":
        assert "dimensions must be positive" in err


SNAN_F32 = struct.pack("<I", 0x7FA00000)  # a float32 NaN with the quiet bit clear


def write_snan(path, offset):
    data = bytearray(path.read_bytes())
    data[offset:offset + 4] = SNAN_F32
    path.write_bytes(bytes(data))


def snan_rfgrid(tmp_path, estimation_dir):
    assets.gen_smoke_slab(str(tmp_path))
    write_snan(tmp_path / "slab.rfgrid", struct.calcsize("<3i6f"))
    return ["render", "--scene", str(tmp_path / "slab.json")]


def snan_ground_truth(tmp_path, estimation_dir):
    gt_dir = tmp_path / "gt"
    shutil.copytree(estimation_dir, gt_dir)
    pfm = gt_dir / "gt_0002.pfm"
    data = pfm.read_bytes()
    write_snan(pfm, len(data) - len(data.split(b"\n", 3)[3]))
    return ["estimate-emitters", "--scene", str(estimation_dir / "room.json"),
            "--poses", str(estimation_dir / "poses.json"), "--gt-dir", str(gt_dir)]


@pytest.mark.parametrize("setup, match", [
    pytest.param(snan_rfgrid, "sigma must be finite", id="rfgrid"),
    pytest.param(snan_ground_truth, "gt_0002.pfm: non-finite pixel values", id="gt-pfm"),
])
def test_signalling_nan_payload_exits_2(estimation_dir, tmp_path, capfd, recwarn, setup, match):
    # Widening a float32 signalling NaN raises the invalid flag; the reader
    # keeps it quiet so that the finiteness check reports it.
    argv = setup(tmp_path, estimation_dir)
    out = tmp_path / "out"
    code = cli.main(argv + ["--out", str(out)])
    lines = capfd.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {argv[0]}: ")
    assert match in lines[0]
    assert not recwarn.list
    assert not out.exists()


def test_recovered_crf_merges_the_bracket_to_scale(hdr_dir, tmp_path, capsys):
    # hdr-recover's CSV is hdr-merge's input; the merged image matches the
    # ground truth up to the one scale the gauge g(128) = 0 leaves free.
    crf, merged = tmp_path / "crf.csv", tmp_path / "merged.pfm"
    bracket = str(hdr_dir / "bracket.json")
    assert cli.main(["hdr-recover", "--bracket", bracket, "--out", str(crf)]) == 0
    assert cli.main(["hdr-merge", "--bracket", bracket, "--crf", str(crf),
                     "--out", str(merged)]) == 0
    gt = read_pfm(str(hdr_dir / "hdr_gt.pfm")).pixels
    ratio = read_pfm(str(merged)).pixels[gt > 0] / gt[gt > 0]
    p5, p95 = np.percentile(ratio, [5, 95])
    assert 4.475 <= p5 and p95 < 4.585
    assert capsys.readouterr().err == ""


def test_estimated_emitters_light_a_scene(estimation_dir, tmp_path, capsys, monkeypatch):
    # estimate-emitters' JSON is read back as a scene's emitters and lights
    # a fog in the room, with a panel between the fog and the ceiling lights.
    pruned, real_prune = [], emitters.prune_emitters

    def prune(*args):
        pruned.append(real_prune(*args))
        return pruned[-1]

    monkeypatch.setattr(emitters, "prune_emitters", prune)
    d = tmp_path / "room"
    shutil.copytree(estimation_dir, d)
    assert cli.main(estimate_args(d) + ["--out", str(d / "emitters.json")]) == 0
    assert len(pruned) == 1 and len(pruned[0]) > 0

    save_rfgrid(str(d / "fog.rfgrid"),
                RadianceGrid.constant((-0.9, -0.9, -0.9), (0.9, 0.9, 0.7), 0.5, (0.2, 0.2, 0.2)))
    v, f = assets.quad((-0.4, -0.4, 0.8), (0.8, 0.0, 0.0), (0.0, 0.8, 0.0))
    save_obj(str(d / "panel.obj"), v, f)
    doc = json.loads((d / "room.json").read_text())
    doc["field"] = {"path": "fog.rfgrid"}
    doc["meshes"].append({"path": "panel.obj",
                          "bsdf": {"type": "lambertian", "albedo": [0.5, 0.5, 0.5]}})
    doc["emitters"] = "emitters.json"
    (d / "lit.json").write_text(json.dumps(doc))

    got = load_scene(str(d / "lit.json")).emitters
    assert np.array_equal(got.triangles, pruned[0].triangles)
    assert np.array_equal(got.r_src, pruned[0].r_src)
    out = tmp_path / "lit.pfm"
    assert cli.main(["render", "--scene", str(d / "lit.json"), "--out", str(out), "--hdr",
                     "--spp", "1"]) == 0
    assert np.all(np.isfinite(read_pfm(str(out)).pixels))
    assert capsys.readouterr().err == ""


def test_transport_over_the_byte_cap_exits_2(estimation_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(emitters, "TRANSPORT_BYTE_CAP", 1)
    out = tmp_path / "emitters.json"
    code, err = run_cli(capsys, *estimate_args(estimation_dir), "--out", str(out))
    lines = err.splitlines()
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith("error: estimate-emitters: dense transport operator would need ")
    assert not out.exists()


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_max_depth_below_one_exits_2(estimation_dir, tmp_path, capsys, depth):
    # Depth 0 traced no path at all and failed later as an all-zero operator.
    out = tmp_path / "emitters.json"
    code, err = run_cli(capsys, *estimate_args(estimation_dir), "--out", str(out),
                        "--max-depth", depth)
    assert code == 2
    assert err.splitlines() == [f"error: estimate-emitters: max_depth must be >= 1, got {depth}"]
    assert not out.exists()


@pytest.mark.parametrize("coord", ["nan", "inf"])
def test_non_finite_obj_vertex_exits_2(tmp_path, capfd, recwarn, coord):
    # A NaN vertex used to reach the field lookup as an index and end in a
    # traceback.
    assets.gen_two_room(str(tmp_path))
    ball = tmp_path / "two_room_ball.obj"
    lines = ball.read_text().splitlines()
    assert lines[0].startswith("v ")
    ball.write_text("\n".join([f"v {coord} 0 0"] + lines[1:]) + "\n")
    out = tmp_path / "out.pfm"
    code = cli.main(["render", "--scene", str(tmp_path / "two_room.json"), "--out", str(out),
                     "--hdr", "--width", "8", "--height", "8", "--spp", "1"])
    assert code == 2
    assert capfd.readouterr().err.splitlines() == [
        "error: render: obj line 1: vertex coordinates must be finite"]
    assert not recwarn.list
    assert not out.exists()


@pytest.mark.parametrize("preset", ["smoke-slab", "sphere", "drop"])
def test_gen_assets_writes_the_files_it_prints(tmp_path, capsys, preset):
    out = tmp_path / "out"
    assert cli.main(["gen-assets", preset, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    printed = [pathlib.Path(p) for p in captured.out.splitlines()]
    assert printed and captured.err == ""
    for path in printed:
        assert path.parent == out and path.stat().st_size > 0
        if path.suffix == ".json":
            load_scene(str(path))  # a printed scene loads with the files written beside it


def test_gen_assets_unknown_preset_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, err = run_cli(capsys, "gen-assets", "no-such-preset", "--out", str(out))
    lines = err.splitlines()
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith("error: gen-assets: unknown preset 'no-such-preset'")
    assert all(name in lines[0] for name in assets.PRESETS)
    assert not out.exists()


def test_gen_assets_out_below_a_regular_file_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, err = run_cli(capsys, "gen-assets", "smoke-slab", "--out", str(blocker / "out"))
    lines = err.splitlines()
    assert code == 4 and len(lines) == 1 and lines[0].startswith("error: gen-assets: ")


# The CLI contract over all six subcommands: option values that are zero,
# negative, huge or NaN, and an input file missing or cut short. Sizes stay
# small where the work grows with the value (spp, image size, frames,
# epochs, depth, samples), so a run is quick; huge values go where it does
# not (the seed), and threads stay few.
bad_ints = st.sampled_from(["0", "-1", str(-2**63), str(-10**30)])
huge_ints = st.sampled_from([str(2**63), str(2**64), str(10**30)])
any_floats = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.0", "5e-324", "1e300",
                              "0.5", "3"])


def cli_option(name, valid, *more):
    return st.none() | cli_size(name, valid, *more)


def cli_size(name, valid, *more):
    """An option always given: its default would be a larger run."""
    return st.tuples(st.just(name), st.one_of(valid, bad_ints, *more))


def up_to(n):
    return st.integers(1, n).map(str)


render_options = [cli_size("--spp", up_to(2)), cli_option("--seed", up_to(9), huge_ints),
                  cli_size("--width", up_to(8)), cli_size("--height", up_to(8)),
                  cli_option("--threads", up_to(2))]
# command: (arguments, options, flags, input files). A path is a
# (directory, file) tuple under the copied presets, and SCENE is drawn from
# the command's input scene files.
CLI_COMMANDS = {
    "render": (["--scene", "SCENE"], render_options, ["--hdr"],
               [("slab", "slab.json"), ("slab", "slab.rfgrid"), ("drop", "drop.json"),
                ("drop", "ball.obj"), ("drop", "floor.obj"), ("drop", "glow.rfgrid")]),
    "simulate": (["--scene", "SCENE"], render_options + [cli_size("--frames", up_to(2))],
                 ["--hdr", "--render-frames"],
                 [("drop", "drop.json"), ("drop", "ball.obj"), ("drop", "floor.obj"),
                  ("field_hit", "field_hit.json"), ("field_hit", "ball.obj"),
                  ("field_hit", "blob.rfgrid")]),
    "hdr-recover": (["--bracket", ("hdr", "bracket.json")],
                    [cli_option("--smoothness", any_floats), cli_option("--samples", up_to(300))],
                    [], [("hdr", "bracket.json")] + [("hdr", f"bracket_0{i}.ppm") for i in range(5)]),
    "hdr-merge": (["--bracket", ("hdr", "bracket.json"), "--crf", ("hdr", "crf.csv")], [],
                  ["--normalize", "--downsample4"],
                  [("hdr", "bracket.json"), ("hdr", "crf.csv"), ("hdr", "bracket_02.ppm")]),
    "estimate-emitters": (["--scene", ("room", "room.json"), "--poses", ("room", "poses.json"),
                           "--gt-dir", ("room",)],
                          [cli_option("--alpha", any_floats), cli_size("--epochs", up_to(20)),
                           cli_option("--threshold", any_floats),
                           cli_size("--max-depth", up_to(2))], [],
                          [("room", "room.json"), ("room", "room.obj"), ("room", "poses.json")]
                          + [("room", f"gt_000{i}.pfm") for i in (0, 7)]),
    "gen-assets": ([st.sampled_from(["sphere", "smoke-slab", "drop", "no-such", ""])], [], [], []),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory, slab_dir, hdr_dir, estimation_dir, field_hit_dir):
    d = tmp_path_factory.mktemp("cli_contract")
    for name, src in (("slab", slab_dir), ("hdr", hdr_dir), ("room", estimation_dir),
                      ("field_hit", field_hit_dir)):
        shutil.copytree(src, d / name)
    assets.gen_drop(str(d / "drop"))
    save_crf_csv(d / "hdr" / "crf.csv", crf_table())
    return d


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_0_2_3_or_4_with_one_error_line(cli_inputs, tmp_path, capfd, data):
    d = cli_inputs
    cmd = data.draw(st.sampled_from(sorted(CLI_COMMANDS)), label="command")
    args, options, flags, inputs = CLI_COMMANDS[cmd]
    argv = [cmd]
    for a in args:
        a = data.draw(a) if isinstance(a, st.SearchStrategy) else a
        if a == "SCENE":
            a = data.draw(st.sampled_from([f for f in inputs if f[1].endswith(".json")]))
        argv.append(str(d.joinpath(*a)) if isinstance(a, tuple) else a)
    out = tmp_path / ("out.csv" if cmd == "hdr-recover" else "out")
    argv += ["--out", str(out)]
    for option in options:
        argv += data.draw(option) or []
    argv += [f for f in flags if data.draw(st.booleans())]
    cut = (st.tuples(st.sampled_from(inputs), st.floats(0.0, 1.0, exclude_max=True))
           if inputs else st.nothing())
    damage = data.draw(st.none() | cut, label="input file, deleted (0) or cut to a fraction")
    capfd.readouterr()
    backup = None
    if damage:
        path = d.joinpath(*damage[0])
        backup = path.read_bytes()
        if damage[1] == 0.0:
            path.unlink()
        else:
            path.write_bytes(backup[:int(len(backup) * damage[1])])
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        if backup is not None:
            path.write_bytes(backup)
        shutil.rmtree(out) if out.is_dir() else out.unlink(missing_ok=True)
    err = capfd.readouterr().err.splitlines()
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err) == 1 and err[0].startswith(f"error: {cmd}: "), err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("argv, match", [
    (["render", "--scene", "x.json", "--spp", "abc"],
     "error: render: argument --spp: invalid int value: 'abc'"),
    (["render"], "error: render: the following arguments are required: --scene"),
    (["bogus"], "error: hybridrt: argument command: invalid choice: 'bogus'"),
], ids=["bad-int", "missing-scene", "unknown-subcommand"])
def test_usage_error_is_one_line_and_exits_2(capsys, argv, match):
    code, err = run_cli(capsys, *argv)
    lines = err.splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith(match)


@pytest.mark.parametrize("argv", [["-h"], ["render", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hybridrt")



# The CLI contract over the scene JSON: a NaN, a value of another JSON kind
# or a missing key anywhere in a scene's camera, render, emitters, sim,
# field or meshes, or anywhere in a pose file, at 4x4 and one sample per
# pixel; in a field or the meshes, also a number of magnitude up to 1e300.
# (directory, file, section path): the sections, in copied presets.
SCENE_JSON_SECTIONS = [
    ("two_room", "two_room.json", ("camera",)),
    ("two_room", "two_room.json", ("render",)),
    ("two_room", "two_room.json", ("emitters",)),
    ("two_room", "two_room.json", ("meshes", 0, "bsdf")),
    ("two_room", "two_room.json", ("meshes", 1, "bsdf")),
    ("drop", "drop.json", ("sim",)),
    ("room", "poses.json", ()),
    ("drop", "drop.json", ("field",)),
    ("drop", "drop.json", ("meshes",)),
    ("field_hit", "field_hit.json", ("field",)),
    ("field_hit", "field_hit.json", ("meshes",)),
]
# Keys the presets leave out, added so that every field and mesh key has a
# value to edit: (directory, file, object path, keys).
SCENE_JSON_EXTRA_KEYS = [
    ("drop", "drop.json", ("meshes", 0),
     {"emission": [0.5, 0.5, 0.5],
      "transform": {"translate": [0.0, 0.0, 2.0], "rotate_axis": [0.0, 1.0, 0.0],
                    "rotate_deg": 10.0}}),
    ("drop", "drop.json", ("meshes", 1),
     {"transform": {"translate": [0.0, 0.0, 0.0], "rotate_axis": [1.0, 0.0, 0.0],
                    "rotate_deg": 5.0}}),
    ("field_hit", "field_hit.json", ("field",),
     {"transform": {"translate": [0.0, 0.0, 0.1], "rotate_axis": [0.0, 0.0, 1.0],
                    "rotate_deg": 20.0}}),
]
OTHER_KIND = {bool: "x", int: "x", float: "x", str: 1.5, list: {"x": 1.0}, dict: [1.0]}


def json_paths(x, path=()):
    """Every path into a JSON value, its own first."""
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from json_paths(v, path + (k,))


def json_at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@pytest.fixture(scope="module")
def scene_json_inputs(tmp_path_factory, two_room_dir, estimation_dir, field_hit_dir):
    d = tmp_path_factory.mktemp("scene_json")
    shutil.copytree(two_room_dir, d / "two_room")
    shutil.copytree(estimation_dir, d / "room")
    shutil.copytree(field_hit_dir, d / "field_hit")
    assets.gen_drop(str(d / "drop"))
    for name, file, path, keys in SCENE_JSON_EXTRA_KEYS:
        doc = json.loads((d / name / file).read_text())
        json_at(doc, path).update(keys)
        (d / name / file).write_text(json.dumps(doc))
    return d


def run_edited(d, name, doc, out, capfd):
    """(exit code, stderr lines, warnings) of a 4x4, one-sample run on doc,
    written beside the preset it edits: a render of two-room, one rendered
    frame of drop or field-hit, or an estimation with doc as the pose
    file."""
    edited = d / name / "edited.json"
    edited.write_text(json.dumps(doc))
    small = ["--width", "4", "--height", "4", "--spp", "1"]
    frame = ["simulate", "--scene", str(edited), "--frames", "1", "--render-frames"] + small
    argv = {"two_room": ["render", "--scene", str(edited)] + small,
            "drop": frame, "field_hit": frame,
            "room": ["estimate-emitters", "--scene", str(d / name / "room.json"),
                     "--poses", str(edited), "--gt-dir", str(d / name), "--epochs", "1",
                     "--max-depth", "1"]}[name]
    capfd.readouterr()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + ["--out", str(out)])
    finally:
        shutil.rmtree(out) if out.is_dir() else out.unlink(missing_ok=True)
    return code, capfd.readouterr().err.splitlines(), [str(w.message) for w in caught]


@settings(max_examples=160, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_scene_json_values_exit_0_or_2_with_one_error_line(scene_json_inputs, tmp_path,
                                                            capfd, data):
    # A NaN or a value of the wrong kind exits 2; a missing key exits 2,
    # or 0 where it has a default. A huge number in a field or a mesh may
    # also run, or exit 3 when it makes the simulation unstable. Each
    # without a warning.
    d = scene_json_inputs
    name, file, section = data.draw(st.sampled_from(SCENE_JSON_SECTIONS), label="section")
    doc = json.loads((d / name / file).read_text())
    paths = [section + p for p in json_paths(json_at(doc, section))]
    path = data.draw(st.sampled_from(paths), label="path")
    value = json_at(doc, path)
    huge = section[:1] in (("field",), ("meshes",)) and type(value) is float
    edit = data.draw(st.sampled_from(["nan", "other kind"] + ["missing"] * bool(path)
                                     + ["huge"] * huge), label="edit")
    if edit == "huge":
        value = data.draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** data.draw(st.integers(0, 300))
    elif edit != "missing":
        value = float("nan") if edit == "nan" else OTHER_KIND[type(value)]
    if not path:
        doc = value
    elif edit == "missing":
        del json_at(doc, path[:-1])[path[-1]]
    else:
        json_at(doc, path[:-1])[path[-1]] = value
    cmd = {"two_room": "render", "drop": "simulate", "field_hit": "simulate",
           "room": "estimate-emitters"}[name]
    code, err, caught = run_edited(d, name, doc, tmp_path / "out", capfd)
    assert code in {"missing": (0, 2), "huge": (0, 2, 3)}.get(edit, (2,)), err
    if code:
        assert len(err) == 1 and err[0].startswith(f"error: {cmd}: "), err
    assert not caught, caught


@pytest.mark.parametrize("edit, match", [
    (lambda doc: doc["field"].update(transform={"translate": [1e200, 0, 0]}),
     "scene diagonal overflows: the field and meshes span [-2.0, -1.0, -1.0] to "
     "[1e+200, 1.0, 1.0]"),
    (lambda doc: doc["emitters"][1].update(triangle=[[1e300, 0, 0], [0, 1e300, 0],
                                                     [0, 0, 1e300]]),
     "emitters[1].triangle: area overflows"),
    (lambda doc: doc["meshes"][1].update(transform={"translate": [1e200, 0, 0]}),
     "mesh 'two_room_ball': vertex coordinates of magnitude 1e+200 overflow when squared"),
], ids=["field", "emitter", "mesh"])
def test_overflowing_placement_exits_2(scene_json_inputs, tmp_path, capfd, edit, match):
    # Each once overflowed with RuntimeWarnings: a field placed at 1e200
    # made the spawn offset inf and failed in the march, an emitter at
    # 1e300 rendered with a NaN area CDF and exited 0, and a mesh at 1e200
    # was called degenerate because its zero-area bound overflowed.
    d = scene_json_inputs
    doc = json.loads((d / "two_room" / "two_room.json").read_text())
    edit(doc)
    code, err, caught = run_edited(d, "two_room", doc, tmp_path / "out", capfd)
    assert code == 2 and err == [f"error: render: {match}"] and not caught


@pytest.mark.parametrize("floor", ["open", "flat"])
def test_collider_mesh_around_no_volume_exits_2(tmp_path, capfd, floor):
    # A collider is the solid its surface encloses. An open floor quad
    # encloses none, and the bake raises ValueError on it; a quad with its
    # back face added is closed but flat.
    assets.gen_drop(str(tmp_path))
    v, f = assets.quad((-3, -3, 0), (6, 0, 0), (0, 6, 0))
    save_obj(tmp_path / "floor.obj", v, f if floor == "open" else np.vstack([f, f[:, ::-1]]))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["simulate", "--scene", str(tmp_path / "drop.json"), "--frames", "1",
                         "--out", str(out)])
    assert code == 2 and not caught
    assert capfd.readouterr().err.splitlines() == [
        "error: simulate: mesh 'floor': a collider must be closed, consistently oriented "
        "and enclose a volume"]
    assert not out.exists()


def test_march_step_beyond_int64_substeps_exits_2(scene_json_inputs, tmp_path, capfd):
    # A march step of 1e-300 once rendered two-room with one substep per
    # segment, after a RuntimeWarning, and exited 0.
    d = scene_json_inputs
    doc = json.loads((d / "two_room" / "two_room.json").read_text())
    doc["render"]["march_step"] = 1e-300
    code, err, caught = run_edited(d, "two_room", doc, tmp_path / "out", capfd)
    assert code == 2 and len(err) == 1, err
    assert err[0].startswith("error: render: march step 1e-300 gives ") and not caught
