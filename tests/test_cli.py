"""Malformed inputs reach the CLI as one `error: <cmd>: <msg>` line and
exit 2, never a traceback."""

import json
import shutil
import struct

import numpy as np
import pytest

from hybridrt import assets, cli
from hybridrt.hdr import CrfTable, HdrError, load_crf_csv, save_crf_csv
from hybridrt.images import HdrImage, read_pfm, write_pfm


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


@pytest.mark.parametrize("edit, match", [
    (drop_image_key("path"), "images[2]"),
    (drop_image_key("time"), "images[2]"),
    (lambda doc: doc["images"], "'images' list"),
    (nan_image_time, "exposure times must be finite"),
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
    ("render", lambda doc: doc["meshes"][0]["dynamic"].update(pinned=[None]),
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


@pytest.mark.parametrize("cut", ["empty", "header", "payload", "extra"])
def test_render_bad_rfgrid_exits_2(tmp_path, capsys, cut):
    assets.gen_smoke_slab(str(tmp_path))
    grid = tmp_path / "slab.rfgrid"
    data = grid.read_bytes()
    grid.write_bytes({"empty": b"", "header": data[:20], "payload": data[:-7],
                      "extra": data + b"\0"}[cut])
    code, err = run_cli(capsys, "render", "--scene", str(tmp_path / "slab.json"),
                        "--out", str(tmp_path / "out.ppm"))
    assert code == 2
    assert err.startswith("error: render: ") and "slab.rfgrid" in err
    if cut in ("payload", "extra"):
        assert f"needs {len(data)} bytes, file has {len(grid.read_bytes())}" in err


def test_render_bad_sdfgrid_dims_exits_2(tmp_path, capsys):
    assets.gen_drop(str(tmp_path))
    sdf = tmp_path / "plane.sdfgrid"
    data = bytearray(sdf.read_bytes())
    data[4:8] = (0).to_bytes(4, "little")  # ny = 0
    sdf.write_bytes(bytes(data))
    code, err = run_cli(capsys, "render", "--scene", str(tmp_path / "drop.json"),
                        "--out", str(tmp_path / "out.ppm"))
    assert code == 2
    assert "plane.sdfgrid" in err and "must be positive" in err


SNAN_F32 = struct.pack("<I", 0x7FA00000)  # a float32 NaN with the quiet bit clear


def write_snan(path, offset):
    data = bytearray(path.read_bytes())
    data[offset:offset + 4] = SNAN_F32
    path.write_bytes(bytes(data))


def snan_rfgrid(tmp_path, estimation_dir):
    assets.gen_smoke_slab(str(tmp_path))
    write_snan(tmp_path / "slab.rfgrid", struct.calcsize("<3i6f"))
    return ["render", "--scene", str(tmp_path / "slab.json")]


def snan_sdfgrid(tmp_path, estimation_dir):
    assets.gen_drop(str(tmp_path))
    write_snan(tmp_path / "plane.sdfgrid", struct.calcsize("<3i6f"))
    return ["render", "--scene", str(tmp_path / "drop.json")]


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
    pytest.param(snan_sdfgrid, "phi must be finite", id="sdfgrid"),
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
