"""Fuzzed bytes into every file reader: each returns a result or raises a
ValueError subclass, which the CLI reports as exit 2, never a traceback.

Inputs are arbitrary bytes, plus bytes shaped like each format's header
(magic, dimensions from -3 to 5, scale and value tokens such as `nan`) so
that the reader gets past its first check.
"""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from hybridrt.field import load_rfgrid
from hybridrt.hdr import load_bracket, load_crf_csv
from hybridrt.images import decode_pfm, decode_ppm, encode_ppm_raw

dims = st.integers(-3, 5)
tokens = st.sampled_from(["0", "1", "-1", "255", "256", "0.5", "-1.0", "nan", "inf", "1e400",
                          "", "x"])

image_files = st.binary(max_size=200) | st.builds(
    lambda magic, w, h, scale, payload: b"%s\n%d %d\n%s\n%s" % (magic, w, h, scale.encode(),
                                                               payload),
    st.sampled_from([b"PF", b"Pf", b"P6"]), dims, dims, tokens, st.binary(max_size=400))


def grid_files(floats_per_sample):
    """A grid header, then about as many payload bytes as it asks for."""

    def with_payload(header):
        n = 4 * floats_per_sample * max(header[0], 0) * max(header[1], 0) * max(header[2], 0)
        return st.binary(min_size=max(n - 1, 0), max_size=n + 1).map(
            lambda payload: struct.pack("<3i6f", *header) + payload)

    box = [st.floats(width=32)] * 6
    return st.binary(max_size=120) | st.tuples(dims, dims, dims, *box).flatmap(with_payload)


crf_files = st.binary(max_size=200) | st.lists(
    st.lists(tokens, min_size=1, max_size=5).map(",".join), max_size=8).map(
    lambda rows: "\n".join(["code,g_r,g_g,g_b", *rows]).encode())

bracket_manifests = st.binary(max_size=200) | st.lists(
    st.fixed_dictionaries({"path": st.sampled_from(["fuzzed.ppm", "ok.ppm"]),
                           "time": st.sampled_from([0.1, 1, 2, -1, float("nan"), "x", None])}),
    max_size=4).map(lambda images: json.dumps({"images": images}).encode())


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("readers")
    (d / "ok.ppm").write_bytes(encode_ppm_raw([[[0, 128, 255]] * 2] * 2))
    return d


def returns_or_raises_value_error(read, arg):
    try:
        read(arg)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=image_files)
def test_fuzzed_images_decode_or_raise_value_error(data):
    returns_or_raises_value_error(decode_pfm, data)
    returns_or_raises_value_error(decode_ppm, data)


@pytest.mark.parametrize("load, files", [(load_rfgrid, grid_files(4)),
                                         (load_crf_csv, crf_files)])
def test_fuzzed_files_load_or_raise_value_error(reader_dir, load, files):
    @settings(max_examples=200, deadline=None)
    @given(data=files)
    def check(data):
        path = reader_dir / "fuzzed.bin"
        path.write_bytes(data)
        returns_or_raises_value_error(load, path)

    check()


@settings(max_examples=200, deadline=None)
@given(manifest=bracket_manifests, image=image_files)
def test_fuzzed_bracket_loads_or_raises_value_error(reader_dir, manifest, image):
    (reader_dir / "fuzzed.ppm").write_bytes(image)
    (reader_dir / "bracket.json").write_bytes(manifest)
    returns_or_raises_value_error(load_bracket, str(reader_dir / "bracket.json"))
