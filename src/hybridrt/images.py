"""Minimal PFM (float) and PPM P6 (8-bit) image containers.

PFM layout: ``PF\\n<w> <h>\\n<scale>\\n`` then w*h*3 little-endian float32
samples, rows bottom-up (negative scale marks little-endian). PPM P6 is the
usual binary 8-bit RGB, rows top-down. Both writers are byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import tone_map, widen_f32


@dataclass
class HdrImage:
    """Linear-color render target; pixels has shape (h, w, 3) float64."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"HdrImage needs (h, w, 3) pixels, got {self.pixels.shape}")

    @property
    def w(self) -> int:
        return self.pixels.shape[1]

    @property
    def h(self) -> int:
        return self.pixels.shape[0]


def encode_pfm(img: HdrImage) -> bytes:
    header = f"PF\n{img.w} {img.h}\n-1.0\n".encode("ascii")
    data = np.flipud(img.pixels).astype("<f4").tobytes()
    return header + data


def decode_pfm(data: bytes) -> HdrImage:
    # Header is three whitespace-terminated tokens; everything after the
    # third newline is raw samples.
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] not in (b"PF", b"Pf"):
        raise ValueError("not a PFM file")
    if parts[0] == b"Pf":
        raise ValueError("grayscale PFM not supported")
    w, h = (int(tok) for tok in parts[1].split())
    if w < 1 or h < 1:
        raise ValueError(f"PFM header: width and height must be positive, got {w} {h}")
    scale = float(parts[2])
    dtype = "<f4" if scale < 0 else ">f4"
    raw = np.frombuffer(parts[3], dtype=dtype, count=w * h * 3)
    pixels = np.flipud(widen_f32(raw).reshape(h, w, 3))
    return HdrImage(pixels)


def encode_ppm(img: HdrImage) -> bytes:
    """Tone map to sRGB and quantize round-half-up to 8 bits."""
    srgb = tone_map(img.pixels)
    return encode_ppm_raw(np.floor(srgb * 255.0 + 0.5).astype(np.uint8))


def encode_ppm_raw(codes: np.ndarray) -> bytes:
    """P6 bytes from already-quantized uint8 codes of shape (h, w, 3)."""
    codes = np.asarray(codes, dtype=np.uint8)
    h, w = codes.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + codes.tobytes()


def decode_ppm(data: bytes) -> np.ndarray:
    """Read P6 into uint8 codes (h, w, 3). Comments are not supported."""
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise ValueError("not a binary PPM (P6) file")
    w, h = (int(tok) for tok in parts[1].split())
    if w < 1 or h < 1:
        raise ValueError(f"PPM header: width and height must be positive, got {w} {h}")
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError(f"only maxval 255 PPM supported, got {maxval}")
    raw = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3)
    return raw.reshape(h, w, 3).copy()


def write_pfm(path, img: HdrImage) -> None:
    _write(path, encode_pfm(img))


def read_pfm(path) -> HdrImage:
    return decode_pfm(_read(path))


def write_ppm(path, img: HdrImage) -> None:
    _write(path, encode_ppm(img))


def read_ppm(path) -> np.ndarray:
    return decode_ppm(_read(path))


def _write(path, data: bytes) -> None:
    try:
        with open(path, "wb") as f:
            f.write(data)
    except OSError as e:
        raise OSError(f"cannot write image {path}: {e}") from e


def _read(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise OSError(f"cannot read image {path}: {e}") from e
