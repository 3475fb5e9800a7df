"""Image and tensor persistence.

Two normative byte layouts live here:

* P6 binary PPM for images: exactly ``P6\\n<W> <H>\\n255\\n`` (W, H >= 1),
  then H x W x 3 bytes, row-major RGB.
* ``PLTA`` archives: a counted sequence of named PLTF tensor records, the
  only place PLTF records occur. A record is magic ``PLTF``, u16 version
  (little-endian), u8 dtype (0 = float64), u8 rank, rank x u64 dims
  (little-endian), then the payload as row-major little-endian float64.

All round trips are bit-exact and all parsers reject trailing garbage.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .numerics import Rng, as_f64

def save_ppm(image: np.ndarray, path) -> None:
    """Write a C x H x W uint image (values in [0, 255]) as binary P6."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise FormatError(f"expected 3xHxW image, got shape {image.shape}")
    c, h, w = image.shape
    data = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.transpose(1, 2, 0).tobytes())


# The one header save_ppm writes: W and H >= 1, without leading zeros and at
# most 18 digits each (int() refuses numbers past 4,300 digits).
_PPM_HEADER = re.compile(rb"P6\n([1-9][0-9]{0,17}) ([1-9][0-9]{0,17})\n255\n")


def load_ppm(path) -> np.ndarray:
    """Read a P6 PPM as save_ppm writes it into a 3 x H x W float array of
    [0, 255] values."""
    raw = Path(path).read_bytes()
    header = _PPM_HEADER.match(raw)
    if header is None:
        raise FormatError(rf"{path}: PPM header is not P6\n<W> <H>\n255\n with W, H >= 1")
    w, h = map(int, header.groups())
    payload = raw[header.end():]
    if len(payload) != w * h * 3:
        raise FormatError(f"{path}: payload size {len(payload)} != {w * h * 3}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
    return pixels.transpose(2, 0, 1).astype(np.float64)


def denormalize(image: np.ndarray) -> np.ndarray:
    """Map [-1, 1] back to integer [0, 255]; clamps, then rounds half up."""
    x = np.clip(as_f64(image), -1.0, 1.0)
    return np.floor((x + 1.0) * 127.5 + 0.5)


class Batch:
    """Images in [-1, 1] with integer class labels."""

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        self.images = as_f64(images)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise FormatError(f"expected M x C x H x W images, got {self.images.shape}")
        if self.images.shape[0] != self.labels.shape[0]:
            raise FormatError("images and labels disagree on batch size")

    @property
    def size(self) -> int:
        return self.images.shape[0]


def synth_batch(m: int, model_cfg, seed: int, kind: str = "uniform") -> Batch:
    """Deterministic synthetic batch of m >= 1 images: i.i.d. uniform pixels
    (kind "uniform") or smooth fields (kind "smooth")."""
    c, h, w = model_cfg.C, model_cfg.H, model_cfg.W
    rng = Rng(seed)
    if kind == "uniform":
        images = rng.uniform(m * c * h * w).reshape(m, c, h, w) * 2.0 - 1.0
    else:  # smooth
        # Three sine waves per (image, channel). Rng is counter-based, so one
        # draw of 12 numbers per (image, channel) -- amp, fy, fx, phase for
        # each wave -- is the same stream as drawing them one at a time.
        u = rng.uniform(m * c * 12).reshape(m, c, 3, 4, 1, 1)
        amp = 0.5 + 0.5 * u[:, :, :, 0]
        fy, fx = 0.25 + 1.75 * u[:, :, :, 1], 0.25 + 1.75 * u[:, :, :, 2]
        phase = 2.0 * np.pi * u[:, :, :, 3]
        ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        waves = amp * np.sin(2.0 * np.pi * (fy * ys + fx * xs) / h + phase)
        field = waves[:, :, 0] + waves[:, :, 1] + waves[:, :, 2]
        lo = field.min(axis=(2, 3), keepdims=True)
        hi = field.max(axis=(2, 3), keepdims=True)
        images = 2.0 * (field - lo) / (hi - lo) - 1.0
    labels = rng.integers(0, model_cfg.num_classes, m)
    return Batch(images, labels)


_TENSOR_MAGIC = b"PLTF"
_TENSOR_VERSION = 1
_ARCHIVE_MAGIC = b"PLTA"
_ARCHIVE_VERSION = 1


def _tensor_bytes(t: np.ndarray) -> bytes:
    t = as_f64(t)
    head = _TENSOR_MAGIC + struct.pack("<HBB", _TENSOR_VERSION, 0, t.ndim)
    dims = struct.pack(f"<{t.ndim}Q", *t.shape) if t.ndim else b""
    return head + dims + np.ascontiguousarray(t).astype("<f8").tobytes()


def _tensor_from(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    if buf[offset : offset + 4] != _TENSOR_MAGIC:
        raise FormatError("bad tensor magic")
    offset += 4
    if offset + 4 > len(buf):
        raise FormatError("truncated tensor header")
    version, dtype, rank = struct.unpack_from("<HBB", buf, offset)
    offset += 4
    if version != _TENSOR_VERSION:
        raise FormatError(f"unsupported tensor version {version}")
    if dtype != 0:
        raise FormatError(f"unsupported dtype code {dtype}")
    if offset + 8 * rank > len(buf):
        raise FormatError("truncated dims")
    dims = struct.unpack_from(f"<{rank}Q", buf, offset) if rank else ()
    offset += 8 * rank
    count = math.prod(dims)  # Python ints: a uint64 product could wrap to 0
    nbytes = 8 * count
    if offset + nbytes > len(buf):
        raise FormatError("truncated payload")
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    try:
        data = data.reshape(dims)
    except ValueError as exc:  # e.g. (0, 2**63) or rank > 64: no ndarray has it
        raise FormatError(f"unsupported dims {dims}") from exc
    return data.astype(np.float64), offset + nbytes


def write_tensor_archive(tensors: dict[str, np.ndarray], path) -> None:
    """Named tensor bundle: PLTA, u16 version, u32 count, then (name, record)*."""
    parts = [_ARCHIVE_MAGIC, struct.pack("<HI", _ARCHIVE_VERSION, len(tensors))]
    for name, t in tensors.items():
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(_tensor_bytes(t))
    Path(path).write_bytes(b"".join(parts))


def read_tensor_archive(path) -> dict[str, np.ndarray]:
    buf = Path(path).read_bytes()
    if buf[:4] != _ARCHIVE_MAGIC:
        raise FormatError("bad archive magic")
    if len(buf) < 10:
        raise FormatError("truncated archive header")
    version, count = struct.unpack_from("<HI", buf, 4)
    if version != _ARCHIVE_VERSION:
        raise FormatError(f"unsupported archive version {version}")
    offset = 10
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        if offset + 2 > len(buf):
            raise FormatError("truncated entry name length")
        (nlen,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        try:
            name = buf[offset : offset + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("entry name is not UTF-8") from exc
        offset += nlen
        if name in out:
            raise FormatError(f"repeated archive entry {name!r}")
        out[name], offset = _tensor_from(buf, offset)
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} trailing bytes after archive")
    return out
