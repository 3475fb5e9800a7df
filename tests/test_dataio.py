import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from adapterleak import dataio
from adapterleak.errors import FormatError
from adapterleak.model import ModelConfig
from adapterleak.numerics import Rng


class TestPpm:
    def test_round_trip_random(self, tmp_path):
        rng = Rng(1)
        img = np.floor(rng.uniform(3 * 5 * 7).reshape(3, 5, 7) * 256).clip(0, 255)
        path = tmp_path / "x.ppm"
        dataio.save_ppm(img, path)
        again = dataio.load_ppm(path)
        assert np.array_equal(img, again)
        dataio.save_ppm(again, tmp_path / "y.ppm")
        assert (tmp_path / "x.ppm").read_bytes() == (tmp_path / "y.ppm").read_bytes()

    def test_single_white_pixel(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        img = dataio.load_ppm(path)
        assert img.shape == (3, 1, 1)
        assert np.all(img == 255.0)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            dataio.load_ppm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            dataio.load_ppm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(FormatError):
            dataio.load_ppm(path)


class TestNormalize:
    # denormalize inverts x / 127.5 - 1, the [0, 255] -> [-1, 1] pixel map
    def test_endpoints(self):
        assert dataio.denormalize(np.array(1.0)) == 255.0
        assert dataio.denormalize(np.array(-1.0)) == 0.0

    def test_near_midpoint(self):
        assert float(dataio.denormalize(np.array(128 / 127.5 - 1.0))) == 128.0

    def test_integer_round_trip_exhaustive(self):
        vals = np.arange(256.0)
        back = dataio.denormalize(vals / 127.5 - 1.0)
        assert np.array_equal(back, vals)

    def test_denormalize_clamps(self):
        assert float(dataio.denormalize(np.array(1.7))) == 255.0
        assert float(dataio.denormalize(np.array(-3.0))) == 0.0


class TestSynthBatch:
    def test_same_seed_identical(self):
        cfg = ModelConfig()
        a = dataio.synth_batch(4, cfg, seed=9, kind="smooth")
        b = dataio.synth_batch(4, cfg, seed=9, kind="smooth")
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_uniform_moments(self):
        cfg = ModelConfig()
        batch = dataio.synth_batch(64, cfg, seed=3, kind="uniform")  # 64*192 > 1e4
        assert abs(batch.images.mean()) < 0.02
        assert batch.images.min() >= -1.0 and batch.images.max() <= 1.0

    def test_smooth_in_range(self):
        batch = dataio.synth_batch(3, ModelConfig(), seed=5, kind="smooth")
        assert batch.images.min() >= -1.0 and batch.images.max() <= 1.0

    # sha256(images.tobytes() + labels.tobytes())[:16] of kind="smooth",
    # measured on the scalar per-(image, channel, wave) loop below.
    @pytest.mark.parametrize("m, cfg, seed, digest", [
        (16, ModelConfig(), 11, "255939286c00bae9"),
        (256, ModelConfig(), 999, "783b51ada2b9e609"),
        (3, ModelConfig(H=8, W=16), 5, "6945c520ca2e32b7"),
        (2, ModelConfig(C=1), 2**63 + 5, "2fb17b4f0ac5ac98"),
    ])
    def test_smooth_bytes_pinned(self, m, cfg, seed, digest):
        batch = dataio.synth_batch(m, cfg, seed=seed, kind="smooth")
        raw = batch.images.tobytes() + batch.labels.tobytes()
        assert hashlib.sha256(raw).hexdigest()[:16] == digest

    @pytest.mark.parametrize("m, cfg, seed", [
        (1, ModelConfig(), 0), (5, ModelConfig(H=8, W=16), 2**64 - 1),
        (4, ModelConfig(C=1), 123),
    ])
    def test_smooth_matches_scalar_loop(self, m, cfg, seed):
        batch = dataio.synth_batch(m, cfg, seed=seed, kind="smooth")
        images, labels = _smooth_reference(m, cfg, seed)
        assert batch.images.tobytes() == images.tobytes()
        assert batch.labels.tobytes() == labels.tobytes()


def _smooth_reference(m, cfg, seed):
    """The scalar loop: four RNG draws per (image, channel, wave)."""
    c, h, w = cfg.C, cfg.H, cfg.W
    rng = Rng(seed)
    images = np.empty((m, c, h, w))
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for i in range(m):
        for ch in range(c):
            field = np.zeros((h, w))
            for _ in range(3):
                amp = 0.5 + 0.5 * rng.uniform(1)[0]
                fy, fx = 0.25 + 1.75 * rng.uniform(2)
                phase = 2.0 * np.pi * rng.uniform(1)[0]
                field += amp * np.sin(2.0 * np.pi * (fy * ys + fx * xs) / h + phase)
            lo, hi = field.min(), field.max()
            images[i, ch] = 2.0 * (field - lo) / (hi - lo) - 1.0
    return images, rng.integers(0, cfg.num_classes, m)


def _one_record(path, t: np.ndarray) -> int:
    """Write ``t`` as an archive's one record; return the record's offset."""
    dataio.write_tensor_archive({"t": t}, path)
    return path.read_bytes().index(b"PLTF")


class TestTensorFile:
    def test_empty_tensor_round_trip(self, tmp_path):
        path = tmp_path / "t.plta"
        _one_record(path, np.empty(0))
        out = dataio.read_tensor_archive(path)["t"]
        assert out.shape == (0,)

    def test_random_3d_round_trip_bit_exact(self, tmp_path):
        rng = Rng(2)
        t = rng.normal(0, 1e9, 30).reshape(2, 3, 5)
        path = tmp_path / "t.plta"
        _one_record(path, t)
        out = dataio.read_tensor_archive(path)["t"]
        assert out.shape == t.shape
        assert np.array_equal(out.view(np.uint64), t.view(np.uint64))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.plta"
        _one_record(path, np.ones(4))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "t.plta"
        _one_record(path, np.ones(4))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.plta"
        record = _one_record(path, np.ones(2))
        raw = bytearray(path.read_bytes())
        raw[record] = ord(b"Q")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)

    def test_bad_version_and_dtype(self, tmp_path):
        path = tmp_path / "t.plta"
        record = _one_record(path, np.ones(2))
        raw = bytearray(path.read_bytes())
        raw[record + 4] = 9  # version little-endian low byte
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)
        record = _one_record(path, np.ones(2))
        raw = bytearray(path.read_bytes())
        raw[record + 6] = 1  # dtype code
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)

    def test_archive_round_trip(self, tmp_path):
        rng = Rng(4)
        tensors = {"a": rng.normal(0, 1, 6).reshape(2, 3), "b": np.array(2.5),
                   "empty": np.empty((0, 4))}
        path = tmp_path / "a.plta"
        dataio.write_tensor_archive(tensors, path)
        out = dataio.read_tensor_archive(path)
        assert set(out) == set(tensors)
        for k in tensors:
            assert np.array_equal(out[k], tensors[k])

    def test_archive_trailing_garbage(self, tmp_path):
        path = tmp_path / "a.plta"
        dataio.write_tensor_archive({"a": np.ones(2)}, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)

    def test_archive_shorter_than_header(self, tmp_path):
        path = tmp_path / "a.plta"
        path.write_bytes(b"PLTA\x01\x00")
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)

    def test_archive_name_not_utf8(self, tmp_path):
        path = tmp_path / "a.plta"
        dataio.write_tensor_archive({"ab": np.ones(2)}, path)
        path.write_bytes(path.read_bytes().replace(b"\x02\x00ab", b"\x02\x00\xff\xfe", 1))
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)

    def test_archive_repeated_entry(self, tmp_path):
        # two entries named "a" must not read back as the last one alone
        path = tmp_path / "a.plta"
        dataio.write_tensor_archive({"a": np.ones(1), "b": np.full(1, 2.0)}, path)
        path.write_bytes(path.read_bytes().replace(b"\x01\x00b", b"\x01\x00a", 1))
        with pytest.raises(FormatError, match="repeated archive entry 'a'"):
            dataio.read_tensor_archive(path)

    # 2^40 * 2^40 wraps to 0 in uint64, so the payload must not look empty;
    # the other dims have their payload (0 or 1 values) but fit no ndarray.
    @pytest.mark.parametrize("dims", [(2**40, 2**40), (0, 2**63), (1,) * 65])
    def test_dims_beyond_ndarray(self, tmp_path, dims):
        path = tmp_path / "a.plta"
        record = (b"PLTF" + struct.pack(f"<HBB{len(dims)}Q", 1, 0, len(dims), *dims)
                  + bytes(8 * min(math.prod(dims), 1)))
        path.write_bytes(b"PLTA" + struct.pack("<HIH", 1, 1, 1) + b"x" + record)
        with pytest.raises(FormatError):
            dataio.read_tensor_archive(path)


def _valid_archive() -> bytes:
    parts = [b"PLTA", struct.pack("<HI", 1, 2)]
    for name, t in (("w", np.arange(6.0).reshape(2, 3)), ("s", np.array(-0.5))):
        parts += [struct.pack("<H", len(name)), name.encode(), b"PLTF",
                  struct.pack("<HBB", 1, 0, t.ndim), struct.pack(f"<{t.ndim}Q", *t.shape),
                  t.astype("<f8").tobytes()]
    return b"".join(parts)


_VALID = _valid_archive()
# Raw bytes, and a valid archive cut short or overwritten with junk at any offset.
_archive_like = st.one_of(
    st.binary(max_size=80),
    st.builds(lambda cut, junk: _VALID[:cut] + junk + _VALID[cut + len(junk):],
              st.integers(0, len(_VALID)), st.binary(max_size=24)),
)
_tensors = st.dictionaries(
    st.text(max_size=6),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=st.floats(width=64)),
    max_size=4,
)


# P6 headers with any width and height text (negative, zero, oversized, past
# int()'s digit limit), any maxval and a tail of random bytes or of exactly
# |W * H| * 3 bytes.
_ppm_dim = st.one_of(st.integers(-3, 4).map(str), st.integers(-2**70, 2**70).map(str),
                     st.sampled_from(["9" * 30, "1" * 5000, "01", "+1"]))


@st.composite
def _ppm_like(draw):
    w, h = draw(_ppm_dim), draw(_ppm_dim)
    maxval = draw(st.sampled_from(["255", "256", "0", "65535", "-1"]))
    header = f"P6\n{w} {h}\n{maxval}\n".encode()
    tail = st.binary(max_size=48)
    if len(w) + len(h) < 40 and abs(int(w) * int(h)) <= 64:
        tail = st.one_of(tail, st.just(b"\x7f" * (3 * abs(int(w) * int(h)))))
    return header + draw(tail), w, h


class TestPpmProperties:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=_ppm_like())
    def test_header_parses_or_format_error(self, case, tmp_path_factory):
        raw, w, h = case
        path = tmp_path_factory.getbasetemp() / "fuzz.ppm"
        path.write_bytes(raw)
        try:
            img = dataio.load_ppm(path)
        except FormatError:
            return
        assert img.shape == (3, int(h), int(w))


class TestArchiveProperties:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(raw=_archive_like)
    def test_arbitrary_bytes_parse_or_format_error(self, raw, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(raw)
        try:
            dataio.read_tensor_archive(path)
        except FormatError:
            pass

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(tensors=_tensors)
    def test_archive_round_trip_bit_exact(self, tensors, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "round.plta"
        dataio.write_tensor_archive(tensors, path)
        out = dataio.read_tensor_archive(path)
        assert list(out) == list(tensors)
        for name, t in tensors.items():
            assert out[name].shape == t.shape
            assert out[name].tobytes() == t.tobytes()
