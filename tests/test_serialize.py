import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from adapterleak.craft import CraftConfig, craft_backbone
from adapterleak.errors import FormatError
from adapterleak.model import AdapterSet, ModelConfig, random_backbone
from adapterleak.numerics import Rng
from adapterleak.serialize import (read_backbone, read_gradients, write_adapters,
                                   write_backbone, write_gradients)
from helpers import read_adapters


def test_backbone_round_trip(tmp_path):
    cfg = ModelConfig()
    bb = craft_backbone(CraftConfig(seed=7), cfg)
    path = tmp_path / "bb.plta"
    write_backbone(bb, path)
    again = read_backbone(path)
    assert np.array_equal(again.embed, bb.embed)
    assert np.array_equal(again.pos, bb.pos)
    assert len(again.encoders) == len(bb.encoders)
    assert np.array_equal(again.encoders[3].w_mlp1, bb.encoders[3].w_mlp1)
    assert np.array_equal(again.w_cls, bb.w_cls)


def test_adapters_round_trip(tmp_path):
    cfg = ModelConfig(D=16, L=2, num_encoders=2, P=4, C=3, H=8, W=8, r=4,
                      num_classes=5)
    ads = AdapterSet.random(cfg, Rng(3), scale=0.3)
    path = tmp_path / "ads.plta"
    write_adapters(ads, path)
    again = read_adapters(path)
    assert len(again) == len(ads)
    for name, t in ads.tensors().items():
        assert np.array_equal(getattr(again, name), t), name


def test_gradients_round_trip(tmp_path):
    cfg = ModelConfig(D=16, L=2, num_encoders=2, P=4, C=3, H=8, W=8, r=4,
                      num_classes=5)
    g = AdapterSet.zeros(cfg)
    g.w_down += Rng(4).normal(0, 1e-10, g.w_down.size).reshape(g.w_down.shape)
    path = tmp_path / "g.plta"
    write_gradients(g, 7, path)
    again, m = read_gradients(path)
    assert m == 7
    assert np.array_equal(again.w_down.view(np.uint64), g.w_down.view(np.uint64))


def test_missing_entry_rejected(tmp_path):
    from adapterleak.dataio import write_tensor_archive

    path = tmp_path / "bad.plta"
    write_tensor_archive({"w_down": np.zeros((1, 2, 3))}, path)
    with pytest.raises(FormatError):
        read_gradients(path)


def _adapter_entries(a=2, r=3, d=4):
    return {"w_down": np.zeros((a, r, d)), "b_down": np.zeros((a, r)),
            "w_up": np.zeros((a, d, r)), "b_up": np.zeros((a, d))}


def _backbone_entries(n_enc):
    cfg = ModelConfig(D=16, L=2, num_encoders=1, P=4, C=3, H=8, W=8, r=4,
                      num_classes=5)
    bb = random_backbone(cfg, Rng(5))
    entries = {name: getattr(bb, name) for name in
               ("embed", "class_token", "pos", "ln_f_w", "ln_f_b", "w_cls", "b_cls")}
    for i, enc in enumerate(bb.encoders):
        entries.update({f"enc{i}_{k}": v for k, v in vars(enc).items()})
    entries["num_encoders"] = np.asarray(n_enc, dtype=float)
    return entries


@pytest.mark.parametrize("reader,entries", [
    (read_gradients, {**_adapter_entries(), "batch_size": np.ones(2)}),
    (read_gradients, {**_adapter_entries(), "batch_size": np.array(np.nan)}),
    (read_gradients, {**_adapter_entries(), "batch_size": np.array(2.5)}),
    (read_gradients, {**_adapter_entries(), "batch_size": np.array(0.0)}),
    (read_gradients, {**_adapter_entries(), "w_up": np.zeros((2, 3, 4)),
                      "batch_size": np.array(4.0)}),
    (read_backbone, _backbone_entries(np.inf)),
    (read_backbone, _backbone_entries([1.0, 2.0])),
    (read_backbone, _backbone_entries(-1.0)),
    (read_adapters, {k: v.reshape(-1) for k, v in _adapter_entries().items()}),
    (read_adapters, {**_adapter_entries(), "b_down": np.zeros((3, 3))}),
], ids=["batch_size_vector", "batch_size_nan", "batch_size_fraction", "batch_size_zero",
        "grad_shapes_disagree", "num_encoders_inf", "num_encoders_vector",
        "num_encoders_negative", "adapters_1d", "adapter_count_disagrees"])
def test_malformed_entry_rejected(tmp_path, reader, entries):
    from adapterleak.dataio import write_tensor_archive

    path = tmp_path / "bad.plta"
    write_tensor_archive(entries, path)
    with pytest.raises(FormatError):
        reader(path)


_ENTRY_NAMES = sorted({*_adapter_entries(), "batch_size", *_backbone_entries(1)})
_entry_tensor = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(np.array),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements=st.floats(-4, 4)),
)


@st.composite
def _named_archive(draw):
    """Most expected entries, adapter tensors often agreeing on (A, r, D)."""
    a, r, d = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    agreeing = {"w_down": (a, r, d), "b_down": (a, r), "w_up": (a, d, r), "b_up": (a, d)}
    entries = {}
    for name in _ENTRY_NAMES:
        if draw(st.sampled_from([True, True, True, False])):
            if name in agreeing and draw(st.booleans()):
                entries[name] = draw(hnp.arrays(np.float64, agreeing[name],
                                                elements=st.floats(-4, 4)))
            else:
                entries[name] = draw(_entry_tensor)
    return entries


class TestReaderProperties:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(entries=_named_archive())
    def test_readers_raise_only_format_error(self, entries, tmp_path_factory):
        from adapterleak.dataio import write_tensor_archive

        path = tmp_path_factory.getbasetemp() / "named.plta"
        write_tensor_archive(entries, path)
        for read in (read_backbone, read_adapters, read_gradients):
            try:
                read(path)
            except FormatError:
                pass
