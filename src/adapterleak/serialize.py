"""Archive layouts for backbones, adapter sets, and gradient observations.

Everything rides on the named-tensor archive format from dataio; entry
names are stable so archives written by one command are readable by the
others.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .dataio import read_tensor_archive, write_tensor_archive
from .errors import FormatError
from .model import AdapterSet, EncoderParams, FrozenBackbone

# Entry names: the backbone's arrays by field name, "num_encoders", then
# every encoder's arrays as enc<i>_<field>, each in field order.
_BACKBONE_ARRAYS = [f.name for f in fields(FrozenBackbone) if f.name != "encoders"]


def write_backbone(backbone: FrozenBackbone, path) -> None:
    tensors = {name: getattr(backbone, name) for name in _BACKBONE_ARRAYS}
    tensors["num_encoders"] = np.array(float(len(backbone.encoders)))
    for i, enc in enumerate(backbone.encoders):
        tensors.update((f"enc{i}_{f.name}", getattr(enc, f.name)) for f in fields(enc))
    write_tensor_archive(tensors, path)


def _count(t: dict, name: str, low: int) -> int:
    """A scalar entry that must hold an integer >= ``low``."""
    v = t[name]
    if v.ndim != 0 or not np.isfinite(v) or v != np.floor(v) or v < low:
        raise FormatError(f"entry {name!r} must be an integer >= {low}, got {v!r}")
    return int(v)


def _adapter_tensors(t: dict, kind: str) -> AdapterSet:
    """The adapter set's entries, checked to agree on (A, r, D)."""
    try:
        ads = AdapterSet(**{f.name: t[f.name] for f in fields(AdapterSet)})
    except KeyError as exc:
        raise FormatError(f"{kind} archive missing entry {exc}") from exc
    if ads.w_down.ndim != 3:
        raise FormatError(f"{kind} w_down must be (A, r, D), got shape {ads.w_down.shape}")
    a, r, d = ads.w_down.shape
    if (ads.b_down.shape != (a, r) or ads.w_up.shape != (a, d, r)
            or ads.b_up.shape != (a, d)):
        raise FormatError(f"{kind} tensors disagree with (A, r, D) = {(a, r, d)}")
    return ads


def read_backbone(path) -> FrozenBackbone:
    t = read_tensor_archive(path)
    try:
        encoders = [EncoderParams(**{f.name: t[f"enc{i}_{f.name}"] for f in fields(EncoderParams)})
                    for i in range(_count(t, "num_encoders", 0))]
        return FrozenBackbone(encoders=encoders, **{name: t[name] for name in _BACKBONE_ARRAYS})
    except KeyError as exc:
        raise FormatError(f"backbone archive missing entry {exc}") from exc


def write_adapters(adapters: AdapterSet, path) -> None:
    write_tensor_archive(adapters.tensors(), path)


def write_gradients(grads: AdapterSet, batch_size: int, path) -> None:
    write_tensor_archive({**grads.tensors(),
                          "batch_size": np.array(float(batch_size))}, path)


def read_gradients(path) -> tuple[AdapterSet, int]:
    t = read_tensor_archive(path)
    grads = _adapter_tensors(t, "gradient")
    try:
        return grads, _count(t, "batch_size", 1)
    except KeyError as exc:
        raise FormatError(f"gradient archive missing entry {exc}") from exc
