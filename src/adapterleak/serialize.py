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

_ENC_FIELDS = ("ln1_w", "ln1_b", "w_q", "b_q", "w_k", "b_k", "w_v", "b_v",
               "w_msa", "ln2_w", "ln2_b", "w_mlp1", "b_mlp1", "w_mlp2", "b_mlp2")


def write_backbone(backbone: FrozenBackbone, path) -> None:
    tensors = {
        "embed": backbone.embed,
        "class_token": backbone.class_token,
        "pos": backbone.pos,
        "ln_f_w": backbone.ln_f_w,
        "ln_f_b": backbone.ln_f_b,
        "w_cls": backbone.w_cls,
        "b_cls": backbone.b_cls,
        "num_encoders": np.array(float(len(backbone.encoders))),
    }
    for i, enc in enumerate(backbone.encoders):
        for name in _ENC_FIELDS:
            tensors[f"enc{i}_{name}"] = getattr(enc, name)
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
        n_enc = _count(t, "num_encoders", 0)
        encoders = [
            EncoderParams(**{name: t[f"enc{i}_{name}"] for name in _ENC_FIELDS})
            for i in range(n_enc)
        ]
        return FrozenBackbone(
            embed=t["embed"], class_token=t["class_token"], pos=t["pos"],
            encoders=encoders, ln_f_w=t["ln_f_w"], ln_f_b=t["ln_f_b"],
            w_cls=t["w_cls"], b_cls=t["b_cls"],
        )
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
