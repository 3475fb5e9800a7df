"""Helpers shared by test modules."""

import numpy as np

from adapterleak.dataio import read_tensor_archive
from adapterleak.errors import ShapeError
from adapterleak.metrics import _ssim_batch
from adapterleak.model import AdapterSet, ModelConfig, random_backbone
from adapterleak.numerics import Rng, as_f64
from adapterleak.serialize import _adapter_tensors


def ssim(a, b, window: int = 8, data_range: float = 2.0) -> float:
    """Uniform-window SSIM of one (C, H, W) or (H, W) image pair, averaged
    over channels and window positions; the window shrinks to the image."""
    a, b = as_f64(a), as_f64(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    return float(_ssim_batch(a[None], b[None], window, data_range)[0])


def read_adapters(path) -> AdapterSet:
    """The adapter set of an archive that ``serialize.write_adapters`` wrote,
    checked by the same validation as the gradient reader."""
    return _adapter_tensors(read_tensor_archive(path), "adapter")


def kink_margin(cache) -> float:
    """Smallest |v| / max(1, max |x|) over every adapter unit and token of a
    forward cache, with v a unit's pre-activation and x the adapter input.

    A step h of one ``w_down`` or ``b_down`` entry moves v by at most h times
    the denominator, so while this exceeds h, the central differences at h
    keep the stepped unit on one linear piece of its ReLU, where they are
    exact.
    """
    return min(float((np.abs(a["v"]) / np.maximum(
        1.0, np.abs(a["input"]).max(axis=-1, keepdims=True))).min())
        for a in (sub["adapter"] for sub in cache.sublayers))


MIXED_SATURATED = (0, 3, 4)  # the encoders mixed_backbone saturates


def mixed_backbone(mc: ModelConfig, rng: Rng):
    """random_backbone with every MLP unit of MIXED_SATURATED's encoders
    biased far past the GELU saturation point."""
    bb = random_backbone(mc, rng)
    for e in MIXED_SATURATED:
        bb.encoders[e].b_mlp1 = np.maximum(bb.encoders[e].b_mlp1, 30.0)
    return bb
