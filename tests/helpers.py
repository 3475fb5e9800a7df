"""Helpers shared by test modules."""

from adapterleak.errors import ShapeError
from adapterleak.metrics import _ssim_batch
from adapterleak.numerics import as_f64


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
