"""Recovery quality metrics: PSNR over an evaluation set and relative
Frobenius error."""

import math
from dataclasses import dataclass

import numpy as np

from .operators import _norm

__all__ = ["MetricsReport", "psnr", "relative_error"]

PSNR_CAP_DB = 99.0


@dataclass
class MetricsReport:
    """PSNR with its intermediates."""

    psnr_db: float
    se: float
    mse: float
    t_count: int


def _as_channels(x) -> list[np.ndarray]:
    """1 or 3 float64 matrices of one shape; a single matrix is one channel."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        x = [x]
    channels = [np.asarray(c, dtype=np.float64) for c in x]
    if len(channels) not in (1, 3):
        raise ValueError(f"expected 1 or 3 channels, got {len(channels)}")
    if any(c.ndim != 2 or c.shape != channels[0].shape for c in channels):
        raise ValueError("channels must be 2-D matrices of equal shape")
    return channels


def _paired(x, reference) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """x and reference as channel lists, checked to have equal shapes."""
    rec, true = _as_channels(x), _as_channels(reference)
    if len(rec) != len(true) or rec[0].shape != true[0].shape:
        raise ValueError(f"shape mismatch {[r.shape for r in rec]} vs {[t.shape for t in true]}")
    return rec, true


def psnr(x_rec, x_true, eval_mask=None) -> MetricsReport:
    """Peak signal-to-noise ratio 10 log10(255^2 / MSE) in dB.

    x_rec/x_true are single matrices (grayscale) or 3-channel sequences.
    eval_mask selects the pixels to score (True = evaluate, e.g. the missing
    pixels of a completion run); None evaluates everywhere. For color images
    MSE = SE / (3 T) with T the evaluated pixel count and SE summed over the
    channels. Exact recovery is capped at 99 dB.
    """
    rec, true = _paired(x_rec, x_true)
    if eval_mask is None:
        eval_mask = np.ones(rec[0].shape, dtype=bool)
    eval_mask = np.asarray(eval_mask, dtype=bool)
    if eval_mask.shape != rec[0].shape:
        raise ValueError("evaluation mask shape must match the image")
    t_count = int(eval_mask.sum())
    if t_count == 0:
        raise ValueError("evaluation set is empty")
    se = float(sum(np.sum((r[eval_mask] - t[eval_mask]) ** 2) for r, t in zip(rec, true)))
    mse = se / (len(rec) * t_count)
    if mse == 0:
        value = PSNR_CAP_DB
    else:
        value = min(10.0 * np.log10(255.0 ** 2 / mse), PSNR_CAP_DB)
    return MetricsReport(psnr_db=float(value), se=se, mse=mse, t_count=t_count)


def relative_error(x_re, x_star) -> float:
    """||X_re - X*||_F / ||X*||_F.

    x_re/x_star are single matrices or equal-length channel sequences; the
    norms of a sequence run over all its channels, as if they stood side by
    side, without building that stack. A single matrix gives exactly the
    quotient of its two Frobenius norms. The norms are taken at the data's
    scale (`_norm`), so that data near 1e154 and above does not overflow.
    """
    rec, true = _paired(x_re, x_star)
    denom = math.hypot(*(_norm(t) for t in true))
    if denom == 0:
        raise ValueError("reference matrix is zero")
    return math.hypot(*(_norm(r - t) for r, t in zip(rec, true))) / denom
