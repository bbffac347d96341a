"""Truncation-rank estimation from a singular spectrum.

The estimate looks for the last significant jump in the second-order absolute
differences of the sorted singular values: with S nonincreasing,
St_i = |S_i - S_{i+1}| and Stt_i = |St_{i+1} - St_i| (1-based), the estimated
rank is the largest i with Stt_i > kappa, or 0 when no jump clears the
threshold (plain nuclear-norm fallback).
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["SveProfile", "SveConfig", "estimate_rank", "default_kappa"]


@dataclass(frozen=True)
class SveProfile:
    """Spectrum S with difference sequences and the resulting rank estimate."""

    S: np.ndarray
    St: np.ndarray
    Stt: np.ndarray
    kappa: float
    r_hat: int


def estimate_rank(s, kappa: float) -> SveProfile:
    """Estimate the truncation rank of a nonincreasing singular spectrum."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size < 3:
        raise ValueError(f"need a 1-D spectrum of length >= 3, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("spectrum entries must be finite")
    scale = max(abs(float(s[0])), 1.0)
    if np.any(np.diff(s) > 1e-10 * scale):
        raise ValueError("spectrum must be sorted nonincreasing")
    if s[-1] < -1e-10 * scale:
        raise ValueError("singular values must be nonnegative")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    st = np.abs(np.diff(s))
    stt = np.abs(np.diff(st))
    above = np.nonzero(stt > kappa)[0]
    # 0-based position j in stt corresponds to the 1-based jump index j + 1
    r_hat = int(above[-1]) + 1 if above.size else 0
    return SveProfile(S=s, St=st, Stt=stt, kappa=float(kappa), r_hat=r_hat)


def default_kappa(m: int, n: int, s: float, mode: str) -> float:
    """Heuristic jump threshold: sqrt(m*n)/(3*s) for real visual data,
    s*sqrt(m*n)/30 for synthetic data."""
    if s <= 0:
        raise ValueError(f"scale parameter s must be positive, got {s}")
    if m < 1 or n < 1:
        raise ValueError(f"invalid dimensions ({m}, {n})")
    root = np.sqrt(m * n)
    if mode == "real":
        return float(root / (3.0 * s))
    if mode == "synthetic":
        return float(s * root / 30.0)
    raise ValueError(f"mode must be 'real' or 'synthetic', got {mode!r}")


@dataclass(frozen=True)
class SveConfig:
    """Rank-estimation settings for the multi-stage outer loop, checked once
    and then frozen.

    Exactly one kappa source is active: an explicit value, or one of the two
    heuristics scaled by s. max_outer caps the number of estimation stages
    (0 disables estimation entirely, leaving the plain nuclear-norm stage);
    stability is the number of consecutive equal estimates that ends the loop.
    """

    kappa_mode: str = "synthetic"
    kappa: float | None = None
    s: float = 1.0
    max_outer: int = 10
    stability: int = 2

    def __post_init__(self):
        if self.kappa_mode not in ("explicit", "real", "synthetic"):
            raise ValueError(f"kappa_mode must be explicit, real or synthetic, got {self.kappa_mode!r}")
        if self.kappa_mode == "explicit":
            if self.kappa is None or not self.kappa > 0:
                raise ValueError("explicit kappa_mode requires a positive kappa")
        elif self.kappa is not None:
            raise ValueError("kappa may only be set with kappa_mode='explicit'")
        if not self.s > 0:
            raise ValueError(f"s must be positive, got {self.s}")
        if self.max_outer < 0:
            raise ValueError("max_outer must be >= 0")
        if self.stability < 2:
            raise ValueError("stability must be >= 2")

    def resolve_kappa(self, m: int, n: int) -> float:
        if self.kappa_mode == "explicit":
            return float(self.kappa)
        return default_kappa(m, n, self.s, self.kappa_mode)
