"""Dense SVD utilities: singular value shrinkage, truncated nuclear norms,
and truncation pairs built from the leading singular vectors."""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncationPair",
    "as_matrix",
    "shrink",
    "nuclear_norm",
    "truncated_nuclear_norm",
    "truncation_pair",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    x = np.asarray(a, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("matrix entries must be finite")
    return x


def _dense_shrink(x: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """`_shrink_factors` through a full `gesdd`: exact at any tau."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    s2 = s - tau
    np.clip(s2, 0.0, None, out=s2)
    if not s2.any():
        # exact zero matrix, not a round-tripped near-zero
        return np.zeros_like(x), s2
    return (u * s2) @ vt, s2


def _shrink_factors(x: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Soft-threshold the singular values of x by tau; also return the
    thresholded values (the singular values of the result), nonincreasing and
    padded with zeros to min(m, n).

    Works from the eigendecomposition of the smaller Gram matrix of x / c,
    c = max |x_ij| (the scaling keeps the Gram matrix clear of overflow and
    underflow). Only the eigenpairs with sigma_i > tau enter the result, and
    the projector V V^T does not depend on eigenvector signs. The Gram route
    resolves sigma_i^2 to about eps * sigma_1^2, so the result is accurate to
    about eps * sigma_1 / tau relative to sigma_1; below tau = 1e-6 * sigma_1
    (tau = 0 included) the dense SVD is used instead.
    """
    m, n = x.shape
    q = min(m, n)
    c = float(np.max(np.abs(x)))
    if c == 0.0:
        return np.zeros_like(x), np.zeros(q)
    xs = x / c
    t = tau / c
    wide = m < n
    w, v = np.linalg.eigh(xs @ xs.T if wide else xs.T @ xs)
    if t * t < 1e-12 * w[-1]:
        return _dense_shrink(x, tau)
    j = int(np.searchsorted(w, t * t, side="right"))
    s2 = np.zeros(q)
    if j == w.size:
        return np.zeros_like(x), s2
    sig = np.sqrt(w[j:])
    v = v[:, j:]
    f = c * (1.0 - t / sig)
    out = (v * f) @ (v.T @ xs) if wide else ((xs @ v) * f) @ v.T
    s2[:sig.size] = (c * (sig - t))[::-1]
    return out, s2


def shrink(x, tau: float) -> np.ndarray:
    """Singular value shrinkage: U diag(max(sigma_i - tau, 0)) V^T.

    This is the proximal map of tau * nuclear norm: the result minimizes
    (1/2) ||W - x||_F^2 + tau ||W||_* over W.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    x = as_matrix(x)
    out, _ = _shrink_factors(x, float(tau))
    return out


def nuclear_norm(x) -> float:
    """Sum of all singular values."""
    return float(np.linalg.svd(as_matrix(x), compute_uv=False).sum())


def _check_rank_arg(x: np.ndarray, r: int) -> int:
    q = min(x.shape)
    r = int(r)
    if not 0 <= r <= q:
        raise ValueError(f"rank r={r} out of range [0, {q}] for shape {x.shape}")
    return r


def truncated_nuclear_norm(x, r: int) -> float:
    """Sum of the min(m,n) - r smallest singular values of x."""
    x = as_matrix(x)
    r = _check_rank_arg(x, r)
    s = np.linalg.svd(x, compute_uv=False)
    return float(s[r:].sum())


@dataclass(frozen=True)
class TruncationPair:
    """Stacked top-r singular vectors of a source matrix.

    L (r x m) holds the leading left singular vectors as rows, R (r x n) the
    leading right singular vectors, so that Tr(L X R^T) sums the r largest
    singular values when X is the source matrix.
    """

    r: int
    L: np.ndarray
    R: np.ndarray

    @classmethod
    def empty(cls, m: int, n: int) -> "TruncationPair":
        return cls(r=0, L=np.zeros((0, m)), R=np.zeros((0, n)))

    def correction(self) -> np.ndarray:
        """The m x n matrix L^T R entering solver updates; zero for r = 0."""
        return self.L.T @ self.R

    def trace_term(self, x: np.ndarray) -> float:
        """Tr(L x R^T), evaluated without forming the r x r product."""
        return float(np.sum((self.L @ x) * self.R))


def truncation_pair(x, r: int) -> TruncationPair:
    """Extract the top-r left/right singular vector blocks of x."""
    x = as_matrix(x)
    r = _check_rank_arg(x, r)
    if r == 0:
        return TruncationPair.empty(*x.shape)
    u, _, vt = np.linalg.svd(x, full_matrices=False)
    return TruncationPair(r=r, L=u[:, :r].T.copy(), R=vt[:r].copy())
