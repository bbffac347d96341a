"""Tight-frame measurement operators: entry sampling masks and partial 2-D
orthonormal DCTs, with the ball projection they enable.

Both operator kinds satisfy A A* = I on measurement space, which gives the
closed-form projection onto {X : ||A(X) - b|| <= delta} used by the solvers.
"""

import numpy as np
from scipy import fft

from .linalg import as_matrix

__all__ = [
    "LinearMap",
    "SamplingMask",
    "PartialDct2D",
    "project_ball",
]


def _as_measurement(y, p: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != p:
        raise ValueError(f"expected a measurement vector of length {p}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("measurement entries must be finite")
    return y


def _read_index_file(path, kind: str, width: int) -> tuple[int, int, np.ndarray]:
    """Read an operator index file: an 'm n p' header line, then p lines of
    `width` integers, one line per measurement. Returns m, n and the p x width
    index array; a malformed file raises a ValueError naming `kind`."""
    try:
        with open(path) as f:
            header = f.readline().split()
            if len(header) != 3:
                raise ValueError("first line must be 'm n p'")
            m, n, p = (int(t) for t in header)
            idx = np.loadtxt(f, dtype=np.intp, ndmin=2)
    except (OSError, ValueError) as e:
        raise ValueError(f"bad {kind} file {path}: {e}") from e
    if idx.shape != (p, width):
        raise ValueError(f"bad {kind} file {path}: expected {p} lines of {width} indices, "
                         f"got shape {idx.shape}")
    return m, n, idx


def _write_index_file(path, shape, idx: np.ndarray) -> None:
    """Write the format `_read_index_file` reads; idx holds one row (or, for
    one index per measurement, one entry) per measurement."""
    with open(path, "w") as f:
        f.write(f"{shape[0]} {shape[1]} {len(idx)}\n")
        np.savetxt(f, idx, fmt="%d")


class LinearMap:
    """Linear map A : R^{m x n} -> R^p with adjoint, satisfying A A* = I.

    Subclasses define apply and adjoint, all that the solvers call, and fix
    the measurement order at construction, so reruns measure bit-identically.
    """

    kind = "abstract"

    def __init__(self, m: int, n: int, p: int):
        if m < 1 or n < 1:
            raise ValueError(f"invalid domain shape ({m}, {n})")
        if not 1 <= p <= m * n:
            raise ValueError(f"measurement count p={p} out of range [1, {m * n}]")
        self.shape = (int(m), int(n))
        self.p = int(p)

    def _check_domain(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape != self.shape:
            raise ValueError(f"matrix shape {x.shape} does not match operator domain {self.shape}")
        return x

    def apply(self, x) -> np.ndarray:
        """A(X): measure a matrix, returning a length-p vector."""
        raise NotImplementedError

    def adjoint(self, y) -> np.ndarray:
        """A*(y): map a measurement vector back to an m x n matrix."""
        raise NotImplementedError


class SamplingMask(LinearMap):
    """Observation of p distinct entries, in a fixed recorded order."""

    kind = "mask"

    def __init__(self, m: int, n: int, rows, cols):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be 1-D arrays of equal length")
        super().__init__(m, n, rows.size)
        if rows.size and (rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n):
            raise ValueError("mask indices out of range")
        flat = rows * n + cols
        if np.unique(flat).size != flat.size:
            raise ValueError("mask indices must be distinct")
        self.rows = rows
        self.cols = cols

    @classmethod
    def random(cls, m: int, n: int, sample_ratio: float, rng) -> "SamplingMask":
        """Uniform random mask over round(sample_ratio * m * n) entries,
        stored in lexicographic order. rng is a seed or a Generator."""
        if not 0 < sample_ratio <= 1:
            raise ValueError(f"sample_ratio must be in (0, 1], got {sample_ratio}")
        rng = np.random.default_rng(rng)
        p = int(round(sample_ratio * m * n))
        flat = np.sort(rng.choice(m * n, size=max(p, 1), replace=False))
        return cls(m, n, flat // n, flat % n)

    @classmethod
    def from_file(cls, path) -> "SamplingMask":
        m, n, idx = _read_index_file(path, "mask", 2)
        return cls(m, n, idx[:, 0], idx[:, 1])

    def to_file(self, path) -> None:
        _write_index_file(path, self.shape, np.column_stack((self.rows, self.cols)))

    def apply(self, x) -> np.ndarray:
        x = self._check_domain(x)
        return x[self.rows, self.cols]

    def adjoint(self, y) -> np.ndarray:
        y = _as_measurement(y, self.p)
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = y
        return out

    def observed(self) -> np.ndarray:
        """Boolean m x n array, True at observed entries."""
        obs = np.zeros(self.shape, dtype=bool)
        obs[self.rows, self.cols] = True
        return obs


class PartialDct2D(LinearMap):
    """Restriction of the orthonormal 2-D type-II DCT to p kept coefficients.

    `kept` indexes the flattened m x n coefficient grid row-major; the full
    transform is orthonormal, so the restriction satisfies A A* = I.
    """

    kind = "dct"

    def __init__(self, m: int, n: int, kept):
        kept = np.asarray(kept, dtype=np.intp)
        if kept.ndim != 1:
            raise ValueError("kept must be a 1-D index array")
        super().__init__(m, n, kept.size)
        if kept.size and (kept.min() < 0 or kept.max() >= m * n):
            raise ValueError("kept frequency indices out of range")
        if np.unique(kept).size != kept.size:
            raise ValueError("kept frequency indices must be distinct")
        self.kept = kept

    @classmethod
    def random(cls, m: int, n: int, sample_ratio: float, rng, keep_dc: bool = False) -> "PartialDct2D":
        """Uniform random frequency subset, sorted ascending. keep_dc forces
        the DC coefficient into the subset (off by default)."""
        if not 0 < sample_ratio <= 1:
            raise ValueError(f"sample_ratio must be in (0, 1], got {sample_ratio}")
        rng = np.random.default_rng(rng)
        p = max(int(round(sample_ratio * m * n)), 1)
        kept = rng.choice(m * n, size=p, replace=False)
        if keep_dc and 0 not in kept:
            kept[0] = 0
        return cls(m, n, np.sort(kept))

    @classmethod
    def from_file(cls, path) -> "PartialDct2D":
        m, n, idx = _read_index_file(path, "DCT-keep", 1)
        return cls(m, n, idx[:, 0])

    def to_file(self, path) -> None:
        _write_index_file(path, self.shape, self.kept)

    def apply(self, x) -> np.ndarray:
        x = self._check_domain(x)
        return fft.dctn(x, norm="ortho").ravel()[self.kept]

    def adjoint(self, y) -> np.ndarray:
        y = _as_measurement(y, self.p)
        c = np.zeros(self.shape[0] * self.shape[1])
        c[self.kept] = y
        return fft.idctn(c.reshape(self.shape), norm="ortho")


def project_ball(a: LinearMap, y, b, delta: float) -> np.ndarray:
    """Project Y onto {X : ||A(X) - b|| <= delta} (exact for A A* = I).

    Uses Y + (eta / (eta + 1)) A*(b - A(Y)) with
    eta = max(||A(Y) - b|| / delta - 1, 0); delta = 0 is the exact-constraint
    branch Y + A*(b - A(Y)).
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    y = a._check_domain(y)
    b = _as_measurement(b, a.p)
    resid = b - a.apply(y)
    if delta == 0:
        return y + a.adjoint(resid)
    eta = max(float(np.linalg.norm(resid)) / delta - 1.0, 0.0)
    if eta == 0:
        return y
    return y + (eta / (eta + 1.0)) * a.adjoint(resid)
