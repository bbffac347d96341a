"""Tight-frame measurement operators, with the ball projection they enable.

Both operator kinds are one model, A = P_Omega T: an orthonormal transform T
of the m x n grid (the identity for an entry sampling mask, the orthonormal
2-D DCT for a partial DCT) read at p distinct slots Omega. T is orthonormal
and the slots are distinct, so A A* = I on measurement space, which gives the
closed-form projection onto {X : ||A(X) - b|| <= delta} used by the solvers.
Each operator also holds P_Omega alone (`sampling`), on which
`solvers.solve_with_rank` runs each stage. `OPERATORS` names the kinds.
"""

import math
from functools import cache

import numpy as np

from .linalg import as_matrix

__all__ = [
    "LinearMap",
    "SamplingMask",
    "PartialDct2D",
    "OPERATORS",
    "project_ball",
]


def _as_measurement(y, p: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != p:
        raise ValueError(f"expected a measurement vector of length {p}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("measurement entries must be finite")
    return y


def _norm_parts(v, over=(1.0, 0)) -> tuple[float, int]:
    """(n, e) with np.linalg.norm(v) / (d 2^f) = n 2^e, (d, f) = over: the norm of
    v scaled by the power of two that brings its largest entry into [1/2, 1),
    where squares neither overflow nor underflow, over d before 2^e is put back."""
    e = math.frexp(float(np.max(np.abs(v), initial=0.0)))[1]
    return float(np.linalg.norm(np.ldexp(v, -e))) / over[0], e - over[1]


def _norm(v) -> float:
    """np.linalg.norm(v), bit for bit wherever that neither overflows nor underflows."""
    return float(np.ldexp(*_norm_parts(v)))


@cache
def _dct_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix C_n, C[k, j] = s_k cos(pi (2j + 1) k / 2n),
    s_0 = sqrt(1/n) and s_k = sqrt(2/n), with the integer (2j + 1) k reduced
    mod 4n, the cosine's period, at any n. Built once per order, read-only."""
    k = np.arange(n)
    c = np.cos(np.pi / (2 * n) * (np.outer(k, 2 * k + 1) % (4 * n))) * math.sqrt(2 / n)
    c[0] = math.sqrt(1 / n)
    c.flags.writeable = False
    return c


class LinearMap:
    """A = P_Omega T : R^{m x n} -> R^p, with A A* = I.

    `slots` holds the p distinct flat (row-major) indices of the entries of
    T(X) that are measured, in measurement order. They are fixed at
    construction, so reruns measure bit-identically. T is held as data,
    `uv`: None for the identity, or the pair (U, V) of orthogonal matrices
    with T(X) = U X V^T, which a subclass sets. Such a T keeps the
    singular values, so the nuclear norm, its shrinkage and the trace term
    Tr(L X R^T) = <T(L^T R), T(X)> read the same on T(X): a solve on A is a
    completion solve on `sampling`, P_Omega alone, run on the coefficients
    T(X). `solvers.solve_with_rank` runs each stage so, with T applied once
    as it starts and T^-1 once as it returns; an inner solver called on A
    directly applies T or T^-1 in every `apply` and `adjoint`. (A T that
    only permutes entries would keep A A* = I, but not the singular values.)
    A subclass also names its index-file lines (`columns`, the constructor's
    index arrays, one line per measurement) and the file in errors
    (`file_kind`); a kind in `OPERATORS` names the random stream of its
    draw (`stream`, see `data.random_operator`).
    """

    columns = ("slots",)
    file_kind = "operator"
    has_dc = False  # whether T has a DC coefficient, at slot 0
    uv = None

    def __init__(self, m: int, n: int, slots):
        slots = np.asarray(slots, dtype=np.intp)
        if m < 1 or n < 1:
            raise ValueError(f"invalid domain shape ({m}, {n})")
        if slots.ndim != 1:
            raise ValueError(f"{self.file_kind} indices must be a 1-D array")
        if not 1 <= slots.size <= m * n:
            raise ValueError(f"measurement count p={slots.size} out of range [1, {m * n}]")
        if slots.min() < 0 or slots.max() >= m * n:
            raise ValueError(f"{self.file_kind} indices out of range")
        if np.unique(slots).size != slots.size:
            raise ValueError(f"{self.file_kind} indices must be distinct")
        self.shape = (int(m), int(n))
        self.p = slots.size
        self.slots = slots
        if not isinstance(self, SamplingMask):  # a mask is its own `sampling`
            # P_Omega alone: built once, and read-only after this, so pool
            # threads may share it
            self.sampling = _Sampling(self)

    @classmethod
    def _from_slots(cls, m: int, n: int, slots) -> "LinearMap":
        return cls(m, n, slots)

    @classmethod
    def random(cls, m: int, n: int, sample_ratio: float, rng, keep_dc: bool = False):
        """Uniform random max(round(sample_ratio * m * n), 1) slots, sorted
        ascending; rng is a seed or a Generator. keep_dc puts the DC
        coefficient, slot 0, in the first draw's place if it was not drawn;
        an operator whose transform has none (has_dc) ignores it."""
        if not 0 < sample_ratio <= 1:
            raise ValueError(f"sample_ratio must be in (0, 1], got {sample_ratio}")
        rng = np.random.default_rng(rng)
        slots = rng.choice(m * n, size=max(int(round(sample_ratio * m * n)), 1), replace=False)
        if keep_dc and cls.has_dc and 0 not in slots:
            slots[0] = 0
        return cls._from_slots(m, n, np.sort(slots))

    @classmethod
    def from_file(cls, path):
        """Read an index file: an 'm n p' header line, then p lines of
        len(columns) integers, one line per measurement. A malformed file, or
        indices the constructor rejects, raise a ValueError naming
        `file_kind` and the path."""
        try:
            with open(path) as f:
                header = f.readline().split()
                if len(header) != 3:
                    raise ValueError("first line must be 'm n p'")
                m, n, p = (int(t) for t in header)
                # the lines that hold more than a '#' comment: np.loadtxt
                # would skip the others, but it warns on an empty body
                lines = [line for line in f if line.split("#", 1)[0].strip()]
            k = len(cls.columns)
            idx = np.loadtxt(lines, dtype=np.intp, ndmin=2) if lines else np.empty((0, k))
            if idx.shape != (p, k):
                raise ValueError(f"expected {p} lines of {k} indices, got shape {idx.shape}")
            return cls(m, n, *idx.T)
        except (OSError, ValueError) as e:
            raise ValueError(f"bad {cls.file_kind} file {path}: {e}") from e

    def to_file(self, path) -> None:
        """Write the format `from_file` reads: the bytes of np.savetxt with
        fmt '%d', made by one %-format over the flattened index lines."""
        line = " ".join(["%d"] * len(self.columns)) + "\n"
        idx = np.column_stack([getattr(self, c) for c in self.columns])
        with open(path, "w") as f:
            f.write(f"{self.shape[0]} {self.shape[1]} {self.p}\n")
            f.write(line * self.p % tuple(idx.ravel().tolist()))

    def _check_domain(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape != self.shape:
            raise ValueError(f"matrix shape {x.shape} does not match operator domain {self.shape}")
        return x

    def transform(self, x) -> np.ndarray:
        """T(X) = U X V^T; X itself for the identity."""
        return x if self.uv is None else self.uv[0] @ x @ self.uv[1].T

    def inverse(self, y) -> np.ndarray:
        """T^-1(Y) = U^T Y V; Y itself for the identity."""
        return y if self.uv is None else self.uv[0].T @ y @ self.uv[1]

    def apply(self, x) -> np.ndarray:
        """A(X): T(X) read at the slots, a length-p vector."""
        x = self._check_domain(x)
        return self.transform(x).ravel()[self.slots]

    def adjoint(self, y) -> np.ndarray:
        """A*(y): T^-1 of y scattered into the slots of a zero m x n grid."""
        y = _as_measurement(y, self.p)
        c = np.zeros(self.shape[0] * self.shape[1])
        c[self.slots] = y
        return self.inverse(c.reshape(self.shape))

    def observed(self) -> np.ndarray | None:
        """Boolean m x n array, True at the entries A reads; None when T is not
        the identity, since a transform's slots observe no entry by itself."""
        if self.uv is not None:
            return None
        obs = np.zeros(self.shape[0] * self.shape[1], dtype=bool)
        obs[self.slots] = True
        return obs.reshape(self.shape)


class SamplingMask(LinearMap):
    """Observation of p distinct entries (rows[k], cols[k]), in a fixed
    recorded order; index-file lines are 'i j'."""

    columns = ("rows", "cols")
    file_kind = "mask"
    stream = "mask"

    def __init__(self, m: int, n: int, rows, cols):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be 1-D arrays of equal length")
        # with every column in range, the flat range check is the row check
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("mask indices out of range")
        super().__init__(m, n, rows * n + cols)

    @classmethod
    def _from_slots(cls, m: int, n: int, slots) -> "SamplingMask":
        return cls(m, n, *np.divmod(slots, n))

    @property
    def sampling(self) -> "SamplingMask":
        return self

    @property
    def rows(self) -> np.ndarray:
        return self.slots // self.shape[1]

    @property
    def cols(self) -> np.ndarray:
        return self.slots % self.shape[1]


class _Sampling(SamplingMask):
    """The SamplingMask on slots an operator has checked, shared unchecked."""

    def __init__(self, a: LinearMap):
        self.shape, self.p, self.slots = a.shape, a.p, a.slots


class PartialDct2D(LinearMap):
    """Restriction of the orthonormal 2-D type-II DCT, T(X) = C_m X C_n^T, to
    p kept coefficients, `kept` indexing the flattened m x n coefficient grid
    row-major; index-file lines hold one such index."""

    columns = ("kept",)
    file_kind = "DCT-keep"
    stream = "freqs"
    has_dc = True

    def __init__(self, m: int, n: int, kept):
        super().__init__(m, n, kept)
        self.uv = tuple(map(_dct_matrix, self.shape))

    @property
    def kept(self) -> np.ndarray:
        return self.slots


OPERATORS = {"mask": SamplingMask, "dct": PartialDct2D}


def _nearest_in_ball(v: np.ndarray, delta: float) -> np.ndarray:
    """The point of the delta-ball around 0 nearest v (0 for delta = 0)."""
    nv = _norm(v)
    return v * (delta / nv) if nv > delta else v


def project_ball(a: LinearMap, y, b, delta: float) -> np.ndarray:
    """Project Y onto {X : ||A(X) - b|| <= delta} (exact for A A* = I) as
    Y + A*(P(r) - r), r = A(Y) - b and P(r) = `_nearest_in_ball(r, delta)`:
    Y + A*(b - A(Y)) at delta = 0, and Y's values for a Y inside the ball."""
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    r = a.apply(y) - _as_measurement(b, a.p)
    return y + a.adjoint(_nearest_in_ball(r, delta) - r)
