"""Dense SVD utilities: singular value shrinkage, truncated nuclear norms,
and truncation pairs built from the leading singular vectors; also the
lookup of functions in the OpenBLAS that numpy.linalg loaded."""

import ctypes
import functools
import operator
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
    return (u * s2) @ vt, s2


# Symbol name schemes of the OpenBLAS builds numpy.linalg links, each with
# the integer type of its LAPACK interface: the ILP64 scipy-openblas of
# numpy's wheels, then a plain OpenBLAS, whose width its names do not tell.
_BLAS_NAME_SCHEMES = (("scipy_{}64_", ctypes.c_int64), ("{}", None))


def _numpy_blas_functions(*names):
    """The functions `names`, spelled as in a plain OpenBLAS (for example
    "openblas_set_num_threads" or "LAPACKE_dsyevr"), from the OpenBLAS that
    numpy.linalg loaded. Returns them with the LAPACK integer type of the
    first name scheme that exports them all (None where the scheme does not
    fix it), or None when no scheme does. dlsym on the extension module's
    handle searches the libraries it links."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for scheme, lapack_int in _BLAS_NAME_SCHEMES:
        found = [getattr(lib, scheme.format(name), None) for name in names]
        if all(f is not None for f in found):
            return found, lapack_int
    return None


_LAPACK_COL_MAJOR = 102


@functools.cache
def _syevr():
    """LAPACKE_dsyevr of numpy's OpenBLAS with its integer type, or None
    where numpy's build exports it under no name that fixes that type."""
    found = _numpy_blas_functions("LAPACKE_dsyevr")
    if found is None or found[1] is None:
        return None
    (fn,), i = found
    real, ptr, char = ctypes.c_double, ctypes.c_void_p, ctypes.c_char
    fn.argtypes = [ctypes.c_int, char, char, char, i, ptr, i, real, real, i, i, real,
                   ctypes.POINTER(i), ptr, ptr, i, ptr]
    fn.restype = i
    return fn, i


def _eigenpairs_above(syevr, gram: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the symmetric Gram matrix above floor, ascending,
    and their eigenvectors as columns, from LAPACK dsyevr (RANGE = 'V'): its
    cost grows with their count instead of with the order of gram. gram is
    overwritten."""
    fn, lapack_int = syevr
    gram = np.require(gram, np.float64, ["C", "W"])  # what the pointer below assumes
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {gram.shape}")
    # every eigenvalue of a Gram matrix lies in [0, trace]; the doubled trace
    # leaves room for rounding. dsyevr rejects an empty range (info = -9).
    top = 2.0 * float(np.trace(gram))
    if floor >= top:
        return np.empty(0), np.empty((n, 0))
    w = np.empty(n)
    z = np.empty((n, n))  # column-major, leading dimension n: row i is vector i
    support = np.empty(2 * n, dtype=lapack_int)
    found = lapack_int(0)
    # gram is symmetric and C-contiguous, so it is also its column-major self
    info = fn(_LAPACK_COL_MAJOR, b"V", b"V", b"L", n, gram.ctypes.data, n, floor, top,
              0, 0, 0.0, ctypes.byref(found), w.ctypes.data, z.ctypes.data, n,
              support.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACKE_dsyevr failed with info = {info}")
    k = found.value
    return w[:k], z[:k].T


# The shrink computes only the eigenpairs above the threshold when the
# previous shrink of the same solve kept at most min(m, n) // SUBSET_DIVISOR
# singular values, and every eigenpair otherwise: dsyevr's cost grows with
# the kept count and passes eigh's between an eighth and a fifth of the
# order (README).
SUBSET_DIVISOR = 8


def _shrink_factors(x: np.ndarray, tau: float,
                    prev: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
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

    `prev`, the thresholded values the previous shrink of the same solve
    returned, chooses the eigensolver: when it kept few values, only the
    eigenpairs above the threshold are computed (`_eigenpairs_above`, where
    numpy's OpenBLAS exports dsyevr); otherwise, and without `prev`, all of
    them (`numpy.linalg.eigh`).
    """
    m, n = x.shape
    q = min(m, n)
    c = float(np.max(np.abs(x)))
    if c == 0.0:
        return np.zeros_like(x), np.zeros(q)
    xs = x / c
    t = tau / c
    wide = m < n
    gram = xs @ xs.T if wide else xs.T @ xs
    few = prev is not None and np.count_nonzero(prev) <= q // SUBSET_DIVISOR
    syevr = _syevr() if few else None
    if syevr is None:
        w, v = np.linalg.eigh(gram)
    else:
        w, v = _eigenpairs_above(syevr, gram, t * t)
    if w.size and t * t < 1e-12 * w[-1]:
        return _dense_shrink(x, tau)
    j = int(np.searchsorted(w, t * t, side="right"))
    s2 = np.zeros(q)
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
    r = operator.index(r)  # a TypeError for 1.9, where int() would give 1
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
