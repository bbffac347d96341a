"""Reference code that only the tests use: a full SVD with a fixed sign
convention, the block embedding Q of the block-matrix ADMM (the solver uses
its closed form), and the closed-form inverse of (I + alpha A*A)."""

from dataclasses import dataclass

import numpy as np

from tnnr.linalg import as_matrix
from tnnr.operators import LinearMap, SamplingMask


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD X = U diag(S) V^T with U (m x m), S (min(m,n),), V (n x n)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.S.size
        return (self.U[:, :q] * self.S) @ self.V[:, :q].T


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Flip singular-vector pairs in place so the largest-magnitude entry of
    each left singular vector is nonnegative. Makes the factorization
    deterministic up to ties."""
    for j in range(min(u.shape[1], v.shape[1])):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]


def svd(x) -> SvdFactors:
    """Full singular value decomposition with a fixed sign convention: each
    singular-vector pair flipped so that the largest-magnitude entry of its
    left vector is nonnegative, and each unpaired null-space column flipped
    on its own so that its largest-magnitude entry is nonnegative.

    Raises a LinAlgError if the factorization backend fails to converge.
    """
    x = as_matrix(x)
    u, s, vt = np.linalg.svd(x, full_matrices=True)
    v = vt.T.copy()
    u = u.copy()
    _fix_signs(u, v)
    q = min(u.shape[1], v.shape[1])
    for mat in (u, v):
        for j in range(q, mat.shape[1]):
            i = int(np.argmax(np.abs(mat[:, j])))
            if mat[i, j] < 0:
                mat[:, j] = -mat[:, j]
    return SvdFactors(U=u, S=s, V=v)


def _slots(a: LinearMap) -> np.ndarray:
    """Flat indices of the p measurement slots in an m x n grid: the observed
    entries of a mask, or the kept coefficients of a partial DCT."""
    return a.rows * a.shape[1] + a.cols if isinstance(a, SamplingMask) else a.kept


def q_apply(y, a: LinearMap) -> np.ndarray:
    """Block embedding Q(Y) = [[-Y, 0], [0, embed(A(Y))]] of size 2m x 2n,
    where embed, the isometric matrix form of a measurement vector, scatters
    it into its slots of a zero m x n grid."""
    y = a._check_domain(y)
    m, n = a.shape
    w = np.zeros((2 * m, 2 * n))
    w[:m, :n] = -y
    w22 = np.zeros(m * n)
    w22[_slots(a)] = a.apply(y)
    w[m:, n:] = w22.reshape(m, n)
    return w


def q_adjoint(w, a: LinearMap) -> np.ndarray:
    """Adjoint of the block embedding: Q*(W) = -W11 + A*(extract(W22)), where
    extract, the adjoint of embed, reads the measurement slots of W22."""
    w = np.asarray(w, dtype=np.float64)
    m, n = a.shape
    if w.shape != (2 * m, 2 * n):
        raise ValueError(f"expected block matrix of shape {(2 * m, 2 * n)}, got {w.shape}")
    return -w[:m, :n] + a.adjoint(w[m:, n:].reshape(-1)[_slots(a)])


def inverse_identity_check(a: LinearMap, alpha: float, x) -> float:
    """Residual of the closed-form inverse of (I + alpha A* A).

    Returns ||(I - alpha/(1+alpha) A*A)((I + alpha A*A)(X)) - X||_F, which is
    <= 1e-10 ||X||_F whenever A is a tight frame.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x = a._check_domain(x)
    z = x + alpha * a.adjoint(a.apply(x))
    w = z - (alpha / (1.0 + alpha)) * a.adjoint(a.apply(z))
    return float(np.linalg.norm(w - x, "fro"))
