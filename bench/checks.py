"""Output checks for the benchmark.

Everything here is computed with numpy and scipy alone, apart from the
package under test: the operators are applied through `scipy.fft.dctn` or an
index gather, images are parsed by a reader of our own, and the reference
estimators are plain truncated SVDs. Each `*_failure` function returns None
when the output passes and a one-line reason when it does not.
"""

import numpy as np
from scipy import fft

# reer may be at most this multiple of the noise-to-signal ratio
# delta / ||X*||_F. The recoveries measured so far sit at 0.8-1.2 of it, and a
# zero matrix sits at 1 / nsr (6-14 on the synthetic workloads).
NSR_MULTIPLE = 1.5
# ||A(X) - b|| <= delta (1 + FEASIBILITY_SLACK): the solvers end on a ball
# projection, so only rounding may push the residual past delta.
FEASIBILITY_SLACK = 1e-9
# The CLI scores the clipped float recovery and writes it rounded to 8 bits.
# Rounding moves each pixel by at most 0.5; on the composite images the two
# PSNRs (~30.7 dB) differ by at most 0.01 dB.
PSNR_TOLERANCE_DB = 0.05
# Completion must beat a per-channel observed-mean fill by this much. Today
# admm reaches ~30.7 dB (baseline ~30.3 dB) against ~17 dB for the fill.
FILL_MARGIN_DB = 6.0


# ---- operators, applied apart from the program --------------------------


def dct_apply(x, kept):
    """Partial orthonormal 2-D DCT: the kept coefficients, row-major."""
    return fft.dctn(np.asarray(x, dtype=np.float64), norm="ortho").ravel()[kept]


def dct_adjoint(y, kept, shape):
    coeffs = np.zeros(shape[0] * shape[1])
    coeffs[kept] = y
    return fft.idctn(coeffs.reshape(shape), norm="ortho")


def mask_apply(x, rows, cols):
    return np.asarray(x, dtype=np.float64)[rows, cols]


def mask_adjoint(y, rows, cols, shape):
    out = np.zeros(shape)
    out[rows, cols] = y
    return out


# ---- reference quantities ------------------------------------------------


def relative_error(x, ref):
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64) - ref) / np.linalg.norm(ref))


def gap_rank(x):
    """Rank read off the spectrum: the index of the largest ratio between
    consecutive singular values (0 for the zero matrix). It needs no
    threshold, so it does not depend on the program's kappa."""
    s = np.linalg.svd(np.asarray(x, dtype=np.float64), compute_uv=False)
    if s[0] == 0:
        return 0
    floor = s[0] * np.finfo(float).eps
    return int(np.argmax(s[:-1] / np.maximum(s[1:], floor))) + 1


def spectral_estimate(back_projection, r, sr):
    """Rank-r truncated SVD of A*(b) / sr, the classical one-shot estimator."""
    u, s, vt = np.linalg.svd(back_projection / sr, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vt[:r]


# ---- synthetic recoveries ------------------------------------------------


def report_failure(reported_reer, reer):
    """The package's own relative_error must agree with ours."""
    if not abs(reported_reer - reer) <= 1e-9 * reer:
        return f"reported reer {reported_reer!r} differs from the recomputed {reer!r}"
    return None


def rank_failure(rank, true_rank):
    if rank != true_rank:
        return f"recovered rank {rank}, true rank {true_rank}"
    return None


def spectral_failure(reer, spectral_reer):
    if not reer < spectral_reer:
        return f"reer {reer:.4g} does not beat the spectral estimator's {spectral_reer:.4g}"
    return None


def noise_failure(reer, nsr):
    if not reer <= NSR_MULTIPLE * nsr:
        return f"reer {reer:.4g} exceeds {NSR_MULTIPLE} x noise-to-signal {nsr:.4g}"
    return None


def feasibility_failure(residual, delta):
    if not residual <= delta * (1.0 + FEASIBILITY_SLACK):
        return f"residual {residual:.6g} outside the ball of radius {delta:.6g}"
    return None


def baseline_failure(reer_multistage, reer_baseline):
    if not reer_multistage < reer_baseline:
        return (f"multi-stage reer {reer_multistage:.4g} does not beat "
                f"the baseline's {reer_baseline:.4g}")
    return None


# ---- image completion ----------------------------------------------------


def read_ppm(path):
    """Binary 8-bit PPM (P6) with a plain header, as an (h, w, 3) uint8 array."""
    with open(path, "rb") as f:
        blob = f.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while blob[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while end < len(blob) and not blob[end:end + 1].isspace():
            end += 1
        if end == pos:
            raise ValueError(f"{path}: truncated header")
        fields.append(blob[pos:end])
        pos = end
    magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if magic != b"P6" or maxval != 255:
        raise ValueError(f"{path}: not an 8-bit binary PPM")
    raster = blob[pos + 1:pos + 1 + width * height * 3]
    if len(raster) != width * height * 3:
        raise ValueError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)


def psnr_db(recovered, original, evaluate):
    """10 log10(255^2 / MSE) over the pixels where `evaluate` is True, with
    the squared error summed over the three channels (MSE = SE / (3 T))."""
    diff = np.asarray(recovered, dtype=np.float64) - np.asarray(original, dtype=np.float64)
    se = float(np.sum(diff[evaluate] ** 2))
    return 10.0 * np.log10(255.0 ** 2 * 3 * int(evaluate.sum()) / se)


def mean_fill(original, observed):
    """Each channel's missing pixels set to the mean of its observed ones."""
    filled = np.asarray(original, dtype=np.float64).copy()
    for c in range(filled.shape[2]):
        plane = filled[:, :, c]
        plane[~observed] = plane[observed].mean()
    return filled


def observed_failure(recovered, original, observed, channel):
    """δ = 0 is an exact constraint: observed pixels come back unchanged."""
    changed = int(np.count_nonzero(recovered[:, :, channel][observed]
                                   != original[:, :, channel][observed]))
    if changed:
        return f"channel {channel}: {changed} observed pixels differ from the input"
    return None


def psnr_agreement_failure(psnr_file, psnr_reported):
    if not abs(psnr_file - psnr_reported) <= PSNR_TOLERANCE_DB:
        return (f"PSNR {psnr_file:.4f} dB of the written image does not match "
                f"the reported {psnr_reported:.4f} dB")
    return None


def fill_failure(psnr_recovered, psnr_fill):
    if not psnr_recovered >= psnr_fill + FILL_MARGIN_DB:
        return (f"PSNR {psnr_recovered:.3f} dB is not {FILL_MARGIN_DB} dB above "
                f"the mean fill's {psnr_fill:.3f} dB")
    return None
