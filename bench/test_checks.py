"""Self-test of the benchmark's output checks: each must pass a correct
output and reject a deliberately wrong one.

    python3 -m pytest bench/test_checks.py      (or: python3 bench/test_checks.py)

Needs only numpy and scipy; the package under test is not imported.
"""

import numpy as np

import checks


def _instance(kind, m=40, n=36, r=3, sr=0.5, std=0.05, seed=0):
    """X* of rank r, a random mask or partial DCT, b = A(X*) + noise, delta
    the noise norm; the operator comes from the benchmark's own helpers."""
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    p = int(sr * m * n)
    if kind == "dct":
        kept = np.sort(rng.choice(m * n, p, replace=False))
        apply = lambda x: checks.dct_apply(x, kept)
        adjoint = lambda y: checks.dct_adjoint(y, kept, (m, n))
    else:
        flat = np.sort(rng.choice(m * n, p, replace=False))
        rows, cols = flat // n, flat % n
        apply = lambda x: checks.mask_apply(x, rows, cols)
        adjoint = lambda y: checks.mask_adjoint(y, rows, cols, (m, n))
    noise = std * rng.standard_normal(p)
    return x_star, apply, adjoint, apply(x_star) + noise, float(np.linalg.norm(noise))


def _synthetic_reasons(x, x_star, r, apply, adjoint, b, delta, sr=0.5):
    reer = checks.relative_error(x, x_star)
    spectral = checks.relative_error(checks.spectral_estimate(adjoint(b), r, sr), x_star)
    nsr = delta / float(np.linalg.norm(x_star))
    return [f for f in (checks.rank_failure(checks.gap_rank(x), r),
                        checks.spectral_failure(reer, spectral),
                        checks.noise_failure(reer, nsr),
                        checks.feasibility_failure(float(np.linalg.norm(apply(x) - b)), delta))
            if f]


def _truncate(x, r):
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vt[:r]


def test_operators_are_tight_frames():
    for kind in ("dct", "mask"):
        x_star, apply, adjoint, b, _ = _instance(kind)
        y = np.random.default_rng(1).standard_normal(b.size)
        assert np.allclose(apply(adjoint(y)), y, atol=1e-12)
        assert abs(apply(x_star) @ y - np.vdot(x_star, adjoint(y))) < 1e-9


def test_truth_passes_synthetic_checks():
    for kind in ("dct", "mask"):
        x_star, apply, adjoint, b, delta = _instance(kind)
        assert _synthetic_reasons(x_star, x_star, 3, apply, adjoint, b, delta) == []


def test_zero_matrix_rejected():
    x_star, apply, adjoint, b, delta = _instance("dct")
    reasons = _synthetic_reasons(np.zeros_like(x_star), x_star, 3, apply, adjoint, b, delta)
    assert len(reasons) == 4  # rank 0, worse than spectral, noise multiple, infeasible


def test_rank_off_by_one_rejected():
    x_star, *_ = _instance("mask")
    assert checks.gap_rank(x_star) == 3
    spike = np.zeros_like(x_star)
    spike[0, 0] = 1e-3 * np.linalg.norm(x_star)
    for x, rank in ((_truncate(x_star, 2), 2), (x_star + spike, 4)):
        assert checks.gap_rank(x) == rank
        assert checks.rank_failure(checks.gap_rank(x), 3) is not None


def test_infeasible_recovery_rejected():
    x_star, apply, _, b, delta = _instance("dct")
    residual = float(np.linalg.norm(apply(x_star) - b))
    assert checks.feasibility_failure(residual, delta) is None
    assert checks.feasibility_failure(delta * (1 + 1e-6), delta) is not None


def test_reported_error_mismatch_rejected():
    assert checks.report_failure(0.1478, 0.1478) is None
    assert checks.report_failure(0.1478 * (1 + 1e-6), 0.1478) is not None


def test_baseline_check():
    assert checks.baseline_failure(0.14, 0.18) is None
    assert checks.baseline_failure(0.18, 0.18) is not None


def _image(seed=0, size=24):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(40, 220, (size, size, 3)).astype(np.uint8)
    observed = rng.random((size, size)) < 0.5
    return pixels, observed


def test_observed_pixel_change_rejected():
    pixels, observed = _image()
    recovered = pixels.copy()
    for c in range(3):
        assert checks.observed_failure(recovered, pixels, observed, c) is None
    i, j = np.argwhere(observed)[0]
    recovered[i, j, 1] ^= 1
    assert checks.observed_failure(recovered, pixels, observed, 0) is None
    assert checks.observed_failure(recovered, pixels, observed, 1) is not None


def test_psnr_matches_definition_and_mismatch_rejected():
    pixels, observed = _image()
    recovered = pixels.astype(np.float64)
    recovered[~observed] += 4.0  # every missing pixel off by 4 in each channel
    db = checks.psnr_db(recovered, pixels, ~observed)
    assert abs(db - 10 * np.log10(255.0 ** 2 / 16.0)) < 1e-9
    assert checks.psnr_agreement_failure(db, db + 0.01) is None
    assert checks.psnr_agreement_failure(db, db + 0.5) is not None


def test_mean_fill_margin():
    pixels, observed = _image()
    fill = checks.mean_fill(pixels, observed)
    assert np.array_equal(fill[observed], pixels[observed])
    fill_db = checks.psnr_db(fill, pixels, ~observed)
    assert checks.fill_failure(fill_db + checks.FILL_MARGIN_DB, fill_db) is None
    assert checks.fill_failure(fill_db + 1.0, fill_db) is not None


def test_ppm_round_trip(tmp_path):
    pixels, _ = _image()
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n24 24\n255\n" + pixels.tobytes())
    assert np.array_equal(checks.read_ppm(path), pixels)


if __name__ == "__main__":
    import pytest
    raise SystemExit(pytest.main([__file__, "-q"]))
