from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnr import linalg
from tnnr.linalg import (
    TruncationPair,
    _shrink_factors,
    nuclear_norm,
    shrink,
    truncated_nuclear_norm,
    truncation_pair,
)

from helpers import svd


def prox_objective(w, x, tau):
    return 0.5 * np.linalg.norm(w - x, "fro") ** 2 + tau * nuclear_norm(w)


class TestSvd:
    def test_diagonal_singular_values(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.S, [3, 2, 1])

    def test_zero_matrix(self):
        f = svd(np.zeros((4, 3)))
        assert np.allclose(f.S, 0)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        f = svd(x)
        assert np.linalg.norm(f.reconstruct() - x, "fro") <= 1e-10 * np.linalg.norm(x, "fro")
        assert np.linalg.norm(f.U.T @ f.U - np.eye(6)) <= 1e-10
        assert np.linalg.norm(f.V.T @ f.V - np.eye(4)) <= 1e-10
        assert np.all(np.diff(f.S) <= 0) and np.all(f.S >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = svd(rng.standard_normal((5, 7)))
            for j in range(f.U.shape[1]):
                i = np.argmax(np.abs(f.U[:, j]))
                assert f.U[i, j] >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 5))
        f1, f2 = svd(x), svd(x)
        assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V)

    def test_rejects_nonfinite(self):
        bad = np.ones((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            svd(bad)


class TestShrink:
    def test_diagonal_soft_threshold(self):
        out = shrink(np.diag([3.0, 1.0, 0.2]), 0.5)
        assert np.allclose(out, np.diag([2.5, 0.5, 0.0]), atol=1e-12)

    def test_tau_zero_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 6))
        assert np.linalg.norm(shrink(x, 0.0) - x, "fro") <= 1e-10 * np.linalg.norm(x, "fro")

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            shrink(np.eye(3), -0.1)

    @pytest.mark.parametrize("x", [np.ones(3), np.empty((0, 3))])
    def test_non_matrix_rejected(self, x):
        with pytest.raises(ValueError, match="expected a nonempty 2-D matrix"):
            shrink(x, 0.1)

    def test_large_tau_exact_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4))
        out = shrink(x, np.linalg.svd(x, compute_uv=False)[0] + 1.0)
        assert np.all(out == 0.0)

    def test_prox_beats_perturbations(self):
        # the shrinkage output should minimize (1/2)||W - X||_F^2 + tau ||W||_*
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 4)) * 2
        tau = 0.7
        out = shrink(x, tau)
        f0 = prox_objective(out, x, tau)
        scale = 0.1 * np.linalg.norm(x, "fro")
        for _ in range(200):
            w = out + scale * rng.standard_normal(x.shape)
            assert f0 <= prox_objective(w, x, tau) + 1e-8

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rng.standard_normal((6, 5))
            b = rng.standard_normal((6, 5))
            tau = rng.uniform(0.1, 3.0)
            lhs = np.linalg.norm(shrink(a, tau) - shrink(b, tau), "fro")
            assert lhs <= np.linalg.norm(a - b, "fro") + 1e-12


def dense_shrink_reference(x, tau):
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    s2 = np.maximum(s - tau, 0.0)
    return (u * s2) @ vt, s2


def rel_diff(got, ref, base):
    """||got - ref|| / ||base|| with both norms taken after scaling by
    max |base|, so that inputs near 1e160 do not overflow."""
    c = np.abs(base).max()
    return np.linalg.norm((got - ref) / c) / np.linalg.norm(base / c)


def assert_close_or_zero(got, ref, what):
    if not ref.any():
        assert np.all(got == 0.0), f"{what}: expected exact zeros"
    else:
        err = rel_diff(got, ref, ref)
        assert err <= 1e-10, f"{what}: relative error {err:.2e}"


def _without_syevr(x, tau):
    with mock.patch.object(linalg, "_syevr", lambda: None):
        return _shrink_factors(x, tau, np.zeros(1))


# The three eigensolver routes of the shrink. A previous shrink that kept
# nothing asks for the subset route; "fallback" asks for it where numpy's
# OpenBLAS exports no dsyevr, which runs the full route.
ROUTES = {
    "subset": lambda x, tau: _shrink_factors(x, tau, np.zeros(1)),
    "full": lambda x, tau: _shrink_factors(x, tau),
    "fallback": _without_syevr,
}


def assert_matches_dense(x, tau, route, what=""):
    ref_out, ref_vals = dense_shrink_reference(x, tau)
    out, vals = ROUTES[route](x, tau)
    assert out.shape == x.shape and vals.shape == (min(x.shape),)
    assert np.all(np.diff(vals) <= 0) and np.all(vals >= 0)
    assert_close_or_zero(out, ref_out, f"{what} matrix")
    assert_close_or_zero(vals, ref_vals, f"{what} values")
    assert_close_or_zero(shrink(x, tau), ref_out, f"{what} shrink")


def with_spectrum(shape, s, rng):
    """A matrix with singular values s and random singular vectors."""
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], len(s))))
    return (u * s) @ v.T


def shrink_input(kind, shape, rng):
    m, n = shape
    q = min(m, n)
    if kind == "zero":
        return np.zeros(shape)
    if kind == "full":
        return rng.standard_normal(shape)
    if kind == "rank_deficient":
        r = max(q - 2, 1)
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    # repeated singular values: a triple at the top, a pair at the bottom
    s = np.linspace(3.0, 1.0, q)
    s[:3] = 3.0
    if q > 4:
        s[-2:] = 1.0
    return with_spectrum(shape, s, rng)


@pytest.mark.parametrize("route", ROUTES)
class TestShrinkMatchesDenseSvd:
    """The Gram-eigendecomposition shrink, on each eigensolver route, against
    a dense SVD computed here."""

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (6, 6), (1, 6), (6, 1)])
    @pytest.mark.parametrize("kind", ["full", "rank_deficient", "zero", "repeated"])
    def test_equivalence(self, shape, kind, route):
        rng = np.random.default_rng(20)
        base = shrink_input(kind, shape, rng)
        s1 = float(np.linalg.norm(base, 2))
        for scale in (1.0, 1e-150, 1e150, 1e-160, 1e160):
            x = base * scale
            # tau = 0, tau > sigma_1, a mid-spectrum tau, and the two small
            # ratios; 1e-7 lies below the 1e-6 switch to the dense SVD
            for rel in (0.0, 1.5, 0.5, 1e-3, 1e-7):
                tau = rel * s1 * scale
                assert_matches_dense(x, tau, route,
                                     f"{kind} {shape} tau/s1={rel} scale={scale:g}")
            if kind != "zero":
                # tau = sigma_1 is a tie: both routes leave only rounding,
                # so compare the result with the input instead
                out, vals = ROUTES[route](x, s1 * scale)
                assert rel_diff(out, 0.0, x) <= 1e-10
                assert rel_diff(vals, 0.0, np.linalg.svd(x, compute_uv=False)) <= 1e-10

    def test_tau_equal_to_an_interior_singular_value(self, route):
        # singular values 3, 3, 3, 2, 5/3, 1, 1: tau hits a simple value and
        # the repeated pair at the bottom
        x = shrink_input("repeated", (9, 7), np.random.default_rng(21))
        assert_matches_dense(x, 2.0, route)
        assert_matches_dense(x, 1.0, route)

    @pytest.mark.parametrize("shape", [(9, 7), (7, 9)])
    def test_tau_squared_midway_between_two_gram_eigenvalues(self, shape, route):
        # singular values 3, 3, 3, 2, 5/3, 1, 1: tau^2 sits midway between
        # the Gram eigenvalues 9 and 4, then between 25/9 and 1
        x = shrink_input("repeated", shape, np.random.default_rng(22))
        assert_matches_dense(x, np.sqrt((9.0 + 4.0) / 2.0), route)
        assert_matches_dense(x, np.sqrt((25.0 / 9.0 + 1.0) / 2.0), route)

    @pytest.mark.parametrize("factor", [1.0, np.sqrt(2.0), 1.5, 3.0])
    def test_tau_squared_at_or_above_the_gram_trace(self, factor, route):
        # (tau / c)^2 = factor^2 * trace of the scaled Gram matrix: from the
        # doubled trace (factor >= sqrt(2)) up, dsyevr's range would be empty,
        # which it rejects (info = -9)
        x = np.random.default_rng(23).standard_normal((8, 6))
        out, vals = ROUTES[route](x, factor * np.linalg.norm(x, "fro"))
        assert np.all(out == 0.0) and np.all(vals == 0.0) and vals.shape == (6,)

    # tau near sigma_1 leaves a result of size sigma_1 - tau made of rounding
    # on either route, so log10(tau / sigma_1) keeps 1e-3 away from the tie
    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 12), n=st.integers(1, 12), rank=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1),
           log_rel=st.one_of(st.none(), st.floats(-8.0, 0.3).filter(lambda u: abs(u) > 1e-3)),
           log_scale=st.floats(-150.0, 150.0))
    def test_property_random_shapes_and_tau(self, m, n, rank, seed, log_rel, log_scale,
                                            route):
        rng = np.random.default_rng(seed)
        r = min(rank, m, n)
        x = rng.standard_normal((m, r)) @ rng.standard_normal((r, n)) * 10.0 ** log_scale
        s1 = float(np.linalg.norm(x, 2))
        tau = 0.0 if log_rel is None else s1 * 10.0 ** log_rel
        assert_matches_dense(x, tau, route)


class TestEigensolverRoute:
    def test_numpy_openblas_exports_dsyevr(self):
        # numpy's scipy-openblas wheels export LAPACKE; a build that loses
        # the binding would run every shrink on the full route unnoticed
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy's BLAS is {blas.get('name')}, not scipy-openblas")
        assert linalg._syevr() is not None

    @pytest.mark.parametrize("kept, subset", [(0, True), (4, True), (5, False)])
    def test_previous_kept_count_chooses_the_route(self, kept, subset):
        # min(40, 36) // 8 = 4 values kept by the previous shrink, or fewer,
        # take the subset route; the first shrink of a solve takes the full one
        x = np.random.default_rng(24).standard_normal((40, 36))
        prev = np.r_[np.ones(kept), np.zeros(36 - kept)]
        with mock.patch.object(linalg, "_dsyevr", wraps=linalg._dsyevr) as partial:
            _shrink_factors(x, 1.0, prev)
            _shrink_factors(x, 1.0)
        assert partial.call_count == int(subset and linalg._syevr() is not None)

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
    @pytest.mark.parametrize("subset", [False, True])
    def test_tau_above_sigma_1_gives_positive_zeros(self, shape, subset):
        # (tau / c)^2 between sigma_1^2 and ||G||_F: the Frobenius test
        # cannot rule out a value above tau, so the eigensolver runs and finds
        # no pair. The factor products have inner dimension 0, and numpy
        # returns +0.0 everywhere.
        x = np.random.default_rng(25).standard_normal(shape)
        gram_f = np.linalg.norm(x.T @ x if shape[0] > shape[1] else x @ x.T)
        tau = np.sqrt((np.linalg.norm(x, 2) ** 2 + gram_f) / 2.0)
        prev = np.zeros(6) if subset else None
        with mock.patch.object(linalg, "_dsyevr", wraps=linalg._dsyevr) as partial, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as full:
            out, vals = _shrink_factors(x, tau, prev)
        assert partial.call_count + full.call_count == 1
        assert partial.call_count == int(subset and linalg._syevr() is not None)
        assert out.shape == shape and np.all(out == 0.0) and not np.signbit(out).any()
        assert vals.shape == (6,) and np.all(vals == 0.0) and not np.signbit(vals).any()

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (1, 5), (5, 1)])
    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("factor", [1.000001, 1.1, 1e3])
    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_certified_empty_shrink_runs_no_eigensolver(self, shape, subset, factor, scale):
        # (tau / c)^2 >= ||G||_F bounds every sigma_i^2 / c^2: +0.0 zeros
        # come back on both routes before any decomposition; so they do for
        # x = 0 (+0.0 and -0.0 entries, c = 1) at tau = 0
        x = scale * np.random.default_rng(26).standard_normal(shape)
        tau = factor * np.sqrt(np.linalg.norm(x.T @ x if shape[0] > shape[1] else x @ x.T))
        prev = np.zeros(min(shape)) if subset else None
        with mock.patch.object(linalg, "_dsyevr") as partial, \
                mock.patch.object(np.linalg, "eigh") as full, \
                mock.patch.object(np.linalg, "svd") as dense:
            out, vals = _shrink_factors(x, tau, prev)
        assert partial.call_count == full.call_count == dense.call_count == 0
        assert out.shape == shape and np.all(out == 0.0) and not np.signbit(out).any()
        assert vals.shape == (min(shape),) and np.all(vals == 0.0)
        assert not np.signbit(vals).any()

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("rank", [1, 6])
    def test_tau_just_below_sigma_1_keeps_one_value(self, shape, subset, rank):
        # at rank 1, ||G||_F = sigma_1^2 / c^2: the Frobenius test is tight
        # there and must still let sigma_1 - tau through
        rng = np.random.default_rng(27)
        x = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        s = np.linalg.svd(x, compute_uv=False)
        assert s[1] < 0.99 * s[0]
        out, vals = _shrink_factors(x, 0.99 * s[0], np.zeros(6) if subset else None)
        assert vals[0] == pytest.approx(0.01 * s[0], rel=1e-8) and np.all(vals[1:] == 0.0)
        assert np.linalg.svd(out, compute_uv=False)[0] == pytest.approx(vals[0], rel=1e-8)


class TestTruncatedNuclearNorm:
    @pytest.mark.parametrize("r,expected", [(1, 4.0), (0, 9.0), (3, 0.0)])
    def test_diagonal_cases(self, r, expected):
        assert truncated_nuclear_norm(np.diag([5.0, 3.0, 1.0]), r) == pytest.approx(expected)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_nuclear_norm(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_nuclear_norm(np.eye(3), -1)

    @pytest.mark.parametrize("r", [1.9, 2.7, 1.0, "1", None])
    def test_non_integer_rank_rejected(self, r):
        # int(r) would truncate 1.9 to 1 and 2.7 to 2
        with pytest.raises(TypeError):
            truncated_nuclear_norm(np.diag([3.0, 2.0, 1.0]), r)
        with pytest.raises(TypeError):
            truncation_pair(np.diag([3.0, 2.0, 1.0]), r)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_rank_accepted(self, kind):
        x = np.diag([3.0, 2.0, 1.0])
        assert truncated_nuclear_norm(x, kind(1)) == truncated_nuclear_norm(x, 1) == 3.0
        assert truncation_pair(x, kind(2)).r == 2

    def test_nonincreasing_in_r_and_zero_at_full(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 4))
        values = [truncated_nuclear_norm(x, r) for r in range(5)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-12)


class TestTruncationPair:
    def test_diagonal_trace(self):
        pair = truncation_pair(np.diag([5.0, 3.0, 1.0]), 2)
        assert pair.trace_term(np.diag([5.0, 3.0, 1.0])) == pytest.approx(8.0)

    def test_empty_pair(self):
        pair = truncation_pair(np.diag([5.0, 3.0, 1.0]), 0)
        assert pair.r == 0 and pair.L.shape == (0, 3) and pair.R.shape == (0, 3)
        assert pair.trace_term(np.diag([5.0, 3.0, 1.0])) == 0.0
        assert pair.correction().shape == (3, 3)
        assert np.all(pair.correction() == 0)

    def test_trace_matches_top_singular_values(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 6))
        pair = truncation_pair(x, 3)
        top3 = np.linalg.svd(x, compute_uv=False)[:3].sum()
        assert pair.trace_term(x) == pytest.approx(top3, rel=1e-8)

    def test_orthonormal_blocks(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((7, 5))
        pair = truncation_pair(x, 4)
        assert np.linalg.norm(pair.L @ pair.L.T - np.eye(4)) <= 1e-10
        assert np.linalg.norm(pair.R @ pair.R.T - np.eye(4)) <= 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            truncation_pair(np.eye(3), 5)

    def test_identity_decomposition(self):
        # ||X||_* = truncated norm + trace correction, for every r
        rng = np.random.default_rng(10)
        for _ in range(20):
            m, n = rng.integers(3, 9, size=2)
            x = rng.standard_normal((m, n))
            full = nuclear_norm(x)
            for r in range(min(m, n) + 1):
                pair = truncation_pair(x, r)
                total = truncated_nuclear_norm(x, r) + pair.trace_term(x)
                assert total == pytest.approx(full, rel=1e-8)


def separated(shape, r, rng):
    """A rank-r Gaussian factor product plus small noise: sigma_r is far above
    sigma_{r+1}, as in the benchmark's recoveries."""
    m, n = shape
    return (rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            + 1e-2 * rng.standard_normal(shape))


def gram_route():
    if linalg._syevr() is None:
        pytest.skip("numpy's OpenBLAS exports no dsyevr: every pair takes the dense route")


class TestTruncationPairRoute:
    """The pair comes from r + 1 eigenpairs of the scaled Gram matrix where
    their subspace error bound is at most 1e-12, and from a dense SVD
    otherwise."""

    def test_numpy_openblas_exports_the_pairs_dsyevr(self):
        # the pair calls dsyevr with RANGE = 'I'; a build that loses the
        # binding would run every pair through the dense SVD unnoticed
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy's BLAS is {blas.get('name')}, not scipy-openblas")
        x = separated((40, 30), 3, np.random.default_rng(30))
        with mock.patch.object(linalg, "_dsyevr", wraps=linalg._dsyevr) as partial:
            truncation_pair(x, 3)
        assert partial.call_count == 1 and partial.call_args.args[2] == b"I"

    @pytest.mark.parametrize("shape", [(40, 30), (30, 40)])
    @pytest.mark.parametrize("r", [1, 3, 30])
    def test_separated_spectrum_takes_the_gram_route(self, shape, r):
        # r = 30 = min(m, n): lambda_{q+1} = 0 is the gap's lower end
        gram_route()
        rng = np.random.default_rng(31)
        x = separated(shape, 3, rng) if r < 30 else with_spectrum(shape, np.linspace(5, 1, 30), rng)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as dense:
            pair = truncation_pair(x, r)
        assert dense.call_count == 0
        assert pair.r == r and pair.L.shape == (r, shape[0]) and pair.R.shape == (r, shape[1])
        assert pair.L.flags.c_contiguous and pair.R.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(40, 30), (30, 40)])
    @pytest.mark.parametrize("case, r, kept", [("tie", 2, 2), ("rank_deficient", 3, 2),
                                               ("ill_conditioned", 2, 2), ("zero", 2, 0)])
    def test_tied_or_rank_deficient_spectrum_takes_the_dense_route(self, shape, case, r, kept):
        rng = np.random.default_rng(32)
        spectra = {"tie": [3.0, 2.0, 2.0, 1.0], "rank_deficient": [3.0, 2.0],
                   "ill_conditioned": [1.0, 1e-3, 1e-4]}
        x = np.zeros(shape) if case == "zero" else with_spectrum(shape, spectra[case], rng)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as dense:
            pair = truncation_pair(x, r)
        assert dense.call_count == 1
        assert pair.r == kept and pair.L.shape == (kept, shape[0])
        assert pair.R.shape == (kept, shape[1])

    @pytest.mark.parametrize("size, r", [(128, 5), (300, 20), (512, 25)])
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
    def test_projectors_match_a_dense_svd(self, size, r, wide, scale):
        gram_route()
        shape = (size - size // 4, size) if wide else (size, size - size // 4)
        base = separated(shape, r, np.random.default_rng(size))
        u, _, vt = np.linalg.svd(base, full_matrices=False)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as dense:
            pair = truncation_pair(base * scale, r)
        assert dense.call_count == 0 and pair.r == r
        assert np.linalg.norm(pair.L.T @ pair.L - u[:, :r] @ u[:, :r].T) <= 1e-12
        assert np.linalg.norm(pair.R.T @ pair.R - vt[:r].T @ vt[:r]) <= 1e-12
        assert np.linalg.norm(pair.L @ pair.L.T - np.eye(r)) <= 1e-12
        assert np.linalg.norm(pair.R @ pair.R.T - np.eye(r)) <= 1e-12
