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
    u, _ = np.linalg.qr(rng.standard_normal((m, q)))
    v, _ = np.linalg.qr(rng.standard_normal((n, q)))
    s = np.linspace(3.0, 1.0, q)
    s[:3] = 3.0
    if q > 4:
        s[-2:] = 1.0
    return (u * s) @ v.T


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
        with mock.patch.object(linalg, "_eigenpairs_above",
                               wraps=linalg._eigenpairs_above) as partial:
            _shrink_factors(x, 1.0, prev)
            _shrink_factors(x, 1.0)
        assert partial.call_count == int(subset and linalg._syevr() is not None)

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
    @pytest.mark.parametrize("subset", [False, True])
    def test_tau_above_sigma_1_gives_positive_zeros(self, shape, subset):
        # no eigenpair clears the threshold: the factor products have inner
        # dimension 0, and numpy returns +0.0 everywhere. (tau / c)^2 stays
        # below the doubled Gram trace, so dsyevr runs and finds no pair.
        x = np.random.default_rng(25).standard_normal(shape)
        prev = np.zeros(6) if subset else None
        with mock.patch.object(linalg, "_eigenpairs_above",
                               wraps=linalg._eigenpairs_above) as partial:
            out, vals = _shrink_factors(x, 1.1 * np.linalg.norm(x, 2), prev)
        assert partial.call_count == int(subset and linalg._syevr() is not None)
        assert out.shape == shape and np.all(out == 0.0) and not np.signbit(out).any()
        assert vals.shape == (6,) and np.all(vals == 0.0) and not np.signbit(vals).any()


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
