import dataclasses

import numpy as np
import pytest

from tnnr.sve import SveConfig, default_kappa, estimate_rank


class TestEstimateRank:
    def test_plateau_then_drop(self):
        s = np.array([10.0, 10, 10, 1, 1, 1, 1, 1, 1, 1])
        prof = estimate_rank(s, 5.0)
        assert np.allclose(prof.St, [0, 0, 9, 0, 0, 0, 0, 0, 0])
        assert np.allclose(prof.Stt, [0, 9, 9, 0, 0, 0, 0, 0])
        assert prof.r_hat == 3

    def test_flat_spectrum_falls_back_to_zero(self):
        prof = estimate_rank(np.ones(5), 0.5)
        assert prof.r_hat == 0

    def test_slow_tail(self):
        s = np.array([100.0, 50, 2, 1.9, 1.8, 1.7, 1.6, 1.5])
        prof = estimate_rank(s, 10.0)
        assert np.allclose(prof.St[:3], [50, 48, 0.1])
        assert np.allclose(prof.Stt[:2], [2, 47.9])
        assert prof.r_hat == 2

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            estimate_rank([1.0, 2.0, 0.5], 0.1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            estimate_rank([2.0, 1.0], 0.1)

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ValueError):
            estimate_rank([3.0, 2.0, 1.0], 0.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = np.sort(np.abs(rng.standard_normal(12)))[::-1] * 10
            kappa = rng.uniform(0.5, 5.0)
            base = estimate_rank(s, kappa).r_hat
            for c in (0.01, 3.0, 1e4):
                assert estimate_rank(c * s, c * kappa).r_hat == base

    def test_monotone_in_kappa(self):
        # a larger threshold keeps a subset of the jumps, so a nonzero
        # estimate can only shrink
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = np.sort(rng.uniform(0, 50, size=15))[::-1]
            r_small = estimate_rank(s, 1.0).r_hat
            r_large = estimate_rank(s, 4.0).r_hat
            if r_large > 0 and r_small > 0:
                assert r_large <= r_small

    def test_exact_rank_with_gap(self):
        # spectra of exact-rank-r matrices with a clear gap are recovered
        # whenever kappa is below half the gap
        rng = np.random.default_rng(2)
        for r in (1, 3, 6):
            tail = np.zeros(12 - r)
            head = np.sort(rng.uniform(10.0, 20.0, size=r))[::-1]
            s = np.concatenate([head, tail])
            assert estimate_rank(s, 4.9).r_hat == r


class TestDefaultKappa:
    def test_synthetic_heuristic_square(self):
        assert default_kappa(300, 300, 1.0, "synthetic") == pytest.approx(10.0)

    def test_real_heuristic_square(self):
        assert default_kappa(300, 300, 1.0, "real") == pytest.approx(100.0)

    def test_real_heuristic_rectangular(self):
        assert default_kappa(350, 210, 1.0, "real") == pytest.approx(90.3696, abs=1e-3)

    def test_scale_parameter(self):
        assert default_kappa(300, 300, 2.0, "synthetic") == pytest.approx(20.0)
        assert default_kappa(300, 300, 5.0, "real") == pytest.approx(20.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            default_kappa(300, 300, 0.0, "real")
        with pytest.raises(ValueError):
            default_kappa(300, 300, 1.0, "other")


class TestSveConfig:
    def test_explicit_requires_kappa(self):
        with pytest.raises(ValueError):
            SveConfig(kappa_mode="explicit")

    @pytest.mark.parametrize("kwargs", [{"kappa_mode": "explicit", "kappa": float("nan")},
                                        {"s": float("nan")}])
    def test_rejects_nan(self, kwargs):
        with pytest.raises(ValueError):
            SveConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [("max_outer", -1), ("stability", 0),
                                             ("kappa_mode", "other")])
    def test_checked_settings_cannot_change(self, name, value):
        cfg = SveConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)

    def test_heuristic_forbids_kappa(self):
        with pytest.raises(ValueError):
            SveConfig(kappa_mode="real", kappa=5.0)

    def test_resolve(self):
        assert SveConfig(kappa_mode="explicit", kappa=7.0).resolve_kappa(10, 10) == 7.0
        assert SveConfig(kappa_mode="synthetic").resolve_kappa(300, 300) == pytest.approx(10.0)
        assert SveConfig(kappa_mode="real", s=2.0).resolve_kappa(300, 300) == pytest.approx(50.0)


@pytest.mark.parametrize("make, message", [
    (lambda: estimate_rank([3.0, np.nan, 1.0], 0.5), "spectrum entries must be finite"),
    (lambda: estimate_rank([3.0, 2.0, -1.0], 0.5), "singular values must be nonnegative"),
    (lambda: default_kappa(0, 5, 1.0, "real"), r"invalid dimensions \(0, 5\)"),
    (lambda: SveConfig(kappa_mode="x"), "kappa_mode must be explicit, real or synthetic"),
])
def test_rejections_name_their_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()
