import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnr.data import SyntheticSpec, load_image, save_image, stream_rng, synth_lowrank
from tnnr.metrics import psnr, relative_error


class TestSyntheticSpec:
    def test_paper_scale_setup(self):
        spec = SyntheticSpec(300, 300, 20, 0.5, 0.9, 0)
        assert spec.p == 45000
        x_star, a, b = synth_lowrank(spec)
        assert x_star.shape == (300, 300) and a.p == 45000 and b.shape == (45000,)

    @pytest.mark.parametrize("kwargs", [
        {"m": 0, "n": 5, "r": 1, "sr": 0.5},
        {"m": 5, "n": 5, "r": 6, "sr": 0.5},
        {"m": 5, "n": 5, "r": 0, "sr": 0.5},
        {"m": 5, "n": 5, "r": 1, "sr": 0.0},
        {"m": 5, "n": 5, "r": 1, "sr": 1.1},
        {"m": 5, "n": 5, "r": 1, "sr": 0.5, "std": -1.0},
        {"m": 5, "n": 5, "r": 1, "sr": float("nan")},
        {"m": 5, "n": 5, "r": 1, "sr": 0.5, "std": float("nan")},
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)


class TestSynthLowrank:
    def test_factor_product_has_requested_rank(self):
        for seed in range(5):
            spec = SyntheticSpec(40, 30, 6, 0.5, 0.0, seed)
            x_star, _, _ = synth_lowrank(spec)
            s = np.linalg.svd(x_star, compute_uv=False)
            assert s[6] / s[0] <= 1e-10

    def test_deterministic(self):
        spec = SyntheticSpec(25, 20, 3, 0.4, 0.7, 99)
        for kind in ("mask", "dct"):
            x1, a1, b1 = synth_lowrank(spec, kind=kind)
            x2, a2, b2 = synth_lowrank(spec, kind=kind)
            assert np.array_equal(x1, x2) and np.array_equal(b1, b2)
            if kind == "mask":
                assert np.array_equal(a1.rows, a2.rows)
            else:
                assert np.array_equal(a1.kept, a2.kept)

    def test_streams_are_independent(self):
        # changing the noise draw must not move the factors or the mask
        spec_a = SyntheticSpec(20, 20, 2, 0.5, 0.0, 7)
        spec_b = SyntheticSpec(20, 20, 2, 0.5, 2.0, 7)
        xa, aa, _ = synth_lowrank(spec_a, kind="mask")
        xb, ab, _ = synth_lowrank(spec_b, kind="mask")
        assert np.array_equal(xa, xb)
        assert np.array_equal(aa.rows, ab.rows)

    def test_noise_std_calibrated(self):
        spec = SyntheticSpec(400, 300, 2, 0.9, 1.7, 3)
        x_star, a, b = synth_lowrank(spec, kind="mask")
        noise = b - a.apply(x_star)
        assert noise.size >= 1e5
        assert abs(noise.std() - 1.7) / 1.7 <= 0.02

    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_p_is_the_drawn_count(self, kind):
        spec = SyntheticSpec(5, 5, 1, 0.01)  # round(0.25) = 0, and every draw keeps one
        assert spec.p == synth_lowrank(spec, kind=kind)[1].p == 1

    # literal draws, as in TestPinnedDraws; keep_dc is read by the DCT only
    @pytest.mark.parametrize("seed, kind, keep_dc, slots", [
        (0, "mask", False, [1, 2, 3, 4, 6, 10, 12, 16]),
        (0, "mask", True, [1, 2, 3, 4, 6, 10, 12, 16]),
        (0, "dct", False, [5, 6, 11, 12, 13, 14, 18, 19]),
        (0, "dct", True, [0, 5, 6, 11, 13, 14, 18, 19]),
        (7, "mask", False, [2, 3, 7, 10, 13, 16, 17, 19]),
        (7, "mask", True, [2, 3, 7, 10, 13, 16, 17, 19]),
        (7, "dct", False, [2, 4, 5, 8, 9, 13, 14, 19]),
        (7, "dct", True, [0, 2, 4, 5, 8, 9, 13, 19]),
    ])
    def test_pinned_draws(self, seed, kind, keep_dc, slots):
        _, a, _ = synth_lowrank(SyntheticSpec(5, 4, 1, 0.4, seed=seed), kind=kind,
                                keep_dc=keep_dc)
        flat = a.rows * 4 + a.cols if kind == "mask" else a.kept
        assert np.array_equal(flat, slots)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_lowrank(SyntheticSpec(5, 5, 1, 0.5), kind="fourier")

    def test_unknown_stream(self):
        with pytest.raises(ValueError):
            stream_rng(0, "quantum")


class TestPsnr:
    def test_exact_match_capped(self):
        x = np.full((4, 4), 17.0)
        report = psnr(x, x)
        assert report.psnr_db == 99.0 and report.se == 0.0

    def test_single_pixel_full_scale_error(self):
        x_true = np.zeros((3, 3))
        x_rec = x_true.copy()
        x_rec[1, 1] = 255.0
        eval_mask = np.zeros((3, 3), bool)
        eval_mask[1, 1] = True
        report = psnr(x_rec, x_true, eval_mask)
        assert report.psnr_db == pytest.approx(0.0, abs=1e-12)
        assert report.t_count == 1 and report.mse == pytest.approx(255.0 ** 2)

    def test_three_channel_divisor(self):
        rng = np.random.default_rng(0)
        true = [rng.uniform(0, 255, (5, 5)) for _ in range(3)]
        rec = [t + 1.0 for t in true]
        report = psnr(rec, true)
        assert report.t_count == 25
        assert report.mse == pytest.approx(report.se / 75.0)
        assert report.mse == pytest.approx(1.0)

    def test_permutation_invariant_and_monotone(self):
        rng = np.random.default_rng(1)
        true = rng.uniform(0, 255, (6, 6))
        err = rng.standard_normal((6, 6))
        mask = rng.random((6, 6)) < 0.5
        base = psnr(true + err, true, mask).psnr_db
        perm = rng.permutation(36).reshape(6, 6)
        assert psnr((true + err).ravel()[perm.ravel()].reshape(6, 6),
                    true.ravel()[perm.ravel()].reshape(6, 6),
                    mask.ravel()[perm.ravel()].reshape(6, 6)).psnr_db == pytest.approx(base)
        assert psnr(true + 2 * err, true, mask).psnr_db < base

    def test_empty_evaluation_set(self):
        x = np.zeros((3, 3))
        with pytest.raises(ValueError):
            psnr(x, x, np.zeros((3, 3), bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_channels_of_unequal_shape(self):
        with pytest.raises(ValueError, match="channels must be 2-D matrices of equal shape"):
            psnr([np.zeros((3, 3)), np.zeros((3, 4)), np.zeros((3, 3))], [np.zeros((3, 3))] * 3)

    def test_evaluation_mask_of_another_shape(self):
        with pytest.raises(ValueError, match="evaluation mask shape must match the image"):
            psnr(np.zeros((3, 3)), np.zeros((3, 3)), np.ones((3, 4), bool))


class TestRelativeError:
    def test_exact(self):
        x = np.arange(6.0).reshape(2, 3) + 1
        assert relative_error(x, x) == 0.0

    def test_zero_recovery(self):
        x = np.arange(6.0).reshape(2, 3) + 1
        assert relative_error(np.zeros_like(x), x) == pytest.approx(1.0)

    def test_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 5))
        assert relative_error(1.1 * x, x) == pytest.approx(0.1, abs=1e-12)

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))

    def test_channels_score_as_if_stacked(self):
        rng = np.random.default_rng(4)
        truths = [rng.standard_normal((5, 4)) for _ in range(3)]
        recs = [t + 0.1 * rng.standard_normal(t.shape) for t in truths]
        stacked = relative_error(np.hstack(recs), np.hstack(truths))
        assert relative_error(recs, truths) == pytest.approx(stacked, rel=1e-14)
        # one channel is exactly the quotient of the two Frobenius norms
        assert relative_error(recs[:1], truths[:1]) == (
            float(np.linalg.norm(recs[0] - truths[0])) / float(np.linalg.norm(truths[0])))
        with pytest.raises(ValueError, match="shape mismatch"):
            relative_error(recs, truths[:1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, step", [(1e300, 1e290), (1e-300, 1e-310)])
    def test_data_of_extreme_scale(self, scale, step):
        # the squares of 1e300 overflow, those of 1e-300 underflow; the sum
        # scale + step is rounded to the spacing of scale, so the exact answer
        # is |y - x| / |y| for the y that holds it (y - x is exact)
        x, y = scale * np.ones((2, 2)), scale * np.ones((2, 2)) + step
        got = relative_error(x, y)
        assert got == pytest.approx((y - x)[0, 0] / y[0, 0], rel=1e-15)
        assert got == pytest.approx(step / (scale + step), rel=1e-5)

    def test_monotone_in_error_and_permutation_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 6))
        e = rng.standard_normal((6, 6))
        values = [relative_error(x + c * e, x) for c in (0.5, 1.0, 2.0)]
        assert values[0] < values[1] < values[2]
        perm = rng.permutation(36)
        permuted = relative_error((x + e).ravel()[perm].reshape(6, 6),
                                  x.ravel()[perm].reshape(6, 6))
        assert permuted == pytest.approx(values[1])


class TestImageIO:
    def test_grayscale_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, (9, 7)).astype(np.float64)
        path = tmp_path / "img.pgm"
        save_image([image], path)
        first = path.read_bytes()
        assert first == b"P5\n7 9\n255\n" + bytes(image.astype(np.uint8).ravel().tolist())
        (loaded,) = load_image(path)
        assert loaded.dtype == np.float64 and np.array_equal(loaded, image)
        save_image([loaded], path)
        assert path.read_bytes() == first

    def test_color_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        channels = [rng.integers(0, 256, (5, 8)).astype(np.float64) for _ in range(3)]
        path = tmp_path / "img.ppm"
        save_image(channels, path)
        loaded = load_image(path)
        assert len(loaded) == 3
        for got, want in zip(loaded, channels):
            assert np.array_equal(got, want)

    def test_header_comment_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(6))
        path.write_bytes(b"P5 # binary graymap\n# another comment\n3\n 2 255\n" + raster)
        (img,) = load_image(path)
        assert img.shape == (2, 3)
        assert np.array_equal(img.ravel(), np.arange(6.0))

    def test_wrong_depth_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="depth"):
            load_image(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError, match="magic"):
            load_image(path)

    @pytest.mark.parametrize("blob, message", [
        (b"P5\n4 4", "truncated header"),
        (b"P5\n2 2\n255", "missing raster separator"),
        (b"P5\n2 2\n255#\n" + bytes(4), "missing raster separator"),
    ])
    def test_malformed_header_rejected(self, tmp_path, blob, message):
        path = tmp_path / "cut.pgm"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"bad image file .*cut.pgm: {message}"):
            load_image(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError, match="raster"):
            load_image(path)

    @pytest.mark.parametrize("field, header", [
        ("width", b"P5\n-2 3\n255\n"),
        ("width", b"P6\n0 3\n255\n"),
        ("height", b"P5\n2 2x\n255\n"),
        ("height", b"P5\n2 +3\n255\n"),
        ("maxval", b"P5\n2 3\n0\n"),
        ("maxval", b"P5\n2 3\n25.5\n"),
    ])
    def test_bad_header_number_names_file_and_field(self, tmp_path, field, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(18))
        with pytest.raises(ValueError, match=f"bad image file .*bad.pgm: {field} .*"
                                             "not a positive integer"):
            load_image(path)

    @settings(max_examples=60, deadline=None)
    @given(magic=st.sampled_from([b"P5", b"P6", b"P2", b"P5x"]),
           numbers=st.lists(st.one_of(st.integers(-3, 5).map(lambda v: str(v).encode()),
                                      st.just(b"255"),
                                      st.text("0123456789-+.xe", min_size=1, max_size=4)
                                      .map(str.encode)),
                            min_size=3, max_size=3))
    def test_any_header_loads_or_names_the_file(self, tmp_path_factory, magic, numbers):
        # a header either describes the raster that follows it or fails
        # with a message that names the file
        path = tmp_path_factory.mktemp("hdr") / "img.pgm"
        path.write_bytes(b" ".join([magic, *numbers]) + b"\n" + bytes(75))
        try:
            loaded = load_image(path)
        except ValueError as e:
            assert str(e).startswith(f"bad image file {path}: ")
            return
        width, height = (int(t) for t in numbers[:2])
        assert len(loaded) == (1 if magic == b"P5" else 3)
        assert all(c.shape == (height, width) for c in loaded)

    def test_channel_spectra_profile(self, tmp_path):
        # channel matrices of a saved image admit spectrum profiling
        rng = np.random.default_rng(5)
        base = np.outer(np.linspace(10, 200, 16), np.linspace(0.5, 1.2, 16))
        channels = [np.clip(base + rng.normal(0, 4, base.shape), 0, 255) for _ in range(3)]
        path = tmp_path / "tex.ppm"
        save_image(channels, path)
        for channel in load_image(path):
            s = np.linalg.svd(channel, compute_uv=False)
            assert np.all(np.diff(s) <= 1e-9) and np.all(s >= 0)

    def test_bad_channel_count(self, tmp_path):
        with pytest.raises(ValueError):
            save_image([np.zeros((2, 2))] * 2, tmp_path / "two.ppm")
