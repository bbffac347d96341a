import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

from tnnr.operators import (
    OPERATORS,
    LinearMap,
    PartialDct2D,
    SamplingMask,
    _dct_matrix,
    _nearest_in_ball,
    _norm,
    project_ball,
)

from helpers import inverse_identity_check


def random_operator(kind, m, n, sr, seed):
    if kind == "mask":
        return SamplingMask.random(m, n, sr, seed)
    return PartialDct2D.random(m, n, sr, seed)


class TestSamplingMask:
    def test_full_observation_reads_in_index_order(self):
        mask = SamplingMask(2, 2, [0, 0, 1, 1], [0, 1, 0, 1])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(mask.apply(x), [1, 2, 3, 4])

    def test_adjoint_scatter(self):
        mask = SamplingMask(2, 2, [0], [0])
        assert np.array_equal(mask.adjoint([5.0]), [[5, 0], [0, 0]])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SamplingMask(2, 2, [0, 0], [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SamplingMask(2, 2, [0, 2], [0, 0])

    def test_random_is_sorted_and_sized(self):
        mask = SamplingMask.random(10, 7, 0.43, 123)
        assert mask.p == round(0.43 * 70)
        flat = mask.rows * 7 + mask.cols
        assert np.all(np.diff(flat) > 0)

    def test_shape_mismatch(self):
        mask = SamplingMask.random(4, 4, 0.5, 0)
        with pytest.raises(ValueError):
            mask.apply(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            mask.adjoint(np.zeros(mask.p + 1))

    def test_file_round_trip(self, tmp_path):
        mask = SamplingMask.random(6, 5, 0.4, 7)
        path = tmp_path / "mask.txt"
        mask.to_file(path)
        loaded = SamplingMask.from_file(path)
        assert loaded.shape == mask.shape
        assert np.array_equal(loaded.rows, mask.rows)
        assert np.array_equal(loaded.cols, mask.cols)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n0 0\n")
        with pytest.raises(ValueError, match="bad.txt"):
            SamplingMask.from_file(path)


class TestPartialDct2D:
    def test_zero_maps_to_zero(self):
        op = PartialDct2D.random(6, 6, 0.5, 0)
        assert np.array_equal(op.apply(np.zeros((6, 6))), np.zeros(op.p))

    def test_full_keep_is_isometric(self):
        rng = np.random.default_rng(1)
        op = PartialDct2D(5, 4, np.arange(20))
        x = rng.standard_normal((5, 4))
        assert np.linalg.norm(op.apply(x)) == pytest.approx(np.linalg.norm(x, "fro"), abs=1e-10)

    def test_keep_dc_flag(self):
        op = PartialDct2D.random(8, 8, 0.2, 3, keep_dc=True)
        assert 0 in op.kept

    def test_file_round_trip(self, tmp_path):
        op = PartialDct2D.random(6, 7, 0.3, 11)
        path = tmp_path / "keep.txt"
        op.to_file(path)
        loaded = PartialDct2D.from_file(path)
        assert loaded.shape == op.shape and np.array_equal(loaded.kept, op.kept)

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            PartialDct2D(3, 3, [1, 1, 2])


class TestIndexFiles:
    """Both operators share one index-file reader and writer."""

    @pytest.mark.parametrize("op, text", [
        (SamplingMask(2, 3, [1], [2]), "2 3 1\n1 2\n"),
        (PartialDct2D(2, 3, [4]), "2 3 1\n4\n"),
        (PartialDct2D(2, 3, [5, 0]), "2 3 2\n5\n0\n"),
    ])
    def test_bytes_and_round_trip(self, tmp_path, op, text):
        path = tmp_path / "op.txt"
        op.to_file(path)
        assert path.read_text() == text
        loaded = type(op).from_file(path)
        x = np.arange(6.0).reshape(2, 3)
        assert loaded.shape == op.shape
        assert np.array_equal(loaded.apply(x), op.apply(x))

    @pytest.mark.parametrize("op", [SamplingMask.random(128, 128, 0.5, 0),
                                    PartialDct2D.random(30, 20, 0.3, 1, keep_dc=True),
                                    PartialDct2D(1, 1, [0])])
    def test_bytes_are_savetxt_bytes(self, tmp_path, op):
        op.to_file(tmp_path / "op.txt")
        with open(tmp_path / "ref.txt", "w") as f:
            f.write(f"{op.shape[0]} {op.shape[1]} {op.p}\n")
            np.savetxt(f, np.column_stack([getattr(op, c) for c in op.columns]), fmt="%d")
        assert (tmp_path / "op.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "op.txt"
        path.write_text("3 3 2\n# row col\n0 1\n\n  2 2  # the last\n")
        mask = SamplingMask.from_file(path)
        assert mask.rows.tolist() == [0, 2] and mask.cols.tolist() == [1, 2]

    @pytest.mark.parametrize("cls, kind, text", [
        (SamplingMask, "mask", "3 3 2\n0 0\n"),
        (SamplingMask, "mask", "3 3\n0 0\n"),
        (PartialDct2D, "DCT-keep", "3 3 3\n0\n4\n"),
        (PartialDct2D, "DCT-keep", "3 3 1\n0 4\n"),
        (SamplingMask, "mask", "8 8 2\n1 1\n1 1\n"),  # a repeated entry
        (SamplingMask, "mask", "8 8 1\n9 0\n"),  # row 9 of 8
        (PartialDct2D, "DCT-keep", "8 8 1\n64\n"),  # keep index 64 of 64
        (SamplingMask, "mask", "8 8 0\n"),  # p = 0
        (SamplingMask, "mask", "8 8 2\n"),  # a header and no index lines
        (PartialDct2D, "DCT-keep", "8 8 2\n"),
    ])
    @pytest.mark.filterwarnings("error")  # numpy's empty-input warning included
    def test_bad_file_names_its_kind(self, tmp_path, cls, kind, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad {kind} file .*bad.txt"):
            cls.from_file(path)


class TestPinnedDraws:
    """The random draws equal literal index arrays, so any change in the
    generator calls, which would move every random operator, fails here."""

    @pytest.mark.parametrize("seed, flat", [(3, [1, 2, 3, 10, 11, 14, 16, 18]),
                                            (12345, [3, 5, 9, 11, 12, 13, 14, 16])])
    def test_mask(self, seed, flat):
        mask = SamplingMask.random(5, 4, 0.4, seed)
        assert np.array_equal(mask.rows, np.divmod(flat, 4)[0])
        assert np.array_equal(mask.cols, np.divmod(flat, 4)[1])

    @pytest.mark.parametrize("seed, keep_dc, kept", [
        (3, False, [1, 2, 3, 10, 11, 14, 16, 18]),
        (3, True, [0, 1, 2, 10, 11, 14, 16, 18]),
        (12345, False, [3, 5, 9, 11, 12, 13, 14, 16]),
        (12345, True, [0, 3, 9, 11, 12, 13, 14, 16]),
    ])
    def test_dct(self, seed, keep_dc, kept):
        assert np.array_equal(PartialDct2D.random(5, 4, 0.4, seed, keep_dc=keep_dc).kept, kept)


@pytest.mark.parametrize("kind", ["mask", "dct"])
class TestTightFrameIdentities:
    def test_adjoint_identity(self, kind):
        rng = np.random.default_rng(2)
        op = random_operator(kind, 9, 7, 0.5, 42)
        for _ in range(25):
            x = rng.standard_normal((9, 7))
            y = rng.standard_normal(op.p)
            lhs = float(op.apply(x) @ y)
            rhs = float(np.vdot(x, op.adjoint(y)))
            assert abs(lhs - rhs) <= 1e-10

    def test_tight_frame(self, kind):
        rng = np.random.default_rng(3)
        op = random_operator(kind, 8, 8, 0.4, 43)
        for _ in range(25):
            y = rng.standard_normal(op.p)
            assert np.linalg.norm(op.apply(op.adjoint(y)) - y) <= 1e-10

    def test_operator_norm_at_most_one(self, kind):
        rng = np.random.default_rng(4)
        op = random_operator(kind, 10, 6, 0.6, 44)
        for _ in range(25):
            x = rng.standard_normal((10, 6))
            assert np.linalg.norm(op.apply(x)) <= np.linalg.norm(x, "fro") + 1e-10

    def test_inverse_identity(self, kind):
        rng = np.random.default_rng(5)
        op = random_operator(kind, 8, 6, 0.5, 45)
        for alpha in (0.5, 1.0, 3.0):
            x = rng.standard_normal((8, 6))
            assert inverse_identity_check(op, alpha, x) <= 1e-10 * np.linalg.norm(x, "fro")

    def test_inverse_identity_zero_matrix(self, kind):
        op = random_operator(kind, 5, 5, 0.5, 46)
        assert inverse_identity_check(op, 1.0, np.zeros((5, 5))) == 0.0


class TestProjectBall:
    def test_interior_point_unchanged(self):
        op = SamplingMask.random(5, 5, 0.5, 0)
        rng = np.random.default_rng(6)
        y = rng.standard_normal((5, 5))
        b = op.apply(y)
        out = project_ball(op, y, b, 1.0)  # residual 0 <= delta
        assert np.array_equal(out, y)

    def test_hand_case_on_boundary(self):
        # 1x1 domain, Y = 0, b = 2, delta = 1: eta = 1, output 1, residual 1
        op = SamplingMask(1, 1, [0], [0])
        out = project_ball(op, np.array([[0.0]]), np.array([2.0]), 1.0)
        assert out == pytest.approx(np.array([[1.0]]))
        assert abs(op.apply(out)[0] - 2.0) == pytest.approx(1.0)

    def test_delta_zero_overwrites_samples(self):
        op = SamplingMask.random(6, 6, 0.4, 1)
        rng = np.random.default_rng(7)
        y = rng.standard_normal((6, 6))
        b = rng.standard_normal(op.p)
        out = project_ball(op, y, b, 0.0)
        assert np.allclose(out[op.rows, op.cols], b)
        unobserved = ~op.observed()
        assert np.allclose(out[unobserved], y[unobserved])

    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_residual_within_delta(self, kind):
        rng = np.random.default_rng(8)
        op = random_operator(kind, 7, 7, 0.5, 2)
        for delta in (0.0, 0.3, 2.0):
            y = 3 * rng.standard_normal((7, 7))
            b = rng.standard_normal(op.p)
            out = project_ball(op, y, b, delta)
            assert np.linalg.norm(op.apply(out) - b) <= delta + 1e-8 + 1e-10

    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_idempotent(self, kind):
        rng = np.random.default_rng(9)
        op = random_operator(kind, 6, 8, 0.5, 3)
        y = 2 * rng.standard_normal((6, 8))
        b = rng.standard_normal(op.p)
        once = project_ball(op, y, b, 0.5)
        twice = project_ball(op, once, b, 0.5)
        assert np.linalg.norm(twice - once, "fro") <= 1e-10

    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_closest_feasible_point(self, kind):
        rng = np.random.default_rng(10)
        op = random_operator(kind, 6, 6, 0.5, 4)
        b = rng.standard_normal(op.p)
        delta = 0.4
        y = 3 * rng.standard_normal((6, 6))
        projected = project_ball(op, y, b, delta)
        dist = np.linalg.norm(projected - y, "fro")
        for _ in range(40):
            w = project_ball(op, 3 * rng.standard_normal((6, 6)), b, delta)
            assert dist <= np.linalg.norm(w - y, "fro") + 1e-8

    def test_negative_delta_rejected(self):
        op = SamplingMask(1, 1, [0], [0])
        with pytest.raises(ValueError):
            project_ball(op, np.zeros((1, 1)), np.zeros(1), -1.0)

    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_bad_y_or_b_rejected(self, kind):
        # Y is checked by the operator's apply alone
        op = random_operator(kind, 4, 5, 0.5, 5)
        y, b = np.zeros((4, 5)), np.zeros(op.p)
        for bad_y, bad_b in ((np.zeros((5, 4)), b), (np.where(np.eye(4, 5), np.nan, y), b),
                             (y, np.full(op.p, np.inf)), (y, np.zeros(op.p + 1))):
            with pytest.raises(ValueError):
                project_ball(op, bad_y, bad_b, 0.5)

    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_matches_the_eta_formula_outside_the_ball(self, kind):
        # the reference: Y + (eta/(eta+1)) A*(b - A(Y)), eta = ||A(Y) - b||/delta - 1
        rng = np.random.default_rng(11)
        op = random_operator(kind, 7, 7, 0.5, 5)
        for delta in (0.3, 2.0):
            y = 3 * rng.standard_normal((7, 7))
            b = rng.standard_normal(op.p)
            resid = b - op.apply(y)
            eta = np.linalg.norm(resid) / delta - 1.0
            assert eta > 0
            ref = y + (eta / (eta + 1.0)) * op.adjoint(resid)
            out = project_ball(op, y, b, delta)
            assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_nearest_in_ball_at_extreme_scales(self, scale):
        # ||v|| = 2 scale: its square overflows or underflows, its scaled norm does not
        v = np.full(4, scale)
        np.testing.assert_allclose(_nearest_in_ball(v, scale), v / 2, rtol=1e-15)

    def test_negative_alpha_rejected(self):
        op = SamplingMask(1, 1, [0], [0])
        with pytest.raises(ValueError):
            inverse_identity_check(op, 0.0, np.zeros((1, 1)))


@st.composite
def degenerate_operators(draw):
    """A mask or partial DCT on a 1 x k or k x 1 domain, or one of any small
    shape that keeps a single measurement or all m n of them; plus a seed
    for its test data."""
    kind = draw(st.sampled_from(["mask", "dct"]))
    k, j = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    m, n = draw(st.sampled_from([(1, k), (k, 1), (k, j)]))
    counts = [1, m * n] if min(m, n) > 1 else [1, m * n, draw(st.integers(1, m * n))]
    p = draw(st.sampled_from(counts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.choice(m * n, size=p, replace=False)  # any distinct order
    op = SamplingMask(m, n, flat // n, flat % n) if kind == "mask" else PartialDct2D(m, n, flat)
    return op, rng


def reference_pair(op):
    """apply and adjoint of `op` built apart from the operator classes: the
    mask's by indexing, the DCT's by scipy.fft's fast transforms."""
    m, n = op.shape
    if isinstance(op, SamplingMask):
        def adjoint(y):
            out = np.zeros((m, n))
            out[op.rows, op.cols] = y
            return out

        return (lambda x: x[op.rows, op.cols]), adjoint

    def adjoint(y):
        c = np.zeros(m * n)
        c[op.kept] = y
        return fft.idctn(c.reshape(m, n), norm="ortho")

    return (lambda x: fft.dctn(x, norm="ortho").ravel()[op.kept]), adjoint


class TestDegenerateShapes:
    """The tight-frame identities and the ball projection at 1 x n, n x 1,
    p = 1 and p = m n."""

    @settings(max_examples=150, deadline=None)
    @given(case=degenerate_operators())
    def test_apply_and_adjoint_match_a_reference(self, case):
        # the mask bit for bit; the DCT, a matrix product, to 1e-14 of the
        # input's norm (up to 1.6e-15 relative from scipy.fft at n <= 512)
        op, rng = case
        apply, adjoint = reference_pair(op)
        x = rng.standard_normal(op.shape)
        y = rng.standard_normal(op.p)
        if isinstance(op, SamplingMask):
            assert np.array_equal(op.apply(x), apply(x))
            assert np.array_equal(op.adjoint(y), adjoint(y))
        else:
            assert np.linalg.norm(op.apply(x) - apply(x)) <= 1e-14 * np.linalg.norm(x)
            assert np.linalg.norm(op.adjoint(y) - adjoint(y)) <= 1e-14 * np.linalg.norm(y)

    @settings(max_examples=150, deadline=None)
    @given(case=degenerate_operators())
    def test_tight_frame_and_adjoint(self, case):
        op, rng = case
        x = rng.standard_normal(op.shape)
        y = rng.standard_normal(op.p)
        assert np.linalg.norm(op.apply(op.adjoint(y)) - y) <= 1e-12 * np.linalg.norm(y)
        lhs = float(op.apply(x) @ y)
        rhs = float(np.vdot(x, op.adjoint(y)))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)

    @settings(max_examples=150, deadline=None)
    @given(case=degenerate_operators(), frac=st.floats(1e-3, 2.0))
    def test_ball_projection_lands_in_the_ball(self, case, frac):
        op, rng = case
        y = 3 * rng.standard_normal(op.shape)
        b = rng.standard_normal(op.p)
        delta = frac * float(np.linalg.norm(op.apply(y) - b))
        out = project_ball(op, y, b, delta)
        assert np.linalg.norm(op.apply(out) - b) <= delta * (1 + 1e-9)


@pytest.mark.parametrize("make, message", [
    (lambda: LinearMap.random(4, 4, 0.0, 0), "sample_ratio must be in"),
    (lambda: LinearMap.random(4, 4, 1.5, 0), "sample_ratio must be in"),
    (lambda: LinearMap(4, 4, [0, 1]).adjoint([1.0, np.inf]), "must be finite"),
    (lambda: LinearMap(0, 4, [0]), r"invalid domain shape \(0, 4\)"),
    (lambda: LinearMap(4, 4, [[0, 1]]), "indices must be a 1-D array"),
    (lambda: SamplingMask(4, 4, [0, 1], [0]), "rows and cols must be 1-D arrays"),
    (lambda: SamplingMask(4, 4, [0], [4]), "mask indices out of range"),
])
def test_rejections_name_their_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestNorm:
    """_norm is np.linalg.norm wherever that neither overflows nor
    underflows, and finite and scaled alike where it would."""

    @pytest.mark.parametrize("shape", [(7,), (5, 4)])
    def test_bit_for_bit_in_range(self, shape):
        v = np.random.default_rng(0).standard_normal(shape) * 37.0
        assert _norm(v) == float(np.linalg.norm(v))
        assert _norm(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 1e-170, 1e170, 2.0 ** 1000])
    def test_scales_with_its_vector(self, scale):
        v = np.random.default_rng(1).standard_normal(9)
        assert _norm(scale * v) == pytest.approx(scale * float(np.linalg.norm(v)), rel=1e-15)


def _singular_values_kept(transform, x) -> bool:
    s = np.linalg.svd(x, compute_uv=False)
    return np.allclose(np.linalg.svd(transform(x), compute_uv=False), s, rtol=0, atol=1e-12 * s[0])


@pytest.mark.parametrize("kind", list(OPERATORS))
class TestSamplingDomainContract:
    """The solvers run every inner solve on P_Omega alone, in the
    coefficients T(X): that is the same solve only for a T of the form
    X -> U X V^T with U and V orthogonal, which keeps the singular values.
    A T that permutes entries keeps A A* = I and the tight-frame identities,
    but fails this check, and would break the sampling-domain solve."""

    @pytest.mark.parametrize("shape", [(7, 5), (12, 12)])
    def test_transform_keeps_singular_values_and_inverts(self, kind, shape):
        op = OPERATORS[kind].random(*shape, 0.5, 47)
        x = np.random.default_rng(6).standard_normal(shape)
        assert _singular_values_kept(op.transform, x)
        assert np.allclose(op.inverse(op.transform(x)), x, rtol=0, atol=1e-12)

    def test_sampling_is_the_mask_on_the_same_slots(self, kind):
        op = OPERATORS[kind].random(9, 7, 0.5, 48)
        assert isinstance(op.sampling, SamplingMask)
        assert np.array_equal(op.sampling.slots, op.slots)
        assert op.sampling.shape == op.shape and op.sampling.p == op.p
        assert op.sampling is op.sampling
        assert (op.sampling is op) == (kind == "mask")
        x = np.random.default_rng(7).standard_normal((9, 7))
        assert np.array_equal(op.sampling.apply(op.transform(x)), op.apply(x))


class TestDctMatrix:
    """C_n, the orthonormal DCT-II matrix that PartialDct2D applies as
    T(X) = C_m X C_n^T, against scipy.fft's DCT of the identity. Without the
    reduction of its integer argument mod 4n, C_n misses the reference by
    6e-15 at n = 100 and 1.3e-14 at n = 1000."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 300, 512, 1000])
    def test_orthonormal_and_equal_to_the_reference(self, n):
        c = _dct_matrix(n)
        assert np.linalg.norm(c @ c.T - np.eye(n), 2) <= 1e-14
        assert np.abs(c - fft.dct(np.eye(n), norm="ortho", axis=0)).max() <= 1e-15

    def test_built_once_and_read_only(self):
        c = _dct_matrix(5)
        assert _dct_matrix(5) is c and not c.flags.writeable
        op = PartialDct2D.random(5, 3, 0.5, 0)
        assert op.uv[0] is c and op.uv[1] is _dct_matrix(3)
        assert SamplingMask.random(5, 3, 0.5, 0).uv is None and op.sampling.uv is None


def test_an_entry_permutation_fails_the_contract():
    # the check above tells such a T apart: it keeps the Frobenius norm,
    # and with it A A* = I, but not the singular values
    x = np.random.default_rng(8).standard_normal((7, 5))
    order = np.random.default_rng(9).permutation(35)
    assert not _singular_values_kept(lambda v: v.ravel()[order].reshape(v.shape), x)
