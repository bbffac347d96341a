import dataclasses
import itertools
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from tnnr import linalg, solvers
from tnnr.data import SyntheticSpec, random_operator, synth_lowrank
from tnnr.linalg import TruncationPair, nuclear_norm, shrink, truncated_nuclear_norm, truncation_pair
from tnnr.metrics import relative_error
from tnnr.operators import PartialDct2D, SamplingMask, project_ball
from tnnr.solvers import (
    ADMM_BETA,
    ADMMAP_BETA0,
    ALPHA,
    BETA_MAX,
    EPS_ADAPT,
    RHO0,
    SolverConfig,
    SolverDivergence,
    _admm_steps,
    _admmap_steps,
    _apgl_steps,
    _normalized,
    lrisd,
    lrisd_stages,
    momentum_step,
    objective,
    solve_with_rank,
    tnnr_admm,
    tnnr_admmap,
    tnnr_apgl,
)
from tnnr.sve import SveConfig, estimate_rank

from helpers import composite_image, q_adjoint, q_apply

SOLVERS = {"admm": (tnnr_admm, _admm_steps), "apgl": (tnnr_apgl, _apgl_steps),
           "admmap": (tnnr_admmap, _admmap_steps)}
# the iterates each step generator yields, and a warm start takes back
SOLVER_ITERATES = {"admm": ("Y", "Z"), "apgl": ("Y", "tau"), "admmap": ("Y", "z11", "z22", "xi")}


def full_mask(m, n):
    flat = np.arange(m * n)
    return SamplingMask(m, n, flat // n, flat % n)


def instance(m, n, r, sr, std, seed, kind="mask"):
    spec = SyntheticSpec(m, n, r, sr, std, seed)
    return synth_lowrank(spec, kind=kind)


def steps_of(name, a, b, pair, cfg):
    """A solver's step generator, started as `_iterate` starts it: on the
    normalized data b/c, with delta and mu in its units, from A*(b/c)."""
    _, b, cfg = _normalized(a, b, cfg)
    return SOLVERS[name][1](a, b, pair.correction(), a.adjoint(b), cfg)


def iterates(name, a, b, pair, cfg):
    """Solve, then drive the solver's step generator for as many iterations
    as the solve ran. Returns x, the trace and one dict per iteration with
    the yielded X, penalty and iterates."""
    x, trace = SOLVERS[name][0](a, b, pair, cfg)
    steps = itertools.islice(steps_of(name, a, b, pair, cfg), len(trace.k))
    return x, trace, [state | {"X": x_k, "beta": beta} for x_k, _, _, beta, state in steps]


def admmap_iterates(a, b, pair, cfg):
    """`iterates` for tnnr_admmap, with z11, z22 and xi as each iteration
    found them: the previous yield's, or the initial values for the first."""
    x, trace, snaps = iterates("admmap", a, b, pair, cfg)
    pre = {"z11": np.zeros(a.shape), "z22": np.zeros(a.p), "xi": np.zeros(a.p)}
    for snap in snaps:
        post = {key: snap[key] for key in pre}
        snap.update(pre)
        pre = post
    return x, trace, snaps


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0}, {"beta": 2e6}, {"mu": -1.0}, {"delta": -0.1},
        {"inner_tol": 0.0}, {"max_inner_iters": 0},
        *({name: float("nan")} for name in ("beta", "mu", "delta", "inner_tol", "outer_tol")),
        *({name: float("inf")} for name in ("beta", "mu", "delta", "inner_tol", "outer_tol")),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_checked_settings_cannot_change(self):
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.delta = -1.0

    @pytest.mark.parametrize("name, setting", [("admm", "delta"), ("apgl", "mu"),
                                               ("admmap", "delta")])
    def test_config_alone_sets_the_model(self, name, setting):
        # the solvers take delta and mu from the config, with no other source
        x_star, a, b = instance(10, 10, 2, 0.7, 0.3, 17, kind="dct")
        pair = truncation_pair(x_star, 2)
        value = 0.3 * np.sqrt(a.p) if setting == "delta" else 3.0
        x_default, _ = SOLVERS[name][0](a, b, pair, SolverConfig())
        x, _ = SOLVERS[name][0](a, b, pair, SolverConfig(**{setting: value}))
        assert not np.array_equal(x, x_default)
        if setting == "delta":
            assert np.linalg.norm(a.apply(x) - b) <= value * (1 + 1e-9)


class TestObjective:
    def test_empty_pair_is_nuclear_norm(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4))
        assert objective(x, TruncationPair.empty(5, 4)) == pytest.approx(nuclear_norm(x))

    def test_pair_from_self_gives_truncated_norm(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 5))
        for r in (0, 2, 4):
            pair = truncation_pair(x, r)
            assert objective(x, pair) == pytest.approx(truncated_nuclear_norm(x, r), abs=1e-9)

    def test_diagonal(self):
        x = np.diag([5.0, 3.0, 1.0])
        assert objective(x, truncation_pair(x, 1)) == pytest.approx(4.0)


class TestAdmm:
    def test_fully_observed_reproduces_data(self):
        rng = np.random.default_rng(2)
        data = 10 * rng.standard_normal((8, 8))
        a = full_mask(8, 8)
        b = a.apply(data)
        x, trace = tnnr_admm(a, b, TruncationPair.empty(8, 8), SolverConfig())
        assert relative_error(x, data) <= 1e-6
        assert trace.converged

    def test_rank1_completion_with_true_pair(self):
        x_star, a, b = instance(5, 5, 1, 0.8, 0.0, 0)
        pair = truncation_pair(x_star, 1)
        x, _ = tnnr_admm(a, b, pair, SolverConfig(inner_tol=1e-8))
        assert relative_error(x, x_star) <= 1e-2

    def test_equality_feasibility(self):
        x_star, a, b = instance(12, 10, 2, 0.6, 0.0, 1)
        x, _ = tnnr_admm(a, b, truncation_pair(x_star, 2), SolverConfig())
        assert np.linalg.norm(a.apply(x) - b) <= 1e-3 * np.linalg.norm(b)

    def test_ball_feasibility(self):
        x_star, a, b = instance(12, 12, 2, 0.6, 0.4, 2, kind="dct")
        delta = 0.4 * np.sqrt(a.p)
        x, _ = tnnr_admm(a, b, truncation_pair(x_star, 2), SolverConfig(delta=delta))
        assert np.linalg.norm(a.apply(x) - b) <= delta * (1 + 1e-3)

    def test_multiplier_update_is_exact(self):
        # the over-relaxed updates: X^ = ALPHA X + (1 - ALPHA) Y_prev stands
        # in for X in the Y and the Z update
        x_star, a, b = instance(8, 8, 2, 0.7, 0.1, 3)
        cfg = SolverConfig(max_inner_iters=40)
        pair = truncation_pair(x_star, 2)
        _, _, snaps = iterates("admm", a, b, pair, cfg)
        _, b, cfg = _normalized(a, b, cfg)
        # Y and Z start at the normalized data matrix
        y_prev = z_prev = a.adjoint(b)
        for snap in snaps:
            x_hat = ALPHA * snap["X"] + (1.0 - ALPHA) * y_prev
            y = project_ball(a, x_hat + (pair.correction() - z_prev) / snap["beta"], b,
                             cfg.delta)
            assert np.array_equal(y, snap["Y"])
            assert np.array_equal(z_prev - snap["beta"] * (x_hat - y), snap["Z"])
            y_prev, z_prev = snap["Y"], snap["Z"]

    def test_primal_gap_small_at_termination(self):
        x_star, a, b = instance(15, 15, 3, 0.6, 0.0, 4)
        _, _, snaps = iterates("admm", a, b, truncation_pair(x_star, 3), SolverConfig())
        last = snaps[-1]
        data_norm = np.linalg.norm(_normalized(a, b, SolverConfig())[1])  # the iterates' units
        assert np.linalg.norm(last["X"] - last["Y"], "fro") <= 1e-2 * data_norm

    def test_negative_delta_rejected(self):
        a = full_mask(3, 3)
        with pytest.raises(ValueError):
            tnnr_admm(a, np.zeros(9), TruncationPair.empty(3, 3), SolverConfig(delta=-1.0))

    def test_matches_convex_solver_optimum(self):
        # independent oracle: the same convex program solved by cvxpy/SCS
        cp = pytest.importorskip("cvxpy")
        from scipy import fft as sfft
        from tnnr.operators import PartialDct2D

        rng = np.random.default_rng(21)
        truth = rng.standard_normal((16, 16)) + np.outer(np.arange(16.0), np.ones(16))
        a = PartialDct2D.random(16, 16, 0.7, 5)
        b = a.apply(truth)
        x_admm, _ = tnnr_admm(a, b, TruncationPair.empty(16, 16),
                              SolverConfig(inner_tol=1e-10, max_inner_iters=30000))

        d1 = sfft.dct(np.eye(16), norm="ortho", axis=0)
        x = cp.Variable((16, 16))
        coeffs = cp.reshape(d1 @ x @ d1.T, (256,), order="C")
        problem = cp.Problem(cp.Minimize(cp.normNuc(x)), [coeffs[a.kept] == b])
        problem.solve(solver=cp.SCS, eps=1e-8, max_iters=20000)

        assert nuclear_norm(x_admm) == pytest.approx(nuclear_norm(x.value), rel=1e-4)
        assert np.linalg.norm(x_admm - x.value) <= 1e-3 * np.linalg.norm(x.value)

    def test_divergence_guard(self):
        # a deliberately non-tight operator (A A* = 9 I) makes the ball
        # projection overshoot and the iteration blow up
        class ScaledMask(SamplingMask):
            def apply(self, x):
                return 3.0 * super().apply(x)

            def adjoint(self, y):
                return 3.0 * super().adjoint(y)

        broken = ScaledMask(4, 4, *np.divmod(np.arange(12), 4))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(12)
        with pytest.raises(SolverDivergence) as info:
            tnnr_admm(broken, b, TruncationPair.empty(4, 4), SolverConfig())
        assert info.value.trace.total_inner_iters > 0


class TestApgl:
    def test_momentum_sequence_start(self):
        assert momentum_step(1.0) == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-6)

    def test_momentum_identity(self):
        tau = 1.0
        for _ in range(100):
            tau_next = momentum_step(tau)
            assert abs(tau_next**2 - tau_next - tau**2) <= 1e-12
            tau = tau_next

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for seed in range(3):
            x_star, a, b = instance(6, 5, 2, 0.7, 0.1, seed)
            pair = truncation_pair(x_star, 2)
            g = pair.correction()
            mu = rng.uniform(0.5, 3.0)

            def f(y):
                return -pair.trace_term(y) + 0.5 * mu * np.linalg.norm(a.apply(y) - b) ** 2

            y = rng.standard_normal((6, 5))
            analytic = -g + mu * a.adjoint(a.apply(y) - b)
            h = 1e-5
            fd = np.zeros_like(y)
            for i in range(6):
                for j in range(5):
                    e = np.zeros((6, 5))
                    e[i, j] = h
                    fd[i, j] = (f(y + e) - f(y - e)) / (2 * h)
            assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) <= 1e-5

    def test_full_observation_is_prox_of_data(self):
        # with every entry observed the model is the nuclear-norm prox at Data
        rng = np.random.default_rng(7)
        data = 5 * rng.standard_normal((10, 10))
        a = full_mask(10, 10)
        b = a.apply(data)
        mu = 0.8
        x, _ = tnnr_apgl(a, b, TruncationPair.empty(10, 10), SolverConfig(mu=mu, inner_tol=1e-12))
        expected = shrink(data, 1.0 / mu)
        assert np.linalg.norm(x - expected, "fro") <= 1e-8 * np.linalg.norm(expected, "fro")

    def test_prox_step_descends_from_extrapolation(self):
        # a proximal step at size 1/L guarantees T(X_{k+1}) <= T(Y_k)
        x_star, a, b = instance(10, 10, 2, 0.6, 0.3, 8)
        pair = truncation_pair(x_star, 2)
        cfg = SolverConfig(mu=1.5, max_inner_iters=60)
        _, _, snaps = iterates("apgl", a, b, pair, cfg)
        _, b, cfg = _normalized(a, b, cfg)  # the iterates' data and model

        def total(x):
            return objective(x, pair) + 0.5 * cfg.mu * np.linalg.norm(a.apply(x) - b) ** 2

        y_prev = a.adjoint(b)
        for snap in snaps:
            assert total(snap["X"]) <= total(y_prev) + 1e-8
            y_prev = snap["Y"]

    def test_nonpositive_mu_rejected(self):
        a = full_mask(3, 3)
        with pytest.raises(ValueError):
            tnnr_apgl(a, np.zeros(9), TruncationPair.empty(3, 3), SolverConfig(mu=0.0))


class TestQOperators:
    def test_only_block11(self):
        a = SamplingMask.random(4, 5, 0.5, 0)
        w = np.zeros((8, 10))
        w[:4, :5] = np.arange(20.0).reshape(4, 5)
        assert np.array_equal(q_adjoint(w, a), -w[:4, :5])

    def test_only_block22_mask_scatters(self):
        a = SamplingMask.random(4, 4, 0.5, 1)
        rng = np.random.default_rng(8)
        w = np.zeros((8, 8))
        w22 = rng.standard_normal((4, 4))
        w[4:, 4:] = w22
        expected = a.adjoint(w22[a.rows, a.cols])
        assert np.allclose(q_adjoint(w, a), expected)

    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_inner_product_identity(self, kind):
        _, a, _ = instance(6, 7, 2, 0.5, 0.0, 2, kind=kind)
        rng = np.random.default_rng(9)
        for _ in range(20):
            y = rng.standard_normal((6, 7))
            w = rng.standard_normal((12, 14))
            lhs = float(np.vdot(q_apply(y, a), w))
            rhs = float(np.vdot(y, q_adjoint(w, a)))
            assert abs(lhs - rhs) <= 1e-10

    def test_shape_check(self):
        a = SamplingMask.random(4, 4, 0.5, 3)
        with pytest.raises(ValueError):
            q_adjoint(np.zeros((4, 4)), a)


class TestAdmmap:
    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_equality_mode_keeps_slack_zero_and_feasible(self, kind):
        # the equality model is the ball model at radius 0: the slack's one
        # update, the point of the ball nearest its argument, gives 0
        x_star, a, b = instance(10, 10, 2, 0.7, 0.0, 4, kind=kind)
        x, _, snaps = iterates("admmap", a, b, truncation_pair(x_star, 2), SolverConfig())
        for snap in snaps:  # as yielded
            assert snap["xi"].shape == (a.p,) and np.all(snap["xi"] == 0.0)
        assert np.linalg.norm(a.apply(x) - b) <= 1e-3 * np.linalg.norm(b)

    def test_ball_mode_slack_stays_in_ball(self):
        x_star, a, b = instance(10, 10, 2, 0.7, 0.3, 5, kind="dct")
        delta = 0.3 * np.sqrt(a.p)
        x, _, snaps = admmap_iterates(a, b, truncation_pair(x_star, 2), SolverConfig(delta=delta))
        scaled = _normalized(a, b, SolverConfig(delta=delta))[2].delta  # xi's units
        for snap in snaps[1:]:
            assert np.linalg.norm(snap["xi"]) <= scaled * (1 + 1e-12)
        assert np.linalg.norm(a.apply(x) - b) <= delta * (1 + 1e-3)

    def test_agrees_with_admm(self):
        x_star, a, b = instance(20, 20, 2, 0.7, 0.5, 6)
        pair = truncation_pair(x_star, 2)
        # both start from admmap's penalty, which only admmap adapts
        cfg = SolverConfig(beta=ADMMAP_BETA0, inner_tol=1e-6, max_inner_iters=20000)
        x1, t1 = tnnr_admm(a, b, pair, cfg)
        x2, t2 = tnnr_admmap(a, b, pair, cfg)
        o1, o2 = objective(x1, pair), objective(x2, pair)
        assert abs(o1 - o2) / abs(o1) <= 0.01
        assert t2.total_inner_iters < t1.total_inner_iters

    def test_agrees_with_admm_noiseless_small(self):
        # the noiseless optimum is exactly zero, so agreement is measured
        # against the problem scale rather than the vanishing optimum
        x_star, a, b = instance(5, 5, 1, 0.8, 0.0, 1)
        pair = truncation_pair(x_star, 1)
        cfg = SolverConfig(inner_tol=1e-8, max_inner_iters=20000)
        x1, _ = tnnr_admm(a, b, pair, cfg)
        x2, _ = tnnr_admmap(a, b, pair, cfg)
        o1, o2 = objective(x1, pair), objective(x2, pair)
        assert abs(o1 - o2) <= 0.01 * nuclear_norm(x1)

    def test_y_update_solves_normal_equation(self):
        # the closed-form Y must satisfy (I + A*A) Y = RHS of the
        # first-order condition, assembled independently here
        for kind, delta_scale in (("mask", 0.0), ("dct", 1.0)):
            x_star, a, b = instance(9, 8, 2, 0.6, 0.2, 7, kind=kind)
            pair = truncation_pair(x_star, 2)
            g = pair.correction()
            delta = delta_scale * 0.2 * np.sqrt(a.p)
            _, _, snaps = admmap_iterates(a, b, pair, SolverConfig(delta=delta, max_inner_iters=60))
            b = _normalized(a, b, SolverConfig())[1]  # the iterates' data
            for snap in snaps:
                beta = snap["beta"]
                y = snap["Y"]
                lhs = y + a.adjoint(a.apply(y))
                rhs = (g / beta + snap["X"] - snap["z11"] / beta
                       + a.adjoint(b + snap["xi"] + snap["z22"] / beta))
                resid = np.linalg.norm(lhs - rhs, "fro") / np.linalg.norm(rhs, "fro")
                assert resid <= 1e-8

    def test_adaptive_penalty_follows_rule(self):
        x_star, a, b = instance(10, 10, 2, 0.6, 0.2, 8, kind="dct")
        delta = 0.2 * np.sqrt(a.p)
        cfg = SolverConfig(delta=delta, max_inner_iters=80)
        _, _, snaps = admmap_iterates(a, b, truncation_pair(x_star, 2), cfg)
        b = _normalized(a, b, cfg)[1]  # the iterates' data
        x_prev, y_prev = a.adjoint(b), a.adjoint(b)
        for i, snap in enumerate(snaps[:-1]):
            step = max(np.linalg.norm(snap["X"] - x_prev, "fro"),
                       np.linalg.norm(snap["Y"] - y_prev, "fro"))
            c_norm = np.linalg.norm(b + snaps[i + 1]["xi"])
            cond = snap["beta"] * step / c_norm
            expected = RHO0 if cond < EPS_ADAPT else 1.0
            assert snaps[i + 1]["beta"] == min(BETA_MAX, expected * snap["beta"])
            x_prev, y_prev = snap["X"], snap["Y"]


class TestStepGenerators:
    @pytest.mark.parametrize("name", ["admm", "apgl", "admmap"])
    @pytest.mark.parametrize("kind, std, cap", [("mask", 0.0, 5000), ("dct", 0.3, 5000),
                                                ("dct", 0.3, 7)])
    def test_last_yield_is_the_result_and_yields_stay_fixed(self, name, kind, std, cap):
        x_star, a, b = instance(10, 10, 2, 0.7, std, 9, kind=kind)
        pair = truncation_pair(x_star, 2)
        delta = std * np.sqrt(a.p)
        cfg = SolverConfig(delta=delta, max_inner_iters=cap)  # apgl reads mu, not delta
        x, trace = SOLVERS[name][0](a, b, pair, cfg)
        yielded, copies = [], []
        for item in itertools.islice(steps_of(name, a, b, pair, cfg), len(trace.k)):
            arrays = [v for v in (*item[:2], *item[4].values()) if isinstance(v, np.ndarray)]
            yielded.append(arrays)
            copies.append([v.copy() for v in arrays])
        x_last = _normalized(a, b, cfg)[0] * yielded[-1][0]
        if name != "apgl":
            x_last = project_ball(a, x_last, b, delta)
        assert x_last.tobytes() == x.tobytes()
        for arrays, saved in zip(yielded, copies):
            assert all(v.tobytes() == c.tobytes() for v, c in zip(arrays, saved))

    @pytest.mark.parametrize("name", ["admm", "apgl", "admmap"])
    def test_start_matrix_is_not_held(self, name):
        # x0 = A*(b) only seeds the iterates: a generator that kept it
        # would hold an m x n matrix for the whole solve
        x_star, a, b = instance(30, 30, 2, 0.5, 0.0, 9)
        pair = truncation_pair(x_star, 2)
        x0 = a.adjoint(b)
        alive = weakref.ref(x0)
        steps = SOLVERS[name][1](a, b, pair.correction(), x0, SolverConfig())
        del x0
        for _ in range(5):
            next(steps)
        assert alive() is None

    @pytest.mark.parametrize("name", ["admm", "apgl", "admmap"])
    @pytest.mark.parametrize("std", [0.0, 0.3])
    def test_sampling_path_follows_the_operator_path(self, name, std):
        # the loop on P_Omega in the DCT coefficients, started as
        # solve_with_rank starts a stage (the pair taken on T(A*(b)) =
        # P_Omega*(b)), takes, iteration by iteration, the steps the loop on
        # A = P_Omega T takes on the matrix
        x_star, a, b = instance(30, 30, 2, 0.5, std, 9, kind="dct")
        cfg = SolverConfig(delta=std * np.sqrt(a.p))  # apgl reads mu, not delta
        sampling = a.sampling
        _, b_c, cfg_c = _normalized(a, b, cfg)
        sampled = SOLVERS[name][1](sampling, b_c,
                                   truncation_pair(sampling.adjoint(b), 2).correction(),
                                   sampling.adjoint(b_c), cfg_c)
        direct = steps_of(name, a, b, truncation_pair(a.adjoint(b), 2), cfg)

        def close(got, ref):
            return np.linalg.norm(np.subtract(got, ref)) <= 1e-10 * np.linalg.norm(ref)

        for k, (got, ref) in enumerate(itertools.islice(zip(sampled, direct), 15), 1):
            (x, s, gap, beta, state), (x_ref, s_ref, gap_ref, beta_ref, state_ref) = got, ref
            assert close(a.inverse(x), x_ref) and close(s, s_ref), f"iteration {k}"
            assert close(gap, gap_ref) and beta == beta_ref, f"iteration {k}"
            for key, v in state.items():
                v = a.inverse(v) if np.ndim(v) == 2 else v
                assert close(v, state_ref[key]), f"iteration {k}, {key}"

    @pytest.mark.parametrize("name", ["admm", "apgl", "admmap"])
    def test_transforms_per_solve_do_not_grow_with_iterations(self, name, monkeypatch):
        # a solve_with_rank call on a DCT takes one T of its start, when
        # given one, and one T^-1 of its result, however many inner
        # iterations and refits it runs (admm's penalty keeps admmap's first
        # iterates off the shrink's dead zone, where a refit would not move)
        x_star, a, b = instance(20, 20, 2, 0.5, 0.0, 3, kind="dct")
        calls = []

        def counted(f):
            return lambda self, x: calls.append(f) or f(self, x)

        for attr in ("transform", "inverse"):
            monkeypatch.setattr(PartialDct2D, attr, counted(getattr(PartialDct2D, attr)))
        for x0, want in ((None, 1), (a.adjoint(b), 2)):
            for r in (0, 2):
                counts = []
                for cap, refits in itertools.product((5, 50), (1, 3)):
                    calls.clear()
                    cfg = SolverConfig(beta=ADMM_BETA, inner_tol=1e-30, outer_tol=1e-30,
                                       max_inner_iters=cap, max_refit_iters=refits)
                    _, trace = solve_with_rank(a, b, r, name, cfg, x0)
                    assert trace.inner_iters == [cap] * (refits if r else 1)
                    counts.append(len(calls))
                assert counts == [want] * 4


class TestSubsetEigensolverRoute:
    """The shrink's subset route against the full `eigh` route on every
    recorded iterate of a solve that takes it."""

    @pytest.mark.parametrize("name", ["admm", "admmap"])
    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_iterates_match_the_eigh_route(self, name, kind):
        if linalg._syevr() is None:
            pytest.skip("numpy's OpenBLAS exports no dsyevr: every shrink takes eigh")
        x_star, a, b = instance(64, 64, 3, 0.5, 0.1, 11, kind=kind)
        pair = truncation_pair(a.adjoint(b), 3)
        cfg = SolverConfig(delta=0.1 * np.sqrt(a.p))
        _, trace = SOLVERS[name][0](a, b, pair, cfg)
        with mock.patch.object(linalg, "_dsyevr", wraps=linalg._dsyevr) as partial:
            subset = [item[0] for item in
                      itertools.islice(steps_of(name, a, b, pair, cfg), len(trace.k))]
        with mock.patch.object(linalg, "_syevr", lambda: None):
            full = [item[0] for item in
                    itertools.islice(steps_of(name, a, b, pair, cfg), len(trace.k))]
        # most iterations keep at most 64 // 8 values
        assert partial.call_count > len(trace.k) // 2
        for k, (got, ref) in enumerate(zip(subset, full), 1):
            if not ref.any():  # admm's first iterations shrink to exact zeros
                assert not got.any(), f"iteration {k}: expected exact zeros"
                continue
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert err <= 1e-8, f"iteration {k}: relative difference {err:.2e}"


class TestLrisd:
    def test_fully_observed(self):
        rng = np.random.default_rng(10)
        data = 20 * rng.standard_normal((10, 6))
        a = full_mask(10, 6)
        b = a.apply(data)
        x, traces = lrisd(a, b, sve_cfg=SveConfig(kappa_mode="explicit", kappa=1.0))
        assert relative_error(x, data) <= 1e-6
        assert len(traces) <= 3

    def test_synthetic_rank_and_error(self):
        # scaled-down noiseless transform-domain recovery
        spec = SyntheticSpec(100, 100, 5, 0.6, 0.0, 0)
        x_star, a, b = synth_lowrank(spec, kind="dct")
        cfg = SolverConfig(inner_tol=1e-5)
        x, traces = lrisd(a, b, "admm", SveConfig(), cfg)
        assert traces[-1].rank == 5 or traces[-1].sve is None
        final_rank = [t.rank for t in traces][-1]
        assert final_rank == 5
        assert relative_error(x, x_star) <= 1e-2

    def test_baseline_is_single_stage(self):
        x_star, a, b = instance(15, 15, 2, 0.7, 0.0, 11)
        x, traces = lrisd(a, b, sve_cfg=SveConfig(max_outer=0))
        assert len(traces) == 1 and traces[0].rank == 0
        x_direct, _ = solve_with_rank(a, b, 0)
        assert np.array_equal(x, x_direct)
        # with estimation on, the first stage is that same solve
        x_first, first, _ = next(lrisd_stages(a, b))
        assert first.stage == 0 and first.rank == 0
        assert x_first.tobytes() == x_direct.tobytes()

    @pytest.mark.parametrize("max_outer", [0, 1, 10])
    def test_stages_yield_the_estimate_made_on_their_recovery(self, max_outer):
        _, a, b = instance(20, 20, 2, 0.7, 0.0, 17)
        sve_cfg = SveConfig(max_outer=max_outer)
        kappa = sve_cfg.resolve_kappa(20, 20)
        stages = list(lrisd_stages(a, b, sve_cfg=sve_cfg))
        x, traces = lrisd(a, b, sve_cfg=sve_cfg)
        assert [t.stage for _, t, _ in stages] == list(range(len(traces)))
        assert stages[-1][0].tobytes() == x.tobytes()
        for (_, _, profile), (_, later, _) in zip(stages, stages[1:]):
            assert later.sve is profile and later.rank == profile.r_hat
        # every stage carries the estimate made on its own recovery, also the
        # last one at the max_outer cap (max_outer 0 and 1)
        assert (len(stages) == max_outer + 1) == (max_outer < 10)
        for x_s, _, profile in stages:
            want = estimate_rank(np.linalg.svd(x_s, compute_uv=False), kappa)
            assert (profile.kappa, profile.r_hat) == (want.kappa, want.r_hat)
            for got, expected in zip((profile.S, profile.St, profile.Stt),
                                     (want.S, want.St, want.Stt)):
                assert np.array_equal(got, expected)

    def test_stage_context_on_divergence(self):
        class ScaledMask(SamplingMask):
            def apply(self, x):
                return 3.0 * super().apply(x)

            def adjoint(self, y):
                return 3.0 * super().adjoint(y)

        broken = ScaledMask(4, 4, *np.divmod(np.arange(12), 4))
        rng = np.random.default_rng(12)
        with pytest.raises(SolverDivergence, match="stage 0"):
            lrisd(broken, rng.standard_normal(12))

    def test_unknown_inner_solver(self):
        _, a, b = instance(6, 6, 1, 0.8, 0.0, 13)
        with pytest.raises(ValueError, match="inner solver"):
            lrisd(a, b, inner="sgd")

    @pytest.mark.parametrize("shape", [(2, 6), (6, 2), (1, 5)])
    def test_fewer_than_three_singular_values_keeps_stage_zero(self, shape):
        # no spectrum jump can be detected, so the baseline recovery stands
        m, n = shape
        rng = np.random.default_rng(15)
        flat = np.sort(rng.choice(m * n, size=m * n - 1, replace=False))
        a = SamplingMask(m, n, flat // n, flat % n)
        b = rng.standard_normal(a.p)
        x, traces = lrisd(a, b)
        x0, _ = solve_with_rank(a, b, 0)
        assert len(traces) == 1 and traces[0].rank == 0 and traces[0].stage == 0
        assert np.array_equal(x, x0)
        assert [profile for _, _, profile in lrisd_stages(a, b)] == [None]

    @pytest.mark.parametrize("inner", ["admm", "apgl", "admmap"])
    def test_rank_zero_reports_capped_solve(self, inner):
        _, a, b = instance(12, 12, 2, 0.7, 0.0, 16)
        _, trace = solve_with_rank(a, b, 0, inner, SolverConfig(max_inner_iters=1))
        assert trace.total_inner_iters == 1
        assert trace.converged is False

    @pytest.mark.parametrize("inner", ["admm", "apgl", "admmap"])
    def test_capped_refits_do_not_report_convergence(self, inner):
        # every refit stops after one iteration, one step from where the refit
        # before it ended, so consecutive refits barely differ and pass the
        # outer test
        _, a, b = instance(12, 12, 2, 0.7, 0.0, 16)
        _, trace = solve_with_rank(a, b, 2, inner, SolverConfig(max_inner_iters=1))
        assert trace.inner_iters and set(trace.inner_iters) == {1}
        assert trace.l_change[-1] <= SolverConfig().outer_tol
        assert trace.converged is False

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("x0", [np.full((4, 4), np.nan), np.full((5, 5), np.nan),
                                    np.zeros((4, 4))])
    def test_start_is_checked_at_every_rank(self, r, x0):
        _, a, b = instance(5, 5, 1, 0.8, 0.0, 13)
        with pytest.raises(ValueError, match="finite|does not match"):
            solve_with_rank(a, b, r, x0=x0)

    @pytest.mark.parametrize("r", [1.5, 0.5, np.float64(1.0)])
    def test_non_integer_rank_rejected(self, r):
        # int(r) would solve at rank 1 and 0
        _, a, b = instance(5, 5, 1, 0.8, 0.0, 13)
        with pytest.raises(TypeError):
            solve_with_rank(a, b, r)

    def test_trace_rows_shape(self):
        x_star, a, b = instance(12, 12, 2, 0.7, 0.0, 14)
        _, traces = lrisd(a, b)
        rows = [row for t in traces for row in t.rows()]
        assert all(len(row) == 6 for row in rows)
        stages = {row[0] for row in rows}
        assert 0 in stages


def _holds_no_array(trace) -> bool:
    """Whether a StageTrace's fields, apart from its rank-estimation profile
    (the spectrum its estimate was made on), hold no array, in lists or not."""
    values = [v for name, v in vars(trace).items() if name != "sve"]
    return not any(isinstance(v, np.ndarray) for value in values
                   for v in (value if isinstance(value, list) else [value]))


class TestContinuation:
    """Each lrisd stage starts from the last stage's recovery, and each refit's
    inner solve from the last refit's iterates."""

    SPEC = SyntheticSpec(60, 60, 3, 0.5, 0.5, 12345)

    def test_handoff_lowers_the_error_of_a_cold_start(self):
        x_star, a, b = synth_lowrank(self.SPEC, kind="dct")
        cfg = SolverConfig(delta=self.SPEC.std * np.sqrt(a.p))
        x, traces = lrisd(a, b, "admm", SveConfig(), cfg)
        assert [t.rank for t in traces] == [0, 3]
        x_cold, _ = solve_with_rank(a, b, 3, "admm", cfg)
        # 0.155 against 0.188
        assert relative_error(x, x_star) < 0.9 * relative_error(x_cold, x_star)

    def test_stage_starts_from_the_last_recovery(self):
        # a later stage is solve_with_rank at its rank started from the stage
        # before: its first pair and its first outer change come from there
        _, a, b = instance(30, 30, 2, 0.6, 0.0, 9)
        stages = list(lrisd_stages(a, b))
        assert len(stages) >= 2
        for (x_prev, _, profile), (x, trace, _) in zip(stages, stages[1:]):
            again, _ = solve_with_rank(a, b, profile.r_hat, "admm", SolverConfig(), x_prev)
            assert again.tobytes() == x.tobytes()
            x_first, _ = solve_with_rank(a, b, profile.r_hat, "admm",
                                         SolverConfig(max_refit_iters=1), x_prev)
            change = (np.linalg.norm(x_first - x_prev) / np.linalg.norm(b)) ** 2
            assert trace.l_change[0] == change

    def test_rank_above_the_start_is_a_function_of_the_start(self):
        # the compare-mask-adjust golden: its sweep solves at r = 3 from
        # lrisd's recovery, whose third singular value is rounding (2.4e-15
        # of 31). A pair row drawn from that null space would depend on a
        # 1e-15 perturbation of the start: 25-28 inner iterations, and x
        # moving by about 1e-2.
        spec = SyntheticSpec(30, 24, 2, 0.6, 0.1, 0)
        _, a, b = synth_lowrank(spec, kind="mask")
        cfg = SolverConfig(delta=0.1 * np.sqrt(a.p), max_inner_iters=300)
        x_hat, traces = lrisd(a, b, "admm", SveConfig(), cfg)
        assert traces[-1].rank == 2
        x, trace = solve_with_rank(a, b, 3, "admm", cfg, x_hat)
        rng = np.random.default_rng(1)
        for _ in range(4):
            e = rng.standard_normal(x_hat.shape)
            e *= 1e-15 * np.linalg.norm(x_hat) / np.linalg.norm(e)
            x_e, trace_e = solve_with_rank(a, b, 3, "admm", cfg, x_hat + e)
            assert trace_e.inner_iters == trace.inner_iters
            assert np.linalg.norm(x_e - x) <= 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("name", ["admm", "admmap"])
    def test_warm_refit_reaches_the_cold_objective_sooner(self, name):
        # the second refit of the last stage, from the first refit's iterates
        # and from A*(b): admm 1 against 15 iterations, admmap 9 against 16
        _, a, b = synth_lowrank(self.SPEC, kind="dct")
        cfg = SolverConfig(delta=self.SPEC.std * np.sqrt(a.p))
        stages = list(lrisd_stages(a, b, name, SveConfig(), cfg))
        x_prev, r = stages[-2][0], stages[-1][1].rank
        solve = SOLVERS[name][0]
        carry = {}
        x_first, _ = solve(a, b, truncation_pair(x_prev, r), cfg, carry)
        pair = truncation_pair(x_first, r)
        x_cold, cold = solve(a, b, pair, cfg)
        x_warm, warm = solve(a, b, pair, cfg, carry)
        assert warm.converged and cold.converged
        assert len(warm.k) < len(cold.k)
        assert warm.beta[0] == cold.beta[0]  # admmap's grown penalty is not carried
        assert objective(x_warm, pair) - objective(x_cold, pair) <= 1e-3 * nuclear_norm(x_cold)
        assert carry and carry.keys() == {"X", *SOLVER_ITERATES[name]}

    @pytest.mark.parametrize("name", ["admm", "apgl", "admmap"])
    def test_carried_iterates_die_with_their_stage(self, name):
        # every array a step generator yields is gone once its stage has
        # ended; the carry lives only as long as the stage's refits
        _, a, b = instance(30, 30, 2, 0.6, 0.1, 9)
        cfg = SolverConfig(delta=0.1 * np.sqrt(a.p))
        steps = SOLVERS[name][1]
        made = []

        def recording(*args):
            for item in steps(*args):
                made.extend(weakref.ref(v) for v in (item[0], *item[4].values())
                            if isinstance(v, np.ndarray))
                yield item

        stages = 0
        with mock.patch.object(solvers, steps.__name__, recording):
            for _, trace, _ in lrisd_stages(a, b, name, SveConfig(), cfg):
                stages += 1
                assert made and all(ref() is None for ref in made)
                assert _holds_no_array(trace)
        assert stages >= 2


class TestScaleFree:
    """Every inner solve runs on b/c, c = ||b||/sqrt(p): the penalty and the
    divergence guard see the same data whatever the units of b."""

    SCALES = (1e-300, 1e-170, 1e-2, 1.0, 255.0, 1e4, 1e170, 1e300)

    @pytest.mark.parametrize("inner", ["admm", "admmap", "apgl"])
    @pytest.mark.parametrize("kind", ["mask", "dct"])
    def test_scaled_data_gives_scaled_recovery(self, inner, kind):
        # c b with c delta and c kappa (mu/c: mu weighs a squared residual
        # against a norm) is the same problem in other units; from c = 1e-170
        # down and from 1e170 up, the squares of b's entries underflow or
        # overflow, so every norm taken at the data's scale must avoid them
        _, a, b = instance(20, 20, 2, 0.7, 0.1, 18, kind=kind)
        delta, mu, kappa = 0.1 * np.sqrt(a.p), 2.0, SveConfig().resolve_kappa(20, 20)

        def run(c):
            sve_cfg = SveConfig(kappa_mode="explicit", kappa=c * kappa)
            return lrisd(a, c * b, inner, sve_cfg, SolverConfig(delta=c * delta, mu=mu / c))

        x_ref, ref = run(1.0)
        assert ref[-1].rank == 2
        for c in self.SCALES:
            x, traces = run(c)
            assert np.linalg.norm(x / c - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
            assert [t.rank for t in traces] == [t.rank for t in ref]
            assert [t.inner_iters for t in traces] == [t.inner_iters for t in ref]

    def test_divergence_guard_fires_at_every_scale(self):
        # the operator of TestAdmm.test_divergence_guard (A A* = 9 I) blows
        # up; the guard's floor, 1e6 times max(first objective, 1), is taken
        # on b/c, so at every scale it fires where it fires at c = 1
        class ScaledMask(SamplingMask):
            def apply(self, x):
                return 3.0 * super().apply(x)

            def adjoint(self, y):
                return 3.0 * super().adjoint(y)

        broken = ScaledMask(4, 4, *np.divmod(np.arange(12), 4))
        b = np.random.default_rng(5).standard_normal(12)
        fired = []
        for c in self.SCALES:
            with pytest.raises(SolverDivergence) as info:
                tnnr_admm(broken, c * b, TruncationPair.empty(4, 4), SolverConfig())
            fired.append(info.value.trace.total_inner_iters)
        assert len(set(fired)) == 1

    @pytest.mark.parametrize("inner", ["admm", "admmap"])
    def test_ball_beyond_the_float_range_holds_every_point(self, inner):
        # delta/c = 1e10 / 1e-300 overflows: the ball is capped at the float
        # maximum, where it still holds x = 0, the answer
        a = SamplingMask(4, 4, *np.divmod(np.arange(12), 4))
        x, trace = SOLVERS[inner][0](a, np.full(12, 1e-300), TruncationPair.empty(4, 4),
                                     SolverConfig(delta=1e10))
        assert trace.converged
        assert not x.any()

    @pytest.mark.parametrize("inner", ["admm", "admmap", "apgl"])
    def test_data_norm_past_the_float_maximum(self, inner):
        # ||b|| = sqrt(12) 1e308 overflows, but the scale c, its RMS, does
        # not: c is taken as a quotient before its power of two is put back
        a = SamplingMask(4, 4, *np.divmod(np.arange(12), 4))
        b = np.full(12, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, _ = SOLVERS[inner][0](a, b, TruncationPair.empty(4, 4))
        assert np.isfinite(x).all()
        assert np.linalg.norm((a.apply(x) - b) / 1e308) <= 1e-15 * np.linalg.norm(b / 1e308)

    def test_refits_past_the_float_maximum(self):
        # the refits' change ||X_l+1 - X_l|| / ||b|| is one quotient, too:
        # 1e308 b1 gives 1e308 times b1's recovery, refit for refit
        a = SamplingMask(4, 4, *np.divmod(np.arange(12), 4))
        b1 = np.abs(np.random.default_rng(3).standard_normal(12)) + 1
        b1 /= b1.max()
        assert np.linalg.norm(b1) > np.finfo(float).max / 1e308  # ||1e308 b1|| overflows
        x1, ref = solve_with_rank(a, b1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, trace = solve_with_rank(a, 1e308 * b1, 1)
        assert trace.inner_iters == ref.inner_iters
        np.testing.assert_allclose(x / 1e308, x1, rtol=0, atol=1e-14 * np.abs(x1).max())

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_weight_beyond_the_float_range_is_named(self, scale):
        # mu*c overflows to inf or underflows to 0; the error names the
        # product and its factors, not a value the caller never gave
        a = SamplingMask(4, 4, *np.divmod(np.arange(12), 4))
        with pytest.raises(ValueError, match=r"mu\*c = .* for mu=.*, c="):
            tnnr_apgl(a, np.full(12, scale), TruncationPair.empty(4, 4), SolverConfig(mu=scale))


class TestDefaultStop:
    def test_last_refit_is_near_its_optimum(self):
        # the default stop on the last refit of lrisd, against a tight solve
        # of the same convex problem (same truncation pair)
        spec = SyntheticSpec(60, 60, 3, 0.5, 0.5, 12345)
        _, a, b = synth_lowrank(spec, kind="dct")
        cfg = SolverConfig(delta=spec.std * np.sqrt(a.p))
        stages = list(lrisd_stages(a, b, "admm", SveConfig(), cfg))
        (x_before, _, _), (x_hat, last, _) = stages[-2:]
        assert last.rank == 3
        # the pair of the last refit: from the stage before's recovery, or
        # from the refit before, which started from there too
        refits = len(last.inner_iters)
        x_prev = (x_before if refits == 1 else solve_with_rank(
            a, b, last.rank, "admm", dataclasses.replace(cfg, max_refit_iters=refits - 1),
            x_before)[0])
        pair = truncation_pair(x_prev, last.rank)
        x_tight, tight = tnnr_admm(a, b, pair, dataclasses.replace(
            cfg, inner_tol=1e-11, max_inner_iters=100000))
        assert tight.converged
        gap = objective(x_hat, pair) - objective(x_tight, pair)
        assert abs(gap) <= 1e-3 * nuclear_norm(x_hat)

    def test_compare100_iteration_count(self):
        # the two trials of the benchmark's compare100-admm workload at
        # seed 7, as `tnnr compare` runs them: 4198 inner iterations with
        # the penalty in the units of b (beta = 1e-3)
        total = 0
        for seed in (7, 8):
            spec = SyntheticSpec(100, 100, 5, 0.5, 0.5, seed)
            _, a, b = synth_lowrank(spec, kind="dct")
            _, traces = lrisd(a, b, "admm", SveConfig(),
                              SolverConfig(delta=spec.std * np.sqrt(spec.p)))
            total += sum(t.total_inner_iters for t in traces)
        assert total < 300

    @pytest.mark.parametrize("case, parent_gap", [("dct300", 2.65e-4), ("color128", 8.65e-3)])
    def test_relaxed_stop_is_as_near_its_optimum(self, case, parent_gap):
        # r = 0 on the dct300-admm instance and on the first channel of
        # color128-complete under its first mask, both at seed 0: the relative
        # objective gap of the default stop to a tight solve was parent_gap
        # without over-relaxation (ALPHA = 1); 3.19e-4 and 8.08e-3 with it
        if case == "dct300":
            spec = SyntheticSpec(300, 300, 20, 0.5, 0.9, 0)
            _, a, b = synth_lowrank(spec, kind="dct")
            cfg = SolverConfig(delta=spec.std * np.sqrt(a.p))
        else:
            a = random_operator("mask", 128, 128, 0.5, 0)
            b, cfg = a.apply(composite_image(1000, 128)[0]), SolverConfig()
        pair = TruncationPair.empty(*a.shape)
        x, _ = tnnr_admm(a, b, pair, cfg)
        x_tight, tight = tnnr_admm(a, b, pair, dataclasses.replace(
            cfg, inner_tol=1e-11, max_inner_iters=100000))
        assert tight.converged
        gap = (objective(x, pair) - objective(x_tight, pair)) / nuclear_norm(x)
        assert abs(gap) <= 1.5 * parent_gap

    def test_pixel_scale_iteration_count(self):
        # one channel of a criterion-10 composite under its mask at seed 100,
        # r = 0: 41 iterations without over-relaxation (ALPHA = 1), 34 at
        # ALPHA = 1.3 and 29 at 1.5
        image = composite_image(1000)
        a = random_operator("mask", 64, 64, 0.5, 100)
        _, trace = tnnr_admm(a, a.apply(image[0]), TruncationPair.empty(64, 64))
        assert trace.converged
        assert trace.total_inner_iters <= 32


class TestEquivariance:
    """lrisd commutes with transposing a mask problem and with permuting its
    rows and columns: the recovery transposes or permutes with it, up to
    rounding (the shrink forms its Gram matrix on the smaller side), at the
    same ranks and iteration counts."""

    @staticmethod
    def run(a, b, inner):
        x, traces = lrisd(a, b, inner, SveConfig(), SolverConfig(delta=0.1 * np.sqrt(a.p)))
        return x, [(t.rank, t.inner_iters) for t in traces]

    @pytest.mark.parametrize("inner", ["admm", "apgl", "admmap"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_transpose_and_permutations(self, inner, seed):
        _, a, b = instance(40, 30, 2, 0.6, 0.1, seed)
        x, counts = self.run(a, b, inner)
        assert counts[-1][0] == 2
        x_t, counts_t = self.run(SamplingMask(30, 40, a.cols, a.rows), b, inner)
        assert np.linalg.norm(x_t - x.T) <= 1e-9 * np.linalg.norm(x)
        assert counts_t == counts
        rng = np.random.default_rng(seed)
        pr, pc = rng.permutation(40), rng.permutation(30)
        # row i of X is row pr[i] of P X Q, column j is column pc[j]
        x_p, counts_p = self.run(SamplingMask(40, 30, pr[a.rows], pc[a.cols]), b, inner)
        permuted = np.empty_like(x)
        permuted[np.ix_(pr, pc)] = x
        assert np.linalg.norm(x_p - permuted) <= 1e-9 * np.linalg.norm(x)
        assert counts_p == counts
