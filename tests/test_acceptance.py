"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities when it succeeds. Run with `pytest -s` to see the
lines as they appear."""

import csv
import time

import numpy as np
import pytest

from tnnr.cli import ExperimentConfig, run
from tnnr.data import SyntheticSpec, save_image, synth_lowrank
from tnnr.linalg import (
    nuclear_norm,
    shrink,
    truncated_nuclear_norm,
    truncation_pair,
)
from tnnr.metrics import relative_error
from tnnr.operators import PartialDct2D, SamplingMask
from tnnr.solvers import (
    SolverConfig,
    lrisd,
    lrisd_stages,
    momentum_step,
    objective,
    tnnr_admm,
    tnnr_admmap,
)
from tnnr.sve import SveConfig, estimate_rank

from helpers import inverse_identity_check


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


def final_rank(x, kappa):
    return estimate_rank(np.linalg.svd(x, compute_uv=False), kappa).r_hat


def test_criterion_1_prox_oracle():
    """shrink's output beats 1000 random perturbations on the prox objective."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_margin = np.inf
    for _ in range(50):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 7))
        x = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0)
        for tau in (0.1, 0.5, 2.0):
            out = shrink(x, tau)
            s_out = np.linalg.svd(out, compute_uv=False)
            f_out = 0.5 * np.linalg.norm(out - x, "fro") ** 2 + tau * s_out.sum()
            perturbations = out + 0.1 * np.linalg.norm(x, "fro") * rng.standard_normal((1000, m, n))
            nucs = np.linalg.svd(perturbations, compute_uv=False).sum(axis=1)
            f_pert = 0.5 * ((perturbations - x) ** 2).sum(axis=(1, 2)) + tau * nucs
            worst_margin = min(worst_margin, float((f_pert - f_out).min()))
    elapsed = time.perf_counter() - start
    assert worst_margin >= -1e-8
    assert elapsed < 10.0
    report(1, f"worst prox margin {worst_margin:.3e} over 150k perturbations, {elapsed:.1f}s")


def test_criterion_2_operator_identities():
    """Adjoint, tight-frame and inverse identities hold to 1e-10 on both kinds."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    m, n = 24, 18
    ops = [SamplingMask.random(m, n, 0.5, 42), PartialDct2D.random(m, n, 0.5, 42)]
    worst_adj = worst_frame = worst_inv = 0.0
    for op in ops:
        for i in range(100):
            x = rng.standard_normal((m, n))
            y = rng.standard_normal(op.p)
            worst_adj = max(worst_adj, abs(float(op.apply(x) @ y) - float(np.vdot(x, op.adjoint(y)))))
            worst_frame = max(worst_frame, float(np.linalg.norm(op.apply(op.adjoint(y)) - y)))
            alpha = (0.5, 1.0, 3.0)[i % 3]
            worst_inv = max(worst_inv,
                            inverse_identity_check(op, alpha, x) / np.linalg.norm(x, "fro"))
    elapsed = time.perf_counter() - start
    assert worst_adj <= 1e-10
    assert worst_frame <= 1e-10
    assert worst_inv <= 1e-10
    assert elapsed < 10.0
    report(2, f"adjoint {worst_adj:.2e}, frame {worst_frame:.2e}, "
              f"inverse {worst_inv:.2e}, {elapsed:.1f}s")


def test_criterion_3_identity_decomposition():
    """||X||_* equals truncated norm plus the trace correction, 1e-8 relative."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, 12))
        x = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
        r = int(rng.integers(0, min(m, n) + 1))
        pair = truncation_pair(x, r)
        total = truncated_nuclear_norm(x, r) + pair.trace_term(x)
        worst = max(worst, abs(total - nuclear_norm(x)) / nuclear_norm(x))
    assert worst <= 1e-8
    report(3, f"worst relative decomposition error {worst:.2e} over 100 draws")


def test_criterion_4_sve_recovery():
    """Rank estimation recovers the true rank on noisy transform-domain data."""
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        spec = SyntheticSpec(120, 120, 8, 0.5, 0.36, seed)
        x_star, a, b = synth_lowrank(spec, kind="dct")
        cfg = SolverConfig(delta=spec.std * np.sqrt(a.p))
        sve_cfg = SveConfig(kappa_mode="synthetic", s=1.0)
        x, _ = lrisd(a, b, "admm", sve_cfg, cfg)
        hits += final_rank(x, sve_cfg.resolve_kappa(120, 120)) == 8
    spec = SyntheticSpec(300, 300, 20, 0.5, 0.9, 12345)
    x_star, a, b = synth_lowrank(spec, kind="dct")
    cfg = SolverConfig(delta=spec.std * np.sqrt(a.p))
    sve_cfg = SveConfig(kappa_mode="explicit", kappa=10.0)
    x, _ = lrisd(a, b, "admm", sve_cfg, cfg)
    paper_rank = final_rank(x, 10.0)
    elapsed = time.perf_counter() - start
    assert hits >= 9, f"desk-scale rank recovered in only {hits}/10 seeds"
    assert paper_rank == 20
    assert elapsed < 300.0
    report(4, f"desk scale {hits}/10 seeds at rank 8; full scale estimated {paper_rank}; "
              f"{elapsed:.0f}s")


def test_criterion_5_multistage_beats_baseline():
    """Median relative error improves on the convex baseline; rank recovered."""
    start = time.perf_counter()
    reer_lr, reer_isd, rank_hits = [], [], 0
    kappa = SveConfig(kappa_mode="synthetic").resolve_kappa(100, 100)
    for seed in range(10):
        spec = SyntheticSpec(100, 100, 5, 0.5, 0.5, seed)
        x_star, a, b = synth_lowrank(spec, kind="dct")
        cfg = SolverConfig(delta=spec.std * np.sqrt(a.p))
        # the baseline is stage 0 of the multi-stage run, as in `tnnr compare`
        xs = [x for x, _, _ in lrisd_stages(a, b, "admm", SveConfig(), cfg)]
        x_base, x_isd = xs[0], xs[-1]
        reer_lr.append(relative_error(x_base, x_star))
        reer_isd.append(relative_error(x_isd, x_star))
        rank_hits += final_rank(x_isd, kappa) == 5
    elapsed = time.perf_counter() - start
    med_lr, med_isd = float(np.median(reer_lr)), float(np.median(reer_isd))
    assert med_isd < med_lr
    assert rank_hits >= 8
    assert elapsed < 600.0
    report(5, f"median reer {med_isd:.4f} (multi-stage) vs {med_lr:.4f} (baseline); "
              f"rank 5 recovered {rank_hits}/10; {elapsed:.0f}s")


def test_criterion_6_noiseless_completion():
    """Noiseless 60x60 rank-3 completion recovers to 1e-2 with a feasible iterate."""
    start = time.perf_counter()
    spec = SyntheticSpec(60, 60, 3, 0.6, 0.0, 0)
    x_star, a, b = synth_lowrank(spec, kind="mask")
    cfg = SolverConfig(delta=0.0, inner_tol=1e-5)
    x, _ = lrisd(a, b, "admm", SveConfig(), cfg)
    reer = relative_error(x, x_star)
    feas = float(np.linalg.norm(a.apply(x) - b) / np.linalg.norm(b))
    elapsed = time.perf_counter() - start
    assert reer <= 1e-2
    assert feas <= 1e-3
    assert elapsed < 120.0
    report(6, f"reer {reer:.2e}, residual {feas:.2e}, {elapsed:.1f}s")


def test_criterion_7_cross_solver_agreement():
    """The two constrained solvers land on the same objective within 1%.

    The instances carry measurement noise so the shared optimum is bounded
    away from zero and the relative comparison is well conditioned."""
    start = time.perf_counter()
    worst = 0.0
    iters_admm, iters_admmap = [], []
    cfg = SolverConfig(inner_tol=1e-6, max_inner_iters=20000)
    for seed in range(10):
        spec = SyntheticSpec(40, 40, 2, 0.7, 0.5, seed)
        x_star, a, b = synth_lowrank(spec, kind="mask")
        pair = truncation_pair(x_star, 2)
        x1, t1 = tnnr_admm(a, b, pair, cfg)
        x2, t2 = tnnr_admmap(a, b, pair, cfg)
        o1, o2 = objective(x1, pair), objective(x2, pair)
        worst = max(worst, abs(o1 - o2) / abs(o1))
        iters_admm.append(t1.total_inner_iters)
        iters_admmap.append(t2.total_inner_iters)
    elapsed = time.perf_counter() - start
    assert worst <= 0.01
    report(7, f"worst objective gap {worst:.3%}; iterations "
              f"admm median {int(np.median(iters_admm))} vs "
              f"admmap median {int(np.median(iters_admmap))} "
              f"(efficiency reported, not asserted); {elapsed:.0f}s")


def test_criterion_8_gradient_and_momentum():
    """Analytic gradient matches central differences; momentum identity exact."""
    rng = np.random.default_rng(8)
    worst_grad = 0.0
    for seed in range(20):
        m = int(rng.integers(4, 8))
        n = int(rng.integers(4, 8))
        r = int(rng.integers(1, 3))
        spec = SyntheticSpec(m, n, r, 0.7, 0.1, seed)
        x_star, a, b = synth_lowrank(spec, kind="mask")
        pair = truncation_pair(x_star, r)
        g = pair.correction()
        mu = float(rng.uniform(0.3, 4.0))

        def f(y):
            return -pair.trace_term(y) + 0.5 * mu * np.linalg.norm(a.apply(y) - b) ** 2

        y = rng.standard_normal((m, n))
        analytic = -g + mu * a.adjoint(a.apply(y) - b)
        h = 1e-5
        fd = np.zeros_like(y)
        for i in range(m):
            for j in range(n):
                e = np.zeros((m, n))
                e[i, j] = h
                fd[i, j] = (f(y + e) - f(y - e)) / (2 * h)
        worst_grad = max(worst_grad, float(np.linalg.norm(analytic - fd) / np.linalg.norm(fd)))
    assert worst_grad <= 1e-5

    tau = 1.0
    worst_tau = 0.0
    for _ in range(100):
        tau_next = momentum_step(tau)
        worst_tau = max(worst_tau, abs(tau_next ** 2 - tau_next - tau ** 2))
        tau = tau_next
    assert worst_tau <= 1e-12
    report(8, f"gradient error {worst_grad:.2e} over 20 instances; "
              f"momentum identity residual {worst_tau:.2e} over 100 steps")


def test_criterion_9_stage_stability():
    """The outer loop settles within three stages on the noiseless instance."""
    start = time.perf_counter()
    stable = 0
    stage_counts = []
    for seed in range(10):
        spec = SyntheticSpec(60, 60, 3, 0.6, 0.0, seed)
        x_star, a, b = synth_lowrank(spec, kind="mask")
        cfg = SolverConfig(delta=0.0, inner_tol=1e-5)
        _, traces = lrisd(a, b, "admm", SveConfig(), cfg)
        stage_counts.append(len(traces))
        stable += len(traces) <= 3
    elapsed = time.perf_counter() - start
    assert stable >= 8, f"stage counts {stage_counts}"
    report(9, f"stage counts {stage_counts}; {stable}/10 within 3 stages; {elapsed:.0f}s")


def _composite_image(seed, size=64):
    """Low-rank smooth base plus weak texture, three channels."""
    rng = np.random.default_rng(seed)
    u = np.linspace(0, 1, size)
    base = np.zeros((size, size))
    for k in range(4):
        f1 = np.sin((k + 1) * np.pi * u + rng.uniform(0, 2 * np.pi))
        f2 = np.cos((k + 2) * np.pi * u + rng.uniform(0, 2 * np.pi))
        base += rng.uniform(0.5, 1.5) * np.outer(f1, f2)
    base = (base - base.min()) / (base.max() - base.min()) * 180 + 40
    channels = []
    for _ in range(3):
        texture = rng.normal(0, 6, (size, size))
        channels.append(np.clip(base * rng.uniform(0.85, 1.15) + texture, 0, 255).round())
    return channels


def test_criterion_10_image_smoke(tmp_path):
    """On composite test images with half the pixels missing, the multi-stage
    recovery matches or beats the convex baseline on most images."""
    start = time.perf_counter()
    wins = 0
    psnrs = []
    for i in range(3):
        image_path = tmp_path / f"composite{i}.ppm"
        save_image(_composite_image(1000 + i), image_path)
        out = tmp_path / f"run{i}"
        cfg = ExperimentConfig(command="complete", operator="mask", sr=0.5,
                               image=str(image_path), seed=100 + i,
                               kappa_mode="real", out=str(out))
        assert run(cfg) == 0
        with open(out / "metrics.csv", newline="") as f:
            rows = {row["method"]: float(row["psnr_db"]) for row in csv.DictReader(f)}
        psnrs.append((rows["lr"], rows["lrisd"]))
        wins += rows["lrisd"] >= rows["lr"]
    elapsed = time.perf_counter() - start
    assert wins >= 2, f"PSNR pairs (baseline, multistage): {psnrs}"
    pair_text = ", ".join(f"{lr:.2f}->{isd:.2f}" for lr, isd in psnrs)
    report(10, f"multi-stage wins {wins}/3 images (PSNR dB {pair_text}); {elapsed:.0f}s")
