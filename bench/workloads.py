"""The four benchmark workloads.

Each workload makes its inputs from the seed (`prepare`, part of set-up),
runs one round of solves through the package's public API or its CLI
(`solve`, the timed part), and checks every output of the round (`check`).
One solve is one method on one seed or one image channel; a solve fails
when it raises or when its output fails a check.
"""

import csv
import statistics
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tnnr import cli, data, metrics, solvers
from tnnr.data import SyntheticSpec
from tnnr.solvers import SolverConfig
from tnnr.sve import SveConfig


@dataclass
class Outcome:
    """Checked result of one round."""

    attempted: int
    failures: list = field(default_factory=list)  # one reason per failed solve
    reer: list = field(default_factory=list)  # multi-stage reer of the solves
    psnr_db: float = 0.0  # median multi-stage PSNR; 0 where no image is scored


def _delta(std, p):
    return std * float(np.sqrt(p))


# ---- library workloads: lrisd on one synthetic instance -----------------


@dataclass
class Instance:
    x_star: np.ndarray
    a: object
    b: np.ndarray
    delta: float
    reference: dict = field(default_factory=dict)  # filled by the first check


class LrisdWorkload:
    """One `lrisd` solve through the library API."""

    solves = 1

    def __init__(self, name, m, r, sr, std, kind, inner, sve):
        self.name, self.m, self.r, self.sr, self.std = name, m, r, sr, std
        self.kind, self.inner, self.sve = kind, inner, sve

    def prepare(self, seed, workdir):
        spec = SyntheticSpec(self.m, self.m, self.r, self.sr, self.std, seed)
        x_star, a, b = data.synth_lowrank(spec, kind=self.kind)
        return Instance(x_star, a, b, _delta(self.std, a.p))

    def solve(self, inst, round_dir):
        # as in the package's library example: recover, then score
        cfg = SolverConfig(delta=inst.delta)
        x, _ = solvers.lrisd(inst.a, inst.b, self.inner, self.sve, cfg)
        return x, metrics.relative_error(x, inst.x_star)

    def _reference(self, inst):
        if not inst.reference:
            a = inst.a
            if self.kind == "dct":
                apply = lambda x: checks.dct_apply(x, a.kept)
                back = checks.dct_adjoint(inst.b, a.kept, a.shape)
            else:
                apply = lambda x: checks.mask_apply(x, a.rows, a.cols)
                back = checks.mask_adjoint(inst.b, a.rows, a.cols, a.shape)
            estimate = checks.spectral_estimate(back, self.r, self.sr)
            inst.reference.update(
                apply=apply,
                spectral_reer=checks.relative_error(estimate, inst.x_star),
                nsr=inst.delta / float(np.linalg.norm(inst.x_star)))
        return inst.reference

    def check(self, inst, result):
        if result is None:
            return Outcome(self.solves, ["solve raised"])
        x, reported_reer = result
        ref = self._reference(inst)
        reer = checks.relative_error(x, inst.x_star)
        residual = float(np.linalg.norm(ref["apply"](x) - inst.b))
        reasons = [checks.report_failure(reported_reer, reer),
                   checks.rank_failure(checks.gap_rank(x), self.r),
                   checks.spectral_failure(reer, ref["spectral_reer"]),
                   checks.noise_failure(reer, ref["nsr"]),
                   checks.feasibility_failure(residual, inst.delta)]
        reasons = [r for r in reasons if r]
        return Outcome(self.solves, ["; ".join(reasons)] if reasons else [], [reer])


# ---- CLI workloads -------------------------------------------------------


def _run_cli(argv):
    # the CLI prints progress lines; keep standard output for the result
    with redirect_stdout(sys.stderr):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"tnnr {argv[0]} exited with status {status}")


def _read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class CompareWorkload:
    """`tnnr compare` with trials at seeds `seed` and `seed + 1`, each
    solving the convex baseline (lr) and the multi-stage method (lrisd)."""

    name = "compare100-admm"
    m, r, sr, std, trials = 100, 5, 0.5, 0.5, 2
    methods = ("lr", "lrisd")
    solves = trials * len(methods)

    def prepare(self, seed, workdir):
        return seed

    def _argv(self, seed, out):
        return ["compare", "--m", str(self.m), "--n", str(self.m), "--rank", str(self.r),
                "--sr", str(self.sr), "--std", str(self.std), "--solver", "admm",
                "--trials", str(self.trials), "--seed", str(seed), "--out", str(out)]

    def solve(self, seed, round_dir):
        _run_cli(self._argv(seed, round_dir))
        return round_dir

    def _reference(self, trial_seed):
        # the CLI draws trial i from seed + i through the package's generator;
        # only the reference estimator is computed here
        spec = SyntheticSpec(self.m, self.m, self.r, self.sr, self.std, trial_seed)
        x_star, a, b = data.synth_lowrank(spec, kind="dct")
        back = checks.dct_adjoint(b, a.kept, a.shape)
        estimate = checks.spectral_estimate(back, self.r, self.sr)
        return (checks.relative_error(estimate, x_star),
                _delta(self.std, a.p) / float(np.linalg.norm(x_star)))

    def check(self, seed, out_dir):
        if out_dir is None:
            return Outcome(self.solves, ["solve raised"] * self.solves)
        out = Outcome(self.solves)
        by_key = {(int(r["seed"]), r["method"]): r for r in _read_rows(out_dir / "metrics.csv")}
        for trial_seed in range(seed, seed + self.trials):
            got = {m: by_key.get((trial_seed, m)) for m in self.methods}
            spectral_reer, nsr = self._reference(trial_seed)
            for method, row in got.items():
                if row is None:
                    out.failures.append(f"seed {trial_seed} {method}: no metrics row")
                    continue
                reer = float(row["reer"])
                reasons = [checks.spectral_failure(reer, spectral_reer),
                           checks.noise_failure(reer, nsr)]
                if method == "lrisd":
                    out.reer.append(reer)
                    reasons.append(checks.rank_failure(int(row["rank_recovered"]), self.r))
                    if got["lr"] is not None:
                        reasons.append(checks.baseline_failure(reer, float(got["lr"]["reer"])))
                reasons = [r for r in reasons if r]
                if reasons:
                    out.failures.append(f"seed {trial_seed} {method}: " + "; ".join(reasons))
        return out


def composite_image(seed, size):
    """Smooth rank-4 base plus weak Gaussian texture, three channels on the
    0-255 pixel scale: the generator of acceptance criterion 10."""
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


@dataclass
class ImageInput:
    path: Path
    seed: int
    pixels: np.ndarray  # (h, w, 3) uint8, as written


class CompleteWorkload:
    """`tnnr complete` on one fixed composite image with three random masks
    (trials at seeds `seed` .. `seed + 2`), baseline and multi-stage, per
    channel. The image stays fixed so that reer and PSNR compare like with
    like across seeds; the masks carry the seed."""

    name = "color128-complete"
    size, image_seed, sr, trials = 128, 1000, 0.5, 3
    methods = ("lr", "lrisd")
    solves = trials * len(methods) * 3

    def prepare(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "composite.ppm"
        data.save_image(composite_image(self.image_seed, self.size), path)
        return ImageInput(path, seed, checks.read_ppm(path))

    def solve(self, inp, round_dir):
        _run_cli(["complete", "--image", str(inp.path), "--operator", "mask",
                  "--sr", str(self.sr), "--kappa-mode", "real", "--solver", "admm",
                  "--trials", str(self.trials), "--seed", str(inp.seed),
                  "--out", str(round_dir)])
        return round_dir

    def check(self, inp, out_dir):
        if out_dir is None:
            return Outcome(self.solves, ["solve raised"] * self.solves)
        out = Outcome(self.solves)
        rows = {(int(r["seed"]), r["method"]): r for r in _read_rows(out_dir / "metrics.csv")}
        original = inp.pixels
        psnrs = []
        for trial_seed in range(inp.seed, inp.seed + self.trials):
            observed = self._observed(out_dir / f"operator_seed{trial_seed}.txt")
            fill_db = checks.psnr_db(checks.mean_fill(original, observed), original, ~observed)
            for method in self.methods:
                tag = f"seed {trial_seed} {method}"
                row = rows.get((trial_seed, method))
                path = out_dir / f"recovered_{method}_seed{trial_seed}.ppm"
                if row is None or not path.is_file():
                    out.failures += [f"{tag}: missing output"] * 3
                    continue
                recovered = checks.read_ppm(path)
                image_db = checks.psnr_db(recovered, original, ~observed)
                image_reasons = [checks.psnr_agreement_failure(image_db, float(row["psnr_db"])),
                                 checks.fill_failure(image_db, fill_db)]
                for channel in range(3):
                    reasons = image_reasons + [
                        checks.observed_failure(recovered, original, observed, channel)]
                    reasons = [r for r in reasons if r]
                    if reasons:
                        out.failures.append(f"{tag} channel {channel}: " + "; ".join(reasons))
                if method == "lrisd":
                    out.reer.append(checks.relative_error(recovered, original))
                    psnrs.append(image_db)
        out.psnr_db = statistics.median(psnrs) if psnrs else 0.0
        return out

    def _observed(self, path):
        """The mask the CLI reports, checked to be the size asked for."""
        with open(path) as f:
            m, n, p = (int(t) for t in f.readline().split())
            idx = np.loadtxt(f, dtype=np.intp, ndmin=2)
        if (m, n) != (self.size, self.size) or p != round(self.sr * m * n) or idx.shape != (p, 2):
            raise ValueError(f"{path}: not a {self.sr} mask of the {self.size}x{self.size} image")
        observed = np.zeros((m, n), dtype=bool)
        observed[idx[:, 0], idx[:, 1]] = True
        if int(observed.sum()) != p:
            raise ValueError(f"{path}: repeated mask entries")
        return observed


WORKLOADS = {w.name: w for w in (
    # the criterion-4 full-scale case (seed 12345 reproduces it exactly)
    LrisdWorkload("dct300-admm", m=300, r=20, sr=0.5, std=0.9, kind="dct", inner="admm",
                  sve=SveConfig(kappa_mode="explicit", kappa=10.0)),
    CompareWorkload(),
    CompleteWorkload(),
    LrisdWorkload("mask512-admmap", m=512, r=25, sr=0.5, std=0.5, kind="mask",
                  inner="admmap", sve=SveConfig(kappa_mode="synthetic")),
)}
