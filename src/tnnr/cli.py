"""Experiment runner: image completion, partial-DCT synthetic recovery, rank
estimation traces, and baseline-vs-multistage comparisons.

Every run writes its resolved configuration, a metrics CSV (one row per
seed and method), a per-iteration trace CSV and a rank-estimation profile
CSV into the output directory; `complete` also writes the operator index
file and the masked and recovered images of each trial. CSV outputs are
byte-identical across re-runs with the same configuration and thread
settings; wall-clock timings go to a separate timings.csv that is exempt
from that guarantee.
"""

import argparse
import contextlib
import csv
import ctypes
import os
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import SyntheticSpec, load_image, save_image, stream_rng, synth_lowrank
from .linalg import _numpy_blas_functions
from .metrics import psnr, relative_error
from .operators import PartialDct2D, SamplingMask
from .solvers import (
    INNER_SOLVERS,
    SolverConfig,
    SolverDivergence,
    lrisd,
    solve_with_rank,
)
from .sve import SveConfig, estimate_rank

__all__ = ["ExperimentConfig", "run", "emit_plot_data", "main"]

COMMANDS = ("complete", "dct-synth", "sve-trace", "compare")

METRICS_COLUMNS = (
    "experiment", "seed", "method", "operator", "solver", "m", "n", "true_r",
    "sr", "std", "kappa", "delta", "mu", "rank_recovered", "stages",
    "inner_iters", "reer", "psnr_db", "se", "mse", "t_count",
)
TRACE_COLUMNS = ("seed", "method", "stage", "l", "k", "objective", "residual", "beta")
SVE_COLUMNS = ("seed", "method", "stage", "kappa", "r_hat", "index", "S", "St", "Stt")


@dataclass
class ExperimentConfig:
    """One experiment run, serializable to a line-oriented key = value file."""

    command: str = ""
    operator: str = "dct"
    m: int | None = None
    n: int | None = None
    rank: int | None = None
    sr: float = 0.5
    std: float = 0.0
    image: str | None = None
    mask_file: str | None = None
    keep_file: str | None = None
    keep_dc: bool = False
    solver: str = "admm"
    kappa_mode: str = "synthetic"
    kappa: float | None = None
    kappa_s: float = 1.0
    max_outer: int = 10
    stability: int = 2
    delta: float | None = None
    mu: float = 1.0
    beta: float = 1e-3
    inner_tol: float = 1e-4
    outer_tol: float = 1e-2
    max_inner_iters: int = 5000
    max_refit_iters: int = 30
    trials: int = 1
    seed: int = 0
    out: str = "out"
    adjust: int | None = None

    def validate(self) -> None:
        def fail(field, msg):
            raise ValueError(f"config field '{field}': {msg}")

        if self.command not in COMMANDS:
            fail("command", f"must be one of {COMMANDS}, got {self.command!r}")
        if self.operator not in ("mask", "dct"):
            fail("operator", f"must be 'mask' or 'dct', got {self.operator!r}")
        if self.solver not in INNER_SOLVERS:
            fail("solver", f"must be one of {INNER_SOLVERS}, got {self.solver!r}")
        if self.trials < 1:
            fail("trials", "must be >= 1")
        if self.delta is not None and self.solver == "apgl":
            fail("delta", "the apgl solver has no measurement ball; it weighs the data fit by mu")
        if self.command == "complete":
            if not self.image:
                fail("image", "the complete command requires an image path")
            for f in ("m", "n", "rank"):
                if getattr(self, f) is not None:
                    fail(f, "the complete command derives dimensions from the image")
        else:
            for f in ("image", "mask_file", "keep_file"):
                if getattr(self, f):
                    fail(f, f"the {self.command} command takes no {f}; only complete reads one")
            for f in ("m", "n", "rank"):
                if getattr(self, f) is None:
                    fail(f, f"the {self.command} command requires {f}")
            for f in ("m", "n"):
                if getattr(self, f) < 3:
                    fail(f, f"must be >= 3 for rank estimation, got {getattr(self, f)}")
            if self.command == "dct-synth" and self.operator != "dct":
                fail("operator", "dct-synth uses the dct operator")
        for f, operator in (("mask_file", "mask"), ("keep_file", "dct"), ("keep_dc", "dct")):
            if getattr(self, f) and self.operator != operator:
                fail(f, f"only valid with operator = {operator}")
        if self.adjust is not None:
            if self.command == "sve-trace":
                fail("adjust", "sve-trace runs no rank-window sweep")
            if self.adjust < 0:
                fail("adjust", "window must be >= 0")

    # ---- text round trip -------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        try:
            lines = Path(path).read_text().splitlines()
        except OSError as e:
            raise ValueError(f"config file {path}: {e}") from e
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config file {path} line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"config file {path} line {lineno}: unknown field '{key}'")
            try:
                kwargs[key] = _coerce(types[key], value)
            except ValueError as e:
                raise ValueError(f"config file {path} line {lineno}, field '{key}': {e}") from e
        return cls(**kwargs)

    def to_file(self, path) -> None:
        with open(path, "w") as f:
            for fld in fields(self):
                value = getattr(self, fld.name)
                if value is None:
                    continue
                f.write(f"{fld.name} = {value}\n")


def _coerce(annotation, value: str):
    """Parse a config value as its field's annotated type (int, float, bool
    or str, optionally `| None`)."""
    kind = next((t for t in typing.get_args(annotation) if t is not type(None)), annotation)
    if kind is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    return kind(value)


# ---- shared machinery ----------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _metrics_row(**values) -> dict:
    """A metrics.csv row by column name; the columns not given stay empty."""
    return dict(dict.fromkeys(METRICS_COLUMNS), **values)


def _write_metrics(path, rows) -> None:
    _write_csv(path, METRICS_COLUMNS, ([row[c] for c in METRICS_COLUMNS] for row in rows))


def _worker_count(trials: int) -> int:
    cap = os.environ.get("LOWRANK_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ValueError(f"LOWRANK_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(trials, limit))


def _openblas_thread_controls():
    """The (get, set) thread-count functions of the OpenBLAS that numpy.linalg
    loaded, or None when that library exports no such pair."""
    found = _numpy_blas_functions("openblas_get_num_threads", "openblas_set_num_threads")
    if found is None:
        return None
    (get, put), _ = found
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def _blas_threads_shared(workers: int):
    """While `workers` > 1 trials run side by side, cap numpy's OpenBLAS at
    max(1, n // workers) threads, n being its count on entry, so that the
    workers' BLAS threads do not outnumber the ones a single solve would use.
    n is restored on exit, also when a trial raises. The count is
    process-wide, so pools started from several threads at once would
    restore each other's counts."""
    controls = _openblas_thread_controls() if workers > 1 else None
    if controls is None:
        yield
        return
    get, put = controls
    n = get()
    put(max(1, n // workers))
    try:
        yield
    finally:
        put(n)


def _solver_config(cfg: ExperimentConfig, delta: float) -> SolverConfig:
    return SolverConfig(beta=cfg.beta, mu=cfg.mu, delta=delta,
                        inner_tol=cfg.inner_tol, outer_tol=cfg.outer_tol,
                        max_inner_iters=cfg.max_inner_iters,
                        max_refit_iters=cfg.max_refit_iters)


def _sve_config(cfg: ExperimentConfig, baseline: bool = False) -> SveConfig:
    mode = "explicit" if cfg.kappa is not None else cfg.kappa_mode
    return SveConfig(kappa_mode=mode, kappa=cfg.kappa, s=cfg.kappa_s,
                     max_outer=0 if baseline else cfg.max_outer,
                     stability=cfg.stability)


def _resolve_delta(cfg: ExperimentConfig, p: int) -> float:
    """Ball radius policy: explicit value if given, else sqrt(p) * std for
    noisy synthetic runs (the expected noise norm), else 0."""
    if cfg.delta is not None:
        return cfg.delta
    if cfg.std > 0:
        return cfg.std * float(np.sqrt(p))
    return 0.0


def _recovered_rank(x: np.ndarray, kappa: float) -> int:
    spectrum = np.linalg.svd(x, compute_uv=False)
    return estimate_rank(spectrum, kappa).r_hat


def _sve_rows(seed, method, traces):
    rows = []
    for t in traces:
        if t.sve is None:
            continue
        prof = t.sve
        for i in range(prof.S.size):
            st = prof.St[i] if i < prof.St.size else None
            stt = prof.Stt[i] if i < prof.Stt.size else None
            rows.append((seed, method, t.stage, prof.kappa, prof.r_hat,
                         i + 1, prof.S[i], st, stt))
    return rows


# ---- trials --------------------------------------------------------------


def _trial(cfg: ExperimentConfig, seed: int, a, channels, delta: float, score, finish,
           true_r=None):
    """Run the command's methods on `channels`, each a (b, truth) pair
    measured by `a`. `finish` maps a solver output to the recovery that is
    scored and kept; `score(x, truth)` ranks the finished recoveries of the
    adjust sweep (higher wins). Returns the (metrics, trace, sve, timings)
    rows, in method, stage and index order, and each method's finished
    recoveries."""
    m, n = a.shape
    solver_cfg = _solver_config(cfg, delta)
    penalized = cfg.solver == "apgl"
    kappa = _sve_config(cfg).resolve_kappa(m, n)
    methods = ["lrisd"] if cfg.command in ("dct-synth", "sve-trace") else ["lr", "lrisd"]
    if cfg.adjust is not None:
        methods.append("lrisd-adjust")

    truths = np.hstack([truth for _, truth in channels])
    metrics, trace_rows, sve_rows, timings, recovered = [], [], [], [], {}
    lrisd_ranks = []
    for method in methods:
        start = time.perf_counter()
        xs, ranks = [], []
        stages = iters = 0
        for ci, (b, truth) in enumerate(channels):
            if method == "lr":
                x, traces = lrisd(a, b, cfg.solver, _sve_config(cfg, baseline=True), solver_cfg)
            elif method == "lrisd":
                x, traces = lrisd(a, b, cfg.solver, _sve_config(cfg), solver_cfg)
            else:
                x, traces = _adjust_sweep(a, b, lrisd_ranks[ci], cfg, solver_cfg,
                                          score=lambda xc: score(finish(xc), truth))
            xs.append(finish(x))
            ranks.append(_recovered_rank(x, kappa))
            stages = max(stages, len(traces))
            iters += sum(t.total_inner_iters for t in traces)
            trace_rows.extend((seed, method, *row) for t in traces for row in t.rows())
            sve_rows.extend(_sve_rows(seed, method, traces))
        elapsed = time.perf_counter() - start
        if method == "lrisd":
            lrisd_ranks = ranks  # the centres of the adjust windows, which run next
        metrics.append(_metrics_row(
            experiment=cfg.command, seed=seed, method=method, operator=cfg.operator,
            solver=cfg.solver, m=m, n=n, true_r=true_r, sr=cfg.sr, std=cfg.std, kappa=kappa,
            # only the setting the solver reads: mu for apgl, delta for the others
            delta=None if penalized else delta, mu=cfg.mu if penalized else None,
            rank_recovered=int(np.median(ranks)), stages=stages,
            inner_iters=iters, reer=relative_error(np.hstack(xs), truths)))
        timings.append((cfg.command, seed, method, elapsed))
        recovered[method] = xs
    return (metrics, trace_rows, sve_rows, timings), recovered


def _adjust_sweep(a, b, r_center, cfg, solver_cfg, score):
    """Re-solve with every rank in a window around the estimate and keep the
    best-scoring recovery (higher score wins; ties go to the smaller rank)."""
    w = cfg.adjust
    q = min(a.shape)
    best = None
    merged = []
    for r in range(max(0, r_center - w), min(q, r_center + w) + 1):
        x, trace = solve_with_rank(a, b, r, cfg.solver, solver_cfg)
        merged.append(trace)
        s = score(x)
        if best is None or s > best[0]:
            best = (s, x)
    return best[1], merged


def _synthetic_trial(cfg: ExperimentConfig, seed: int):
    spec = SyntheticSpec(cfg.m, cfg.n, cfg.rank, cfg.sr, cfg.std, seed)
    x_star, a, b = synth_lowrank(spec, kind=cfg.operator, keep_dc=cfg.keep_dc)
    rows, _ = _trial(cfg, seed, a, [(b, x_star)], _resolve_delta(cfg, a.p),
                     score=lambda x, truth: -relative_error(x, truth),
                     finish=lambda x: x, true_r=cfg.rank)
    return rows


def _build_image_operator(cfg: ExperimentConfig, m: int, n: int, seed: int):
    path = cfg.mask_file or cfg.keep_file  # validate() pairs each with its operator
    if path:
        a = (SamplingMask if cfg.operator == "mask" else PartialDct2D).from_file(path)
        if a.shape != (m, n):
            kind = "mask" if cfg.mask_file else "keep"
            raise ValueError(f"{kind} file shape {a.shape} does not match image ({m}, {n})")
        return a
    if cfg.operator == "mask":
        return SamplingMask.random(m, n, cfg.sr, stream_rng(seed, "mask"))
    return PartialDct2D.random(m, n, cfg.sr, stream_rng(seed, "freqs"), keep_dc=cfg.keep_dc)


def _image_trial(cfg: ExperimentConfig, image, seed: int, out: Path):
    """One completion trial over the image's channels. Writes its operator,
    masked input and recovered images, and returns only its rows."""
    m, n = image[0].shape
    a = _build_image_operator(cfg, m, n, seed)
    if cfg.operator == "mask":
        observed = a.observed()
        missing = ~observed
        eval_mask = missing if missing.any() else None
    else:
        eval_mask = None  # transform-domain sampling leaves no pixel untouched
    rows, recovered = _trial(
        cfg, seed, a, [(a.apply(c), c) for c in image],
        cfg.delta if cfg.delta is not None else 0.0,
        score=lambda x, truth: psnr(x, truth, eval_mask).psnr_db,
        finish=lambda x: np.clip(x, 0.0, 255.0))

    tag = f"_seed{seed}" if cfg.trials > 1 else ""
    ext = "pgm" if len(image) == 1 else "ppm"
    a.to_file(out / f"operator{tag}.txt")
    if cfg.operator == "mask":
        save_image([c * observed for c in image], out / f"masked{tag}.{ext}")
    for row in rows[0]:
        xs = recovered[row["method"]]
        report = psnr(xs, image, eval_mask)
        row.update(psnr_db=report.psnr_db, se=report.se, mse=report.mse,
                   t_count=report.t_count)
        save_image(xs, out / f"recovered_{row['method']}{tag}.{ext}")
    return rows


# ---- plot data -----------------------------------------------------------


def emit_plot_data(files, out_dir) -> None:
    """Aggregate metrics/profile CSVs into tidy per-figure-family CSVs:
    median Reer vs std, median Reer vs sr, recovered-vs-true rank per trial,
    and the second-difference series vs index."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metric_rows, sve_rows = [], []
    for path in files:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            cols = set(reader.fieldnames or ())
            if {"reer", "std", "sr", "method"} <= cols:
                metric_rows.extend(reader)
            elif {"Stt", "index", "stage"} <= cols:
                sve_rows.extend(reader)
            else:
                raise ValueError(f"format error: {path} is neither a metrics nor a profile CSV")
    if metric_rows:
        _emit_median_series(metric_rows, "std", out / "reer_vs_std.csv")
        _emit_median_series(metric_rows, "sr", out / "reer_vs_sr.csv")
        rank_rows = [(r["true_r"], r["rank_recovered"], r["seed"], r["method"])
                     for r in metric_rows if r.get("true_r") and r.get("rank_recovered")]
        rank_rows.sort(key=lambda t: (float(t[0]), int(t[2]), t[3]))
        _write_csv(out / "rank_recovery.csv",
                   ("true_r", "recovered_r", "seed", "method"), rank_rows)
    if sve_rows:
        rows = [(r["seed"], r["method"], r["stage"], r["index"], r["Stt"])
                for r in sve_rows if r["Stt"] != ""]
        rows.sort(key=lambda t: (int(t[0]), t[1], int(t[2]), int(t[3])))
        _write_csv(out / "stt_vs_index.csv",
                   ("seed", "method", "stage", "index", "Stt"), rows)


def _emit_median_series(rows, x_field, path) -> None:
    groups = {}
    for r in rows:
        if r["reer"] == "":
            continue
        key = (float(r[x_field]), r["method"])
        groups.setdefault(key, []).append(float(r["reer"]))
    series = [(x, method, float(np.median(vals)))
              for (x, method), vals in sorted(groups.items())]
    _write_csv(path, (x_field, "method", "median_reer"), series)


# ---- entry point ---------------------------------------------------------


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns a process exit status."""
    cfg.validate()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_file(out / "config.txt")
    if cfg.command == "complete":
        image = load_image(cfg.image)
        if min(image[0].shape) < 3:
            raise ValueError(f"image {cfg.image} has shape {image[0].shape}; "
                             "complete needs at least 3x3 pixels")
        # one worker: side-by-side completions raise peak memory beyond the
        # benchmark's bound (README, Threads)
        trial, workers = (lambda seed: _image_trial(cfg, image, seed, out)), 1
    else:
        trial, workers = (lambda seed: _synthetic_trial(cfg, seed)), _worker_count(cfg.trials)
    with _blas_threads_shared(workers), ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(trial, range(cfg.seed, cfg.seed + cfg.trials)))
    # map keeps seed order, and each trial's rows come in method order
    metrics, traces, sves, timings = ([row for rows in part for row in rows]
                                      for part in zip(*results))
    _write_metrics(out / "metrics.csv", metrics)
    _write_csv(out / "trace.csv", TRACE_COLUMNS, traces)
    _write_csv(out / "sve.csv", SVE_COLUMNS, sves)
    _write_csv(out / "timings.csv", ("experiment", "seed", "method", "seconds"), timings)

    if cfg.command == "compare":
        by_method = {}
        for row in metrics:
            by_method.setdefault(row["method"], []).append(row)
        summary = []
        for method, rows in by_method.items():
            median_reer = float(np.median([r["reer"] for r in rows]))
            rank_hits = sum(1 for r in rows if r["rank_recovered"] == cfg.rank)
            summary.append((method, len(rows), median_reer, rank_hits))
        _write_csv(out / "summary.csv",
                   ("method", "trials", "median_reer", "rank_hits"), summary)
    elif cfg.command == "sve-trace":
        for row in metrics:
            print(f"seed {row['seed']}: estimated rank {row['rank_recovered']} "
                  f"(true rank {cfg.rank}, kappa {row['kappa']:.6g})")
    elif cfg.command == "complete":
        for row in metrics:
            print(f"seed {row['seed']} {row['method']}: PSNR {row['psnr_db']:.3f} dB "
                  f"over {row['t_count']} pixels")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnnr",
        description="Truncated-nuclear-norm low-rank recovery experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--seed", type=int, help="base RNG seed (trial i uses seed + i)")
        p.add_argument("--trials", type=int, help="number of independent trials")
        p.add_argument("--solver", choices=INNER_SOLVERS)
        p.add_argument("--kappa", type=float, help="explicit jump threshold")
        p.add_argument("--kappa-mode", choices=("real", "synthetic"), dest="kappa_mode")
        p.add_argument("--kappa-s", type=float, dest="kappa_s", help="heuristic scale s")
        p.add_argument("--delta", type=float, help="measurement ball radius")
        p.add_argument("--mu", type=float, help="data-fit weight of the penalized model")
        p.add_argument("--beta", type=float, help="ADMM penalty")
        p.add_argument("--inner-tol", type=float, dest="inner_tol")
        p.add_argument("--outer-tol", type=float, dest="outer_tol")
        p.add_argument("--max-inner-iters", type=int, dest="max_inner_iters")
        p.add_argument("--max-refit-iters", type=int, dest="max_refit_iters")
        p.add_argument("--max-outer", type=int, dest="max_outer")
        p.add_argument("--out", help="output directory")
        p.add_argument("--adjust", type=int, nargs="?", const=2,
                       help="after estimation, search ranks within +/- W (default 2)")

    def add_synth(p):
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--rank", type=int, help="ground-truth rank")
        p.add_argument("--sr", type=float, help="sample ratio")
        p.add_argument("--std", type=float, help="measurement noise std")
        p.add_argument("--keep-dc", action="store_const", const=True, dest="keep_dc")

    p = sub.add_parser("complete", help="recover an image from partial observations")
    add_common(p)
    p.add_argument("--image", help="binary PGM/PPM input image")
    p.add_argument("--operator", choices=("mask", "dct"))
    p.add_argument("--sr", type=float, help="observed fraction for random masks")
    p.add_argument("--mask-file", dest="mask_file")
    p.add_argument("--keep-file", dest="keep_file")
    p.add_argument("--keep-dc", action="store_const", const=True, dest="keep_dc")

    p = sub.add_parser("dct-synth", help="synthetic recovery from a partial DCT")
    add_common(p)
    add_synth(p)

    p = sub.add_parser("sve-trace", help="rank-estimation diagnostics on synthetic data")
    add_common(p)
    add_synth(p)
    p.add_argument("--operator", choices=("mask", "dct"))

    p = sub.add_parser("compare", help="baseline vs multi-stage comparison")
    add_common(p)
    add_synth(p)
    p.add_argument("--operator", choices=("mask", "dct"))

    p = sub.add_parser("plot-data", help="aggregate run CSVs into plot-ready series")
    p.add_argument("files", nargs="+", help="metrics.csv / sve.csv files")
    p.add_argument("--out", default="plots", help="output directory")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.command and cfg.command != args.command:
            raise ValueError(
                f"config file command '{cfg.command}' conflicts with subcommand '{args.command}'")
    else:
        cfg = ExperimentConfig()
    cfg.command = args.command
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        setattr(cfg, key, value)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot-data":
            emit_plot_data(args.files, args.out)
            return 0
        return run(_config_from_args(args))
    except SolverDivergence as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
