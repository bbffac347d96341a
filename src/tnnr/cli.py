"""Experiment runner: image completion, partial-DCT synthetic recovery, rank
estimation traces, and baseline-vs-multistage comparisons.

`ExperimentConfig`'s fields are the one table of settings: each declares its
default, its flag's help and options, and the commands, inner solvers and
operators that read it. Each is a flag of every experiment command, whose
value `_config_from_args` types as its field's. `validate()` checks every
field before a run writes anything.

Every run writes its resolved configuration as `config.txt`, an argument
file that `tnnr @DIR/config.txt [flags]` re-runs through the same parser,
the flags after it overriding it. It holds one token per line: the command,
then `--name=value` per set field, or a bare flag for a true bool. Each line
is one whole token, `#` and surrounding whitespace included, and no line is
a comment; validate() rejects a string value with a line break, which such a
file cannot hold.

A run also writes a metrics CSV (one row per seed and method), a
per-iteration trace CSV and a rank-estimation profile CSV into the output
directory; `complete` also writes the operator index file and the masked and
recovered images of each trial. CSV outputs are byte-identical across
re-runs with the same configuration and thread settings; wall-clock timings
go to a separate timings.csv that is exempt from that guarantee.

A run is one thread pool of (trial, channel) units: a synthetic trial has
one channel, an image trial one per color channel. Each trial's set-up runs
in the pool just ahead of its units; the rows are reassembled in seed,
method and channel order, and a trial is scored and written as soon as its
last channel is solved.
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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import SyntheticSpec, load_image, random_operator, save_image, synth_lowrank
from .linalg import _numpy_blas_functions
from .metrics import psnr, relative_error
from .operators import OPERATORS
from .solvers import (ADMM_BETA, ADMMAP_BETA0, INNER_SOLVERS, SolverConfig, SolverDivergence,
                      lrisd_stages, solve_with_rank)
from .solvers import lrisd  # not called here: the benchmark's tracer wraps tnnr.cli.lrisd
from .sve import SveConfig, estimate_rank

__all__ = ["ExperimentConfig", "run", "emit_plot_data", "main"]

COMMANDS = {
    "complete": "recover an image from partial observations",
    "dct-synth": "synthetic recovery from a partial DCT",
    "sve-trace": "rank-estimation diagnostics on synthetic data",
    "compare": "baseline vs multi-stage comparison",
}
SYNTHETIC = ("dct-synth", "sve-trace", "compare")

METRICS_COLUMNS = (
    "experiment", "seed", "method", "operator", "solver", "m", "n", "true_r",
    "sr", "std", "kappa", "delta", "mu", "rank_recovered", "stages",
    "inner_iters", "reer", "psnr_db", "se", "mse", "t_count",
)
TRACE_COLUMNS = ("seed", "method", "stage", "l", "k", "objective", "residual", "beta")
SVE_COLUMNS = ("seed", "method", "stage", "kappa", "r_hat", "index", "S", "St", "Stt")
TIMINGS_COLUMNS = ("experiment", "seed", "method", "seconds", "workers", "blas_threads",
                   "nproc")


def _setting(default, help, reads=tuple(COMMANDS), solvers=INNER_SOLVERS,
             operators=tuple(OPERATORS), replaced_by=(), **flag):
    """An ExperimentConfig field: its default, its flag's help and extra
    argparse options, the commands, inner solvers and operators that read
    it, and the settings that, when given, replace it."""
    return field(default=default, metadata={"help": help, "flag": flag, "command": reads,
                                            "solver": solvers, "operator": operators,
                                            "replaced_by": replaced_by})


# the fields that choose which settings are read, each with its choices
_READERS = {"command": tuple(COMMANDS), "solver": INNER_SOLVERS, "operator": tuple(OPERATORS)}


@dataclass
class ExperimentConfig:
    """One experiment run; `to_file` writes it as the argv file that
    `tnnr @FILE` re-runs. Its fields after `command` are the table of
    settings (`_setting`)."""

    command: str = ""
    operator: str = _setting("dct", "measurement operator", choices=tuple(OPERATORS))
    m: int | None = _setting(None, "rows of the synthetic matrix", SYNTHETIC)
    n: int | None = _setting(None, "columns of the synthetic matrix", SYNTHETIC)
    rank: int | None = _setting(None, "ground-truth rank", SYNTHETIC)
    sr: float = _setting(0.5, "sample ratio (complete: of a random operator)",
                         replaced_by=("mask_file", "keep_file"))
    std: float = _setting(0.0, "measurement noise std", SYNTHETIC)
    image: str | None = _setting(None, "binary PGM/PPM input image", ("complete",))
    mask_file: str | None = _setting(None, "mask index file", ("complete",),
                                     operators=("mask",))
    keep_file: str | None = _setting(None, "DCT-keep index file", ("complete",),
                                     operators=("dct",))
    keep_dc: bool = _setting(False, "keep the DC coefficient", operators=("dct",),
                             replaced_by=("keep_file",))
    solver: str = _setting("admm", "inner solver", choices=INNER_SOLVERS)
    kappa_mode: str = _setting(SveConfig.kappa_mode, "heuristic that sets kappa if kappa is unset",
                               choices=("real", "synthetic"), replaced_by=("kappa",))
    kappa: float | None = _setting(SveConfig.kappa, "explicit jump threshold")
    kappa_s: float = _setting(SveConfig.s, "scale s of the heuristic threshold", replaced_by=("kappa",))
    max_outer: int = _setting(SveConfig.max_outer, "cap on rank-estimation stages")
    stability: int = _setting(SveConfig.stability, "equal consecutive estimates that end the stages")
    delta: float | None = _setting(None, "ball radius (unset: std * sqrt(p))",
                                   solvers=("admm", "admmap"))
    mu: float = _setting(SolverConfig.mu, "data-fit weight of the penalized model", solvers=("apgl",))
    beta: float | None = _setting(SolverConfig.beta, "ADMM penalty (admmap: its starting value) "
                                  "in units of 1/c, c = ||b||/sqrt(p) (unset: "
                                  f"{ADMM_BETA:g} for admm, {ADMMAP_BETA0:g} for admmap)",
                                  solvers=("admm", "admmap"))
    inner_tol: float = _setting(SolverConfig.inner_tol, "stop tolerance of an inner solve")
    outer_tol: float = _setting(SolverConfig.outer_tol, "stop tolerance across truncation-pair refits")
    max_inner_iters: int = _setting(SolverConfig.max_inner_iters, "iteration cap of an inner solve")
    max_refit_iters: int = _setting(SolverConfig.max_refit_iters, "refit cap of a stage")
    trials: int = _setting(1, "number of independent trials")
    seed: int = _setting(0, "base RNG seed (trial i uses seed + i)")
    out: str = _setting("out", "output directory")
    adjust: int | None = _setting(None, "after estimation, solve at the ranks within +/- W "
                                  "(W = 2 if omitted) and keep the recovery that scores best "
                                  "against the ground truth (an oracle choice: reer against "
                                  "X*, or complete's PSNR against the image)",
                                  ("complete", "dct-synth", "compare"),
                                  nargs="?", const="2", metavar="W")

    def validate(self) -> "_Plan":
        """Check every field, then build the run's library settings, so that
        their own checks also run before anything is written."""
        def fail(name, msg):
            raise ValueError(f"config field '{name}': {msg}")

        if self.command not in COMMANDS:
            fail("command", f"must be one of {tuple(COMMANDS)}, got {self.command!r}")
        for f in _SETTINGS:
            value, choices = getattr(self, f.name), f.metadata["flag"].get("choices")
            if choices and value not in choices:
                fail(f.name, f"must be one of {choices}, got {value!r}")
            if _kind(f.type) is float and value is not None and not np.isfinite(value):
                fail(f.name, f"must be finite, got {value}")
            # config.txt holds each value on one line: splitlines drops a line break
            if isinstance(value, str) and "".join(value.splitlines()) != value:
                fail(f.name, f"config.txt cannot hold a line break, got {value!r}")
        # a given setting must be read: checked once every chooser holds a
        # valid value, so that a bad solver is named as such
        for f in _SETTINGS:
            if getattr(self, f.name) == f.default:
                continue
            for chooser in _READERS:
                users, chosen = f.metadata[chooser], getattr(self, chooser)
                if chosen not in users:
                    fail(f.name, f"the {chosen} {chooser} does not read it "
                         f"(read by {', '.join(users)})")
            if given := [r for r in f.metadata["replaced_by"] if getattr(self, r) is not None]:
                fail(f.name, f"not read, as {given[0]} replaces it")
        if self.trials < 1:
            fail("trials", "must be >= 1")
        if self.seed < 0:
            fail("seed", "must be >= 0")
        if self.adjust is not None and self.adjust < 0:
            fail("adjust", "window must be >= 0")
        spec = None
        if self.command == "complete":
            if not self.image:
                fail("image", "the complete command requires an image path")
            if not 0 < self.sr <= 1:  # a random operator's: a file replaces sr
                fail("sr", f"must be in (0, 1] for a random operator, got {self.sr}")
        else:
            for f in ("m", "n", "rank"):
                if getattr(self, f) is None:
                    fail(f, f"the {self.command} command requires {f}")
                if f != "rank" and getattr(self, f) < 3:
                    fail(f, f"must be >= 3 for rank estimation, got {getattr(self, f)}")
            if self.command == "dct-synth" and self.operator != "dct":
                fail("operator", "dct-synth uses the dct operator")
            spec = _checked(SyntheticSpec, m=self.m, n=self.n, r=self.rank, sr=self.sr,
                            std=self.std, seed=self.seed)
        # ball radius: explicit if given, else the expected noise norm of a
        # noisy synthetic run, sqrt(p) * std, else 0
        delta = (self.delta if self.delta is not None
                 else self.std * float(np.sqrt(spec.p)) if self.std > 0 else 0.0)
        solver = _checked(SolverConfig, **{f.name: getattr(self, f.name)
                                           for f in fields(SolverConfig)} | {"delta": delta})
        mode = "explicit" if self.kappa is not None else self.kappa_mode
        sve = _checked(SveConfig, kappa_mode=mode, kappa=self.kappa, s=self.kappa_s,
                       max_outer=self.max_outer, stability=self.stability)
        return _Plan(self, solver, sve, spec)

    def to_file(self, path) -> None:
        """Write the argv file that `tnnr @path` re-runs: the command, then a
        line per set field, `--name=value` or a bare flag for a true bool."""
        tokens = [self.command]
        for f in _SETTINGS:
            value, flag = getattr(self, f.name), _flag(f.name)
            if _kind(f.type) is bool:
                tokens += [flag] if value else []
            elif value is not None:
                tokens.append(f"{flag}={value}")
        Path(path).write_text("".join(token + "\n" for token in tokens))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _kind(annotation):
    """A field's value type: int, float, bool or str, from an optional `| None`."""
    return next((t for t in typing.get_args(annotation) if t is not type(None)), annotation)


# every field but `command`, which names the subcommand itself
_SETTINGS = fields(ExperimentConfig)[1:]


class _Plan(typing.NamedTuple):
    """A validated run: its config and the library settings built from it."""

    cfg: ExperimentConfig
    solver: SolverConfig
    sve: SveConfig
    spec: SyntheticSpec | None  # synthetic commands; trials replace its seed


def _checked(kind, **settings):
    """kind(**settings), its ValueError naming the config fields given to it."""
    try:
        return kind(**settings)
    except ValueError as e:
        names = ", ".join({"r": "rank", "s": "kappa_s"}.get(k, k) for k in settings)
        raise ValueError(f"config fields {names}: {e}") from None


# ---- shared machinery ----------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
    """While `workers` units run side by side, cap numpy's OpenBLAS at
    max(1, n // workers) threads, n being its count on entry (one worker
    keeps n), so that the workers' BLAS threads do not outnumber the ones a
    single solve would use.
    Yields the count in effect inside (None when OpenBLAS exports no thread
    controls). n is restored on exit, also when a unit raises. The count is
    process-wide, so pools started from several threads at once would
    restore each other's counts."""
    controls = _openblas_thread_controls()
    if controls is None:
        yield None
        return
    get, put = controls
    n = get()
    put(max(1, n // workers))
    try:
        yield get()
    finally:
        put(n)


def _recovered_rank(x: np.ndarray, kappa: float) -> int:
    spectrum = np.linalg.svd(x, compute_uv=False)
    return estimate_rank(spectrum, kappa).r_hat


def _sve_rows(seed, method, traces):
    """sve.csv rows of the stages that estimated a rank; St and Stt are
    shorter than S, and their missing tail cells stay empty."""
    return [(seed, method, t.stage, p.kappa, p.r_hat, i + 1, p.S[i],
             p.St[i] if i < p.St.size else None, p.Stt[i] if i < p.Stt.size else None)
            for t in traces if (p := t.sve) is not None for i in range(p.S.size)]


# ---- trials --------------------------------------------------------------


class _Trial(typing.NamedTuple):
    """One trial's set-up: its operator `a` and, per channel, the (b, truth)
    pair it measures. `finish` maps a solver output to the recovery that is
    scored; `score(x, truth)` ranks the adjust sweep's finished recoveries
    (higher wins). `write(row, xs)`, when given, completes a method's metrics
    row and writes its recoveries."""

    seed: int
    a: typing.Any
    channels: list
    finish: typing.Callable
    score: typing.Callable
    write: typing.Callable | None = None


def _methods(cfg: ExperimentConfig) -> list[str]:
    methods = ["lrisd"] if cfg.command in ("dct-synth", "sve-trace") else ["lr", "lrisd"]
    if cfg.adjust is not None:
        methods.append("lrisd-adjust")
    return methods


def _solve_channel(plan: _Plan, trial: _Trial, channel: int) -> dict:
    """Every method on one channel of `trial`: lr is stage 0 and lrisd the
    last stage of one `lrisd_stages` run, each with the rank that run
    estimated on it, and lrisd-adjust sweeps the ranks around lrisd's.
    Returns, per method, its (finished x, rank, traces, seconds)."""
    cfg, solver_cfg = plan.cfg, plan.solver
    a, (b, truth) = trial.a, trial.channels[channel]
    solved = {}

    def keep(method, start, x, traces, rank):
        solved[method] = (trial.finish(x), rank, traces, time.perf_counter() - start)

    start = time.perf_counter()
    traces = []
    for x, trace, profile in lrisd_stages(a, b, cfg.solver, plan.sve, solver_cfg):
        if trace.stage == 0:
            keep("lr", start, x, [trace], profile.r_hat)
        traces.append(trace)
    keep("lrisd", start, x, traces, profile.r_hat)
    if cfg.adjust is not None:
        start = time.perf_counter()
        x, traces = _adjust_sweep(a, b, x, trace.rank, profile.r_hat, cfg, solver_cfg,
                                  score=lambda xc: trial.score(trial.finish(xc), truth))
        keep("lrisd-adjust", start, x, traces, _recovered_rank(x, profile.kappa))
    return solved


def _trial_rows(plan: _Plan, trial: _Trial, solved: list[dict]):
    """The rows (metrics, trace, sve, timings; in method, stage and index
    order, channels in order within a method) of a trial whose channels
    are all solved; `trial.write` gets each method's recoveries."""
    cfg, solver_cfg = plan.cfg, plan.solver
    m, n = trial.a.shape
    kappa = plan.sve.resolve_kappa(m, n)
    penalized = cfg.solver == "apgl"
    truths = [truth for _, truth in trial.channels]
    metrics, trace_rows, sve_rows, timings = [], [], [], []
    for method in _methods(cfg):
        xs, ranks, runs, seconds = zip(*(channel[method] for channel in solved))
        traces = [t for run in runs for t in run]
        trace_rows.extend((trial.seed, method, *row) for t in traces for row in t.rows())
        sve_rows.extend(_sve_rows(trial.seed, method, traces))
        metrics.append(dict(
            experiment=cfg.command, seed=trial.seed, method=method, operator=cfg.operator,
            solver=cfg.solver, m=m, n=n, true_r=cfg.rank, sr=trial.a.p / (m * n),
            std=cfg.std, kappa=kappa,
            # only the setting the solver reads: mu for apgl, delta for the others
            delta=None if penalized else solver_cfg.delta,
            mu=solver_cfg.mu if penalized else None,
            rank_recovered=int(np.median(ranks)), stages=max(map(len, runs)),
            inner_iters=sum(t.total_inner_iters for t in traces),
            # the relative error of an all-zero truth (a black image) is undefined
            reer=relative_error(xs, truths) if any(map(np.any, truths)) else None))
        timings.append((cfg.command, trial.seed, method, sum(seconds)))
        if trial.write is not None:
            trial.write(metrics[-1], xs)
    return metrics, trace_rows, sve_rows, timings


def _adjust_sweep(a, b, x_hat, r_hat, r_center, cfg, solver_cfg, score):
    """Solve at every rank in a window around the estimate, each solve
    started from lrisd's recovery x_hat, and keep the best-scoring recovery
    (higher score wins; ties go to the smaller rank). x_hat, the last stage's
    solve at its rank r_hat, is that rank's candidate: it is not solved
    again, and the returned traces hold the solves the sweep ran."""
    merged = []

    def candidate(r):
        if r == r_hat:
            return x_hat
        x, trace = solve_with_rank(a, b, r, cfg.solver, solver_cfg, x_hat)
        merged.append(trace)
        return x

    ranks = range(max(0, r_center - cfg.adjust), min(min(a.shape), r_center + cfg.adjust) + 1)
    return max(map(candidate, ranks), key=score), merged


def _synthetic_trial(plan: _Plan, seed: int) -> _Trial:
    cfg = plan.cfg
    x_star, a, b = synth_lowrank(replace(plan.spec, seed=seed), kind=cfg.operator,
                                 keep_dc=cfg.keep_dc)
    return _Trial(seed, a, [(b, x_star)], finish=lambda x: x,
                  score=lambda x, truth: -relative_error(x, truth))


def _operator_file(cfg: ExperimentConfig, shape):
    """The operator of `complete`'s --mask-file or --keep-file, checked
    against the image shape; None for a random operator."""
    path = cfg.mask_file or cfg.keep_file  # each is read by its own operator only
    if not path:
        return None
    a = OPERATORS[cfg.operator].from_file(path)
    if a.shape != shape:
        raise ValueError(f"{a.file_kind} file shape {a.shape} does not match image {shape}")
    return a


def _image_trial(plan: _Plan, image, a, seed: int, out: Path) -> _Trial:
    """One completion trial over the image's channels, measured by `a`, or by
    the seed's random operator when `a` is None. Writes its operator and
    masked input; its `write` adds a method's PSNR to its row and writes its
    recovered image."""
    cfg = plan.cfg
    m, n = image[0].shape
    if a is None:
        a = random_operator(cfg.operator, m, n, cfg.sr, seed, cfg.keep_dc)
    tag = f"_seed{seed}" if cfg.trials > 1 else ""
    ext = "pgm" if len(image) == 1 else "ppm"
    a.to_file(out / f"operator{tag}.txt")
    observed = a.observed()  # None for transform-domain sampling: no pixel is untouched
    eval_mask = None
    if observed is not None:
        save_image([c * observed for c in image], out / f"masked{tag}.{ext}")
        missing = ~observed
        eval_mask = missing if missing.any() else None

    def write(row, xs):
        row.update(asdict(psnr(xs, image, eval_mask)))  # its fields are metrics columns
        save_image(xs, out / f"recovered_{row['method']}{tag}.{ext}")

    return _Trial(seed, a, [(a.apply(c), c) for c in image],
                  finish=lambda x: np.clip(x, 0.0, 255.0),
                  score=lambda x, truth: psnr(x, truth, eval_mask).psnr_db, write=write)


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
        ranked = sorted((r for r in metric_rows if r.get("true_r") and r.get("rank_recovered")),
                        key=lambda r: (float(r["true_r"]), int(r["seed"]), r["method"]))
        _write_csv(out / "rank_recovery.csv", ("true_r", "recovered_r", "seed", "method"),
                   [(r["true_r"], r["rank_recovered"], r["seed"], r["method"]) for r in ranked])
    if sve_rows:
        columns = ("seed", "method", "stage", "index", "Stt")
        stt = sorted((r for r in sve_rows if r["Stt"] != ""), key=lambda r: (
            int(r["seed"]), r["method"], int(r["stage"]), int(r["index"])))
        _write_csv(out / "stt_vs_index.csv", columns, ([r[c] for c in columns] for r in stt))


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
    """Execute one experiment; returns a process exit status. The config, the
    input image and an operator file are checked before anything is written."""
    plan, out = cfg.validate(), Path(cfg.out)
    if cfg.command == "complete":
        image = load_image(cfg.image)
        if min(image[0].shape) < 3:
            raise ValueError(f"image {cfg.image} has shape {image[0].shape}; "
                             "complete needs at least 3x3 pixels")
        a = _operator_file(cfg, image[0].shape)  # read once, shared by every trial
        setup, channels = (lambda seed: _image_trial(plan, image, a, seed, out)), len(image)
    else:
        setup, channels = (lambda seed: _synthetic_trial(plan, seed)), 1
    # one pool runs every channel of every trial as a unit, under the BLAS
    # thread cap (README, Threads)
    workers = _worker_count(cfg.trials * channels)
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_file(out / "config.txt")
    results = []
    with (_blas_threads_shared(workers) as threads,
          ThreadPoolExecutor(max_workers=workers) as pool):

        def units():
            # each trial's set-up is queued just ahead of its units, so a
            # unit waits only on a set-up that a worker has already started
            for seed in range(cfg.seed, cfg.seed + cfg.trials):
                trial = pool.submit(setup, seed)
                yield from ((trial, c) for c in range(channels))

        def solve(unit):
            set_up, channel = unit
            trial = set_up.result()
            return trial, _solve_channel(plan, trial, channel)

        solved = pool.map(solve, units())
        # map yields in unit order: each trial is scored and written, and its
        # set-up and recoveries dropped, as soon as its last channel is in
        for _ in range(cfg.trials):
            trials, channels_solved = zip(*(next(solved) for _ in range(channels)))
            results.append(_trial_rows(plan, trials[0], channels_solved))
    metrics, traces, sves, timings = ([row for rows in part for row in rows]
                                      for part in zip(*results))
    _write_csv(out / "metrics.csv", METRICS_COLUMNS,
               ([row.get(c) for c in METRICS_COLUMNS] for row in metrics))
    _write_csv(out / "trace.csv", TRACE_COLUMNS, traces)
    _write_csv(out / "sve.csv", SVE_COLUMNS, sves)
    _write_csv(out / "timings.csv", TIMINGS_COLUMNS,
               [(*row, workers, threads, os.cpu_count()) for row in timings])

    if cfg.command == "compare":
        by_method = {}
        for row in metrics:
            by_method.setdefault(row["method"], []).append(row)
        summary = [(method, len(rows), float(np.median([r["reer"] for r in rows])),
                    sum(r["rank_recovered"] == cfg.rank for r in rows))
                   for method, rows in by_method.items()]
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
    """One subcommand per experiment command, each with a flag for every
    ExperimentConfig field, plus plot-data."""
    parser = argparse.ArgumentParser(
        prog="tnnr",
        description="Truncated-nuclear-norm low-rank recovery experiments. @FILE stands "
                    "for the arguments in FILE, one per line, as a run's config.txt holds them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for f in _SETTINGS:
            help = f.metadata["help"]
            for chooser, every in _READERS.items():
                if len(f.metadata[chooser]) < len(every):
                    help += f"; read by {', '.join(f.metadata[chooser])} only"
            # values stay strings (a bool flag stores True), typed by
            # _config_from_args and checked by validate()
            options = ({"action": "store_true", "default": None} if _kind(f.type) is bool
                       else dict(f.metadata["flag"]))
            if choices := options.pop("choices", None):
                options["metavar"] = "{" + ",".join(choices) + "}"
            p.add_argument(_flag(f.name), dest=f.name, help=help, **options)

    p = sub.add_parser("plot-data", help="aggregate run CSVs into plot-ready series")
    p.add_argument("files", nargs="+", help="metrics.csv / sve.csv files")
    p.add_argument("--out", default="plots", help="output directory")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config of the command and flags given, each value typed as its
    field's; a malformed one, int('x') say, is a ValueError naming the field."""
    given = {}
    for f in _SETTINGS:
        if (value := getattr(args, f.name)) is not None:
            try:
                given[f.name] = _kind(f.type)(value)
            except ValueError as e:
                raise ValueError(f"config field '{f.name}': {e}") from None
    return ExperimentConfig(command=args.command, **given)


# Python 3.11's argparse drops the value '--' of `--name=--`; no argv token
# can hold a NUL byte and no @FILE line a line break, so this stand-in
# carries that value through parsing
_DASHES = "\0\n--"


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), read in one pass up to the first bare
    '--', given or on an @FILE's line. Before it, an @FILE argument stands for
    FILE's lines, one argument each (not expanded again), and `--name=--` (a
    prefix of the flag included, as argparse takes it) gives the option the
    value '--'. The arguments after it, a file's later lines and the command
    line's, are positional, kept as given. An unreadable FILE, or a blank
    line in one, exits 2."""
    parser = build_parser()
    given = iter(sys.argv[1:] if argv is None else argv)
    tokens = []
    for token in given:
        try:
            lines = Path(token[1:]).read_text().splitlines() if token[:1] == "@" else [token]
        except OSError as e:
            parser.error(str(e))
        if token[:1] == "@" and "" in lines:
            parser.error(f"{token[1:]}: line {lines.index('') + 1} is blank")
        lines = iter(lines)
        for line in lines:
            if line == "--":
                tokens += [line, *lines, *given]
                break
            name, _, value = line.partition("=")
            tokens.append(f"{name}={_DASHES}" if name.startswith("-") and value == "--" else line)
    args = parser.parse_args(tokens)
    for name, value in vars(args).items():
        if value == _DASHES:
            setattr(args, name, "--")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
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
