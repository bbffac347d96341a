"""Layer timing from outside the program.

The tracer replaces, for the duration of a `with tracer.installed():` block,
the names through which `tnnr.solvers` and `tnnr.cli` reach the other modules
(and the operator methods they call) with wrappers that record a span per
call. The runner wraps each round in a `runner` span, whose self time is
the CLI's own code (or a library caller's glue). Spans nest per thread: a
span's self time is its duration minus the time of the spans opened inside
it on the same thread, so busy seconds can exceed wall seconds when the
CLI's trial pool runs threads side by side. No line of the package changes.
"""

import contextlib
import functools
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.enabled = True
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.counts = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, **increments):
        with self._lock:
            self.counts.update(increments)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)  # time spent in child spans
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    self.self_s[name] += duration - child
                    self.total_s[name] += duration
                    self.calls[name] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's layer boundaries; restore them on exit."""
        originals = []
        try:
            for owner, attr, replacement in _boundaries(self):
                originals.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def snapshot(self):
        return {k: Counter(getattr(self, k)) for k in ("self_s", "total_s", "calls", "counts")}


def _boundaries(tracer):
    """(owner, attribute, traced replacement) for every layer boundary."""
    from tnnr import cli, data, metrics, solvers
    from tnnr.operators import PartialDct2D, SamplingMask

    def shrink_done(args, result):
        kept = result[1]
        tracer.count(sv_kept=int((kept > 0).sum()), sv_computed=kept.size)

    def inner_done(args, result):
        trace = result[1]
        tracer.count(inner_solves=1, inner_iters=len(trace.k),
                     capped_solves=int(not trace.converged), refits=int(args[2].r > 0))

    def lrisd_done(args, result):
        tracer.count(stages=len(result[1]))

    def workers_chosen(args, result):
        with tracer._lock:
            tracer.counts["workers"] = max(tracer.counts["workers"], result)

    points = [
        (solvers, "_shrink_factors", "linalg.shrink", shrink_done),
        (solvers, "truncation_pair", "linalg.pair", None),
        (solvers, "project_ball", "operators.ball", None),
        (solvers, "estimate_rank", "sve.estimate", None),
        (solvers, "tnnr_admm", "solvers.inner", inner_done),
        (solvers, "tnnr_apgl", "solvers.inner", inner_done),
        (solvers, "tnnr_admmap", "solvers.inner", inner_done),
        (solvers, "solve_with_rank", "solvers.solve", None),
        (solvers, "lrisd", "solvers.lrisd", lrisd_done),
        (cli, "lrisd", "solvers.lrisd", lrisd_done),
        (cli, "solve_with_rank", "solvers.solve", None),
        (cli, "estimate_rank", "sve.estimate", None),
        (cli, "_recovered_rank", "cli.rank", None),
        (cli, "_write_csv", "cli.write", None),
        (cli, "_worker_count", "runner", workers_chosen),
        (cli, "synth_lowrank", "data.input", None),
        (cli, "load_image", "data.input", None),
        (cli, "save_image", "data.input", None),
        (cli, "psnr", "metrics.score", None),
        (cli, "relative_error", "metrics.score", None),
        (data, "synth_lowrank", "data.input", None),
        (data, "save_image", "data.input", None),
        (metrics, "relative_error", "metrics.score", None),
    ]
    # embed/extract are reached only through the DCT adjoint/apply, so they
    # are counted with them
    for cls in (SamplingMask, PartialDct2D):
        points += [
            (cls, "apply", "operators.apply", None),
            (cls, "adjoint", "operators.adjoint", None),
            (cls, "to_file", "cli.write", None),
        ]
    replacements = [(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
                    for owner, attr, name, hook in points]

    class TracedPool(cli.ThreadPoolExecutor):
        """The trial pool, with the caller's wait for its results as a span.
        The CLI consumes `map` at once, so collecting it eagerly is the same."""

        def map(self, fn, *iterables, **kwargs):
            collect = lambda: list(super(TracedPool, self).map(fn, *iterables, **kwargs))
            return iter(tracer.wrap("cli.pool_wait", collect)())

    return replacements + [(cli, "ThreadPoolExecutor", TracedPool)]


def layer_metrics(tracer, setup, rounds, traced_solve_s):
    """Per-layer figures for one round. Work done during the process's own
    input generation (the `setup` snapshot) is counted once, in full; the
    rest is divided by the number of rounds."""
    now = tracer.snapshot()

    def per_round(kind, key):
        before = setup[kind][key]
        return before + (now[kind][key] - before) / rounds

    self_s = functools.partial(per_round, "self_s")
    calls = functools.partial(per_round, "calls")
    count = functools.partial(per_round, "counts")

    iters = count("inner_iters")
    return {
        "linalg.shrink_s": (self_s("linalg.shrink"), "s"),
        "linalg.shrink_calls": (calls("linalg.shrink"), "count"),
        "linalg.shrink_share": (self_s("linalg.shrink") / traced_solve_s, "ratio"),
        "linalg.shrink_kept_frac": (count("sv_kept") / max(count("sv_computed"), 1), "ratio"),
        "linalg.pair_s": (self_s("linalg.pair"), "s"),
        "linalg.pair_calls": (calls("linalg.pair"), "count"),
        "operators.apply_s": (self_s("operators.apply"), "s"),
        "operators.apply_calls": (calls("operators.apply"), "count"),
        "operators.adjoint_s": (self_s("operators.adjoint"), "s"),
        "operators.adjoint_calls": (calls("operators.adjoint"), "count"),
        "operators.ball_s": (self_s("operators.ball"), "s"),
        "operators.ball_calls": (calls("operators.ball"), "count"),
        "operators.apply_per_iter": (calls("operators.apply") / max(iters, 1), "calls/iter"),
        "sve.estimate_s": (self_s("sve.estimate"), "s"),
        "sve.estimate_calls": (calls("sve.estimate"), "count"),
        "solvers.inner_iters": (iters, "count"),
        "solvers.inner_solves": (count("inner_solves"), "count"),
        "solvers.refits": (count("refits"), "count"),
        "solvers.stages": (count("stages"), "count"),
        "solvers.capped_solves": (count("capped_solves"), "count"),
        "solvers.self_s": (self_s("solvers.inner") + self_s("solvers.solve")
                           + self_s("solvers.lrisd"), "s"),
        "solvers.iter_ms": (1e3 * per_round("total_s", "solvers.inner") / max(iters, 1), "ms"),
        "runner.self_s": (self_s("runner"), "s"),
        # the library workloads have no CLI, so its parts are given as
        # shares of the round rather than as times that read 0 there
        "cli.pool_wait_share": (self_s("cli.pool_wait") / traced_solve_s, "ratio"),
        "cli.rank_share": (self_s("cli.rank") / traced_solve_s, "ratio"),
        "cli.write_share": (self_s("cli.write") / traced_solve_s, "ratio"),
        "cli.workers": (now["counts"]["workers"], "count"),
        "data.input_s": (self_s("data.input"), "s"),
        "metrics.score_s": (self_s("metrics.score"), "s"),
        "traced.solve_s": (traced_solve_s, "s"),
    }
