#!/usr/bin/env python3
"""Benchmark of the tnnr package: time to a checked recovery.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/`, never from an installed copy. One run makes the workload's inputs
from the seed, then solves whole rounds of them for about S seconds (at
least one round) and checks every output. The last line of standard output
is one JSON object: `correct`, `attempted` and `failed` solves, and the
metrics: the end-to-end ones with `--trace 0`, the per-layer ones from a
traced run with `--trace 1`. Run outputs go to `.bench_out/` in the checkout
and are removed at exit. See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def import_package():
    src = ROOT / "src"
    if not (src / "tnnr" / "__init__.py").is_file():
        sys.exit(f"error: no tnnr sources under {src}")
    sys.path.insert(0, str(src))
    import tnnr
    if Path(tnnr.__file__).resolve().parent != src / "tnnr":
        sys.exit(f"error: imported tnnr from {tnnr.__file__}, not from {src}")


def environment_record():
    """What a figure depends on besides the code: cores, BLAS, the thread
    variables as found, the size of the sources and, in a git checkout, the
    commit."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "LOWRANK_THREADS": os.environ.get("LOWRANK_THREADS"),
        "src_lines": src_lines,
    }


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_seconds(args, workdir):
    """Median wall time of fresh processes that import the package and make
    the workload's inputs, from process start to where the first solve
    would begin."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--setup-probe", str(workdir / f"probe{i}")]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_all(args):
    """Every workload in its own process, in turn; the last line maps each
    workload to its result."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        print(f"{name}: {json.dumps(results[name])}")
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}, "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.prepare(args.seed, args.setup_probe)
        return 0

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
    try:
        setup_s = None if args.trace else setup_seconds(args, workdir)
        tracer = tracing.Tracer() if args.trace else None
        solve = tracer.wrap("runner", workload.solve) if tracer else workload.solve
        with tracer.installed() if tracer else nullcontext():
            inputs = workload.prepare(args.seed, workdir / "inputs")
            setup_spans = tracer.snapshot() if tracer else None
            rounds, outcomes = [], []
            start = time.perf_counter()
            while True:
                round_dir = workdir / f"round{len(rounds)}"
                round_dir.mkdir()
                t0 = time.perf_counter()
                try:
                    result = solve(inputs, round_dir)
                except Exception:
                    traceback.print_exc()
                    result = None
                rounds.append(time.perf_counter() - t0)
                with tracer.paused() if tracer else nullcontext():
                    try:
                        outcomes.append(workload.check(inputs, result))
                    except Exception:
                        traceback.print_exc()
                        outcomes.append(workloads.Outcome(
                            workload.solves, ["check raised"] * workload.solves))
                shutil.rmtree(round_dir)
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(rounds) > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    for reason in dict.fromkeys(failures):
        print(f"failed: {reason}", file=sys.stderr)
    reers = [r for o in outcomes for r in o.reer]
    solve_s = statistics.median(rounds)
    if tracer:
        layers = tracing.layer_metrics(tracer, setup_spans, len(rounds), solve_s)
        layers["metrics.psnr_db"] = (statistics.median(o.psnr_db for o in outcomes), "dB")
    else:
        layers = {
            "solve_s": (solve_s, "s"),
            "reer": (statistics.median(reers) if reers else None, "1"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"{workload.name}: {len(rounds)} rounds of {workload.solves} solves, "
          f"round seconds {[round(r, 3) for r in rounds]}", file=sys.stderr)
    print(f"record: {json.dumps(environment_record())}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
