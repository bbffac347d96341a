"""A smoke run of the benchmark harness (bench/run.py) in tier-1: one traced
round of `color128-complete`, the workload whose channel solves run on the
CLI's pool, checked by the harness itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_complete_round_is_correct_and_pooled():
    # the harness reports cli.workers from the pool size the CLI chose: one
    # worker per (trial, channel) unit, 3 trials x 3 channels, up to the cores
    env = {k: v for k, v in os.environ.items() if k != "LOWRANK_THREADS"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "color128-complete", "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["metrics"]["cli.workers"]["value"] == min(9, os.cpu_count())
