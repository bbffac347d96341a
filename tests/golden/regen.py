"""Golden outputs of the runs in manifest.json, and the script that rewrites them.

Each run writes into a directory named after it, next to this file:
- the CSVs a command writes, verbatim, with `trace.csv` replaced by
  `trace_digest.csv`: per (seed, method, stage, l), the row count and the
  sums of the objective, residual and beta columns
- `config.txt`, with the run's paths replaced by their manifest placeholders;
  `outputs(name, rerun=True)` makes the files again from it, by
  `tnnr @config.txt --out {out}`
- `stdout.txt`
- `sha256.csv`: the digest of every other file, the operator files and images
- for an `lrisd` library call, `stages.csv` (per stage: its rank, iteration
  count, estimate and trace sums) and `x.csv`, the recovery
`timings.csv` is left out: it holds wall-clock times.

Run from the repository root after a change that moves results on purpose:

    PYTHONPATH=src python tests/golden/regen.py [NAME...]

and commit the rewritten files; their diff shows what moved. With names, it
rewrites only those runs of the manifest (an unknown name is an error, and
nothing is rewritten); without, every run. Rewrite only the runs the change
is meant to move: on another machine's BLAS a full rewrite can also change
last digits elsewhere.
"""

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent))  # tests/helpers.py

from helpers import composite_image  # noqa: E402
from tnnr.cli import main  # noqa: E402
from tnnr.data import SyntheticSpec, save_image, synth_lowrank  # noqa: E402
from tnnr.solvers import SolverConfig, lrisd  # noqa: E402

CONFIGS = json.loads((GOLDEN / "manifest.json").read_text())["configs"]
TRACE_SUMS = ("objective", "residual", "beta")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _trace_digest(text: str) -> str:
    groups = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = tuple(row[c] for c in ("seed", "method", "stage", "l"))
        digest = groups.setdefault(key, [0, 0.0, 0.0, 0.0])
        digest[0] += 1
        for i, column in enumerate(TRACE_SUMS, 1):
            digest[i] += float(row[column])
    return _csv_text(("seed", "method", "stage", "l", "rows", *TRACE_SUMS),
                     [(*key, *digest) for key, digest in groups.items()])


def _run_command(argv, work: Path, rerun: str | None = None) -> dict[str, str]:
    places = {"out": work / "out", "color": work / "color.ppm", "gray": work / "gray.pgm",
              "golden": GOLDEN}
    image = composite_image(0, size=32)
    save_image(image, places["color"])
    save_image(image[:1], places["gray"])
    if rerun is not None:
        # the committed config.txt of run `rerun`, its placeholders filled in,
        # but for an output directory that the later --out overrides
        text = (GOLDEN / rerun / "config.txt").read_text()
        for name, place in (places | {"out": work / "overridden"}).items():
            text = text.replace("{" + name + "}", str(place))
        (work / "config.txt").write_text(text)
        argv = ["@" + str(work / "config.txt"), "--out", "{out}"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([arg.format(**places) for arg in argv])
    if code != 0:
        raise RuntimeError(f"tnnr {' '.join(argv)} exited {code}")
    files, digests = {"stdout.txt": stdout.getvalue()}, []
    for path in sorted(places["out"].iterdir()):
        if path.name == "timings.csv":
            continue
        if path.name == "trace.csv":
            files["trace_digest.csv"] = _trace_digest(path.read_text())
        elif path.name == "config.txt":
            text = path.read_text()
            for name, place in places.items():
                text = text.replace(str(place), "{" + name + "}")
            files[path.name] = text
        elif path.suffix == ".csv":
            files[path.name] = path.read_text()
        else:
            digests.append((path.name, hashlib.sha256(path.read_bytes()).hexdigest()))
    if digests:
        files["sha256.csv"] = _csv_text(("file", "sha256"), digests)
    return files


def _run_lrisd(spec) -> dict[str, str]:
    synth = SyntheticSpec(spec["m"], spec["n"], spec["r"], spec["sr"], spec["std"],
                          spec["seed"])
    _, a, b = synth_lowrank(synth)
    cfg = SolverConfig(delta=spec["std"] * float(np.sqrt(synth.p)),
                       max_inner_iters=spec["max_inner_iters"])
    x, traces = lrisd(a, b, spec["inner"], cfg=cfg)
    stages = [(t.stage, t.rank, t.total_inner_iters, "" if t.sve is None else t.sve.r_hat,
               *(float(sum(getattr(t, c))) for c in TRACE_SUMS)) for t in traces]
    return {"stages.csv": _csv_text(("stage", "rank", "inner_iters", "r_hat", *TRACE_SUMS),
                                    stages),
            "x.csv": _csv_text([f"c{j}" for j in range(x.shape[1])], x.tolist())}


def outputs(name: str, rerun: bool = False) -> dict[str, str]:
    """The golden files of the manifest's run `name`, as this code makes them;
    with `rerun`, as `tnnr @config.txt` makes them from its committed
    config.txt."""
    config = CONFIGS[name]
    if "lrisd" in config:
        return _run_lrisd(config["lrisd"])
    with tempfile.TemporaryDirectory() as work:
        return _run_command(config["argv"], Path(work), name if rerun else None)


def main_regen(names) -> None:
    unknown = [name for name in names if name not in CONFIGS]
    if unknown:
        sys.exit(f"unknown golden run(s): {', '.join(unknown)}; "
                 f"expected names from manifest.json: {', '.join(CONFIGS)}")
    for name in names or CONFIGS:
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for filename, text in outputs(name).items():
            (target / filename).write_text(text)
        print(f"{name}: {len(list(target.iterdir()))} files")


if __name__ == "__main__":
    main_regen(sys.argv[1:])
