"""The benchmark's tracer (bench/tracing.py) reaches the package's layers by
replacing names that `tnnr.solvers`, `tnnr.cli` and the operator classes
look up at call time. A renamed or bypassed name leaves its span empty; this
test finds that in tier-1, before a benchmark run does."""

from pathlib import Path

from tnnr import cli, solvers
from tnnr.data import SyntheticSpec, synth_lowrank

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_counts_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    _, a, b = synth_lowrank(SyntheticSpec(20, 20, 2, 0.6, 0.0, 0), kind="mask")
    tracer = Tracer()
    with tracer.installed():
        solvers.lrisd(a, b)
        code = cli.main(["compare", "--m", "12", "--n", "12", "--rank", "1", "--sr", "0.7",
                         "--max-inner-iters", "50", "--out", str(tmp_path / "out")])
    assert code == 0
    for span in ("linalg.shrink", "solvers.inner", "operators.apply", "cli.write"):
        assert tracer.calls[span] > 0, span
    # the inner-solve hook reads the truncation pair as the third argument
    assert tracer.counts["inner_solves"] == tracer.calls["solvers.inner"]
    assert tracer.counts["refits"] > 0
    # every refit at r > 0 takes one truncation pair; a rank-0 stage takes
    # the empty pair without one
    assert tracer.calls["linalg.pair"] == tracer.counts["refits"]
