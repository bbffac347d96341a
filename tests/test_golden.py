"""Golden outputs: every run in tests/golden/manifest.json gives the files
committed next to it. Integers and strings must match exactly; a float must
lie within 1e-9 of its column's largest magnitude, since BLAS builds and
thread counts round differently. Other files must match byte for byte.
Each run that writes a config.txt must also give the same files when re-run
from it, as `tnnr @config.txt --out DIR`.
After a change that moves results on purpose, rewrite the runs it moves with
`PYTHONPATH=src python tests/golden/regen.py NAME...`."""

import csv
import io
import math
import re

import pytest

from golden.regen import CONFIGS, GOLDEN, main_regen, outputs

REL_TOL = 1e-9
_INT = re.compile(r"-?\d+")


def _float(cell):
    try:
        return None if _INT.fullmatch(cell) else float(cell)
    except ValueError:
        return None


def _assert_csv_close(want_text, got_text, where):
    want = list(csv.reader(io.StringIO(want_text)))
    got = list(csv.reader(io.StringIO(got_text)))
    assert got[:1] == want[:1], f"{where}: header"
    assert len(got) == len(want), f"{where}: row count"
    scale = [max((abs(v) for row in want[1:]
                  if (v := _float(row[j])) is not None and math.isfinite(v)), default=0.0)
             for j in range(len(want[0]))]
    for i, (w, g) in enumerate(zip(want[1:], got[1:]), 2):
        assert len(g) == len(w), f"{where} line {i}: cell count"
        for j, (wc, gc) in enumerate(zip(w, g)):
            wf, gf = _float(wc), _float(gc)
            if wf is None or gf is None or not math.isfinite(wf):  # ints, strings, nan, inf
                assert gc == wc, f"{where} line {i}, {want[0][j]}: {gc!r} != {wc!r}"
            else:
                assert abs(gf - wf) <= REL_TOL * scale[j], (
                    f"{where} line {i}, {want[0][j]}: {gc} != {wc}")


def _assert_matches_the_goldens(name, got):
    committed = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(got) == committed
    for filename in committed:
        want = (GOLDEN / name / filename).read_text()
        if filename.endswith(".csv"):
            _assert_csv_close(want, got[filename], f"{name}/{filename}")
        else:
            assert got[filename] == want, f"{name}/{filename}"


@pytest.mark.parametrize("name", list(CONFIGS))
def test_outputs_match_the_goldens(name):
    _assert_matches_the_goldens(name, outputs(name))


@pytest.mark.parametrize("name", [name for name in CONFIGS
                                  if (GOLDEN / name / "config.txt").exists()])
def test_config_txt_reruns_its_golden(name):
    # `tnnr @DIR/config.txt --out OTHER` makes the same files, config.txt included
    _assert_matches_the_goldens(name, outputs(name, rerun=True))


def test_regen_rejects_an_unknown_name_before_writing(monkeypatch, tmp_path):
    # a typo in one name must not rewrite the runs named beside it
    monkeypatch.setattr("golden.regen.GOLDEN", tmp_path)
    monkeypatch.setattr("golden.regen.outputs", pytest.fail)
    with pytest.raises(SystemExit, match="unknown golden run.*: no-such-run"):
        main_regen([next(iter(CONFIGS)), "no-such-run"])
    assert not any(tmp_path.iterdir())
