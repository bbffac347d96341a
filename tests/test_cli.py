import csv
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tnnr
from tnnr.cli import (
    COMMANDS,
    _SETTINGS,
    TRACE_COLUMNS,
    ExperimentConfig,
    _config_from_args,
    _fmt,
    _kind,
    _parse_args,
    emit_plot_data,
    main,
    run,
)
from tnnr.data import SyntheticSpec, save_image, synth_lowrank
from tnnr.solvers import SolverConfig, lrisd, solve_with_rank
from tnnr.sve import SveConfig, estimate_rank


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def make_test_image(path, seed=0, size=24, color=True):
    rng = np.random.default_rng(seed)
    u = np.linspace(0, 1, size)
    base = 120 * np.outer(np.sin(np.pi * u) + 1, np.cos(2 * np.pi * u) + 1.2) / 2.2
    channels = []
    for _ in range(3 if color else 1):
        channels.append(np.clip(base + rng.normal(0, 5, base.shape), 0, 255))
    save_image(channels, path)
    return path


class TestExperimentConfig:
    def test_argv_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(command="compare", operator="mask", m=30, n=30, rank=2,
                               sr=0.6, std=0.25, image="in.ppm", mask_file="mask.txt",
                               keep_file="keep.txt", keep_dc=True, solver="admmap",
                               kappa_mode="real", kappa=4.5, kappa_s=2.5, max_outer=4,
                               stability=3, delta=0.125, mu=2.5, beta=0.02,
                               inner_tol=1e-6, outer_tol=5e-3, max_inner_iters=123,
                               max_refit_iters=7, trials=3, seed=11, out="somewhere",
                               adjust=1)
        defaults = ExperimentConfig()
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
                   for f in fields(ExperimentConfig))
        path = tmp_path / "cfg.txt"
        cfg.to_file(path)
        assert path.read_text().splitlines()[:3] == ["compare", "--operator=mask", "--m=30"]
        assert "--keep-dc" in path.read_text().splitlines()
        assert _read_config(path) == cfg

    def test_unknown_flag_in_a_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="2"):
            main([_argfile(tmp_path / "cfg.txt", "compare", "--whatever=3")])
        assert "unrecognized arguments: --whatever=3" in capsys.readouterr().err

    def test_bad_value_in_a_file_reports_field(self, tmp_path, capsys):
        assert main([_argfile(tmp_path / "cfg.txt", "compare", "--trials=soon")]) == 2
        assert "config field 'trials'" in capsys.readouterr().err

    def test_hash_lines_are_tokens_not_comments(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="2"):
            main([_argfile(tmp_path / "cfg.txt", "sve-trace", "# a comment", "--m=10")])
        assert "unrecognized arguments: # a comment" in capsys.readouterr().err

    def test_validation_catches_inconsistencies(self):
        with pytest.raises(ValueError, match="image"):
            ExperimentConfig(command="complete").validate()
        with pytest.raises(ValueError, match="image"):
            ExperimentConfig(command="dct-synth", m=10, n=10, rank=1,
                             image="x.ppm").validate()
        with pytest.raises(ValueError, match="operator"):
            ExperimentConfig(command="dct-synth", m=10, n=10, rank=1,
                             operator="mask").validate()
        with pytest.raises(ValueError, match="rank"):
            ExperimentConfig(command="compare", m=10, n=10).validate()
        with pytest.raises(ValueError, match="mask_file"):
            ExperimentConfig(command="compare", m=10, n=10, rank=1,
                             operator="dct", mask_file="m.txt").validate()
        with pytest.raises(ValueError, match="delta"):
            ExperimentConfig(command="compare", m=10, n=10, rank=1,
                             solver="apgl", delta=0.5).validate()

    @pytest.mark.parametrize("given, message", [
        ({"trials": 0}, "config field 'trials': must be >= 1"),
        ({"adjust": -1}, "config field 'adjust': window must be >= 0"),
        ({"command": "fit"}, "config field 'command': must be one of"),
    ])
    def test_validate_rejection_names_its_error(self, given, message):
        cfg = ExperimentConfig(**{"command": "compare", "m": 10, "n": 10, "rank": 1, **given})
        with pytest.raises(ValueError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("text, message", [
        (None, r"\[Errno 2\] No such file or directory: '.*missing.txt'"),
        ("--seed 3\n", "unrecognized arguments: --seed 3"),
        ("--keep-dc=maybe\n", "argument --keep-dc: ignored explicit argument 'maybe'"),
    ])
    def test_argv_file_rejection_names_its_error(self, tmp_path, capsys, text, message):
        path = tmp_path / ("missing.txt" if text is None else "c.txt")
        if text is not None:
            path.write_text(text)
        out = tmp_path / "o"
        with pytest.raises(SystemExit, match="2"):
            main(["compare", "@" + str(path), "--out", str(out)])
        assert re.search("tnnr.*: error: " + message, capsys.readouterr().err)
        assert not out.exists()

    def test_defaults_are_the_library_defaults(self):
        # the settings that restate a library default agree with it
        plan = ExperimentConfig(command="compare", m=12, n=12, rank=2).validate()
        assert plan.solver == SolverConfig()
        assert plan.sve == SveConfig()
        assert plan.spec.std == next(f.default for f in fields(SyntheticSpec) if f.name == "std")


def _unread(command):
    """The settings `command` does not read, each with a value away from its
    default."""
    samples = {int: 7, float: 0.25, str: "x.txt", bool: True}
    return [(f.name, samples[_kind(f.type)]) for f in _SETTINGS
            if command not in f.metadata["command"]]


def _argv_value(name, value):
    """The flag that sets field `name` to `value`."""
    flag = "--" + name.replace("_", "-")
    return [flag] if value is True else [f"{flag}={value}"]


def _argfile(path, *tokens):
    """Write `tokens` to `path`, one per line; returns the @FILE argument
    that reads them."""
    Path(path).write_text("".join(token + "\n" for token in tokens))
    return "@" + str(path)


def _read_config(path):
    """The config that `tnnr @path` runs."""
    return _config_from_args(_parse_args(["@" + str(path)]))


class TestSettingsTable:
    """Every setting is one ExperimentConfig field: flags on the command line
    and in an @FILE give the same answer, and every check runs before a run
    writes anything."""

    def test_complete_rejects_std_from_a_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["complete", _argfile(tmp_path / "c.txt", "--std=0.5"), "--operator", "mask",
                     "--image", str(make_test_image(tmp_path / "in.pgm", color=False)),
                     "--out", str(out)])
        assert code == 2
        assert "config field 'std'" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("given, field", [
        (["--beta", "5e6"], "beta"),
        (["--kappa-s", "0"], "kappa_s"),
        (["--rank", "50"], "rank"),
        (["--sr", "1.5"], "sr"),
        ("--kappa-mode=foo", "kappa_mode"),
        (["--stability", "1"], "stability"),
        (["--max-outer", "-1"], "max_outer"),
        (["--inner-tol", "0"], "inner_tol"),
        (["--std", "-1"], "std"),
        (["--delta", "-1"], "delta"),
        (["--kappa", "0"], "kappa"),
        (["--std", "1e308"], "delta"),
        (["--seed", "-1"], "seed"),
    ])
    def test_library_checks_run_before_any_write(self, tmp_path, capsys, given, field):
        if isinstance(given, str):
            given = [_argfile(tmp_path / "c.txt", given)]
        out = tmp_path / "o"
        code = main(["compare", "--m", "10", "--n", "10", "--rank", "1", *given,
                     "--out", str(out)])
        assert code == 2
        assert field in capsys.readouterr().err.split(":")[1]  # the fields named
        assert not out.exists()

    def test_complete_checks_a_random_operator_sample_ratio(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["complete", "--image", str(tmp_path / "in.pgm"), "--sr", "1.5",
                     "--out", str(out)])
        assert code == 2
        assert "config field 'sr'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_image_writes_nothing(self, tmp_path):
        out = tmp_path / "o"
        assert main(["complete", "--image", str(tmp_path / "nope.ppm"),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_stability_flag_lands_in_config(self, tmp_path):
        out = tmp_path / "o"
        assert main(["sve-trace", "--m", "10", "--n", "10", "--rank", "1", "--stability", "3",
                     "--max-inner-iters", "50", "--out", str(out)]) == 0
        assert "--stability=3" in (out / "config.txt").read_text().splitlines()
        assert _read_config(out / "config.txt").stability == 3

    @pytest.mark.parametrize("command, name, value", [
        (command, name, value) for command in COMMANDS for name, value in _unread(command)])
    def test_unread_setting_fails_alike_from_flag_and_file(self, tmp_path, capsys,
                                                           command, name, value):
        base = (["--image", "in.pgm"] if command == "complete"
                else ["--m", "10", "--n", "10", "--rank", "1"])
        out = tmp_path / "o"
        config = _argfile(tmp_path / "c.txt", *_argv_value(name, value))
        results = []
        for given in (_argv_value(name, value), [config]):
            code = main([command, *base, *given, "--out", str(out)])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2
        assert f"config field '{name}': the {command} command does not read it" in results[0][1]
        assert not out.exists()

    @pytest.mark.parametrize("command, given, name", [
        ("sve-trace", {"kappa": 3.0, "kappa_mode": "real"}, "kappa_mode"),
        ("sve-trace", {"kappa": 3.0, "kappa_s": 2.0}, "kappa_s"),
        ("complete", {"operator": "mask", "mask_file": "m.txt", "sr": 0.3}, "sr"),
        ("complete", {"keep_file": "k.txt", "sr": 0.3}, "sr"),
        ("complete", {"keep_file": "k.txt", "keep_dc": True}, "keep_dc"),
    ])
    def test_replaced_setting_fails_alike_from_flag_and_file(self, tmp_path, capsys,
                                                             command, given, name):
        base = (["--image", "in.pgm"] if command == "complete"
                else ["--m", "20", "--n", "20", "--rank", "2", "--sr", "0.6"])
        flags = [arg for k, v in given.items() for arg in _argv_value(k, v)]
        config = _argfile(tmp_path / "c.txt", *flags)
        out = tmp_path / "o"
        results = []
        for args in (flags, [config]):
            code = main([command, *base, *args, "--out", str(out)])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2
        replacer = next(k for k in given if k != name and k != "operator")
        assert f"config field '{name}': not read, as {replacer} replaces it" in results[0][1]
        assert not out.exists()
        # without the replaced setting, the same settings pass
        others = [arg for k, v in given.items() if k != name for arg in _argv_value(k, v)]
        _config_from_args(_parse_args([command, *base, *others])).validate()

    def test_first_unread_setting_in_field_order_is_named(self, capsys):
        # kappa_mode, replaced by kappa, comes before adjust, which sve-trace
        # does not read
        code = main(["sve-trace", "--m", "10", "--n", "10", "--rank", "1", "--kappa", "3",
                     "--adjust", "1", "--kappa-mode", "real"])
        assert code == 2
        assert "config field 'kappa_mode': not read, as kappa replaces it" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nl\nseed = 9", "cr\rx", "trail\n"])
    @pytest.mark.parametrize("name", ["image", "mask_file", "keep_file", "out"])
    def test_line_break_config_txt_cannot_hold_fails_before_any_write(
            self, tmp_path, monkeypatch, capsys, name, value):
        monkeypatch.chdir(tmp_path)
        operator = "mask" if name == "mask_file" else "dct"
        code = main(["complete", "--image", "in.pgm", "--operator", operator,
                     *_argv_value(name, value)])
        assert code == 2
        assert f"config field '{name}': config.txt cannot hold a line break" in \
            capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["r#1", " lead", "trail\t", "#"])
    def test_hash_and_whitespace_are_kept_in_config_txt(self, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        assert main(["sve-trace", "--m", "10", "--n", "10", "--rank", "1",
                     "--max-inner-iters", "50", f"--out={value}"]) == 0
        assert f"--out={value}" in (tmp_path / value / "config.txt").read_text().splitlines()
        assert _read_config(tmp_path / value / "config.txt").out == value

    def test_help_names_the_commands_of_partial_settings(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--stability" in text
        assert "read by complete only" in text
        assert "read by complete, dct-synth, compare only" in text
        assert "--mask-file MASK_FILE mask index file; read by complete only; read by mask " \
            "only" in text
        assert "keep the DC coefficient; read by dct only" in text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [f.name for f in _SETTINGS if _kind(f.type) is float])
    def test_non_finite_float_fails_alike_from_flag_and_file(self, tmp_path, capsys,
                                                             name, value):
        config = _argfile(tmp_path / "c.txt", *_argv_value(name, value))
        out = tmp_path / "o"
        results = []
        for given in (_argv_value(name, value), [config]):
            code = main(["compare", "--m", "12", "--n", "12", "--rank", "2",
                         "--max-inner-iters", "50", *given, "--out", str(out)])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2
        assert f"config field '{name}': must be finite, got {float(value)}" in results[0][1]
        assert not out.exists()


def _setting_values(f):
    """Values a field can hold; strings hold no line break, which
    config.txt cannot."""
    kind = _kind(f.type)
    if f.metadata.get("flag", {}).get("choices"):
        values = st.sampled_from(f.metadata["flag"]["choices"])
    elif kind is bool:
        values = st.booleans()
    elif kind is int:
        values = st.integers(-10**6, 10**6)
    elif kind is float:
        values = st.floats(allow_nan=False, allow_infinity=False)
    else:
        values = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
    return values | st.none() if f.default is None else values


configs = st.builds(ExperimentConfig, command=st.sampled_from(tuple(COMMANDS)),
                    **{f.name: _setting_values(f) for f in _SETTINGS})


class TestConfigRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(cfg=configs)
    # argparse of Python 3.11 drops the value of `--out=--`
    @example(cfg=ExperimentConfig(command="compare", out="--"))
    def test_file_and_argv_give_the_same_config(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("rt") / "cfg.txt"
        cfg.to_file(path)
        assert _read_config(path) == cfg
        argv = [cfg.command]
        for f in _SETTINGS:
            value = getattr(cfg, f.name)
            if value is not None and value is not False:
                argv += _argv_value(f.name, value)
        assert _config_from_args(_parse_args(argv)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=8))
    @example(text="/tmp/r#1")
    @example(text=" lead\t")
    @example(text="--")
    @example(text="\0--")
    @example(text="nl\nseed = 9")
    @example(text="trail\n")
    def test_config_txt_reads_back_every_string_validate_accepts(self, tmp_path_factory,
                                                                 text):
        cfg = ExperimentConfig(command="compare", m=10, n=10, rank=1, out=text)
        try:
            cfg.validate()
        except ValueError as e:
            assert str(e).startswith("config field 'out': config.txt cannot hold a line break")
            return
        path = tmp_path_factory.mktemp("rt") / "config.txt"
        cfg.to_file(path)
        assert _read_config(path) == cfg


class TestSmallShapesAndAdjust:
    """Shapes with fewer than 3 singular values and `sve-trace --adjust`
    fail before any solve, naming the field or the image shape."""

    @pytest.mark.parametrize("m, n, field", [(2, 2, "m"), (5, 2, "n")])
    def test_synthetic_shape_below_three_is_rejected(self, tmp_path, capsys, m, n, field):
        out = tmp_path / "small"
        code = main(["compare", "--m", str(m), "--n", str(n), "--rank", "1", "--sr", "0.5",
                     "--out", str(out)])
        assert code == 2
        assert f"config field '{field}': must be >= 3" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_three_by_three_still_runs(self, tmp_path):
        out = tmp_path / "three"
        code = main(["compare", "--m", "3", "--n", "4", "--rank", "1", "--sr", "0.8",
                     "--max-inner-iters", "50", "--out", str(out)])
        assert code == 0
        assert len(read_csv(out / "metrics.csv")) == 2

    def test_image_below_three_is_rejected(self, tmp_path, capsys):
        image = tmp_path / "thin.pgm"
        save_image([np.full((2, 5), 100.0)], image)
        code = main(["complete", "--image", str(image), "--operator", "mask",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "shape (2, 5)" in err and "at least 3x3" in err

    def test_sve_trace_rejects_adjust(self, tmp_path, capsys):
        code = main(["sve-trace", "--m", "10", "--n", "10", "--rank", "1", "--adjust", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config field 'adjust'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--adjust=--", "--adj=--"])
    def test_adjust_dashes_fail_alike_from_flag_and_file(self, tmp_path, capsys, flag):
        # argparse hands `--adjust=--` the flag's const, W = 2; the value is
        # the string '--', which fails naming the field, on the command line
        # and on an @FILE line alike
        out = tmp_path / "o"
        argv = ["compare", "--m", "10", "--n", "10", "--rank", "1", "--out", str(out)]
        errors = []
        for given in ([_argfile(tmp_path / "c.txt", flag)], [flag]):
            assert main(argv + given) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        reason = "field 'adjust': invalid literal for int() with base 10: '--'\n"
        assert errors == ["error: config " + reason] * 2
        # the flag alone still means W = 2
        assert _config_from_args(_parse_args(argv + ["--adjust"])).adjust == 2


class TestArgvValues:
    """A flag's value is read alike on the command line and on an @FILE
    line: '--' given as `--name=--` is the value '--', and a malformed value
    fails naming its field."""

    def test_plot_data_out_dashes_is_a_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.csv").write_text("seed,method,sr,std,reer\n0,lr,0.5,0.1,0.25\n")
        assert main(["plot-data", "m.csv", "--out=--"]) == 0
        assert read_csv(tmp_path / "--" / "reer_vs_std.csv") == [
            {"std": "0.1", "method": "lr", "median_reer": "0.25"}]

    def test_out_dashes_from_flag_and_file(self, tmp_path):
        argv = ["compare", "--out=--"]
        assert _config_from_args(_parse_args(argv)).out == "--"
        assert _read_config(_argfile(tmp_path / "c.txt", *argv)[1:]).out == "--"

    def test_at_dashes_reads_the_file_named_dashes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "--").write_text("--m=7\n")
        assert _config_from_args(_parse_args(["compare", "@--"])).m == 7
        # a second command token, from a file or not, exits 2
        (tmp_path / "--").write_text("dct-synth\n")
        with pytest.raises(SystemExit, match="2"):
            main(["compare", "@--", "--m", "10", "--n", "10", "--rank", "1", "--out", "o"])
        assert "unrecognized arguments: dct-synth" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, value, reason", [
        ("m", "x", "invalid literal for int() with base 10: 'x'"),
        ("sr", "half", "could not convert string to float: 'half'"),
    ])
    def test_malformed_value_fails_alike_from_flag_and_file(self, tmp_path, capsys,
                                                            name, value, reason):
        config = _argfile(tmp_path / "c.txt", f"--{name}={value}")
        out = tmp_path / "o"
        errors = []
        for given in ([f"--{name}={value}"], [config]):
            assert main(["compare", "--m", "10", "--n", "10", "--rank", "1", *given,
                         "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors == [f"error: config field '{name}': {reason}\n"] * 2

    @pytest.mark.parametrize("name", ["operator", "solver", "kappa_mode"])
    def test_bad_choice_fails_alike_from_flag_and_file(self, tmp_path, capsys, name):
        config = _argfile(tmp_path / "c.txt", *_argv_value(name, "foo"))
        out = tmp_path / "o"
        results = []
        for given in (_argv_value(name, "foo"), [config]):
            code = main(["compare", "--m", "10", "--n", "10", "--rank", "1", *given,
                         "--out", str(out)])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2
        assert f"config field '{name}': must be one of" in results[0][1]
        assert not out.exists()

    def test_only_a_whole_dashes_value_is_replaced(self, tmp_path):
        assert _config_from_args(_parse_args(["compare", "--out=x=--"])).out == "x=--"
        assert _read_config(_argfile(tmp_path / "c.txt", "compare", "--out=x=--")[1:]).out \
            == "x=--"
        args = _parse_args(["plot-data", "--out=x=--", "--", "-f=--"])
        assert args.out == "x=--" and args.files == ["-f=--"]

    def test_arguments_after_a_bare_dashes_are_not_expanded(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _argfile(tmp_path / "f", "m.csv")
        assert _parse_args(["plot-data", "@f", "--", "@f"]).files == ["m.csv", "@f"]
        # a file's '--' line ends the options as a given one does
        _argfile(tmp_path / "h", "--", "-g=--")
        assert _parse_args(["plot-data", "@h"]).files == ["-g=--"]
        # an @FILE's own lines are not expanded again
        _argfile(tmp_path / "g", "plot-data", "@f")
        assert _parse_args(["@g"]).files == ["@f"]


class TestAdjustSweep:
    """The sweep solves every rank of its window but lrisd's own, clipped to
    [0, min(m, n)], and keeps the first best-scoring candidate."""

    @pytest.fixture
    def sweep(self, monkeypatch):
        from types import SimpleNamespace

        from tnnr import cli

        solved = []

        def solve_with_rank(a, b, r, inner, cfg, x0):
            solved.append(r)
            return np.full((1, 1), float(r)), f"trace {r}"

        monkeypatch.setattr(cli, "solve_with_rank", solve_with_rank)
        a, cfg = SimpleNamespace(shape=(5, 6)), SimpleNamespace(adjust=2, solver="admm")

        def run_sweep(r_center, score):
            solved.clear()
            x, traces = cli._adjust_sweep(a, None, np.full((1, 1), 3.0), 3, r_center, cfg,
                                          None, lambda x: score(x[0, 0]))
            return x[0, 0], solved[:], traces

        return run_sweep

    def test_ties_go_to_the_smaller_rank(self, sweep):
        assert sweep(3, lambda r: -abs(r - 3.5)) == (3.0, [1, 2, 4, 5],
                                                     ["trace 1", "trace 2", "trace 4",
                                                      "trace 5"])
        assert sweep(3, lambda r: 0.0)[0] == 1.0
        assert sweep(3, lambda r: r)[0] == 5.0

    def test_window_is_clipped_to_the_ranks(self, sweep):
        assert sweep(4, lambda r: 0.0)[:2] == (2.0, [2, 4, 5])
        assert sweep(0, lambda r: 0.0)[:2] == (0.0, [0, 1, 2])


class TestOperatorFieldsOutsideTheirUse:
    """Operator files outside `complete`, and keep_dc with the mask operator,
    fail before any solve instead of being ignored."""

    def test_argv_file_mask_file_in_compare(self, tmp_path, capsys):
        from tnnr.operators import SamplingMask

        SamplingMask.random(3, 3, 0.5, 0).to_file(tmp_path / "mask.txt")
        config = _argfile(tmp_path / "c.txt", "--operator=mask",
                          f"--mask-file={tmp_path / 'mask.txt'}")
        out = tmp_path / "o"
        code = main(["compare", config, "--m", "20", "--n", "20",
                     "--rank", "2", "--out", str(out)])
        assert code == 2
        assert "config field 'mask_file'" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_argv_file_keep_file_in_dct_synth(self, tmp_path, capsys):
        config = _argfile(tmp_path / "c.txt", f"--keep-file={tmp_path / 'missing.txt'}")
        code = main(["dct-synth", config, "--m", "10", "--n", "10",
                     "--rank", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config field 'keep_file'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value, operator", [
        ("mask_file", "m.txt", "dct"), ("keep_file", "k.txt", "mask"), ("keep_dc", True, "mask")])
    def test_setting_the_operator_does_not_read_fails_alike_from_flag_and_file(
            self, tmp_path, capsys, name, value, operator):
        flags = ["--operator", operator, *_argv_value(name, value)]
        out = tmp_path / "o"
        results = []
        for given in (flags, [_argfile(tmp_path / "c.txt", *flags)]):
            code = main(["complete", "--image", "in.pgm", *given, "--out", str(out)])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2
        assert f"config field '{name}': the {operator} operator does not read it" in results[0][1]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "complete"])
    def test_keep_dc_with_mask_operator(self, tmp_path, capsys, command):
        inputs = (["--image", str(make_test_image(tmp_path / "in.pgm", color=False))]
                  if command == "complete" else ["--m", "10", "--n", "10", "--rank", "1"])
        out = tmp_path / "o"
        code = main([command, *inputs, "--operator", "mask", "--keep-dc", "--out", str(out)])
        assert code == 2
        assert "config field 'keep_dc'" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()


class TestSolverSettingsOutsideTheirUse:
    """metrics.csv names only the setting the solver read, delta or mu, and
    a ball radius given to apgl fails before any solve."""

    SMALL = ["--m", "12", "--n", "12", "--rank", "1", "--sr", "0.7", "--std", "0.1",
             "--max-inner-iters", "50"]

    @pytest.mark.parametrize("solver", ["admm", "apgl", "admmap"])
    def test_metrics_leave_the_unread_setting_empty(self, tmp_path, solver):
        out = tmp_path / "o"
        mu = ["--mu", "7"] if solver == "apgl" else []
        assert main(["compare", "--solver", solver, *mu, *self.SMALL,
                     "--out", str(out)]) == 0
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 2
        for row in rows:
            if solver == "apgl":
                assert row["delta"] == "" and float(row["mu"]) == 7.0
            else:  # the noisy run's ball radius, std * sqrt(p)
                assert float(row["delta"]) == pytest.approx(0.1 * np.sqrt(101))
                assert row["mu"] == ""

    def test_sr_is_the_ratio_sampled(self, tmp_path):
        # 0.43 of 10 x 7 entries rounds to 30 measurements, 30/70
        out = tmp_path / "o"
        assert main(["compare", "--operator", "mask", "--m", "10", "--n", "7", "--rank", "1",
                     "--sr", "0.43", "--std", "0.1", "--max-inner-iters", "50",
                     "--out", str(out)]) == 0
        assert [r["sr"] for r in read_csv(out / "metrics.csv")] == [repr(30 / 70)] * 2

    @pytest.mark.parametrize("via_file", [False, True])
    def test_apgl_rejects_a_ball_radius(self, tmp_path, capsys, via_file):
        given = ["--solver", "apgl", "--delta", "50"]
        if via_file:
            given = [_argfile(tmp_path / "c.txt", *given)]
        out = tmp_path / "o"
        assert main(["compare", *given, *self.SMALL, "--out", str(out)]) == 2
        assert "config field 'delta'" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("solver, name, value", [
        ("apgl", "beta", 0.5), ("apgl", "delta", 0.5), ("admm", "mu", 7.0),
        ("admmap", "mu", 7.0)])
    def test_setting_the_solver_does_not_read_fails_alike_from_flag_and_file(
            self, tmp_path, capsys, solver, name, value):
        flags = ["--solver", solver, *_argv_value(name, value)]
        out = tmp_path / "o"
        results = []
        for given in (flags, [_argfile(tmp_path / "c.txt", *flags)]):
            code = main(["compare", *given, *self.SMALL, "--out", str(out)])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2
        assert f"config field '{name}': the {solver} solver does not read it" in results[0][1]
        assert not out.exists()

    @pytest.mark.parametrize("solver, given", [("admmap", ["--mu", "1"]),
                                               ("admm", ["--mu", "1"])])
    def test_default_value_of_an_unread_setting_is_accepted(self, tmp_path, solver, given):
        out = tmp_path / "o"
        assert main(["compare", "--solver", solver, *given, *self.SMALL,
                     "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def compare_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    cfg = ExperimentConfig(command="compare", operator="dct", m=30, n=30,
                           rank=2, sr=0.6, std=0.3, trials=3, seed=5,
                           out=str(out), inner_tol=1e-3, max_inner_iters=300)
    assert run(cfg) == 0
    return out


@pytest.mark.parametrize("value, cell", [
    (None, ""), (np.int64(-3), "-3"), (7, "7"), (np.float64(0.1), "0.1"), (2.5e-20, "2.5e-20"),
    ("lr", "lr"),
])
def test_csv_cell_text(value, cell):
    assert _fmt(value) == cell


class TestCompareCommand:
    def test_metrics_rows_and_methods(self, compare_out):
        rows = read_csv(compare_out / "metrics.csv")
        assert len(rows) == 6  # 3 seeds x 2 methods
        assert {r["method"] for r in rows} == {"lr", "lrisd"}
        assert [r["seed"] for r in rows] == sorted(r["seed"] for r in rows)
        for r in rows:
            assert float(r["reer"]) > 0
            assert r["psnr_db"] == ""  # synthetic runs carry no image metrics

    def test_summary_medians(self, compare_out):
        rows = read_csv(compare_out / "metrics.csv")
        summary = {r["method"]: r for r in read_csv(compare_out / "summary.csv")}
        for method in ("lr", "lrisd"):
            reers = [float(r["reer"]) for r in rows if r["method"] == method]
            assert float(summary[method]["median_reer"]) == pytest.approx(np.median(reers))

    def test_trace_and_config_written(self, compare_out):
        assert (compare_out / "trace.csv").exists()
        assert (compare_out / "config.txt").exists()
        trace = read_csv(compare_out / "trace.csv")
        assert {"seed", "method", "stage", "l", "k", "objective", "residual", "beta"} <= set(trace[0])

    def test_rerun_is_byte_identical(self, compare_out, tmp_path):
        assert main(["@" + str(compare_out / "config.txt"),
                     "--out", str(tmp_path / "again")]) == 0
        for name in ("metrics.csv", "trace.csv", "sve.csv", "summary.csv"):
            assert (compare_out / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


class TestOneStageRunPerChannel:
    """lr is stage 0 of the same multi-stage run that gives lrisd."""

    @staticmethod
    def count_rank_zero_solves(monkeypatch):
        import tnnr.solvers
        solves, solve = [], tnnr.solvers.solve_with_rank

        def counting(a, b, r, *args, **kwargs):
            if r == 0:
                solves.append(a.shape)
            return solve(a, b, r, *args, **kwargs)

        monkeypatch.setattr(tnnr.solvers, "solve_with_rank", counting)
        return solves

    def test_compare_solves_each_stage_zero_once(self, monkeypatch, tmp_path):
        solves = self.count_rank_zero_solves(monkeypatch)
        out = tmp_path / "o"
        assert main(["compare", "--m", "30", "--n", "30", "--rank", "2", "--sr", "0.6",
                     "--std", "0.3", "--trials", "2", "--seed", "5", "--inner-tol", "1e-3",
                     "--max-inner-iters", "300", "--out", str(out)]) == 0
        assert len(solves) == 2  # 2 trials x 1 channel
        rows = read_csv(out / "metrics.csv")
        assert [(r["seed"], r["method"]) for r in rows] == [
            ("5", "lr"), ("5", "lrisd"), ("6", "lr"), ("6", "lrisd")]

    def test_complete_solves_each_channel_stage_zero_once(self, monkeypatch, tmp_path):
        solves = self.count_rank_zero_solves(monkeypatch)
        image = make_test_image(tmp_path / "in.ppm", seed=3, size=12)
        out = tmp_path / "o"
        assert main(["complete", "--image", str(image), "--operator", "mask", "--sr", "0.6",
                     "--kappa-mode", "real", "--max-inner-iters", "100",
                     "--out", str(out)]) == 0
        assert solves == [(12, 12)] * 3  # one per color channel
        assert [r["method"] for r in read_csv(out / "metrics.csv")] == ["lr", "lrisd"]

    def test_max_outer_zero_estimates_each_channel_once(self, monkeypatch, tmp_path):
        # lr and lrisd are the same stage 0, whose estimate the run makes
        import tnnr.cli
        import tnnr.solvers
        calls, estimate = [], tnnr.solvers.estimate_rank

        def counting(s, kappa):
            calls.append(len(s))
            return estimate(s, kappa)

        for module in (tnnr.solvers, tnnr.cli):
            monkeypatch.setattr(module, "estimate_rank", counting)
        out = tmp_path / "o"
        assert main(["compare", "--operator", "mask", "--m", "30", "--n", "24", "--rank", "2",
                     "--sr", "0.6", "--std", "0.1", "--trials", "2", "--max-outer", "0",
                     "--max-inner-iters", "300", "--out", str(out)]) == 0
        assert calls == [24, 24]  # 2 trials x 1 channel

    @pytest.mark.parametrize("max_outer", [0, 1, None])
    def test_ranks_match_the_library_recoveries(self, tmp_path, max_outer):
        # --max-outer 0 and 1 end the stages at the cap, where the run's
        # estimate gives lrisd's rank; the default ends on agreeing estimates
        out = tmp_path / "o"
        argv = ["compare", "--m", "30", "--n", "30", "--rank", "2", "--sr", "0.6",
                "--std", "0.3", "--seed", "5", "--inner-tol", "1e-3",
                "--max-inner-iters", "300", "--out", str(out)]
        if max_outer is not None:
            argv += ["--max-outer", str(max_outer)]
        assert main(argv) == 0
        rows = {r["method"]: r for r in read_csv(out / "metrics.csv")}
        _, a, b = synth_lowrank(SyntheticSpec(30, 30, 2, 0.6, 0.3, 5), kind="dct")
        cfg = SolverConfig(delta=0.3 * float(np.sqrt(a.p)), inner_tol=1e-3, max_inner_iters=300)
        sve = SveConfig() if max_outer is None else SveConfig(max_outer=max_outer)
        kappa = sve.resolve_kappa(30, 30)
        x_lr, _ = solve_with_rank(a, b, 0, "admm", cfg)
        x_isd, traces = lrisd(a, b, "admm", sve, cfg)
        assert (len(traces) == sve.max_outer + 1) == (max_outer is not None)  # capped
        for method, x in (("lr", x_lr), ("lrisd", x_isd)):
            expected = estimate_rank(np.linalg.svd(x, compute_uv=False), kappa).r_hat
            assert int(rows[method]["rank_recovered"]) == expected
            assert int(rows[method]["stages"]) == (1 if method == "lr" else len(traces))


class TestDctSynthCommand:
    def test_rows_and_adjust(self, tmp_path):
        out = tmp_path / "ds"
        cfg = ExperimentConfig(command="dct-synth", m=24, n=24, rank=2, sr=0.6,
                               std=0.2, trials=2, seed=4, out=str(out),
                               adjust=1, inner_tol=1e-3, max_inner_iters=300)
        assert run(cfg) == 0
        rows = read_csv(out / "metrics.csv")
        assert {r["method"] for r in rows} == {"lrisd", "lrisd-adjust"}
        by = {(r["seed"], r["method"]): r for r in rows}
        for seed in ("4", "5"):
            adj = float(by[(seed, "lrisd-adjust")]["reer"])
            base = float(by[(seed, "lrisd")]["reer"])
            assert adj <= base + 1e-9  # the sweep keeps the best recovery

    def test_mask_operator_rejected(self):
        cfg = ExperimentConfig(command="dct-synth", m=10, n=10, rank=1, operator="mask")
        with pytest.raises(ValueError, match="operator"):
            cfg.validate()


class TestSveTraceCommand:
    def test_profile_matches_estimator(self, tmp_path, capsys):
        out = tmp_path / "sve"
        cfg = ExperimentConfig(command="sve-trace", operator="dct", m=40, n=40,
                               rank=3, sr=0.6, std=0.2, seed=2, out=str(out))
        assert run(cfg) == 0
        assert "estimated rank" in capsys.readouterr().out
        rows = read_csv(out / "sve.csv")
        assert rows, "sve.csv must contain profile rows"
        stage1 = [r for r in rows if r["stage"] == "1"]
        s = np.array([float(r["S"]) for r in stage1])
        kappa = float(stage1[0]["kappa"])
        prof = estimate_rank(s, kappa)
        assert int(stage1[0]["r_hat"]) == prof.r_hat
        st = np.array([float(r["St"]) for r in stage1 if r["St"] != ""])
        stt = np.array([float(r["Stt"]) for r in stage1 if r["Stt"] != ""])
        assert np.allclose(st, prof.St) and np.allclose(stt, prof.Stt)


class TestCompleteCommand:
    def test_color_completion_outputs(self, tmp_path, capsys):
        image = make_test_image(tmp_path / "in.ppm", seed=1)
        out = tmp_path / "cmp"
        cfg = ExperimentConfig(command="complete", operator="mask", sr=0.5,
                               image=str(image), seed=3, out=str(out),
                               kappa_mode="real")
        assert run(cfg) == 0
        rows = read_csv(out / "metrics.csv")
        assert {r["method"] for r in rows} == {"lr", "lrisd"}
        for r in rows:
            assert r["psnr_db"] != "" and float(r["psnr_db"]) > 5
            assert r["t_count"] != "" and int(r["t_count"]) > 0
        assert (out / "recovered_lr.ppm").exists()
        assert (out / "recovered_lrisd.ppm").exists()
        assert (out / "masked.ppm").exists()
        assert (out / "operator.txt").exists()

    def test_fully_observed_hits_cap(self, tmp_path):
        image = make_test_image(tmp_path / "in.pgm", seed=2, color=False)
        out = tmp_path / "full"
        cfg = ExperimentConfig(command="complete", operator="mask", sr=1.0,
                               image=str(image), out=str(out), kappa_mode="real")
        assert run(cfg) == 0
        rows = read_csv(out / "metrics.csv")
        for r in rows:
            assert float(r["psnr_db"]) == 99.0

    def test_adjust_method_appears(self, tmp_path):
        image = make_test_image(tmp_path / "in.pgm", seed=3, color=False, size=20)
        out = tmp_path / "adj"
        cfg = ExperimentConfig(command="complete", operator="mask", sr=0.6,
                               image=str(image), out=str(out), adjust=1,
                               kappa_mode="real")
        assert run(cfg) == 0
        rows = {r["method"]: r for r in read_csv(out / "metrics.csv")}
        assert "lrisd-adjust" in rows
        assert float(rows["lrisd-adjust"]["psnr_db"]) >= float(rows["lrisd"]["psnr_db"]) - 1e-9

    def test_transform_operator_scores_all_pixels(self, tmp_path):
        image = make_test_image(tmp_path / "in.pgm", seed=5, color=False, size=20)
        out = tmp_path / "dct"
        cfg = ExperimentConfig(command="complete", operator="dct", sr=0.7,
                               image=str(image), out=str(out), kappa_mode="real",
                               inner_tol=1e-5)
        assert run(cfg) == 0
        rows = read_csv(out / "metrics.csv")
        for r in rows:
            assert int(r["t_count"]) == 400  # no missing-pixel set: score everywhere
        assert (out / "recovered_lrisd.pgm").exists()

    def test_mask_file_input(self, tmp_path):
        from tnnr.operators import SamplingMask

        image = make_test_image(tmp_path / "in.pgm", seed=6, color=False, size=16)
        mask = SamplingMask.random(16, 16, 0.6, 77)
        mask_path = tmp_path / "mask.txt"
        mask.to_file(mask_path)
        out = tmp_path / "mf"
        cfg = ExperimentConfig(command="complete", operator="mask",
                               image=str(image), mask_file=str(mask_path),
                               out=str(out), kappa_mode="real",
                               inner_tol=1e-4, max_inner_iters=500)
        assert run(cfg) == 0
        saved = SamplingMask.from_file(out / "operator.txt")
        assert np.array_equal(saved.rows, mask.rows)
        # sr is the ratio the file samples, 154 of 256 pixels
        assert [r["sr"] for r in read_csv(out / "metrics.csv")] == ["0.6015625"] * 2

    @pytest.mark.parametrize("name, operator", [("black.ppm", "mask"), ("black.pgm", "dct")])
    def test_black_image_leaves_reer_empty(self, tmp_path, name, operator):
        # the relative error of an all-zero truth is undefined; PSNR is capped
        image = tmp_path / name
        save_image([np.zeros((8, 8))] * (3 if name.endswith("ppm") else 1), image)
        out = tmp_path / "o"
        assert main(["complete", "--image", str(image), "--operator", operator,
                     "--out", str(out)]) == 0
        rows = read_csv(out / "metrics.csv")
        assert [(r["reer"], r["psnr_db"]) for r in rows] == [("", "99.0")] * 2
        assert main(["plot-data", str(out / "metrics.csv"), "--out", str(tmp_path / "p")]) == 0

    def test_missing_image_errors(self, tmp_path, capsys):
        code = main(["complete", "--image", str(tmp_path / "nope.ppm"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope.ppm" in capsys.readouterr().err

    def test_bad_image_header_names_file_and_field(self, tmp_path, capsys):
        image = tmp_path / "neg.pgm"
        image.write_bytes(b"P5\n-2 3\n255\n" + bytes(6))
        out = tmp_path / "o"
        assert main(["complete", "--image", str(image), "--out", str(out)]) == 2
        assert (f"bad image file {image}: width '-2' is not a positive integer"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.fixture(scope="module")
def complete_trials(tmp_path_factory):
    """`tnnr complete` with two trials on a color image, run twice."""
    root = tmp_path_factory.mktemp("trials")
    image = make_test_image(root / "in.ppm", seed=4, size=16)
    outs = []
    for name in ("first", "again"):
        out = root / name
        assert main(["complete", "--image", str(image), "--operator", "mask", "--sr", "0.5",
                     "--kappa-mode", "real", "--trials", "2", "--seed", "7",
                     "--max-inner-iters", "300", "--out", str(out)]) == 0
        outs.append(out)
    return outs


class TestCompleteTrials:
    SEEDS = (7, 8)
    METHODS = ("lr", "lrisd")

    def test_each_seed_writes_its_files(self, complete_trials):
        out = complete_trials[0]
        for seed in self.SEEDS:
            assert (out / f"operator_seed{seed}.txt").is_file()
            assert (out / f"masked_seed{seed}.ppm").is_file()
            for method in self.METHODS:
                assert (out / f"recovered_{method}_seed{seed}.ppm").is_file()
        assert not (out / "operator.txt").exists()

    def test_rows_in_seed_then_method_order(self, complete_trials):
        rows = read_csv(complete_trials[0] / "metrics.csv")
        assert [(int(r["seed"]), r["method"]) for r in rows] == [
            (seed, method) for seed in self.SEEDS for method in self.METHODS]

    def test_rerun_is_byte_identical(self, complete_trials):
        first, again = complete_trials
        skip = ("timings.csv", "config.txt")
        names = sorted(p.name for p in first.iterdir() if p.name not in skip)
        assert names == sorted(p.name for p in again.iterdir() if p.name not in skip)
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name

    def test_trace_rows_in_channel_order_within_a_method(self, complete_trials):
        # each method's trace rows are its channels' stage rows, channel by
        # channel, as the library gives them for that channel alone
        from tnnr.data import load_image
        from tnnr.operators import SamplingMask
        from tnnr.solvers import lrisd_stages

        out = complete_trials[0]
        image = load_image(out.parent / "in.ppm")
        cfg = SolverConfig(max_inner_iters=300)
        expected = [list(TRACE_COLUMNS)]
        for seed in self.SEEDS:
            a = SamplingMask.from_file(out / f"operator_seed{seed}.txt")
            runs = [list(lrisd_stages(a, a.apply(c), "admm", SveConfig(kappa_mode="real"), cfg))
                    for c in image]
            for method in self.METHODS:
                stages = [run[:1] if method == "lr" else run for run in runs]
                expected += [[str(seed), method, *map(_fmt, row)]
                             for run in stages for _, trace, _ in run for row in trace.rows()]
        _assert_cells_agree(_csv_cells(out / "trace.csv"), [c for r in expected for c in r])

    @pytest.mark.parametrize("workers, threads, color, trials", [
        ("2", 2, False, 2), ("1", 4, False, 2), ("2", 2, True, 1)])
    def test_pooled_trials_share_blas_threads(self, blas_threads, monkeypatch, tmp_path,
                                              workers, threads, color, trials):
        import tnnr.cli
        get, put = blas_threads
        put(4)
        seen, solve = [], tnnr.cli.lrisd_stages

        def recording(*args, **kwargs):
            seen.append(get())
            return solve(*args, **kwargs)

        monkeypatch.setattr("tnnr.cli.lrisd_stages", recording)
        monkeypatch.setenv("LOWRANK_THREADS", workers)
        image = make_test_image(tmp_path / ("in.ppm" if color else "in.pgm"), seed=5,
                                color=color, size=12)
        assert main(["complete", "--image", str(image), "--operator", "mask", "--sr", "0.6",
                     "--kappa-mode", "real", "--trials", str(trials),
                     "--max-inner-iters", "100", "--out", str(tmp_path / "o")]) == 0
        # one run per (trial, channel) unit gives lr and lrisd;
        # max(1, 4 // workers)
        assert seen == [threads] * (trials * (3 if color else 1))
        assert get() == 4
        timings = read_csv(tmp_path / "o" / "timings.csv")
        assert len(timings) == 2 * trials
        for row in timings:
            assert (row["workers"], row["blas_threads"], row["nproc"]) == (
                workers, str(threads), str(os.cpu_count()))

    def test_keep_file_round_trips(self, tmp_path):
        from tnnr.operators import PartialDct2D

        image = make_test_image(tmp_path / "in.pgm", seed=6, color=False, size=12)
        keep = PartialDct2D.random(12, 12, 0.7, np.random.default_rng(3))
        keep.to_file(tmp_path / "keep.txt")
        out = tmp_path / "kf"
        assert main(["complete", "--image", str(image), "--operator", "dct",
                     "--keep-file", str(tmp_path / "keep.txt"), "--kappa-mode", "real",
                     "--max-inner-iters", "100", "--out", str(out)]) == 0
        saved = PartialDct2D.from_file(out / "operator.txt")
        assert saved.shape == (12, 12)
        assert np.array_equal(saved.kept, keep.kept)

    @pytest.mark.parametrize("operator, flag", [("mask", "--mask-file"),
                                                ("dct", "--keep-file")])
    def test_operator_file_shape_mismatch(self, tmp_path, capsys, operator, flag):
        from tnnr.operators import PartialDct2D, SamplingMask

        image = make_test_image(tmp_path / "in.pgm", seed=7, color=False, size=12)
        kind = SamplingMask if operator == "mask" else PartialDct2D
        kind.random(10, 12, 0.6, np.random.default_rng(4)).to_file(tmp_path / "op.txt")
        out = tmp_path / "o"
        code = main(["complete", "--image", str(image), "--operator", operator,
                     flag, str(tmp_path / "op.txt"), "--out", str(out)])
        assert code == 2
        assert "shape (10, 12) does not match image (12, 12)" in capsys.readouterr().err
        assert not out.exists()

    def test_operator_file_is_read_once_for_all_trials(self, tmp_path, monkeypatch):
        from tnnr.operators import SamplingMask

        image = make_test_image(tmp_path / "in.pgm", seed=8, color=False, size=12)
        SamplingMask.random(12, 12, 0.6, np.random.default_rng(5)).to_file(tmp_path / "m.txt")
        reads, read = [], SamplingMask.from_file
        monkeypatch.setattr(SamplingMask, "from_file",
                            classmethod(lambda cls, path: reads.append(path) or read(path)))
        out = tmp_path / "o"
        assert main(["complete", "--image", str(image), "--operator", "mask",
                     "--mask-file", str(tmp_path / "m.txt"), "--kappa-mode", "real",
                     "--trials", "3", "--max-inner-iters", "50", "--out", str(out)]) == 0
        assert len(reads) == 1
        for seed in range(3):
            assert ((out / f"operator_seed{seed}.txt").read_bytes()
                    == (tmp_path / "m.txt").read_bytes())


class TestPlotData:
    def test_families_emitted(self, tmp_path):
        runs = []
        for std in (0.2, 0.4):
            out = tmp_path / f"std{std}"
            cfg = ExperimentConfig(command="compare", operator="dct", m=24, n=24,
                                   rank=2, sr=0.6, std=std, trials=2, seed=1,
                                   out=str(out), inner_tol=1e-3, max_inner_iters=300)
            assert run(cfg) == 0
            runs.append(out)
        plots = tmp_path / "plots"
        files = [str(r / "metrics.csv") for r in runs] + [str(runs[0] / "sve.csv")]
        emit_plot_data(files, plots)

        by_std = read_csv(plots / "reer_vs_std.csv")
        assert [float(r["std"]) for r in by_std] == sorted(float(r["std"]) for r in by_std)
        assert {r["method"] for r in by_std} == {"lr", "lrisd"}

        by_sr = read_csv(plots / "reer_vs_sr.csv")
        assert [float(r["sr"]) for r in by_sr] == sorted(float(r["sr"]) for r in by_sr)

        ranks = read_csv(plots / "rank_recovery.csv")
        assert {"true_r", "recovered_r", "seed", "method"} <= set(ranks[0])

        stt = read_csv(plots / "stt_vs_index.csv")
        source = [r for r in read_csv(runs[0] / "sve.csv") if r["Stt"] != ""]
        assert [r["Stt"] for r in stt] == [r["Stt"] for r in source]

    def test_unrecognized_file_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="format error"):
            emit_plot_data([str(bad)], tmp_path / "p")


class TestWorkerCount:
    def test_env_var_caps_workers(self, monkeypatch):
        from tnnr.cli import _worker_count
        monkeypatch.setenv("LOWRANK_THREADS", "2")
        assert _worker_count(8) == 2
        assert _worker_count(1) == 1
        monkeypatch.delenv("LOWRANK_THREADS")
        assert _worker_count(3) <= 3

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_cap_means_one_worker(self, monkeypatch, value):
        from tnnr.cli import _worker_count
        monkeypatch.setenv("LOWRANK_THREADS", value)
        assert _worker_count(4) == 1

    def test_non_integer_cap_names_the_variable(self, monkeypatch, tmp_path, capsys):
        from tnnr.cli import _worker_count
        monkeypatch.setenv("LOWRANK_THREADS", "abc")
        with pytest.raises(ValueError, match="LOWRANK_THREADS.*'abc'"):
            _worker_count(4)
        code = main(["compare", "--m", "10", "--n", "10", "--rank", "1",
                     "--trials", "2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "LOWRANK_THREADS" in capsys.readouterr().err

    def test_run_under_thread_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOWRANK_THREADS", "1")
        out = tmp_path / "serial"
        cfg = ExperimentConfig(command="compare", operator="mask", m=16, n=16,
                               rank=1, sr=0.7, std=0.1, trials=2, seed=0,
                               out=str(out), inner_tol=1e-3, max_inner_iters=200)
        assert run(cfg) == 0
        assert len(read_csv(out / "metrics.csv")) == 4


def _python(*args):
    """A Python subprocess run on args, with this package importable."""
    src = str(Path(tnnr.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


class TestMainEntry:
    def test_compare_via_argv(self, tmp_path):
        out = tmp_path / "viaargv"
        code = main(["compare", "--m", "20", "--n", "20", "--rank", "2",
                     "--sr", "0.6", "--std", "0.2", "--trials", "1",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_argv_file_with_override(self, tmp_path):
        base = tmp_path / "base.txt"
        ExperimentConfig(command="compare", operator="dct", m=20, n=20, rank=2,
                         sr=0.6, std=0.2, trials=1, seed=4).to_file(base)
        out = tmp_path / "ovr"
        code = main(["@" + str(base), "--out", str(out), "--seed", "9"])
        assert code == 0
        resolved = _read_config(out / "config.txt")
        assert resolved.seed == 9 and resolved.m == 20

    def test_second_command_token_exits_2(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        ExperimentConfig(command="compare", m=20, n=20, rank=2).to_file(base)
        with pytest.raises(SystemExit, match="2"):
            main(["sve-trace", "@" + str(base)])
        assert "unrecognized arguments: compare" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from tnnr.solvers import SolverDivergence, StageTrace

        def explode(*args, **kwargs):
            raise SolverDivergence("stage 0: objective 1e+99", StageTrace())

        monkeypatch.setattr("tnnr.cli.lrisd_stages", explode)
        code = main(["compare", "--m", "10", "--n", "10", "--rank", "1",
                     "--sr", "0.8", "--trials", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "solver failure" in capsys.readouterr().err

    def test_python_m_tnnr_runs_a_command(self, tmp_path):
        # the module entry point (src/tnnr/__main__.py) that the README documents
        done = _python("-m", "tnnr", "compare", "--m", "6", "--n", "6", "--rank", "1",
                       "--sr", "0.8", "--max-inner-iters", "50", "--out", str(tmp_path / "o"))
        assert done.returncode == 0, done.stderr
        assert read_csv(tmp_path / "o" / "metrics.csv")

    def test_python_m_tnnr_without_arguments_prints_the_usage(self):
        done = _python("-m", "tnnr")
        assert done.returncode == 2
        assert done.stderr.startswith("usage: tnnr ")

    def test_runs_without_scipy(self, tmp_path):
        # the package needs numpy alone: with scipy made unimportable, the
        # CLI imports and runs a partial-DCT recovery, and loads no scipy
        # module (scipy serves only the tests and the benchmark)
        code = f"""if True:
            import sys
            sys.modules["scipy"] = None
            from tnnr.cli import main
            code = main(["dct-synth", "--m", "12", "--n", "12", "--rank", "1", "--sr", "0.6",
                         "--trials", "1", "--out", {str(tmp_path / "o")!r}])
            loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod]
            sys.exit(f"scipy modules loaded: {{loaded}}" if loaded else code)"""
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        assert read_csv(tmp_path / "o" / "metrics.csv")


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread controls; the count found is put back after."""
    from tnnr.cli import _openblas_thread_controls
    controls = _openblas_thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread controls")
    get, put = controls
    found = get()
    yield get, put
    put(found)


class TestBlasThreadCap:
    """The trial pool caps numpy's BLAS threads at max(1, n // workers)."""

    @staticmethod
    def run_recording(monkeypatch, tmp_path, get, workers, trials, fail_seed=None):
        import tnnr.cli
        seen, solve = [], tnnr.cli._solve_channel

        def unit(plan, trial, channel):
            seen.append(get())
            if trial.seed == fail_seed:
                raise RuntimeError(f"trial {trial.seed} failed")
            return solve(plan, trial, channel)

        monkeypatch.setattr("tnnr.cli._solve_channel", unit)
        monkeypatch.setenv("LOWRANK_THREADS", str(workers))
        cfg = ExperimentConfig(command="compare", m=8, n=8, rank=1, trials=trials,
                               max_inner_iters=20, max_refit_iters=1, seed=0,
                               out=str(tmp_path / "o"))
        assert run(cfg) == 0
        return seen

    @pytest.mark.parametrize("n, workers, cap", [(2, 2, 1), (4, 2, 2), (5, 2, 2), (4, 3, 1)])
    def test_cap_inside_pool_and_restored_after(self, blas_threads, monkeypatch, tmp_path,
                                                n, workers, cap):
        get, put = blas_threads
        put(n)
        assert get() == n
        seen = self.run_recording(monkeypatch, tmp_path, get, workers, trials=2 * workers)
        assert seen == [cap] * (2 * workers)
        assert get() == n

    def test_restored_when_a_trial_raises(self, blas_threads, monkeypatch, tmp_path):
        get, put = blas_threads
        put(4)
        with pytest.raises(RuntimeError, match="trial 1 failed"):
            self.run_recording(monkeypatch, tmp_path, get, workers=2, trials=4, fail_seed=1)
        assert get() == 4

    @pytest.mark.parametrize("workers, trials", [(1, 3), (2, 1)])
    def test_one_worker_leaves_count_alone(self, blas_threads, monkeypatch, tmp_path,
                                           workers, trials):
        get, put = blas_threads
        put(4)
        seen = self.run_recording(monkeypatch, tmp_path, get, workers, trials)
        assert seen == [4] * trials
        assert get() == 4

    def test_missing_controls_keep_the_pool(self, blas_threads, monkeypatch, tmp_path):
        get, put = blas_threads
        put(4)
        monkeypatch.setattr("tnnr.cli._openblas_thread_controls", lambda: None)
        seen = self.run_recording(monkeypatch, tmp_path, get, workers=2, trials=4)
        assert seen == [4] * 4


def _csv_cells(path):
    with open(path, newline="") as f:
        return [cell for row in csv.reader(f) for cell in row]


def _assert_cells_agree(left, right, rtol=1e-9):
    """Integer and string cells identical, float cells within rtol relative."""
    assert len(left) == len(right)
    for x, y in zip(left, right):
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            assert x == y
            continue
        if x.lstrip("-").isdigit() or y.lstrip("-").isdigit():
            assert x == y
        else:
            assert abs(fx - fy) <= rtol * max(abs(fx), abs(fy)), (x, y)


class TestPooledCompareMatchesSerial:
    CSVS = ("metrics.csv", "trace.csv", "sve.csv", "summary.csv")

    @staticmethod
    def compare(monkeypatch, out, workers):
        monkeypatch.setenv("LOWRANK_THREADS", str(workers))
        code = main(["compare", "--operator", "dct", "--m", "30", "--n", "30",
                     "--rank", "2", "--sr", "0.6", "--std", "0.3", "--trials", "2",
                     "--seed", "5", "--inner-tol", "1e-3", "--max-inner-iters", "300",
                     "--out", str(out)])
        assert code == 0
        return out

    def test_pool_agrees_with_one_worker_and_reruns_identically(self, monkeypatch, tmp_path):
        pooled = self.compare(monkeypatch, tmp_path / "pooled", 2)
        serial = self.compare(monkeypatch, tmp_path / "serial", 1)
        again = self.compare(monkeypatch, tmp_path / "again", 2)
        for name in self.CSVS:
            _assert_cells_agree(_csv_cells(pooled / name), _csv_cells(serial / name))
            assert (pooled / name).read_bytes() == (again / name).read_bytes()


class TestPooledCompleteMatchesSerial:
    """A pooled color completion against the same run with one worker: the
    BLAS thread cap may move floats only at rounding. The pool has a worker
    per (trial, channel) unit up to three, more than two cores have, and
    switches threads often, so that units writing into one directory or
    rows reassembled out of order would show a race. The cases: three
    trials; one trial, whose three channels are the units; two trials with
    --adjust, whose windows centre on each channel's own estimate."""

    @staticmethod
    def complete(monkeypatch, image, out, workers, args):
        monkeypatch.setenv("LOWRANK_THREADS", str(workers))
        assert main(["complete", "--image", str(image), "--operator", "mask", "--sr", "0.5",
                     "--kappa-mode", "real", "--seed", "3", "--max-inner-iters", "300",
                     "--out", str(out), *args]) == 0
        return out

    @pytest.mark.parametrize("args, files", [
        (["--trials", "3"], 3 * 4),  # per seed: operator, masked, lr and lrisd images
        ([], 4),
        (["--trials", "2", "--adjust", "1"], 2 * 5),  # and the lrisd-adjust image
    ])
    def test_pool_agrees_with_one_worker(self, monkeypatch, tmp_path, args, files):
        image = make_test_image(tmp_path / "in.ppm", seed=9, size=20)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = self.complete(monkeypatch, image, tmp_path / "pooled", 3, args)
        finally:
            sys.setswitchinterval(interval)
        serial = self.complete(monkeypatch, image, tmp_path / "serial", 1, args)
        names = sorted(p.name for p in pooled.iterdir())
        assert names == sorted(p.name for p in serial.iterdir())
        written = [n for n in names if n.endswith((".ppm", ".txt")) and n != "config.txt"]
        assert len(written) == files
        for name in written:
            assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name
        for name in ("metrics.csv", "trace.csv", "sve.csv"):
            _assert_cells_agree(_csv_cells(pooled / name), _csv_cells(serial / name))
