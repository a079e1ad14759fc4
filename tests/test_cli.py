import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from swnopt import cli
from swnopt.cli import main
from swnopt.distances import normalized_levenshtein
from swnopt.logs import EventLog, parse_csv, parse_xes, write_csv, write_xes
from swnopt.optimize import OptimizerConfig
from swnopt.pnml import parse_pnml, write_pnml
from swnopt.semantics import annotate, build_rg
from swnopt.unfolding import unfold_language

from .fixtures import (
    parallel_choice_log,
    parallel_choice_swn,
    two_loop_log,
    two_loop_swn,
)
from .oracles import mincost_transport_units
from .treegen import random_swn

UNIFORM_BRANCH_LH = 0.3 * math.log(6) + 0.7 * math.log(3)  # every weight 1.0


@pytest.fixture
def workdir(tmp_path):
    net = tmp_path / "net.pnml"
    net.write_bytes(write_pnml(parallel_choice_swn()))
    log = tmp_path / "log.csv"
    log.write_text(write_csv(parallel_choice_log()), encoding="utf-8")
    return tmp_path


def _discover_args(tmp_path, **extra):
    args = [
        "discover",
        "--net", str(tmp_path / "net.pnml"),
        "--log", str(tmp_path / "log.csv"),
        "--out-net", str(tmp_path / "weighted.pnml"),
        "--out-report", str(tmp_path / "report.json"),
        "--out-convergence", str(tmp_path / "convergence.csv"),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_discover_remd_reaches_zero(workdir):
    code = main(_discover_args(workdir, measure="remd", seed="42", n0="10", max_iter="50", delta="1e-3"))
    assert code == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["schema"] == "stochastic-weights/report/1"
    assert report["measure"] == "remd"
    assert report["method"] == "Powell"
    assert report["final_value"] <= 1e-3
    assert report["stop_reason"] in ("MaxIter", "DeltaConverged", "NoImprovement")
    assert "timings" not in report  # deterministic by default

    parsed = parse_pnml((workdir / "weighted.pnml").read_bytes())
    assert set(parsed.weights) == {"a", "b", "c", "d", "tau"}
    assert max(parsed.weights.values()) == pytest.approx(1.0)

    lines = (workdir / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == report["final_value"]


def test_discover_lh_reaches_entropy_floor(workdir):
    code = main(_discover_args(workdir, measure="lh", seed="7"))
    assert code == 0
    report = json.loads((workdir / "report.json").read_text())
    floor = -(2 * 0.15 * math.log(0.15) + 2 * 0.35 * math.log(0.35))
    assert abs(report["final_value"] - floor) <= 1e-3


def test_discover_deterministic_outputs(workdir, tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    for d in (run_a, run_b):
        d.mkdir()
        code = main([
            "discover",
            "--net", str(workdir / "net.pnml"),
            "--log", str(workdir / "log.csv"),
            "--measure", "remd",
            "--seed", "42",
            "--n0", "5",
            "--max-iter", "8",
            "--out-net", str(d / "weighted.pnml"),
            "--out-report", str(d / "report.json"),
            "--out-convergence", str(d / "convergence.csv"),
        ])
        assert code == 0
    for name in ("report.json", "convergence.csv", "weighted.pnml"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()


def test_discover_timings_flag_adds_wall_times(workdir):
    code = main(_discover_args(workdir, measure="lh", seed="1", n0="2", max_iter="3") + ["--timings"])
    assert code == 0
    report = json.loads((workdir / "report.json").read_text())
    assert set(report["timings"]) == {"parse", "spec", "optimize"}


def test_discover_spec_phase_times_the_objective_build(workdir, monkeypatch):
    # the product (and for rEMD the cost matrix) is built with the graph, inside the spec phase
    from swnopt import unfolding

    build = unfolding.PrefixProduct.__init__

    def slow_build(self, *args):
        time.sleep(0.05)
        build(self, *args)

    monkeypatch.setattr(unfolding.PrefixProduct, "__init__", slow_build)
    assert main(_discover_args(workdir, measure="lh", seed="1", n0="2", max_iter="2") + ["--timings"]) == 0
    timings = json.loads((workdir / "report.json").read_text())["timings"]
    assert list(timings) == ["parse", "spec", "optimize"]
    assert timings["spec"] >= 0.05


def test_discover_missing_log_exits_2(workdir):
    args = _discover_args(workdir)
    args[4] = str(workdir / "nope.csv")
    code = main(args)
    assert code == 2


def test_discover_non_workflow_net_exits_2(workdir, capsys):
    bad = workdir / "bad.pnml"
    text = (workdir / "net.pnml").read_text()
    # an extra arc back into the source breaks the workflow property
    text = text.replace("</page>", '<arc id="loopback" source="tau" target="source"/></page>')
    bad.write_text(text)
    args = _discover_args(workdir)
    args[2] = str(bad)
    code = main(args)
    assert code == 2
    assert "source" in capsys.readouterr().err


def test_net_with_two_open_ends_on_each_side_exits_2_naming_them(workdir, capsys):
    text = (workdir / "net.pnml").read_text()
    extra = '<place id="idle"><name><text>idle</text></name></place>'
    extra += '<place id="done"><name><text>done</text></name></place><arc id="extra" source="tau" target="done"/>'
    (workdir / "open.pnml").write_text(text.replace("</page>", extra + "</page>"))
    assert main(["unfold", "--net", str(workdir / "open.pnml"), "--coverage", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "places without incoming arcs: ['source', 'idle']" in err
    assert "without outgoing arcs: ['sink', 'idle', 'done']" in err


def test_discover_unproducible_log_exits_3(workdir):
    (workdir / "alien.csv").write_text("case,activity\nc1,zz\nc1,qq\n")
    args = _discover_args(workdir, measure="remd", n0="3", seed="0")
    args[4] = str(workdir / "alien.csv")
    code = main(args)
    assert code == 3


@pytest.mark.parametrize("command", ["discover", "evaluate"])
def test_lh_on_a_log_the_net_cannot_produce_exits_3(workdir, capsys, command):
    # every activity is in the net, but no trace of the log is in its language
    log = workdir / "unproducible.csv"
    log.write_text(write_csv(EventLog({("a", "c", "d"): 3, ("b",): 2})), encoding="utf-8")
    if command == "discover":
        args = _discover_args(workdir, measure="lh", n0="3", seed="1")
        args[4] = str(log)
    else:
        args = ["evaluate", "--net", str(workdir / "net.pnml"), "--log", str(log), "--measures", "lh"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "model mass" in captured.err
    assert not (workdir / "report.json").exists()


def _option_file(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return f"@{path}"


def test_discover_option_file_flags_win(workdir, capsys):
    args = _option_file(
        workdir / "run.args",
        f"--net={workdir / 'net.pnml'}",
        "--log", str(workdir / "log.csv"),
        "--measure=lh",
        "--seed=9",
        "--n0=2",
        "--max-iter=4",
        f"--out-net={workdir / 'weighted.pnml'}",
        f"--out-report={workdir / 'report.json'}",
        f"--out-convergence={workdir / 'convergence.csv'}",
    )
    assert main(["discover", args, "--seed", "11"]) == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["seed"] == 11  # the last value given wins
    assert report["n0"] == 2 and report["max_iter"] == 4  # the file's value beats the default
    assert report["measure"] == "lh"
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag,value",
    [("--method", "derivative-free"), ("--max-trace-len", "3"), ("--max-level", "4"), ("--prob-floor", "0.1")],
)
def test_discover_rejects_removed_flags(workdir, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(_discover_args(workdir) + [flag, value])
    assert exc.value.code == 2
    capsys.readouterr()


def _runnable_args(workdir, command):
    """A complete call of ``command`` on the fixture net and log."""
    return {
        "discover": _discover_args(workdir),
        "evaluate": ["evaluate", "--net", str(workdir / "net.pnml"), "--log", str(workdir / "log.csv")],
        "unfold": ["unfold", "--net", str(workdir / "net.pnml"), "--coverage", "1.0"],
        "convert": ["convert", "--in", str(workdir / "net.pnml"), "--out", str(workdir / "copy.pnml")],
    }[command]


@pytest.mark.parametrize("flag", ["--source", "--sink"])
@pytest.mark.parametrize("command", ["discover", "evaluate", "unfold", "convert"])
def test_place_flags_are_removed(workdir, capsys, command, flag):
    # a workflow net's source and sink are its only open ends, so they are never given
    with pytest.raises(SystemExit) as exc:
        main(_runnable_args(workdir, command) + [flag, "source"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["discover", "evaluate", "unfold"])
def test_state_cap_flag_is_removed(workdir, capsys, command):
    # the reachability graph is bounded by one constant, semantics.STATE_CAP
    with pytest.raises(SystemExit) as exc:
        main(_runnable_args(workdir, command) + ["--state-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --state-cap" in capsys.readouterr().err
    assert not (workdir / "report.json").exists()


@pytest.mark.parametrize("side", ["input", "output-convert", "output-discover"])
def test_path_under_a_regular_file_exits_2(workdir, capsys, side):
    # NotADirectoryError once escaped main with a traceback and exit 1
    under_file = workdir / "log.csv" / "x"
    argv = {
        "input": ["unfold", "--net", str(under_file / "net.pnml"), "--coverage", "0.5"],
        "output-convert": ["convert", "--in", str(workdir / "log.csv"), "--out", str(under_file / "log.xes")],
        "output-discover": _discover_args(workdir, n0="2", max_iter="2", out_report=under_file / "report.json"),
    }[side]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(under_file) in captured.err.splitlines()[-1]


def test_option_file_option_the_subcommand_lacks_exits_2(workdir, capsys):
    args = _option_file(workdir / "run.args", "--coverage=1.0", "--measure=lh")
    with pytest.raises(SystemExit) as exc:
        main(["unfold", "--net", str(workdir / "net.pnml"), args])
    assert exc.value.code == 2
    assert "unrecognized arguments: --measure=lh" in capsys.readouterr().err


def test_missing_option_file_exits_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["discover", f"@{workdir / 'nope.args'}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "No such file or directory" in err and "nope.args" in err


def test_option_files_compose(workdir, capsys):
    common = _option_file(workdir / "common.args", f"--net={workdir / 'net.pnml'}", f"--log={workdir / 'log.csv'}")
    discover = _option_file(workdir / "discover.args", *_discover_args(workdir, seed="1", n0="2", max_iter="2")[5:])
    assert main(["discover", common, discover]) == 0
    report = json.loads((workdir / "report.json").read_text())
    assert (report["n0"], report["max_iter"]) == (2, 2)
    assert main(["evaluate", common, "--measures", "lh"]) == 0
    assert [r["kind"] for r in json.loads(capsys.readouterr().out)] == ["lh"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["discover", "--log", "log.csv"], "--net"),
        (["discover", "--net", "net.pnml"], "--log"),
        (["evaluate", "--log", "log.csv"], "--net"),
        (["evaluate", "--net", "net.pnml"], "--log"),
        (["unfold", "--coverage", "1.0"], "--net"),
    ],
    ids=["discover-net", "discover-log", "evaluate-net", "evaluate-log", "unfold-net"],
)
def test_missing_required_input_exits_2_naming_it(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err


def test_discover_checks_its_optimizer_options_before_reading_inputs(workdir, capsys):
    for option, message in (({"n0": "0"}, "n0 must be >= 1"), ({"seed": "-1"}, "seed must be >= 0")):
        args = _discover_args(workdir, **option)
        args[2] = str(workdir / "nope.pnml")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert message in err and "nope.pnml" not in err


_OUTPUTS = {"out_net": "weighted.pnml", "out_report": "report.json", "out_convergence": "convergence.csv"}


@pytest.mark.parametrize("where", ["under-a-file", "a-directory"])
@pytest.mark.parametrize("output", list(_OUTPUTS))
def test_discover_checks_its_output_paths_before_the_fit(workdir, capsys, monkeypatch, output, where):
    def no_fit(*args, **kwargs):
        raise AssertionError("discover fitted before checking its output paths")

    monkeypatch.setattr(cli, "optimized_weights", no_fit)
    bad = workdir / "log.csv" / "out" if where == "under-a-file" else workdir
    assert main(_discover_args(workdir, **{output: bad})) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith(f"error: --{output.replace('_', '-')} {bad}")
    assert [name for key, name in _OUTPUTS.items() if key != output and (workdir / name).exists()] == []


@pytest.mark.parametrize(
    "first, second", [("out_net", "out_report"), ("out_net", "out_convergence"), ("out_report", "out_convergence")]
)
def test_discover_refuses_two_outputs_naming_one_file(workdir, capsys, monkeypatch, first, second):
    def no_fit(*args, **kwargs):
        raise AssertionError("discover fitted before checking its output paths")

    monkeypatch.setattr(cli, "optimized_weights", no_fit)
    (workdir / "sub").mkdir()
    same = {first: workdir / "same.out", second: workdir / "sub" / ".." / "same.out"}  # one file, two spellings
    args = _discover_args(workdir, **same)
    args[2] = str(workdir / "nope.pnml")  # refused before any input is read
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    flags = [f"--{name.replace('_', '-')}" for name in (first, second)]
    assert err.startswith(f"error: {flags[0]} and {flags[1]} name the same file")
    assert "nope.pnml" not in err
    assert not (workdir / "same.out").exists()


def test_every_flag_is_read(workdir, capsys, monkeypatch):
    read = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            if sys._getframe(1).f_globals.get("__name__") == cli.__name__:  # reads by argparse do not count
                read.add(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(argparse, "Namespace", RecordingNamespace)
    net, log = str(workdir / "net.pnml"), str(workdir / "log.csv")
    timed = workdir / "timed.csv"
    timed.write_text(write_csv(parallel_choice_log(), "id", "act", "when"), encoding="utf-8")
    columns = ["--case-col", "id", "--activity-col", "act", "--time-col", "when"]
    runs = {
        "discover": [_discover_args(workdir, measure="lh", seed="1", n0="2", max_iter="2")],
        "evaluate": [["evaluate", "--net", net, "--log", log]],
        "unfold": [["unfold", "--net", net, "--log", log], ["unfold", "--net", net, "--coverage", "1.0"]],
        "convert": [
            ["convert", "--in", str(timed), "--out", str(workdir / "copy.csv")] + columns,
            ["convert", "--in", net, "--out", str(workdir / "copy.pnml")],
        ],
    }
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, argvs in runs.items():
        read.clear()
        for argv in argvs:
            assert main(argv) == 0
        dests = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
        assert dests - read == set(), command
    capsys.readouterr()


def test_parser_defaults_come_from_the_library():
    parser = cli.build_parser()
    inputs = ["--net", "net.pnml", "--log", "log.csv"]
    discover = parser.parse_args(["discover"] + inputs)
    config = OptimizerConfig()
    assert (discover.n0, discover.max_iter, discover.delta, discover.seed) == (
        config.n0, config.max_iter, config.delta, config.seed
    )


def test_option_file_timings_line_turns_timings_on(workdir, capsys):
    args = _option_file(workdir / "run.args", "--timings", "--n0=2", "--max-iter=2")
    assert main(_discover_args(workdir, seed="1") + [args]) == 0
    report = json.loads((workdir / "report.json").read_text())
    assert set(report["timings"]) == {"parse", "spec", "optimize"}
    capsys.readouterr()


@pytest.mark.parametrize(
    "line,message",
    [
        ("--n0=many", "argument --n0: invalid int value: 'many'"),
        ("--timings=ture", "argument --timings: ignored explicit argument 'ture'"),
        ("--measure=bogus", "argument --measure: invalid choice: 'bogus'"),
    ],
    ids=["int", "boolean", "choice"],
)
def test_option_file_bad_value_exits_2_before_reading_inputs(workdir, capsys, line, message):
    args = _discover_args(workdir) + [_option_file(workdir / "run.args", line)]
    args[2] = str(workdir / "nope.pnml")  # never read: parsing fails first
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "nope.pnml" not in err
    assert not (workdir / "report.json").exists()


def test_evaluate_reference_weighted_net(workdir, capsys):
    def evaluate(coverage):
        args = ["evaluate", "--net", str(workdir / "net.pnml"), "--log", str(workdir / "log.csv")]
        assert main(args + ["--coverage", coverage]) == 0
        return {r["kind"]: r for r in json.loads(capsys.readouterr().out)}

    by_kind = evaluate("0.8")
    floor = -(2 * 0.15 * math.log(0.15) + 2 * 0.35 * math.log(0.35))
    assert by_kind["lh"]["value"] == pytest.approx(floor, abs=1e-9)
    assert by_kind["remd"]["value"] == pytest.approx(0.0, abs=1e-9)
    # the unfolding stops at {acb, adb, abc} (mass 0.85); tEMD is the transport
    # oracle on a 1/340 grid between the log and that language at 7/17, 7/17, 3/17
    rows = [("a", "b", "c"), ("a", "c", "b"), ("a", "b", "d"), ("a", "d", "b")]
    cost = [[normalized_levenshtein(r, c) for c in rows] for r in rows]
    oracle = mincost_transport_units([51, 119, 51, 119], [60, 140, 0, 140], cost) / 340
    assert by_kind["temd"]["value"] == pytest.approx(oracle, abs=1e-9)
    assert by_kind["temd"]["coverage_used"] == pytest.approx(0.85, abs=1e-9)

    by_kind = evaluate("1.0")
    assert by_kind["temd"]["value"] == pytest.approx(0.0, abs=1e-9)
    assert by_kind["temd"]["coverage_used"] == pytest.approx(1.0, abs=1e-9)


def test_evaluate_warns_about_log_activities_the_net_lacks(workdir, capsys, tmp_path):
    log = tmp_path / "extra.csv"
    log.write_text(write_csv(parallel_choice_log()) + "extra,zz\n", encoding="utf-8")
    assert main(["evaluate", "--net", str(workdir / "net.pnml"), "--log", str(log), "--measures", "lh,remd"]) == 0
    out, err = capsys.readouterr()
    assert "warning: log activities absent from the net: ['zz']" in err
    assert [r["kind"] for r in json.loads(out)] == ["lh", "remd"]


def test_evaluate_unweighted_net_uses_unit_weights(workdir, capsys, tmp_path):
    import re

    text = (workdir / "net.pnml").read_text()
    text = re.sub(r"<toolspecific.*?</toolspecific>", "", text, flags=re.S)
    unweighted = tmp_path / "plain.pnml"
    unweighted.write_text(text)
    code = main([
        "evaluate",
        "--net", str(unweighted),
        "--log", str(workdir / "log.csv"),
        "--measures", "lh",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "no weights" in captured.err
    reports = json.loads(captured.out)
    assert reports[0]["value"] == pytest.approx(UNIFORM_BRANCH_LH, abs=1e-9)


@pytest.mark.parametrize("command", ["evaluate", "unfold", "convert"])
def test_partly_weighted_net_exits_2_naming_the_transitions_without_weight(workdir, capsys, command):
    text = (workdir / "net.pnml").read_text()
    start = text.index("<toolspecific", text.index('<transition id="b"'))
    end = text.index("</toolspecific>", start) + len("</toolspecific>")
    partial = workdir / "partial.pnml"
    partial.write_text(text[:start] + text[end:])
    argv = {
        "evaluate": ["evaluate", "--net", str(partial), "--log", str(workdir / "log.csv")],
        "unfold": ["unfold", "--net", str(partial), "--coverage", "1.0"],
        "convert": ["convert", "--in", str(partial), "--out", str(workdir / "copy.pnml")],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "['b']" in captured.err and captured.out == ""


@pytest.mark.parametrize("weight", ["inf", "1e400", "nan", "0"])
@pytest.mark.parametrize("command", ["evaluate", "unfold"])
def test_weight_that_is_not_finite_positive_exits_2(workdir, capsys, command, weight):
    bad = workdir / "bad.pnml"
    bad.write_text((workdir / "net.pnml").read_text().replace("<weight>0.3</weight>", f"<weight>{weight}</weight>"))
    extra = ["--log", str(workdir / "log.csv")] if command == "evaluate" else ["--coverage", "1.0"]
    assert main([command, "--net", str(bad)] + extra) == 2
    err = capsys.readouterr().err
    assert "'b'" in err and "finite positive" in err


def test_evaluate_partial_coverage_flagged_not_fatal(tmp_path, capsys):
    net = tmp_path / "loops.pnml"
    net.write_bytes(write_pnml(two_loop_swn(1.0)))
    log = tmp_path / "log.csv"
    log.write_text(write_csv(two_loop_log()), encoding="utf-8")
    code = main([
        "evaluate", "--net", str(net), "--log", str(log),
        "--measures", "temd", "--coverage", "0.8", "--max-trace-len", "2",
    ])
    assert code == 0
    captured = capsys.readouterr()
    reports = json.loads(captured.out)
    assert reports[0]["coverage_used"] < 0.8
    assert "partial" in captured.err and "--max-trace-len" in captured.err


def test_evaluate_temd_escape_below_float_precision_exits_3(tmp_path, capsys):
    from swnopt.nets import StochasticWorkflowNet

    from .fixtures import silent_livelock_wn

    weights = {"t_in": 1.0, "t_go": 1e18, "t_back": 1.0, "emit": 1.0, "t_out": 1.0}
    net = tmp_path / "livelock.pnml"
    net.write_bytes(write_pnml(StochasticWorkflowNet(silent_livelock_wn(), weights)))
    log = tmp_path / "log.csv"
    log.write_text("case,activity\nc1,a\n")
    assert main(["evaluate", "--net", str(net), "--log", str(log), "--measures", "temd"]) == 3
    assert "trace probability solve" in capsys.readouterr().err


def test_evaluate_unknown_measure_exits_2(workdir, capsys):
    code = main([
        "evaluate",
        "--net", str(workdir / "net.pnml"),
        "--log", str(workdir / "log.csv"),
        "--measures", "lh,bogus",
    ])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("measures", [",", " , "])
def test_evaluate_empty_measure_list_exits_2(workdir, capsys, measures):
    code = main([
        "evaluate",
        "--net", str(workdir / "net.pnml"),
        "--log", str(workdir / "log.csv"),
        "--measures", measures,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--measures" in captured.err


@pytest.mark.parametrize("measures,repeated", [("lh,lh", "lh"), ("remd,temd, remd,temd", "remd, temd")])
def test_evaluate_repeated_measure_exits_2_naming_it(tmp_path, capsys, measures, repeated):
    # once each entry was printed as often as it was listed; the net is never read
    code = main(["evaluate", "--net", str(tmp_path / "missing.pnml"), "--log", str(tmp_path / "missing.csv"),
                 "--measures", measures])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"repeats {repeated}" in captured.err


@pytest.mark.parametrize("measure", ["lh", "remd"])
@pytest.mark.parametrize("swn,log", [(parallel_choice_swn, parallel_choice_log), (two_loop_swn, two_loop_log)])
def test_evaluate_reproduces_discover(tmp_path, capsys, measure, swn, log):
    # both commands score through PrefixProduct (and, for remd, the same
    # Levenshtein matrix), so evaluate at discover's weights gives its value
    (tmp_path / "net.pnml").write_bytes(write_pnml(swn()))
    (tmp_path / "log.csv").write_text(write_csv(log()), encoding="utf-8")
    assert main(_discover_args(tmp_path, measure=measure, seed="1")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    capsys.readouterr()
    code = main([
        "evaluate",
        "--net", str(tmp_path / "weighted.pnml"),
        "--log", str(tmp_path / "log.csv"),
        "--measures", measure,
    ])
    assert code == 0
    (evaluated,) = json.loads(capsys.readouterr().out)
    assert abs(evaluated["value"] - report["final_value"]) <= 1e-12


def test_discover_log_prefixes_are_not_capped(tmp_path, capsys, monkeypatch):
    # MAX_PREFIXES bounds the free unfolding only; the log's trie is bounded by the log
    from swnopt import unfolding

    monkeypatch.setattr(unfolding, "MAX_PREFIXES", 5)
    (tmp_path / "net.pnml").write_bytes(write_pnml(two_loop_swn(1.0)))
    (tmp_path / "log.csv").write_text(write_csv(two_loop_log()), encoding="utf-8")
    assert main(_discover_args(tmp_path, measure="lh", seed="1", n0="2", max_iter="2")) == 0
    capsys.readouterr()


def test_unfold_restricted_to_log(tmp_path, capsys):
    net = tmp_path / "loops.pnml"
    net.write_bytes(write_pnml(two_loop_swn(1.0)))
    log = tmp_path / "log.csv"
    log.write_text(write_csv(two_loop_log()), encoding="utf-8")
    code = main(["unfold", "--net", str(net), "--log", str(log)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    probs = {tuple(e["trace"]): e["prob"] for e in payload["traces"]}
    assert probs[("A", "A")] == pytest.approx(11 / 81, rel=1e-9)
    assert set(payload) == {"traces"}


def test_unfold_warns_as_evaluate_does(workdir, capsys, tmp_path):
    import re

    plain = tmp_path / "plain.pnml"
    plain.write_text(re.sub(r"<toolspecific.*?</toolspecific>", "", (workdir / "net.pnml").read_text(), flags=re.S))
    log = tmp_path / "extra.csv"
    log.write_text(write_csv(parallel_choice_log()) + "extra,zz\n", encoding="utf-8")
    assert main(["unfold", "--net", str(plain), "--log", str(log)]) == 0
    err = capsys.readouterr().err
    assert "warning: net carries no weights; using 1.0 everywhere" in err
    assert "warning: log activities absent from the net: ['zz']" in err


def test_unfold_reads_its_log_before_building_the_graph(workdir, capsys, monkeypatch):
    # a state cap of 1 fails the graph (exit 3), so exit 2 shows the log was read first
    from swnopt import semantics

    monkeypatch.setattr(semantics, "STATE_CAP", 1)
    args = ["unfold", "--net", str(workdir / "net.pnml"), "--log", str(workdir / "nope.csv")]
    assert main(args) == 2
    assert "nope.csv" in capsys.readouterr().err
    args[-1] = str(workdir / "log.csv")
    assert main(args) == 3
    assert "more than 1 reachable markings" in capsys.readouterr().err


def test_unfold_coverage_dump(workdir, capsys):
    code = main(["unfold", "--net", str(workdir / "net.pnml"), "--coverage", "1.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["traces"]) == 4
    assert payload["residual"] == 0.0


def test_unfold_prefix_cap_exits_3(tmp_path, capsys, monkeypatch):
    from swnopt import unfolding

    monkeypatch.setattr(unfolding, "MAX_PREFIXES", 50)
    net = tmp_path / "loops.pnml"
    net.write_bytes(write_pnml(two_loop_swn(1.0)))
    assert main(["unfold", "--net", str(net), "--coverage", "1"]) == 3
    assert "--max-trace-len" in capsys.readouterr().err


def test_unfold_empty_log_exits_2(workdir, capsys):
    (workdir / "empty.xes").write_text('<log xes.version="1.0"></log>')
    code = main(["unfold", "--net", str(workdir / "net.pnml"), "--log", str(workdir / "empty.xes")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["evaluate", "unfold"])
@pytest.mark.parametrize("flag,value", [("--max-level", "4"), ("--prob-floor", "nan")])
def test_free_unfolding_rejects_removed_flags(workdir, capsys, command, flag, value):
    args = [command, "--net", str(workdir / "net.pnml"), "--log", str(workdir / "log.csv"), "--coverage", "0.9"]
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_unfold_needs_log_or_coverage(workdir, capsys):
    assert main(["unfold", "--net", str(workdir / "net.pnml")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag,value", [("--coverage", "0.1"), ("--max-trace-len", "1")])
def test_unfold_with_log_refuses_the_free_unfolding_budgets(workdir, capsys, flag, value):
    # once both were ignored, and every log trace was printed
    args = ["unfold", "--net", str(workdir / "net.pnml"), "--log", str(workdir / "log.csv"), flag, value]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} bounds only unfold without --log" in captured.err


@pytest.mark.parametrize("flag,value", [("--coverage", "0.1"), ("--max-trace-len", "3")])
def test_evaluate_refuses_the_free_unfolding_budgets_without_temd(workdir, capsys, flag, value):
    args = ["evaluate", "--net", str(workdir / "net.pnml"), "--log", str(workdir / "log.csv"), flag, value]
    assert main(args + ["--measures", "lh,remd"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} bounds only the tEMD unfolding" in captured.err
    assert main(args + ["--measures", "lh,temd"]) == 0
    assert [r["kind"] for r in json.loads(capsys.readouterr().out)] == ["lh", "temd"]


@pytest.mark.parametrize(
    "flag,value,rule",
    [
        ("--coverage", "2", "must be in (0, 1]"),
        ("--coverage", "0", "must be in (0, 1]"),
        ("--coverage", "nan", "must be in (0, 1]"),
        ("--max-trace-len", "0", "must be >= 1"),
    ],
)
@pytest.mark.parametrize("command", ["evaluate", "unfold"])
def test_free_unfolding_budget_out_of_range_exits_2_before_reading_inputs(tmp_path, capsys, command, flag, value, rule):
    # once both files were read, the graph built and, for evaluate, lh and rEMD solved first
    args = {
        "evaluate": ["evaluate", "--net", str(tmp_path / "missing.pnml"), "--log", str(tmp_path / "missing.csv")],
        "unfold": ["unfold", "--net", str(tmp_path / "missing.pnml"), "--coverage", "0.5"],
    }[command]
    assert main(args + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} {rule}" in captured.err and "missing" not in captured.err


def test_evaluate_without_coverage_unfolds_temd_to_0_8(workdir, capsys):
    # the unfolding stops at {acb, adb, abc}, mass 0.85, the first to reach 0.8
    args = ["evaluate", "--net", str(workdir / "net.pnml"), "--log", str(workdir / "log.csv"), "--measures", "temd"]
    assert main(args) == 0
    default = json.loads(capsys.readouterr().out)
    assert default[0]["coverage_used"] == pytest.approx(0.85, abs=1e-9)
    assert main(args + ["--coverage", "0.8"]) == 0
    assert json.loads(capsys.readouterr().out) == default


def test_convert_csv_xes_roundtrip(workdir, tmp_path):
    xes = tmp_path / "log.xes"
    back = tmp_path / "back.csv"
    assert main(["convert", "--in", str(workdir / "log.csv"), "--out", str(xes)]) == 0
    assert main(["convert", "--in", str(xes), "--out", str(back)]) == 0
    original = parse_csv((workdir / "log.csv").read_text(), "case", "activity")
    assert parse_xes(xes.read_bytes()).entries == original.entries
    assert parse_csv(back.read_text(), "case", "activity").entries == original.entries


def test_convert_to_csv_writes_the_given_column_names(tmp_path):
    xes, out, back = tmp_path / "log.xes", tmp_path / "out.csv", tmp_path / "back.xes"
    xes.write_bytes(write_xes(parallel_choice_log()))
    columns = ["--case-col", "id", "--activity-col", "act"]
    assert main(["convert", "--in", str(xes), "--out", str(out)] + columns) == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == "id,act"
    assert main(["convert", "--in", str(out), "--out", str(back)] + columns) == 0
    assert parse_xes(back.read_bytes()).entries == parallel_choice_log().entries


def test_convert_csv_to_csv_keeps_the_time_column(tmp_path):
    source, out, back = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "back.xes"
    source.write_text("id,act,when\nc1,B,2021-01-01T00:02:00\nc1,A,2021-01-01T00:01:00\nc2,A,2021-01-01T00:00:00\n")
    columns = ["--case-col", "id", "--activity-col", "act", "--time-col", "when"]
    assert main(["convert", "--in", str(source), "--out", str(out)] + columns) == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == "id,act,when"
    assert main(["convert", "--in", str(out), "--out", str(back)] + columns) == 0
    assert parse_xes(back.read_bytes()) == parse_csv(source.read_text(), "id", "act", "when")


def test_convert_log_with_empty_cases_to_csv_exits_2(tmp_path, capsys):
    xes = tmp_path / "log.xes"
    xes.write_bytes(write_xes(EventLog({(): 2, ("a",): 1})))
    out = tmp_path / "log.csv"
    assert main(["convert", "--in", str(xes), "--out", str(out)]) == 2
    assert "2 empty case" in capsys.readouterr().err
    assert not out.exists()


def test_convert_to_xes_refuses_an_activity_xml_cannot_hold(tmp_path, capsys):
    source, out = tmp_path / "in.csv", tmp_path / "out.xes"
    source.write_text("case,activity\nc1,a\x01b\nc2,ok\n", encoding="utf-8")
    assert main(["convert", "--in", str(source), "--out", str(out)]) == 2
    assert "'a\\x01b'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rows,columns",
    [
        ("id,act,when\nc1,a,2021-01-01T00:00:00\nc2,b\n", ["--time-col", "when"]),
        ("id,act\nc1,a\nc2\n", []),
        ("id,act\nc1,a\nc2," + "x" * 200_000 + "\n", []),
    ],
    ids=["short-row-timed", "short-row", "field-over-csv-limit"],
)
def test_convert_unreadable_csv_row_exits_2_naming_the_line(tmp_path, capsys, rows, columns):
    source, out = tmp_path / "in.csv", tmp_path / "out.xes"
    source.write_text(rows, encoding="utf-8")
    columns = columns + ["--case-col", "id", "--activity-col", "act"]
    assert main(["convert", "--in", str(source), "--out", str(out)] + columns) == 2
    assert "CSV line 3" in capsys.readouterr().err
    assert not out.exists()


def test_convert_pnml_canonicalization_idempotent(workdir, tmp_path):
    one = tmp_path / "one.pnml"
    two = tmp_path / "two.pnml"
    assert main(["convert", "--in", str(workdir / "net.pnml"), "--out", str(one)]) == 0
    assert main(["convert", "--in", str(one), "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_convert_unweighted_net_warns_once(workdir, capsys, tmp_path):
    import re

    plain = tmp_path / "plain.pnml"
    plain.write_text(re.sub(r"<toolspecific.*?</toolspecific>", "", (workdir / "net.pnml").read_text(), flags=re.S))
    assert main(["convert", "--in", str(plain), "--out", str(tmp_path / "copy.pnml")]) == 0
    assert capsys.readouterr().err == "warning: net carries no weights; using 1.0 everywhere\n"


def test_convert_unsupported_pair_exits_2(workdir, capsys):
    assert main(["convert", "--in", str(workdir / "net.pnml"), "--out", str(workdir / "x.csv")]) == 2
    assert main(["convert", "--in", str(workdir / "log.csv"), "--out", str(workdir / "x.docx")]) == 2
    capsys.readouterr()


def test_no_subcommand_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_csv_column_flags(tmp_path, capsys):
    net = tmp_path / "net.pnml"
    net.write_bytes(write_pnml(parallel_choice_swn()))
    log = tmp_path / "custom.csv"
    log.write_text(
        "id,action,when\n"
        "k1,a,2021-01-01T00:00:00\n"
        "k1,b,2021-01-01T00:01:00\n"
        "k1,c,2021-01-01T00:02:00\n"
    )
    code = main([
        "unfold", "--net", str(net), "--log", str(log),
        "--case-col", "id", "--activity-col", "action", "--time-col", "when",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["traces"][0]["trace"] == ["a", "b", "c"]
    assert payload["traces"][0]["prob"] == pytest.approx(0.15)


def test_free_unfolding_output_is_independent_of_the_hash_seed(tmp_path):
    swn = random_swn(random.Random(2), max_transitions=10, allow_loops=True)
    net, log = str(tmp_path / "net.pnml"), str(tmp_path / "log.csv")
    Path(net).write_bytes(write_pnml(swn))
    language = unfold_language(annotate(build_rg(swn.wn), swn.weight_vector()), coverage=0.5)
    traces = sorted(t for t in language.probs if t)  # CSV cannot hold an empty case
    Path(log).write_text(write_csv(EventLog({t: i + 1 for i, t in enumerate(traces)})), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    program = "import sys; from swnopt.cli import main; sys.exit(main(sys.argv[1:]))"
    for command in (
        ["unfold", "--net", net, "--coverage", "0.9"],
        ["evaluate", "--net", net, "--log", log, "--measures", "temd", "--coverage", "0.9"],
    ):
        outputs = set()
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", program, *command],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, command
