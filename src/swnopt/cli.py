"""Command-line front end.

Subcommands: ``discover`` (estimate weights for a net from a log),
``evaluate`` (measure divergences of a weighted net against a log),
``unfold`` (dump trace probabilities or the truncated language as JSON) and
``convert`` (format round trips).  Options may come from a ``key=value``
config file (``--config``); explicit flags win.

Exit codes: 0 success, 2 input parse/validation failure, 3 computation
failure.  All outputs are deterministic given the inputs and the seed; wall
clock timings go to stderr and enter the report JSON only with
``--timings``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from .distances import (
    DistanceReport,
    log_likelihood_divergence,
    restricted_emd,
    truncated_emd,
)
from .errors import ComputationError, InputError
from .logs import EmptyLog, EventLog, log_language, parse_csv, parse_xes, write_csv, write_xes
from .nets import StochasticWorkflowNet, validate_workflow
from .optimize import METHODS, ObjectiveSpec, OptimizerConfig, optimized_weights
from .pnml import parse_pnml, write_pnml
from .semantics import DEFAULT_STATE_CAP, annotate, build_rg
from .unfolding import DEFAULT_PROB_FLOOR, PrefixIndex, trace_probabilities, unfold_language

REPORT_SCHEMA = "stochastic-weights/report/1"


def _read_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


class _Options:
    """Flag > config file > default resolution.  A config key that is no
    option of the subcommand is warned about, not rejected: one file may
    serve several subcommands."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _read_config(getattr(args, "config", None))
        options = set(vars(args)) - {"command", "handler", "config"}
        for key in self.cfg:
            if key not in options:
                print(f"warning: config key {key!r} is not an option of {args.command}; ignored", file=sys.stderr)

    def get(self, key: str, default=None, cast=str):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.cfg:
            raw = self.cfg[key]
            try:
                return cast(raw) if cast is not bool else raw.lower() in ("1", "true", "yes")
            except ValueError as exc:
                raise InputError(f"config key {key}: cannot parse {raw!r}") from exc
        return default

    def require(self, key: str, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise InputError(f"missing required option --{key.replace('_', '-')}")
        return value


def _load_log(path: str, opts: _Options) -> EventLog:
    suffix = Path(path).suffix.lower()
    data = Path(path).read_bytes()
    if suffix == ".xes":
        return parse_xes(data)
    if suffix == ".csv":
        return parse_csv(
            data,
            case_col=opts.get("case_col", "case"),
            activity_col=opts.get("activity_col", "activity"),
            time_col=opts.get("time_col"),
        )
    raise InputError(f"unsupported log format {suffix!r} (expected .xes or .csv)")


def _load_workflow(path: str, opts: _Options):
    parsed = parse_pnml(Path(path).read_bytes())
    source = opts.get("source", parsed.source)
    sink = opts.get("sink", parsed.sink)
    if source is None or sink is None:
        raise InputError(
            "cannot infer source/sink places (no unique arc-free candidates); pass --source/--sink"
        )
    wn = validate_workflow(parsed.net, source, sink)
    return wn, parsed


def _write_json(path: str, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _trace_entries(probs: dict, key: str) -> list[dict]:
    return [{"trace": list(t), key: p} for t, p in sorted(probs.items())]


def cmd_discover(args: argparse.Namespace) -> int:
    opts = _Options(args)
    measure = opts.get("measure", "lh")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    wn, _ = _load_workflow(opts.require("net"), opts)
    log = _load_log(opts.require("log"), opts)
    target = log_language(log)
    timings["parse"] = time.perf_counter() - t0

    missing = set(log.alphabet) - set(wn.net.alphabet)
    if missing:
        print(f"warning: log activities absent from the net: {sorted(missing)}", file=sys.stderr)

    t0 = time.perf_counter()
    rg = build_rg(wn, state_cap=opts.get("state_cap", DEFAULT_STATE_CAP, int))
    timings["rg"] = time.perf_counter() - t0

    spec = ObjectiveSpec(measure=measure, wn=wn, rg=rg, target=target)
    config = OptimizerConfig(
        n0=opts.get("n0", 10, int),
        max_iter=opts.get("max_iter", 50, int),
        delta=opts.get("delta", 1e-3, float),
        seed=opts.get("seed", 0, int),
    )

    t0 = time.perf_counter()
    result = optimized_weights(spec, config)
    timings["optimize"] = time.perf_counter() - t0

    weights = result.weights.to_mapping(wn)
    out_net = opts.get("out_net", "weighted.pnml")
    out_report = opts.get("out_report", "report.json")
    out_convergence = opts.get("out_convergence", "convergence.csv")
    Path(out_net).write_bytes(write_pnml(StochasticWorkflowNet(wn, weights)))
    Path(out_convergence).write_text(result.trace_csv(), encoding="utf-8")

    report = {
        "schema": REPORT_SCHEMA,
        "command": "discover",
        "measure": measure,
        "method": METHODS[measure],
        "seed": config.seed,
        "n0": config.n0,
        "max_iter": config.max_iter,
        "delta": config.delta,
        "final_value": result.final_value,
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "weights": weights,
    }
    if opts.get("timings", False, bool):
        report["timings"] = timings
    _write_json(out_report, report)

    print(
        "phase seconds: "
        + ", ".join(f"{name}={seconds:.3f}" for name, seconds in timings.items()),
        file=sys.stderr,
    )
    print(
        f"{measure} optimized to {result.final_value} in {result.iterations} iterations "
        f"({result.stop_reason}); outputs: {out_net}, {out_report}, {out_convergence}",
        file=sys.stderr,
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    opts = _Options(args)
    wn, parsed = _load_workflow(opts.require("net"), opts)
    if parsed.unweighted:
        print("warning: net carries no weights; using 1.0 everywhere", file=sys.stderr)
    log = _load_log(opts.require("log"), opts)
    target = log_language(log)
    rg = build_rg(wn, state_cap=opts.get("state_cap", DEFAULT_STATE_CAP, int))
    weights = [parsed.weights[t] for t in wn.net.transitions]
    annotated = annotate(rg, weights)
    coverage = opts.get("coverage", 0.8, float)

    measures = [m.strip() for m in opts.get("measures", "lh,remd,temd").split(",") if m.strip()]
    unknown = [m for m in measures if m not in ("lh", "remd", "temd")]
    if unknown:
        raise InputError(f"unknown measures {unknown}; choose from lh, remd, temd")

    probs = trace_probabilities(annotated, PrefixIndex(target.probs)) if {"lh", "remd"} & set(measures) else None

    reports: list[DistanceReport] = []
    for m in measures:
        if m == "lh":
            reports.append(DistanceReport(kind="lh", value=log_likelihood_divergence(target, probs)))
        elif m == "remd":
            reports.append(restricted_emd(target, probs))
        else:
            report = truncated_emd(
                target,
                annotated,
                coverage=coverage,
                max_trace_len=opts.get("max_trace_len", None, int),
                max_level=opts.get("max_level", None, int),
                prob_floor=opts.get("prob_floor", DEFAULT_PROB_FLOOR, float),
            )
            if report.coverage_used < coverage:
                print(
                    f"warning: tEMD budgets bound at coverage {report.coverage_used} "
                    f"< requested {coverage}; value is partial",
                    file=sys.stderr,
                )
            reports.append(report)

    _print_json([r.to_json_dict() for r in reports])
    return 0


def cmd_unfold(args: argparse.Namespace) -> int:
    opts = _Options(args)
    wn, parsed = _load_workflow(opts.require("net"), opts)
    rg = build_rg(wn, state_cap=opts.get("state_cap", DEFAULT_STATE_CAP, int))
    annotated = annotate(rg, [parsed.weights[t] for t in wn.net.transitions])

    log_path = opts.get("log")
    coverage = opts.get("coverage", None, float)
    if log_path:
        log = _load_log(log_path, opts)
        if not log.entries:
            raise EmptyLog("target log has no traces")
        probs = trace_probabilities(annotated, PrefixIndex(log.support()))
        _print_json({"traces": _trace_entries(probs, "prob")})
    elif coverage is not None:
        lang = unfold_language(
            annotated,
            coverage=coverage,
            max_trace_len=opts.get("max_trace_len", None, int),
            max_level=opts.get("max_level", None, int),
            prob_floor=opts.get("prob_floor", DEFAULT_PROB_FLOOR, float),
        )
        _print_json({"traces": _trace_entries(lang.probs, "prob"), "residual": lang.residual})
    else:
        raise InputError("unfold needs --log (restrict to its traces) or --coverage")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    opts = _Options(args)
    src = opts.get("input")
    dst = opts.get("output")
    src_kind = Path(src).suffix.lower().lstrip(".")
    dst_kind = Path(dst).suffix.lower().lstrip(".")
    log_kinds = ("xes", "csv")

    if src_kind == "pnml" and dst_kind == "pnml":
        wn, parsed = _load_workflow(src, opts)
        Path(dst).write_bytes(write_pnml(StochasticWorkflowNet(wn, parsed.weights)))
    elif src_kind in log_kinds and dst_kind in log_kinds:
        log = _load_log(src, opts)
        if dst_kind == "xes":
            Path(dst).write_bytes(write_xes(log))
        else:
            Path(dst).write_text(write_csv(log), encoding="utf-8")
    else:
        raise InputError(f"unsupported conversion {src_kind or '?'} -> {dst_kind or '?'}")
    return 0


def _add_net_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", help="PNML net file")
    p.add_argument("--source", help="source place id (default: inferred)")
    p.add_argument("--sink", help="sink place id (default: inferred)")
    p.add_argument("--state-cap", dest="state_cap", type=int, help="reachability state cap")


def _add_log_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log", help="event log file (.xes or .csv)")
    p.add_argument("--case-col", dest="case_col", help="CSV case id column (default: case)")
    p.add_argument("--activity-col", dest="activity_col", help="CSV activity column (default: activity)")
    p.add_argument("--time-col", dest="time_col", help="CSV ISO-8601 timestamp column (default: row order)")


def _add_unfold_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-level", dest="max_level", type=int, help="level budget (tEMD and --coverage)")
    p.add_argument("--prob-floor", dest="prob_floor", type=float, help="per-key probability floor (tEMD and --coverage)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swnopt",
        description="Estimate and evaluate stochastic workflow-net transition weights.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("discover", help="optimize transition weights against an event log")
    _add_net_options(p)
    _add_log_options(p)
    p.add_argument("--measure", choices=("lh", "remd"), help="objective (default: lh)")
    p.add_argument("--n0", type=int, help="number of random starts (default: 10)")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap (default: 50)")
    p.add_argument("--delta", type=float, help="relative-decrement stop (default: 1e-3)")
    p.add_argument("--seed", type=int, help="RNG seed (default: 0)")
    p.add_argument("--out-net", dest="out_net", help="weighted PNML output (default: weighted.pnml)")
    p.add_argument("--out-report", dest="out_report", help="report JSON output (default: report.json)")
    p.add_argument(
        "--out-convergence", dest="out_convergence", help="convergence CSV output (default: convergence.csv)"
    )
    p.add_argument("--timings", action="store_const", const=True, help="include wall times in the report JSON")
    p.add_argument("--config", help="key=value config file; flags win")
    p.set_defaults(handler=cmd_discover)

    p = sub.add_parser("evaluate", help="measure divergences of a weighted net against a log")
    _add_net_options(p)
    _add_log_options(p)
    _add_unfold_options(p)
    p.add_argument("--measures", help="comma list from lh,remd,temd (default: all)")
    p.add_argument("--coverage", type=float, help="tEMD coverage threshold (default: 0.8)")
    p.add_argument("--max-trace-len", dest="max_trace_len", type=int, help="tEMD trace length budget")
    p.add_argument("--config", help="key=value config file; flags win")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("unfold", help="dump trace probabilities or the truncated language")
    _add_net_options(p)
    _add_log_options(p)
    _add_unfold_options(p)
    p.add_argument("--coverage", type=float, help="unfold the full language up to this mass")
    p.add_argument("--max-trace-len", dest="max_trace_len", type=int, help="trace length budget for --coverage")
    p.add_argument("--config", help="key=value config file; flags win")
    p.set_defaults(handler=cmd_unfold)

    p = sub.add_parser("convert", help="round-trip nets and logs between formats")
    p.add_argument("--in", dest="input", required=True, help="input file (.pnml, .xes, .csv)")
    p.add_argument("--out", dest="output", required=True, help="output file (.pnml, .xes, .csv)")
    p.add_argument("--case-col", dest="case_col")
    p.add_argument("--activity-col", dest="activity_col")
    p.add_argument("--time-col", dest="time_col")
    p.add_argument("--source", help="source place id (default: inferred)")
    p.add_argument("--sink", help="sink place id (default: inferred)")
    p.add_argument("--config", help="key=value config file; flags win")
    p.set_defaults(handler=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help(file=sys.stderr)
        return 2
    try:
        return handler(args)
    except (InputError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
