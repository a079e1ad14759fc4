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
from .optimize import MEASURES, METHODS, ObjectiveSpec, OptimizerConfig, optimized_weights
from .pnml import parse_pnml, write_pnml
from .semantics import DEFAULT_STATE_CAP, annotate, build_rg
from .unfolding import trace_probabilities, unfold_language

REPORT_SCHEMA = "stochastic-weights/report/1"

#: What `evaluate --measures` may list: the optimization measures, plus tEMD.
EVALUATE_MEASURES = MEASURES + ("temd",)


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace, argv) -> argparse.Namespace:
    """Parse again with the config file's values as the subcommand's defaults,
    so argparse converts and checks them like flags and a flag still wins.
    A key may be spelled as its dest or its flag.  A key that is no option
    of the subcommand is warned about, not rejected: one file may serve
    several subcommands."""
    options = set(vars(args)) - {"command", "handler", "parser", "config"}
    actions = {action.dest: action for action in args.parser._actions}
    defaults = {}
    for key, value in _read_config(args.config).items():
        dest = key.replace("-", "_")
        if dest not in options:
            print(f"warning: config key {key!r} is not an option of {args.command}; ignored", file=sys.stderr)
        elif isinstance(getattr(args, dest), bool):
            defaults[dest] = value.lower() in ("1", "true", "yes")
        elif actions[dest].choices is not None and value not in actions[dest].choices:
            # argparse checks choices on the command line only, not on defaults
            choices = ", ".join(map(repr, actions[dest].choices))
            message = f"invalid choice: {value!r} in {args.config} (choose from {choices})"
            args.parser.error(str(argparse.ArgumentError(actions[dest], message)))
        else:
            defaults[dest] = value
    args.parser.set_defaults(**defaults)
    return parser.parse_args(argv)


def _require(args: argparse.Namespace, dest: str) -> str:
    """An option that the config file may supply, so argparse cannot require it."""
    value = getattr(args, dest)
    if value is None:
        raise InputError(f"missing required option --{dest.replace('_', '-')}")
    return value


def _load_log(path: str, args: argparse.Namespace) -> EventLog:
    suffix = Path(path).suffix.lower()
    data = Path(path).read_bytes()
    if suffix == ".xes":
        return parse_xes(data)
    if suffix == ".csv":
        return parse_csv(data, case_col=args.case_col, activity_col=args.activity_col, time_col=args.time_col)
    raise InputError(f"unsupported log format {suffix!r} (expected .xes or .csv)")


def _load_workflow(path: str, args: argparse.Namespace):
    parsed = parse_pnml(Path(path).read_bytes())
    source = parsed.source if args.source is None else args.source
    sink = parsed.sink if args.sink is None else args.sink
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
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    wn, _ = _load_workflow(_require(args, "net"), args)
    log = _load_log(_require(args, "log"), args)
    target = log_language(log)
    timings["parse"] = time.perf_counter() - t0

    missing = set(log.alphabet) - set(wn.net.alphabet)
    if missing:
        print(f"warning: log activities absent from the net: {sorted(missing)}", file=sys.stderr)

    t0 = time.perf_counter()
    rg = build_rg(wn, state_cap=args.state_cap)
    timings["rg"] = time.perf_counter() - t0

    spec = ObjectiveSpec(measure=args.measure, rg=rg, target=target)
    config = OptimizerConfig(n0=args.n0, max_iter=args.max_iter, delta=args.delta, seed=args.seed)

    t0 = time.perf_counter()
    result = optimized_weights(spec, config)
    timings["optimize"] = time.perf_counter() - t0

    weights = dict(zip(wn.net.transitions, result.weights.tolist()))
    Path(args.out_net).write_bytes(write_pnml(StochasticWorkflowNet(wn, weights)))
    Path(args.out_convergence).write_text(result.trace_csv(), encoding="utf-8")

    report = {
        "schema": REPORT_SCHEMA,
        "command": "discover",
        "measure": args.measure,
        "method": METHODS[args.measure],
        "seed": config.seed,
        "n0": config.n0,
        "max_iter": config.max_iter,
        "delta": config.delta,
        "final_value": result.final_value,
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "weights": weights,
    }
    if args.timings:
        report["timings"] = timings
    _write_json(args.out_report, report)

    print(
        "phase seconds: "
        + ", ".join(f"{name}={seconds:.3f}" for name, seconds in timings.items()),
        file=sys.stderr,
    )
    print(
        f"{args.measure} optimized to {result.final_value} in {result.iterations} iterations "
        f"({result.stop_reason}); outputs: {args.out_net}, {args.out_report}, {args.out_convergence}",
        file=sys.stderr,
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    unknown = [m for m in measures if m not in EVALUATE_MEASURES]
    if unknown or not measures:
        raise InputError(f"--measures {args.measures!r}: choose one or more of {', '.join(EVALUATE_MEASURES)}")

    wn, parsed = _load_workflow(_require(args, "net"), args)
    if parsed.unweighted:
        print("warning: net carries no weights; using 1.0 everywhere", file=sys.stderr)
    log = _load_log(_require(args, "log"), args)
    target = log_language(log)
    rg = build_rg(wn, state_cap=args.state_cap)
    weights = [parsed.weights[t] for t in wn.net.transitions]
    annotated = annotate(rg, weights)
    probs = trace_probabilities(annotated, target.probs) if set(MEASURES) & set(measures) else None

    reports: list[DistanceReport] = []
    for m in measures:
        if m == "lh":
            reports.append(DistanceReport(kind="lh", value=log_likelihood_divergence(target, probs)))
        elif m == "remd":
            reports.append(restricted_emd(target, probs))
        else:
            report = truncated_emd(target, unfold_language(annotated, args.coverage, args.max_trace_len))
            if report.coverage_used < args.coverage:
                print(
                    f"warning: tEMD budgets bound at coverage {report.coverage_used} "
                    f"< requested {args.coverage}; value is partial",
                    file=sys.stderr,
                )
            reports.append(report)

    _print_json([r.to_json_dict() for r in reports])
    return 0


def cmd_unfold(args: argparse.Namespace) -> int:
    wn, parsed = _load_workflow(_require(args, "net"), args)
    rg = build_rg(wn, state_cap=args.state_cap)
    annotated = annotate(rg, [parsed.weights[t] for t in wn.net.transitions])

    if args.log:
        log = _load_log(args.log, args)
        if not log.entries:
            raise EmptyLog("target log has no traces")
        probs = trace_probabilities(annotated, log.support())
        _print_json({"traces": _trace_entries(probs, "prob")})
    elif args.coverage is not None:
        lang = unfold_language(annotated, args.coverage, args.max_trace_len)
        _print_json({"traces": _trace_entries(lang.probs, "prob"), "residual": lang.residual})
    else:
        raise InputError("unfold needs --log (restrict to its traces) or --coverage")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    src_kind = Path(args.input).suffix.lower().lstrip(".")
    dst_kind = Path(args.output).suffix.lower().lstrip(".")
    log_kinds = ("xes", "csv")

    if src_kind == "pnml" and dst_kind == "pnml":
        wn, parsed = _load_workflow(args.input, args)
        Path(args.output).write_bytes(write_pnml(StochasticWorkflowNet(wn, parsed.weights)))
    elif src_kind in log_kinds and dst_kind in log_kinds:
        log = _load_log(args.input, args)
        if dst_kind == "xes":
            Path(args.output).write_bytes(write_xes(log))
        else:
            Path(args.output).write_text(write_csv(log, args.case_col, args.activity_col), encoding="utf-8")
    else:
        raise InputError(f"unsupported conversion {src_kind or '?'} -> {dst_kind or '?'}")
    return 0


def _add_subcommand(sub, name: str, handler, summary: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", help="key=value config file; flags win")
    # _apply_config sets the file's values as this parser's defaults
    p.set_defaults(handler=handler, parser=p)
    return p


def _add_place_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", help="source place id (default: inferred)")
    p.add_argument("--sink", help="sink place id (default: inferred)")


def _add_csv_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case-col", default="case", help="CSV case id column (default: %(default)s)")
    p.add_argument("--activity-col", default="activity", help="CSV activity column (default: %(default)s)")
    p.add_argument("--time-col", help="CSV ISO-8601 timestamp column (default: row order)")


def _add_net_and_log_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", help="PNML net file")
    _add_place_options(p)
    p.add_argument(
        "--state-cap", type=int, default=DEFAULT_STATE_CAP, help="reachability state cap (default: %(default)s)"
    )
    p.add_argument("--log", help="event log file (.xes or .csv)")
    _add_csv_options(p)


def _add_unfold_options(p: argparse.ArgumentParser, coverage: float | None) -> None:
    """The budgets of the free language's unfolding (tEMD; unfold without --log)."""
    p.add_argument("--coverage", type=float, default=coverage, help="probability mass to unfold (default: %(default)s)")
    p.add_argument("--max-trace-len", type=int, help="unfolding trace length budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swnopt",
        description="Estimate and evaluate stochastic workflow-net transition weights.",
    )
    sub = parser.add_subparsers(dest="command")

    p = _add_subcommand(sub, "discover", cmd_discover, "optimize transition weights against an event log")
    _add_net_and_log_options(p)
    p.add_argument("--measure", choices=MEASURES, default="lh", help="objective (default: %(default)s)")
    p.add_argument("--n0", type=int, default=OptimizerConfig.n0, help="number of random starts (default: %(default)s)")
    p.add_argument("--max-iter", type=int, default=OptimizerConfig.max_iter, help="iteration cap (default: %(default)s)")
    p.add_argument(
        "--delta", type=float, default=OptimizerConfig.delta, help="relative-decrement stop (default: %(default)s)"
    )
    p.add_argument("--seed", type=int, default=OptimizerConfig.seed, help="RNG seed (default: %(default)s)")
    p.add_argument("--out-net", default="weighted.pnml", help="weighted PNML output (default: %(default)s)")
    p.add_argument("--out-report", default="report.json", help="report JSON output (default: %(default)s)")
    p.add_argument("--out-convergence", default="convergence.csv", help="convergence CSV output (default: %(default)s)")
    p.add_argument("--timings", action="store_true", help="include wall times in the report JSON")

    p = _add_subcommand(sub, "evaluate", cmd_evaluate, "measure divergences of a weighted net against a log")
    _add_net_and_log_options(p)
    _add_unfold_options(p, 0.8)
    measures = ",".join(EVALUATE_MEASURES)
    p.add_argument("--measures", default=measures, help=f"comma list from {measures} (default: %(default)s)")

    p = _add_subcommand(sub, "unfold", cmd_unfold, "dump trace probabilities or the truncated language")
    _add_net_and_log_options(p)
    _add_unfold_options(p, None)

    p = _add_subcommand(sub, "convert", cmd_convert, "round-trip nets and logs between formats")
    p.add_argument("--in", dest="input", required=True, help="input file (.pnml, .xes, .csv)")
    p.add_argument("--out", dest="output", required=True, help="output file (.pnml, .xes, .csv)")
    _add_place_options(p)
    _add_csv_options(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(file=sys.stderr)
        return 2
    try:
        if args.config:
            args = _apply_config(parser, args, argv)
        return args.handler(args)
    except (InputError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
