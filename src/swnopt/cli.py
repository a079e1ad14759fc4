"""Command-line front end.

Subcommands: ``discover`` (estimate weights for a net from a log),
``evaluate`` (measure divergences of a weighted net against a log),
``unfold`` (dump trace probabilities or the truncated language as JSON) and
``convert`` (format round trips).  An argument ``@file`` stands for the
file's lines, one argument per line as it would be typed (``--n0=2``,
``--timings``).  argparse expands it before it parses anything, so a value
from a file is checked as a typed one and the last value given wins.

Exit codes: 0 success, 2 input parse/validation failure or a path that
cannot be read or written, 3 computation failure.  All outputs are deterministic given the inputs and the seed; wall
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
from .logs import EventLog, StochasticLanguage, log_language, parse_csv, parse_xes, write_csv, write_xes
from .nets import StochasticWorkflowNet, WorkflowNet, validate_workflow
from .optimize import MEASURES, METHODS, ObjectiveSpec, OptimizerConfig, optimized_weights
from .pnml import ParsedPnml, parse_pnml, write_pnml
from .semantics import annotate, build_rg
from .unfolding import PrefixProduct, budget_error, trace_probabilities, unfold_language

REPORT_SCHEMA = "stochastic-weights/report/1"

#: What `evaluate --measures` may list: the optimization measures, plus tEMD.
EVALUATE_MEASURES = MEASURES + ("temd",)

#: The mass `evaluate` unfolds for tEMD when --coverage is not given.
_TEMD_COVERAGE = 0.8


def _load_log(path: str, args: argparse.Namespace) -> EventLog:
    suffix = Path(path).suffix.lower()
    data = Path(path).read_bytes()
    if suffix == ".xes":
        return parse_xes(data)
    if suffix == ".csv":
        return parse_csv(data, case_col=args.case_col, activity_col=args.activity_col, time_col=args.time_col)
    raise InputError(f"unsupported log format {suffix!r} (expected .xes or .csv)")


def _load_workflow(path: str) -> tuple[WorkflowNet, ParsedPnml]:
    """The workflow net of a PNML file, whose source and sink are its only open ends."""
    parsed = parse_pnml(Path(path).read_bytes())
    return validate_workflow(parsed.net, parsed.source, parsed.sink), parsed


def _load_weighted(path: str) -> StochasticWorkflowNet:
    """The weighted workflow net of a PNML file; warns if the file carries no weights."""
    wn, parsed = _load_workflow(path)
    if parsed.unweighted:
        print("warning: net carries no weights; using 1.0 everywhere", file=sys.stderr)
    return StochasticWorkflowNet(wn, parsed.weights)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _load_target(args: argparse.Namespace, wn) -> StochasticLanguage:
    log = _load_log(args.log, args)
    missing = set(log.alphabet) - set(wn.net.alphabet)
    if missing:
        print(f"warning: log activities absent from the net: {sorted(missing)}", file=sys.stderr)
    return log_language(log)


def _check_budgets(coverage: float, max_trace_len: int | None) -> None:
    """Refuse a free-unfolding budget out of range, by its flag, before any file is read."""
    if error := budget_error(coverage, max_trace_len):
        name, rule = error
        raise InputError(f"--{name.replace('_', '-')} {rule}")


def _check_outputs(*flagged: tuple[str, str]) -> None:
    """Refuse, by its flag and before any file is read, an output path that is
    a directory or whose parent is not an existing directory, and two outputs
    that resolve to the same file, by both flags."""
    resolved: dict[Path, str] = {}
    for flag, path in flagged:
        if Path(path).is_dir():
            raise InputError(f"{flag} {path} is a directory")
        if not Path(path).parent.is_dir():
            raise InputError(f"{flag} {path}: {Path(path).parent} is not an existing directory")
        first = resolved.setdefault(Path(path).resolve(), flag)
        if first != flag:
            raise InputError(f"{first} and {flag} name the same file {path}")


def _trace_entries(probs: dict, key: str) -> list[dict]:
    return [{"trace": list(t), key: p} for t, p in sorted(probs.items())]


def cmd_discover(args: argparse.Namespace) -> int:
    config = OptimizerConfig(n0=args.n0, max_iter=args.max_iter, delta=args.delta, seed=args.seed)
    _check_outputs(
        ("--out-net", args.out_net), ("--out-report", args.out_report), ("--out-convergence", args.out_convergence)
    )
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    wn, _ = _load_workflow(args.net)
    target = _load_target(args, wn)
    timings["parse"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spec = ObjectiveSpec.for_net(args.measure, wn, target)
    timings["spec"] = time.perf_counter() - t0

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
    Path(args.out_report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

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
    repeated = sorted({m for m in measures if measures.count(m) > 1})
    if repeated:
        raise InputError(f"--measures {args.measures!r} repeats {', '.join(repeated)}")
    for flag, value in (("--coverage", args.coverage), ("--max-trace-len", args.max_trace_len)):
        if value is not None and "temd" not in measures:
            raise InputError(f"{flag} bounds only the tEMD unfolding, and --measures lacks temd")
    coverage = _TEMD_COVERAGE if args.coverage is None else args.coverage
    _check_budgets(coverage, args.max_trace_len)

    swn = _load_weighted(args.net)
    target = _load_target(args, swn.wn)
    rg = build_rg(swn.wn)
    annotated = annotate(rg, swn.weight_vector())
    probs = PrefixProduct(rg, target.probs).probabilities(annotated) if set(MEASURES) & set(measures) else None

    reports: list[DistanceReport] = []
    for m in measures:
        if m == "lh":
            reports.append(DistanceReport(kind="lh", value=log_likelihood_divergence(target, probs)))
        elif m == "remd":
            reports.append(restricted_emd(target, probs))
        else:
            report = truncated_emd(target, unfold_language(annotated, coverage, args.max_trace_len))
            if report.coverage_used < coverage:
                print(
                    f"warning: tEMD unfolding reached coverage {report.coverage_used} < requested {coverage}: "
                    "--max-trace-len or markings that cannot reach the sink cut the rest; value is partial",
                    file=sys.stderr,
                )
            reports.append(report)

    _print_json([r.to_json_dict() for r in reports])
    return 0


def cmd_unfold(args: argparse.Namespace) -> int:
    if not args.log and args.coverage is None:
        raise InputError("unfold needs --log (restrict to its traces) or --coverage")
    if args.log:
        for flag, value in (("--coverage", args.coverage), ("--max-trace-len", args.max_trace_len)):
            if value is not None:
                raise InputError(f"unfold --log gives exact probabilities; {flag} bounds only unfold without --log")
    else:
        _check_budgets(args.coverage, args.max_trace_len)
    swn = _load_weighted(args.net)
    target = _load_target(args, swn.wn) if args.log else None
    annotated = annotate(build_rg(swn.wn), swn.weight_vector())

    if target is not None:
        payload = {"traces": _trace_entries(trace_probabilities(annotated, target.probs), "prob")}
    else:
        lang = unfold_language(annotated, args.coverage, args.max_trace_len)
        payload = {"traces": _trace_entries(lang.probs, "prob"), "residual": lang.residual}
    _print_json(payload)
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    src_kind = Path(args.input).suffix.lower().lstrip(".")
    dst_kind = Path(args.output).suffix.lower().lstrip(".")
    log_kinds = ("xes", "csv")

    if src_kind == "pnml" and dst_kind == "pnml":
        Path(args.output).write_bytes(write_pnml(_load_weighted(args.input)))
    elif src_kind in log_kinds and dst_kind in log_kinds:
        log = _load_log(args.input, args)
        if dst_kind == "xes":
            Path(args.output).write_bytes(write_xes(log))
        else:
            Path(args.output).write_text(write_csv(log, args.case_col, args.activity_col, args.time_col), encoding="utf-8")
    else:
        raise InputError(f"unsupported conversion {src_kind or '?'} -> {dst_kind or '?'}")
    return 0


def _add_csv_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case-col", default="case", help="CSV case id column (default: %(default)s)")
    p.add_argument("--activity-col", default="activity", help="CSV activity column (default: %(default)s)")
    p.add_argument("--time-col", help="CSV ISO-8601 timestamp column (default: row order)")


def _add_net_and_log_options(p: argparse.ArgumentParser, log_required: bool) -> None:
    p.add_argument("--net", required=True, help="PNML net file")
    p.add_argument("--log", required=log_required, help="event log file (.xes or .csv)")
    _add_csv_options(p)


def _add_unfold_options(p: argparse.ArgumentParser, coverage_help: str) -> None:
    """The budgets of the free language's unfolding (tEMD; unfold without --log)."""
    p.add_argument("--coverage", type=float, help=coverage_help)
    p.add_argument("--max-trace-len", type=int, help="unfolding trace length budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swnopt",
        description="Estimate and evaluate stochastic workflow-net transition weights.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("discover", help="optimize transition weights against an event log")
    p.set_defaults(handler=cmd_discover)
    _add_net_and_log_options(p, log_required=True)
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

    p = sub.add_parser("evaluate", help="measure divergences of a weighted net against a log")
    p.set_defaults(handler=cmd_evaluate)
    _add_net_and_log_options(p, log_required=True)
    _add_unfold_options(p, f"probability mass to unfold for temd (default: {_TEMD_COVERAGE})")
    measures = ",".join(EVALUATE_MEASURES)
    p.add_argument("--measures", default=measures, help=f"comma list from {measures} (default: %(default)s)")

    p = sub.add_parser("unfold", help="dump trace probabilities or the truncated language")
    p.set_defaults(handler=cmd_unfold)
    _add_net_and_log_options(p, log_required=False)
    _add_unfold_options(p, "probability mass to unfold")

    p = sub.add_parser("convert", help="round-trip nets and logs between formats")
    p.set_defaults(handler=cmd_convert)
    p.add_argument("--in", dest="input", required=True, help="input file (.pnml, .xes, .csv)")
    p.add_argument("--out", dest="output", required=True, help="output file (.pnml, .xes, .csv)")
    _add_csv_options(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
