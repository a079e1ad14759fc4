"""The three workloads: their inputs, their operations and the checks on each.

An operation is one in-process ``swnopt.cli.main`` call.  Every operation
is checked against references that do not come from the code under test:
the log entropy computed here from the log counts, closed-form trace
probabilities, the known optimum of the parallel-choice net, and the
documented ranges and schema of the outputs.  No check pins a value that
today's truncated unfolding happens to produce.

Net structures come from fixed generator streams (one per workload and
slot), as do the hidden and perturbed weights; the workload seed drives the
sampled logs.  Logs are sampled large and written at their stated size, so
their frequencies, and with them the work per run, move little between
seeds.  The optimizer seed is fixed at 42.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from swnopt import cli
from swnopt.logs import EventLog, write_xes
from swnopt.nets import StochasticWorkflowNet
from swnopt.pnml import write_pnml

import instances
import reference

REPORT_SCHEMA = "stochastic-weights/report/1"
REPORT_KEYS = {
    "schema", "command", "measure", "method", "seed", "n0", "max_iter", "delta",
    "final_value", "iterations", "stop_reason", "weights",
}
DISTANCE_KEYS = {"kind", "value", "model_mass_on_log", "coverage_used"}
OPTIMIZER_SEED = "42"
TOL = 1e-9

#: lh-fit: restricted unfolding plus the quasi-Newton loop do the work.
LH_WINDOW = instances.Window(
    leaves=(20, 40), transitions=(30, 50), states=(80, 400), sample=10000, cases=2000, top_k=60,
    min_support=60, loops=True, min_kept=0.6, max_trace_len=40,
)
LH_GENERATED = 6

#: remd-fit: thousands of small transport LPs over a fixed support.
REMD_WINDOW = instances.Window(
    leaves=(6, 9), transitions=(8, 11), states=(1, 40), sample=20000, cases=2000, top_k=8,
    min_support=8, loops=True, min_kept=0.7, max_trace_len=20,
)
REMD_GENERATED = 1

#: evaluate-oneshot: large logs, free unfolding and two large LPs per call.
#: ``language`` bounds the tEMD language (and so the tEMD LP) at the length budget.
EVAL_MAX_TRACE_LEN = 12
EVAL_COVERAGE = "0.9"
EVAL_WINDOW = instances.Window(
    leaves=(10, 20), transitions=(14, 28), states=(1, 200), sample=12000, cases=6000, top_k=40,
    min_support=40, loops=True, min_kept=0.5, max_trace_len=EVAL_MAX_TRACE_LEN, language=(300, 1000),
)
EVAL_GENERATED = 3

WORKLOADS = ("lh-fit", "remd-fit", "evaluate-oneshot")


@dataclass
class Op:
    """One operation: a CLI call on an instance, and what to check after it."""

    name: str
    argv: list[str]
    instance: instances.Instance
    measure: str  # the discover objective; unused by evaluate
    out: dict[str, Path]


def _unit_weights(wn) -> dict[str, float]:
    return {t: 1.0 for t in wn.net.transitions}  # discover ignores the weights in its input net


def discover_op(inst: instances.Instance, measure: str, out: Path) -> Op:
    files = {
        "net": out / f"{inst.name}.{measure}.weighted.pnml",
        "report": out / f"{inst.name}.{measure}.report.json",
        "convergence": out / f"{inst.name}.{measure}.convergence.csv",
    }
    argv = [
        "discover", "--net", str(inst.net_path), "--log", str(inst.log_path), "--measure", measure,
        "--seed", OPTIMIZER_SEED, "--out-net", str(files["net"]), "--out-report", str(files["report"]),
        "--out-convergence", str(files["convergence"]),
    ]
    return Op(f"discover-{measure}:{inst.name}", argv, inst, measure, files)


def evaluate_op(inst: instances.Instance, tag: str, weights: dict[str, float], out: Path) -> Op:
    net_path = out / f"{inst.name}.{tag}.pnml"
    net_path.write_bytes(write_pnml(StochasticWorkflowNet(inst.wn, weights)))
    argv = [
        "evaluate", "--net", str(net_path), "--log", str(inst.log_path), "--measures", "lh,remd,temd",
        "--coverage", EVAL_COVERAGE, "--max-trace-len", str(EVAL_MAX_TRACE_LEN),
    ]
    return Op(f"evaluate:{inst.name}.{tag}", argv, inst, "", {"net": net_path})


def _generated(workload: str, seed: int, count: int, window: instances.Window, out: Path) -> list[instances.Instance]:
    return [
        instances.generate(
            f"{workload}-g{i}", random.Random(f"{workload}/net/{i}"), random.Random(f"{workload}/log/{seed}/{i}"), window, out
        )
        for i in range(count)
    ]


def build(workload: str, seed: int, out: Path) -> list[Op]:
    """Generate the workload's inputs from ``seed`` into ``out``; return its operations."""
    pc_wn, tl_wn = reference.parallel_choice_wn(), reference.two_loop_wn()
    if workload in ("lh-fit", "remd-fit"):
        measure = "lh" if workload == "lh-fit" else "remd"
        refs = [
            instances.write_instance("parallel-choice", pc_wn, _unit_weights(pc_wn), reference.parallel_choice_log(), out),
            instances.write_instance("two-loop", tl_wn, _unit_weights(tl_wn), reference.two_loop_log(), out),
        ]
        count, window = (LH_GENERATED, LH_WINDOW) if measure == "lh" else (REMD_GENERATED, REMD_WINDOW)
        return [discover_op(inst, measure, out) for inst in refs + _generated(workload, seed, count, window, out)]
    if workload == "evaluate-oneshot":
        pc = instances.write_instance(
            "parallel-choice", pc_wn, reference.PARALLEL_CHOICE_WEIGHTS, reference.parallel_choice_log(), out
        )
        ops = [evaluate_op(pc, "reference", reference.PARALLEL_CHOICE_WEIGHTS, out)]
        for i, inst in enumerate(_generated(workload, seed, EVAL_GENERATED, EVAL_WINDOW, out)):
            rng = random.Random(f"{workload}/perturb/{i}")
            perturbed = {t: w * math.exp(rng.gauss(0.0, 0.5)) for t, w in inst.hidden_weights.items()}
            ops.append(evaluate_op(inst, "hidden", inst.hidden_weights, out))
            ops.append(evaluate_op(inst, "perturbed", perturbed, out))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# running and checking one operation


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """``swnopt.cli.main`` in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Outcome:
    problems: list[str]
    gap: float | None  # reported value minus its floor
    digest: str  # output bytes, compared across repeats of the same operation


def check(op: Op, code: int, stdout: str) -> Outcome:
    if code != 0:
        return Outcome([f"exit code {code}"], None, "")
    if op.argv[0] == "discover":
        return _check_discover(op)
    return _check_evaluate(op, stdout)


def _check_discover(op: Op) -> Outcome:
    problems = []
    report_text = op.out["report"].read_text(encoding="utf-8")
    conv_text = op.out["convergence"].read_text(encoding="utf-8")
    report = json.loads(report_text)
    if set(report) - {"timings"} != REPORT_KEYS:
        problems.append(f"report keys {sorted(report)}")
    if report.get("schema") != REPORT_SCHEMA or report.get("command") != "discover" or report.get("measure") != op.measure:
        problems.append("report schema/command/measure mismatch")
    final = report["final_value"]

    weights = report["weights"]
    values = list(weights.values())
    if set(weights) != set(op.instance.wn.net.transitions):
        problems.append("weights not total over transitions")
    if not all(math.isfinite(w) and w > 0.0 for w in values) or max(values) != 1.0:
        problems.append("weights must be finite, positive, with max 1")

    lines = conv_text.splitlines()
    trace = [float(line.split(",")[1]) for line in lines[1:]]
    if lines[0] != "iteration,value" or not trace:
        problems.append("convergence CSV header or rows missing")
    elif any(b > a for a, b in zip(trace, trace[1:])) or trace[-1] != final:
        problems.append("convergence CSV not non-increasing or not ending at final_value")

    entropy = op.instance.entropy
    if op.measure == "lh":
        gap = final - entropy
        if final < entropy - TOL:
            problems.append(f"lh {final} below the log entropy {entropy}")
    else:
        gap = final
        if not 0.0 <= final <= 1.0:
            problems.append(f"rEMD {final} outside [0, 1]")

    if op.instance.name == "parallel-choice":
        if op.measure == "lh" and abs(final - reference.PARALLEL_CHOICE_ENTROPY) > 1e-3:
            problems.append(f"parallel-choice lh {final} not within 1e-3 of {reference.PARALLEL_CHOICE_ENTROPY}")
        if op.measure == "remd" and final > 1e-3:
            problems.append(f"parallel-choice rEMD {final} above 1e-3")
    if op.instance.name == "two-loop":
        problems += _check_two_loop(op, weights)
    return Outcome(problems, gap, report_text + conv_text + op.out["net"].read_text(encoding="utf-8"))


def _check_two_loop(op: Op, weights: dict[str, float]) -> list[str]:
    """``swnopt unfold --log`` on the returned net agrees with the closed forms."""
    probe_log = op.out["net"].with_suffix(".probe.xes")
    probe_log.write_bytes(write_xes(EventLog({("Q", "A"): 1, ("A", "A"): 1})))
    code, stdout, _ = call_cli(["unfold", "--net", str(op.out["net"]), "--log", str(probe_log)])
    if code != 0:
        return [f"unfold exit code {code}"]
    got = {tuple(e["trace"]): e["prob"] for e in json.loads(stdout)["traces"]}
    problems = []
    for trace, exact in (((("Q", "A")), reference.closed_form_qa(weights)), (("A", "A"), reference.closed_form_aa(weights))):
        value = got.get(trace, 0.0)
        if abs(value - exact) > TOL * abs(exact):
            problems.append(f"P{trace} = {value}, closed form {exact}")
    return problems


def _check_evaluate(op: Op, stdout: str) -> Outcome:
    problems = []
    reports = json.loads(stdout)
    kinds = [r.get("kind") for r in reports]
    if kinds != ["lh", "remd", "temd"] or any(set(r) != DISTANCE_KEYS for r in reports):
        return Outcome([f"evaluate report schema mismatch: {kinds}"], None, stdout)
    lh, remd, temd = reports
    entropy = op.instance.entropy
    if lh["value"] < entropy - TOL:
        problems.append(f"lh {lh['value']} below the log entropy {entropy}")
    for r in (remd, temd):
        if not 0.0 <= r["value"] <= 1.0:
            problems.append(f"{r['kind']} {r['value']} outside [0, 1]")
    if not 0.0 < remd["model_mass_on_log"] <= 1.0 + TOL:
        problems.append(f"model_mass_on_log {remd['model_mass_on_log']} outside (0, 1]")
    if not 0.0 < temd["coverage_used"] <= 1.0 + TOL:
        problems.append(f"coverage_used {temd['coverage_used']} outside (0, 1]")
    if op.instance.name == "parallel-choice":
        # at the reference weights the net's language is exactly the log's
        if abs(lh["value"] - entropy) > TOL or remd["value"] > TOL:
            problems.append(f"parallel-choice at reference weights: lh {lh['value']}, rEMD {remd['value']}")
    return Outcome(problems, lh["value"] - entropy, stdout)
