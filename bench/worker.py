"""Run one benchmark workload in this process; write the result as JSON.

``run.py`` starts this script in a fresh process per workload, with an
address-space limit and one BLAS thread, and measures its peak memory from
outside.  Usage::

    python3 bench/worker.py --workload lh-fit --seed 1 --seconds 30 --trace 0 \
        --workdir .bench_work/run --result .bench_work/run/result.json

Untraced (``--trace 0``): time the library load path at least
``SETUP_REPEATS`` times and for at least ``SETUP_SECONDS``, then repeat the workload's batch of operations while the next batch
is expected to end within ``--seconds`` (at least once).  Traced
(``--trace 1``): one untraced batch, then one traced set-up pass and batch,
then the baseline rows.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import json
import platform
import statistics
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import swnopt
import swnopt.logs
import swnopt.nets
import swnopt.optimize
import swnopt.pnml

import instances
import reference
import tracing
import workloads

SETUP_REPEATS = 3
SETUP_SECONDS = 3.0  # keep repeating set-up until this much time is spent
BASELINE_SEED = 42
#: evaluations timed per baseline row, by measure
BASELINE_EVAL_REPEATS = {"lh": 400, "remd": 60}


def run_batch(ops, tracer=None):
    """Run every operation once; return (seconds, outcome) per operation."""
    results = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            code, stdout, _ = workloads.call_cli(op.argv)
        except Exception as exc:  # a failed operation is counted; the run goes on
            results.append((time.perf_counter() - t0, workloads.Outcome([f"raised {exc!r}"], None, "")))
            continue
        elapsed = time.perf_counter() - t0
        with tracer.paused() if tracer else nullcontext():
            try:
                outcome = workloads.check(op, code, stdout)
            except Exception as exc:  # malformed output fails the operation, not the run
                outcome = workloads.Outcome([f"check raised {exc!r}"], None, "")
        results.append((elapsed, outcome))
    return results


def setup_inputs(ops):
    """Net and log bytes of each distinct instance the operations use."""
    seen = {}
    for op in ops:
        seen.setdefault(op.instance.name, op.instance)
    return [(inst.net_path.read_bytes(), inst.log_path.read_bytes()) for inst in seen.values()]


def setup_pass(inputs, measure: str) -> float:
    """Seconds from file bytes to a ready ObjectiveSpec, summed over the inputs."""
    total = 0.0
    for net_bytes, log_bytes in inputs:
        t0 = time.perf_counter()
        parsed = swnopt.pnml.parse_pnml(net_bytes)
        wn = swnopt.nets.validate_workflow(parsed.net, parsed.source, parsed.sink)
        target = swnopt.logs.log_language(swnopt.logs.parse_xes(log_bytes))
        spec = swnopt.optimize.ObjectiveSpec.for_net(measure, wn, target)
        total += time.perf_counter() - t0
        if spec.n_weights != len(parsed.net.transitions) or spec.rg.sink_state is None:
            raise RuntimeError("set-up produced an inconsistent spec")
    return total


def warm_up(workdir: Path) -> None:
    """First calls pay for lazy imports and solver start-up; keep them untimed."""
    wn = reference.parallel_choice_wn()
    inst = instances.write_instance(
        "warmup", wn, reference.PARALLEL_CHOICE_WEIGHTS, reference.parallel_choice_log(), workdir
    )
    ops = [workloads.evaluate_op(inst, "warmup", reference.PARALLEL_CHOICE_WEIGHTS, workdir)]
    ops.append(workloads.discover_op(inst, "lh", workdir))
    run_batch(ops)


def tally(batches, problems_out):
    """attempted, failed, and whether repeats of an operation gave identical output."""
    attempted = failed = 0
    first_digest = {}
    for batch in batches:
        for i, (_, outcome) in enumerate(batch):
            attempted += 1
            problems = list(outcome.problems)
            if not problems and first_digest.setdefault(i, outcome.digest) != outcome.digest:
                problems.append("output differs from the first run of the same operation")
            if problems:
                failed += 1
                problems_out.append(problems)
    return attempted, failed


def fit_gap(batch) -> float:
    gaps = [outcome.gap for _, outcome in batch if outcome.gap is not None]
    return statistics.fmean(gaps) if gaps else float("nan")


def baseline_rows() -> dict[str, float]:
    """ROADMAP baseline: evaluations per optimized_weights(n0=10, seed=42) and ms per evaluation."""
    rows = {}
    counted = tuple(t for t in tracing.TARGETS if t[2] == "optimize.eval")
    nets = (
        ("parallel_choice", reference.parallel_choice_wn(), reference.parallel_choice_log()),
        ("two_loop", reference.two_loop_wn(), reference.two_loop_log()),
    )
    for name, wn, log in nets:
        target = swnopt.logs.log_language(log)
        for measure in ("lh", "remd"):
            spec = swnopt.optimize.ObjectiveSpec.for_net(measure, wn, target)
            counter = tracing.Tracer(counted)
            with counter.installed():
                swnopt.optimize.optimized_weights(spec, swnopt.optimize.OptimizerConfig(n0=10, seed=BASELINE_SEED))
            rows[f"baseline.{measure}_evals_{name}"] = len(counter.spans)
            uniform = np.ones(spec.n_weights)
            times = []
            for _ in range(BASELINE_EVAL_REPEATS[measure]):
                t0 = time.perf_counter()
                swnopt.optimize.evaluate_objective(spec, uniform)
                times.append(time.perf_counter() - t0)
            rows[f"baseline.{measure}_eval_ms_{name}"] = statistics.median(times) * 1e3
    return rows


def unit_of(name: str) -> str:
    if name == "fit_gap":
        return "objective"  # nats for lh, rEMD units for rEMD
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("dropped_mass_max", "residual_max")):
        return "probability"
    return "count"


def provenance(args) -> dict:
    def cpu_model() -> str:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(Path.cwd()),
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    warnings.simplefilter("ignore")

    src = (Path.cwd() / "src").resolve()
    if src not in Path(swnopt.__file__).resolve().parents:
        raise SystemExit(f"swnopt imported from {swnopt.__file__}, not from {src}")

    info = provenance(args)
    t0 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, args.workdir)
    info["generate_s"] = time.perf_counter() - t0
    info["instances"] = {op.name: op.instance.stats for op in ops}
    warm_up(args.workdir)
    measure = "remd" if args.workload == "remd-fit" else "lh"
    inputs = setup_inputs(ops)

    problems: list[list[str]] = []
    metrics: dict[str, float] = {}
    if args.trace == 0:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            setup_times.append(setup_pass(inputs, measure))
        batches, batch_times = [], []
        start = time.perf_counter()
        while True:
            batch = run_batch(ops)
            batches.append(batch)
            batch_times.append(sum(seconds for seconds, _ in batch))
            if time.perf_counter() - start + batch_times[-1] > args.seconds:
                break
        attempted, failed = tally(batches, problems)
        # the batch's time from each operation's median over the repeats
        metrics["wall_s"] = sum(statistics.median(runs) for runs in zip(*([s for s, _ in b] for b in batches)))
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["fit_gap"] = fit_gap(batches[0])
        info["batches"] = len(batches)
        info["batch_s"] = batch_times
    else:
        untraced = run_batch(ops)
        tracer = tracing.Tracer()
        with tracer.installed():
            metrics["bench.setup_traced_s"] = setup_pass(inputs, measure)
            traced = run_batch(ops, tracer)
        attempted, failed = tally([untraced, traced], problems)
        untraced_s = sum(seconds for seconds, _ in untraced)
        traced_s = sum(seconds for seconds, _ in traced)
        metrics.update(tracing.layer_metrics(tracer.spans))
        metrics["bench.untraced_wall_s"] = untraced_s
        metrics["bench.traced_wall_s"] = traced_s
        metrics["bench.trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
        metrics["bench.spans"] = len(tracer.spans)
        metrics["bench.failed_frac"] = failed / attempted
        metrics.update(baseline_rows())
        info["trace_notes"] = tracer.notes
        spans_path = args.workdir.parent / "traces" / f"{args.workload}-{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"spans": tracer.spans, "notes": tracer.notes}))
        info["spans_file"] = str(spans_path)

    info["failed_frac"] = failed / attempted
    info["problems"] = problems[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
        "info": info,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
