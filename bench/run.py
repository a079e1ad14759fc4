"""Benchmark entry point: run one workload in a fresh, limited child process.

Run from the root of a source checkout::

    python3 bench/run.py --workload lh-fit --seed 1 --seconds 30 --trace 0

The workload runs in ``bench/worker.py`` with ``src`` on its path, one BLAS
thread and an address-space limit, so a runaway unfolding fails an
operation instead of exhausting the machine.  This process reads the
child's peak resident memory, prints a provenance line, and prints the
result as the last line of standard output::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see
``BENCHMARK.json``); with ``--trace 1`` the per-layer ones.  The exit code
is non-zero, and no result is printed, when the workload cannot run.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ADDRESS_SPACE_LIMIT = 3 << 30  # bytes
CHILD_TIMEOUT_S = 170


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def main() -> int:
    parser = argparse.ArgumentParser(description="swnopt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "swnopt" / "__init__.py").is_file():
        print("error: run from the root of a swnopt checkout (src/swnopt not found)", file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]),
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result_path),
    ]
    try:
        try:
            child = subprocess.run(command, env=env, preexec_fn=_limit_child, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        if child.returncode != 0 or not result_path.is_file():
            print(f"error: workload process exited with code {child.returncode}", file=sys.stderr)
            return 3
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MiB"}
    info = result.pop("info")
    for problems in info.get("problems", []):
        print("check failed: " + "; ".join(problems), file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
