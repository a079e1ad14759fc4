"""Acceptance gate: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The two exhaustive checks (Monte-Carlo agreement and the full
edit-distance sweep) are marked ``slow``; they run by default and can be
skipped during development with ``-m "not slow"``.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from swnopt.cli import main
from swnopt.distances import (
    CostMatrix,
    emd,
    language_emd,
    levenshtein,
)
from swnopt.logs import StochasticLanguage, log_language, write_csv
from swnopt.optimize import ObjectiveSpec, OptimizerConfig, evaluate_objective, optimized_weights
from swnopt.pnml import write_pnml
from swnopt.semantics import annotate, build_rg
from swnopt.unfolding import trace_probabilities, unfold_language

from .fixtures import (
    PARALLEL_CHOICE_PROBS,
    closed_form_aa,
    closed_form_qa,
    parallel_choice_language,
    parallel_choice_log,
    parallel_choice_swn,
    parallel_choice_wn,
    two_loop_log,
    two_loop_wn,
)
from .oracles import all_traces, levenshtein_matrix
from .sim import simulate_target_frequencies
from .treegen import random_swn

ENTROPY_FLOOR = -(2 * 0.15 * math.log(0.15) + 2 * 0.35 * math.log(0.35))


def _pass(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def _annotated(swn):
    return annotate(build_rg(swn.wn), swn.weight_vector())


def test_criterion_1_reference_net_exactness():
    arg = _annotated(parallel_choice_swn())
    targets = PARALLEL_CHOICE_PROBS
    trace_probabilities(arg, targets)  # warm-up outside the timer
    t0 = time.perf_counter()
    result = trace_probabilities(arg, targets)
    elapsed = time.perf_counter() - t0
    for trace, expected in PARALLEL_CHOICE_PROBS.items():
        assert abs(result[trace] - expected) <= 1e-12, trace
    assert elapsed < 0.010, f"unfolding took {elapsed * 1000:.2f} ms"
    _pass("1", f"four probabilities exact to 1e-12, {elapsed * 1000:.2f} ms")


def test_criterion_2_closed_form_oracle():
    wn = two_loop_wn()
    rg = build_rg(wn)
    targets = [("Q", "A"), ("A", "A")]
    rng = np.random.default_rng(20240101)
    t0 = time.perf_counter()
    unit = trace_probabilities(annotate(rg, np.ones(9)), targets)
    assert unit[("Q", "A")] == pytest.approx(1 / 27, rel=1e-12)
    assert unit[("A", "A")] == pytest.approx(11 / 81, rel=1e-12)
    for _ in range(20):
        values = rng.uniform(0.05, 5.0, size=9)
        weights = dict(zip(wn.net.transitions, values))
        result = trace_probabilities(annotate(rg, values), targets)
        assert result[("Q", "A")] == pytest.approx(closed_form_qa(weights), rel=1e-9)
        assert result[("A", "A")] == pytest.approx(closed_form_aa(weights), rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f} s"
    _pass("2", f"20 random weight vectors match both closed forms to 1e-9 rel, {elapsed * 1000:.0f} ms")


def test_criterion_3_transport_worked_example():
    rows = (("1",), ("2",), ("3",))
    cost = CostMatrix(rows, rows, np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float))
    p = StochasticLanguage({("1",): 0.25, ("2",): 0.25, ("3",): 0.5})
    q = StochasticLanguage({("1",): 0.5, ("2",): 0.5})
    plan = emd(p, q, cost)
    assert plan.cost == pytest.approx(0.75, abs=1e-12)
    assert plan.plan.sum(axis=1) == pytest.approx([0.25, 0.25, 0.5], abs=1e-9)
    assert plan.plan.sum(axis=0) == pytest.approx([0.5, 0.5, 0.0], abs=1e-9)
    _pass("3", "transport cost 3/4 exactly, marginals reproduce both distributions")


def test_criterion_4_optimization_recovery(tmp_path):
    net_path = tmp_path / "net.pnml"
    net_path.write_bytes(write_pnml(parallel_choice_swn()))
    log_path = tmp_path / "log.csv"
    log_path.write_text(write_csv(parallel_choice_log()), encoding="utf-8")

    results = {}
    for measure in ("remd", "lh"):
        t0 = time.perf_counter()
        code = main([
            "discover",
            "--net", str(net_path),
            "--log", str(log_path),
            "--measure", measure,
            "--n0", "10",
            "--max-iter", "50",
            "--delta", "1e-3",
            "--seed", "42",
            "--out-net", str(tmp_path / f"{measure}.pnml"),
            "--out-report", str(tmp_path / f"{measure}.json"),
            "--out-convergence", str(tmp_path / f"{measure}.csv"),
        ])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 30.0, f"{measure} run took {elapsed:.1f} s"
        results[measure] = json.loads((tmp_path / f"{measure}.json").read_text())
        results[measure]["elapsed"] = elapsed

    assert results["remd"]["final_value"] <= 1e-3
    assert abs(results["lh"]["final_value"] - 1.3040115) <= 1e-3
    _pass(
        "4",
        f"rEMD {results['remd']['final_value']:.2e} (≤1e-3) in {results['remd']['elapsed']:.1f}s; "
        f"LH {results['lh']['final_value']:.7f} within 1e-3 of 1.3040115 in {results['lh']['elapsed']:.1f}s",
    )


def test_criterion_5a_probability_conservation():
    for seed in range(100):
        swn = random_swn(random.Random(5000 + seed), max_transitions=8, allow_loops=False)
        lang = unfold_language(_annotated(swn), coverage=1.0)
        assert abs(lang.mass() - 1.0) <= 1e-9, seed
        assert lang.residual <= 1e-9, seed
    _pass("5a", "100 random acyclic nets unfold to total mass 1 ± 1e-9")


@pytest.mark.slow
def test_criterion_5b_monte_carlo_agreement():
    z99 = 2.5758293035489004  # two-sided 99% normal quantile
    n = 1_000_000
    worst = 0.0
    checked = 0
    for seed in range(20):
        swn = random_swn(random.Random(7000 + seed), max_transitions=12, allow_loops=True, min_activities=2)
        arg = _annotated(swn)
        lang = unfold_language(arg, coverage=0.7)
        targets = [t for t, _ in sorted(lang.probs.items(), key=lambda kv: -kv[1])[:4]]
        result = trace_probabilities(arg, targets)
        counts = simulate_target_frequencies(swn, targets, n_runs=n, seed=910_000 + seed)
        for trace in targets:
            p = result.get(trace, 0.0)
            phat = counts[trace] / n
            sigma = math.sqrt(max(phat * (1 - phat), 1e-12) / n)
            z = abs(p - phat) / sigma
            worst = max(worst, z)
            checked += 1
            assert z <= z99, (seed, trace, p, phat, z)
    _pass("5b", f"{checked} trace probabilities on 20 nets inside the 99% CI (worst |z| = {worst:.2f})")


def test_criterion_5c_emd_metric_suite():
    rng = random.Random(31337)

    def random_language():
        size = rng.randint(1, 6)
        traces = set()
        while len(traces) < size:
            traces.add(tuple(rng.choice("xyz") for _ in range(rng.randint(0, 4))))
        masses = [rng.random() + 1e-6 for _ in traces]
        total = sum(masses)
        return StochasticLanguage({t: m / total for t, m in zip(traces, masses)})

    for _ in range(200):
        p, q, r = random_language(), random_language(), random_language()
        d_pq = language_emd(p, q).cost
        assert abs(d_pq - language_emd(q, p).cost) <= 1e-9
        assert language_emd(p, p).cost <= 1e-9
        assert language_emd(p, r).cost <= d_pq + language_emd(q, r).cost + 1e-9
        assert 0.0 <= d_pq <= 1.0
    _pass("5c", "symmetry, identity and triangle inequality hold on 200 random language triples")


@pytest.mark.slow
def test_criterion_5d_levenshtein_exhaustive():
    traces = all_traces(("x", "y", "z"), 7)
    reference = levenshtein_matrix(traces)
    assert np.array_equal(reference, reference.T)  # oracle symmetric by construction
    for i, t1 in enumerate(traces):
        row = reference[i]
        for j in range(i, len(traces)):
            assert levenshtein(t1, traces[j]) == row[j]
    # the implementation is symmetric too (argument swap), sampled
    rng = random.Random(5)
    for _ in range(20000):
        i, j = rng.randrange(len(traces)), rng.randrange(len(traces))
        assert levenshtein(traces[j], traces[i]) == reference[i][j]
    _pass("5d", f"all {len(traces)}^2 pairs up to length 7 match the recursive-oracle matrix")


def test_criterion_5e_scale_gauge_invariance():
    for measure in ("lh", "remd"):
        spec = ObjectiveSpec.for_net(measure, parallel_choice_wn(), parallel_choice_language())
        base = np.array([1.0, 0.3, 0.35, 0.35, 1.0])
        reference = evaluate_objective(spec, base)
        for c in (0.1, 10.0):
            assert abs(evaluate_objective(spec, c * base) - reference) <= 1e-10
    _pass("5e", "both objectives invariant under weight scaling by 0.1 and 10 within 1e-10")


def test_criterion_5f_convergence_traces_non_increasing():
    instances = [
        ObjectiveSpec.for_net("lh", parallel_choice_wn(), parallel_choice_language()),
        ObjectiveSpec.for_net("remd", parallel_choice_wn(), parallel_choice_language()),
        ObjectiveSpec.for_net("lh", two_loop_wn(), log_language(two_loop_log())),
        ObjectiveSpec.for_net("remd", two_loop_wn(), log_language(two_loop_log())),
    ]
    runs = 0
    for spec in instances:
        for seed in range(1, 11):
            result = optimized_weights(spec, OptimizerConfig(n0=3, max_iter=6, delta=1e-3, seed=seed))
            values = [v for _, v in result.trace]
            assert all(b <= a for a, b in zip(values, values[1:])), (spec.measure, seed)
            assert result.final_value == values[-1]
            runs += 1
    _pass("5f", f"{runs} optimizer runs (2 nets x 2 measures x seeds 1..10) all non-increasing")


def test_criterion_6_byte_identical_reruns(tmp_path):
    net_path = tmp_path / "net.pnml"
    net_path.write_bytes(write_pnml(parallel_choice_swn()))
    log_path = tmp_path / "log.csv"
    log_path.write_text(write_csv(parallel_choice_log()), encoding="utf-8")

    outputs = []
    for run in ("first", "second"):
        d = tmp_path / run
        d.mkdir()
        code = main([
            "discover",
            "--net", str(net_path),
            "--log", str(log_path),
            "--measure", "remd",
            "--n0", "10",
            "--max-iter", "12",
            "--delta", "1e-3",
            "--seed", "42",
            "--out-net", str(d / "weighted.pnml"),
            "--out-report", str(d / "report.json"),
            "--out-convergence", str(d / "convergence.csv"),
        ])
        assert code == 0
        outputs.append({name: (d / name).read_bytes() for name in ("report.json", "convergence.csv", "weighted.pnml")})
    assert outputs[0] == outputs[1]
    _pass("6", "two discover runs produced byte-identical report JSON, convergence CSV and PNML")
