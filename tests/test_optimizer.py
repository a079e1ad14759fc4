import math
import random

import numpy as np
import pytest

import swnopt.optimize
import swnopt.unfolding
from swnopt.distances import P_CLAMP, log_likelihood_gradient
from swnopt.logs import StochasticLanguage, log_language
from swnopt.optimize import (
    AllStartsInvalid,
    INVALID_OBJECTIVE,
    MEASURES,
    METHODS,
    ObjectiveSpec,
    OptimizerConfig,
    draw_starts,
    evaluate_objective,
    minimize,
    optimized_weights,
    select_start,
)
from swnopt.semantics import annotate, build_rg
from swnopt.unfolding import IllConditioned, PrefixProduct, unfold_language

from .fixtures import (
    PARALLEL_CHOICE_WEIGHTS,
    parallel_choice_language,
    parallel_choice_wn,
    single_transition_wn,
    two_loop_log,
    two_loop_wn,
)
from .oracles import mincost_transport_units
from .test_distances import ENTROPY_FLOOR
from .treegen import random_swn


def _pc_spec(measure):
    return ObjectiveSpec.for_net(measure, parallel_choice_wn(), parallel_choice_language())


def _pc_weights():
    return [PARALLEL_CHOICE_WEIGHTS[t] for t in parallel_choice_wn().net.transitions]


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec.for_net("nope", parallel_choice_wn(), parallel_choice_language())
    with pytest.raises(ValueError):
        ObjectiveSpec.for_net("lh", parallel_choice_wn(), StochasticLanguage({("a",): 0.5}, residual=0.5))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(n0=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iter=0)
    with pytest.raises(ValueError):
        OptimizerConfig(delta=0.0)


def test_evaluate_objective_reference_values():
    assert evaluate_objective(_pc_spec("lh"), _pc_weights()) == pytest.approx(ENTROPY_FLOOR, abs=1e-9)
    assert evaluate_objective(_pc_spec("remd"), _pc_weights()) == pytest.approx(0.0, abs=1e-9)


def test_evaluate_objective_uniform_weights_remd_matches_oracle():
    from swnopt.distances import normalized_levenshtein

    spec = _pc_spec("remd")
    value = evaluate_objective(spec, np.ones(5))
    rows = tuple(spec.target.probs)
    cost = [[normalized_levenshtein(r, c) for c in rows] for r in rows]
    units_target = [round(spec.target.probs[t] * 600) for t in rows]
    model = {("a", "b", "c"): 100, ("a", "c", "b"): 200, ("a", "b", "d"): 100, ("a", "d", "b"): 200}
    oracle = mincost_transport_units(units_target, [model[t] for t in rows], cost) / 600
    assert value == pytest.approx(oracle, abs=1e-9)


def test_remd_cost_matrix_built_once_per_spec(monkeypatch):
    import swnopt.distances

    calls = []
    original = swnopt.distances.levenshtein_cost_matrix

    def counting(rows, cols):
        calls.append(len(rows))
        return original(rows, cols)

    monkeypatch.setattr(swnopt.distances, "levenshtein_cost_matrix", counting)
    spec = _pc_spec("remd")
    built = len(calls)
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert 0.0 <= evaluate_objective(spec, rng.uniform(0.1, 1.0, size=spec.n_weights)) <= 1.0
    assert len(calls) == built


def test_scale_gauge_invariance():
    for measure in ("lh", "remd"):
        spec = _pc_spec(measure)
        base = np.array([0.9, 0.2, 0.5, 0.31, 0.77])
        reference = evaluate_objective(spec, base)
        for c in (0.1, 1.0, 10.0):
            assert abs(evaluate_objective(spec, c * base) - reference) <= 1e-10


def test_select_start_returns_single_draw_for_n0_1():
    spec = _pc_spec("lh")
    config = OptimizerConfig(n0=1, seed=123)
    start = select_start(spec, config)
    assert np.allclose(start, draw_starts(spec, config)[0])


def test_select_start_is_argmin_and_deterministic():
    spec = _pc_spec("lh")
    config = OptimizerConfig(n0=10, seed=7)
    start1 = select_start(spec, config)
    start2 = select_start(spec, config)
    assert start1.tolist() == start2.tolist()
    values = [evaluate_objective(spec, row) for row in draw_starts(spec, config)]
    assert evaluate_objective(spec, start1) == min(values)


def test_select_start_tie_break_earliest_draw():
    # single-transition net: every weight vector induces the same language,
    # so the objective is constant and the first draw must win
    spec = ObjectiveSpec.for_net("lh", single_transition_wn(), StochasticLanguage({("a",): 1.0}))
    config = OptimizerConfig(n0=8, seed=3)
    start = select_start(spec, config)
    assert np.allclose(start, draw_starts(spec, config)[0])


def test_all_starts_invalid():
    spec = ObjectiveSpec.for_net("remd", single_transition_wn(), StochasticLanguage({("b",): 1.0}))
    with pytest.raises(AllStartsInvalid):
        select_start(spec, OptimizerConfig(n0=5, seed=1))


def test_zero_model_mass_scored_as_large_value():
    target = StochasticLanguage({("b",): 1.0})
    spec = ObjectiveSpec.for_net("remd", single_transition_wn(), target)
    from swnopt.distances import P_CLAMP
    from swnopt.optimize import _score

    assert _score(spec, np.ones(1)) == INVALID_OBJECTIVE
    # lh follows the same zero-mass rule
    assert _score(ObjectiveSpec.for_net("lh", single_transition_wn(), target), np.ones(1)) == INVALID_OBJECTIVE
    # a log the net partly produces keeps a finite lh: the missed trace is clamped
    partial = StochasticLanguage({("a",): 0.5, ("b",): 0.5})
    lh = _score(ObjectiveSpec.for_net("lh", single_transition_wn(), partial), np.ones(1))
    assert lh == pytest.approx(-0.5 * math.log(P_CLAMP))
    assert lh < INVALID_OBJECTIVE


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: f"{m}-{METHODS[m]}")
def test_minimize_reaches_reference_optima(measure):
    spec = _pc_spec(measure)
    config = OptimizerConfig(n0=10, max_iter=50, delta=1e-3, seed=42)
    result = optimized_weights(spec, config)
    if measure == "lh":
        assert result.final_value <= ENTROPY_FLOOR + 1e-3
    else:
        assert result.final_value <= 1e-3
    values = [v for _, v in result.trace]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert result.final_value == values[-1]
    assert result.iterations == len(values) - 1
    assert result.weights.max() == pytest.approx(1.0)
    assert not result.weights.flags.writeable


def _two_loop_spec(measure):
    return ObjectiveSpec.for_net(measure, two_loop_wn(), log_language(two_loop_log()))


@pytest.mark.parametrize(
    "make_spec,config",
    [
        # Powell under bounds returns an iterate (1.693e-6) above a point it evaluated (1.606e-6)
        (lambda: _pc_spec("remd"), OptimizerConfig(n0=3, max_iter=6, delta=1e-3, seed=1)),
        (lambda: _pc_spec("lh"), OptimizerConfig(n0=3, max_iter=6, delta=1e-3, seed=1)),
        (lambda: _two_loop_spec("lh"), OptimizerConfig(max_iter=1, seed=42)),
    ],
    ids=["pc-remd", "pc-lh", "two-loop-lh"],
)
def test_minimize_reports_lowest_evaluated_value(monkeypatch, make_spec, config):
    seen = []
    original = swnopt.optimize._score

    def recording(s, weights, gradient=False):
        out = original(s, weights, gradient)
        seen.append(out[0] if gradient else out)
        return out

    spec = make_spec()
    w0 = select_start(spec, config)
    monkeypatch.setattr(swnopt.optimize, "_score", recording)  # record the minimization's points only
    result = minimize(spec, w0, config)
    values = [v for _, v in result.trace]
    assert result.final_value == min(seen)
    assert values[0] == seen[0]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == result.final_value
    assert evaluate_objective(spec, result.weights) == pytest.approx(result.final_value, rel=1e-9, abs=1e-12)


def test_two_loop_reaches_reference_values_at_benchmark_seed():
    config = OptimizerConfig(n0=10, max_iter=50, delta=1e-3, seed=42)
    assert optimized_weights(_two_loop_spec("lh"), config).final_value <= 3.93
    assert optimized_weights(_two_loop_spec("remd"), config).final_value <= 1e-4


def test_max_iter_one_stops_after_one_iteration():
    result = optimized_weights(_two_loop_spec("lh"), OptimizerConfig(max_iter=1, seed=42))
    assert result.stop_reason == "MaxIter"
    assert result.iterations == 1
    assert len(result.trace) == 2


def test_minimize_constant_objective_stops_without_moving():
    spec = ObjectiveSpec.for_net("lh", single_transition_wn(), StochasticLanguage({("a",): 1.0}))
    w0 = [0.5]
    result = minimize(spec, w0, OptimizerConfig(n0=1, max_iter=1, seed=0))
    assert result.stop_reason in ("MaxIter", "NoImprovement", "DeltaConverged")
    assert result.iterations <= 1
    # the reported weights are the (gauge-fixed) start
    assert result.weights.tolist() == [1.0]
    assert result.final_value == 0.0  # the single trace has probability 1


def test_minimize_never_worse_than_start():
    for measure in ("lh", "remd"):
        spec = _pc_spec(measure)
        rng = np.random.default_rng(9)
        for _ in range(3):
            w0 = rng.uniform(0.05, 1.0, 5)
            start_value = evaluate_objective(spec, w0)
            result = minimize(spec, w0, OptimizerConfig(max_iter=5, seed=0))
            assert result.final_value <= start_value + 1e-12


def test_optimized_weights_deterministic():
    spec = _pc_spec("remd")
    config = OptimizerConfig(n0=10, max_iter=20, delta=1e-3, seed=42)
    r1 = optimized_weights(spec, config)
    r2 = optimized_weights(spec, config)
    assert r1.trace == r2.trace  # bitwise-equal values
    assert r1.weights.tolist() == r2.weights.tolist()
    assert r1.stop_reason == r2.stop_reason


def test_two_loop_lh_improves_on_uniform_weights():
    spec = _two_loop_spec("lh")
    uniform_value = evaluate_objective(spec, np.ones(9))
    result = optimized_weights(spec, OptimizerConfig(n0=10, max_iter=50, delta=1e-3, seed=5))
    assert result.final_value <= uniform_value


def test_gradient_second_order_decay():
    # central differences err ~ h^2: against a near-exact reference gradient
    # (h = 1e-5), halving h from 1e-2 must shrink the error about fourfold
    spec = _pc_spec("lh")

    def f(x):
        return evaluate_objective(spec, np.exp(x))

    def central(x, h):
        g = np.empty_like(x)
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            g[i] = (f(xp) - f(xm)) / (2 * h)
        return g

    rng = np.random.default_rng(7)
    for _ in range(10):
        x = np.log(rng.uniform(0.2, 1.0, 5))
        reference = central(x, 1e-5)
        e1 = np.linalg.norm(central(x, 1e-2) - reference)
        e2 = np.linalg.norm(central(x, 5e-3) - reference)
        assert e2 > 0
        assert 3.2 <= e1 / e2 <= 4.8


def test_trace_csv_format():
    spec = _pc_spec("lh")
    result = optimized_weights(spec, OptimizerConfig(n0=2, max_iter=5, seed=0))
    csv = result.trace_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "iteration,value"
    assert lines[1].startswith("0,")
    assert len(lines) == len(result.trace) + 1
    value = float(lines[-1].split(",")[1])
    assert value == result.final_value


def test_convergence_traces_non_increasing_many_seeds():
    pc_lh = _pc_spec("lh")
    for seed in range(1, 6):
        result = optimized_weights(pc_lh, OptimizerConfig(n0=5, max_iter=15, seed=seed))
        values = [v for _, v in result.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))


# --- exact lh gradient ------------------------------------------------------


def _treegen_lh_spec(seed):
    """lh spec on a 30-50 transition generated net; the target is the top 40
    traces of its language under uniform weights, renormalized."""
    wn = random_swn(random.Random(seed), 50, True, min_activities=10, min_transitions=30).wn
    rg = build_rg(wn)
    language = unfold_language(annotate(rg, np.ones(len(wn.net.transitions))), coverage=0.95, max_trace_len=20)
    top = sorted(language.probs.items(), key=lambda kv: -kv[1])[:40]
    mass = sum(p for _, p in top)
    return ObjectiveSpec(measure="lh", rg=rg, target=StochasticLanguage({t: p / mass for t, p in top}))


def _has_cycle(rg):
    indegree = np.bincount([d for row in rg.out_arcs for _, d, _ in row], minlength=rg.n_states)
    ready = [s for s in range(rg.n_states) if indegree[s] == 0]
    removed = 0
    while ready:
        s = ready.pop()
        removed += 1
        for _, d, _ in rg.out_arcs[s]:
            indegree[d] -= 1
            if indegree[d] == 0:
                ready.append(d)
    return removed < rg.n_states


_GRADIENT_SPECS = {
    "parallel-choice": lambda: _pc_spec("lh"),
    "two-loop": lambda: _two_loop_spec("lh"),
    **{f"treegen-{seed}": (lambda seed=seed: _treegen_lh_spec(seed)) for seed in (1, 2, 3)},
}


def _central(spec, x, h=1e-6):
    grad = np.empty_like(x)
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (evaluate_objective(spec, np.exp(up)) - evaluate_objective(spec, np.exp(down))) / (2 * h)
    return grad


@pytest.mark.parametrize("name", list(_GRADIENT_SPECS))
def test_lh_gradient_matches_central_differences(name):
    spec = _GRADIENT_SPECS[name]()
    if name.startswith("treegen"):  # the nets the adjoint must handle: silent arcs inside cycles
        assert any(label is None for label in spec.rg.wn.net.labeling.values())
        assert _has_cycle(spec.rg)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = np.log(rng.uniform(0.05, 1.0, spec.n_weights))
        assert min(spec._product.probabilities(annotate(spec.rg, np.exp(x))).values()) > 1e3 * P_CLAMP
        value, grad = evaluate_objective(spec, np.exp(x), gradient=True)
        assert value == evaluate_objective(spec, np.exp(x))  # bit for bit
        reference = _central(spec, x)
        assert np.max(np.abs(grad - reference)) <= 1e-6 * np.max(np.abs(reference))


@pytest.fixture
def splu_calls(monkeypatch):
    """A list that grows by one per sparse LU factorization of a trace-probability solve."""
    calls = []
    original = swnopt.unfolding.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(swnopt.unfolding, "splu", counting)
    return calls


def test_lh_value_and_gradient_factors_once(splu_calls):
    spec = _treegen_lh_spec(1)
    evaluate_objective(spec, np.ones(spec.n_weights), gradient=True)
    assert len(splu_calls) == 1


def test_clamped_target_trace_contributes_no_gradient():
    assert log_likelihood_gradient(StochasticLanguage({("a",): 0.5, ("b",): 0.5}), {("a",): 1e-13, ("b",): 0.25}) == {
        ("a",): 0.0,
        ("b",): -2.0,
    }
    # d nearly never fires, so ⟨a,b,d⟩ and ⟨a,d,b⟩ sit below P_CLAMP: their
    # clamped terms are constant, and the d component is left near zero
    spec = _pc_spec("lh")
    x = np.log(np.array([1.0, 0.3, 0.35, 1e-14, 1.0]))
    probs = spec._product.probabilities(annotate(spec.rg, np.exp(x)))
    assert probs[("a", "b", "d")] < P_CLAMP and probs[("a", "d", "b")] < P_CLAMP
    _, grad = evaluate_objective(spec, np.exp(x), gradient=True)
    reference = _central(spec, x)
    assert np.max(np.abs(grad - reference)) <= 1e-6 * np.max(np.abs(reference))
    assert abs(grad[3]) <= 1e-9


def _failing_far_from_start(monkeypatch, radius):
    """Make the trace-probability solve raise IllConditioned once any arc
    probability moves more than ``radius`` from the first one it solves for."""
    state = {"start": None, "raised": 0}
    original = PrefixProduct.probabilities_with_pullback

    def solve(self, arg):
        if state["start"] is None:
            state["start"] = arg.arc_prob.copy()
        if np.max(np.abs(arg.arc_prob - state["start"])) > radius:
            state["raised"] += 1
            raise IllConditioned("test: beyond the trust radius")
        return original(self, arg)

    monkeypatch.setattr(PrefixProduct, "probabilities_with_pullback", solve)
    return state


def test_lh_minimize_survives_invalid_line_search_trials(monkeypatch):
    spec = _two_loop_spec("lh")
    w0 = np.random.default_rng(1).uniform(0.2, 1.0, spec.n_weights)
    radius = 0.05
    state = _failing_far_from_start(monkeypatch, radius)
    result = minimize(spec, w0, OptimizerConfig(max_iter=20, seed=0))
    assert state["raised"] > 0
    assert math.isfinite(result.final_value) and result.final_value < INVALID_OBJECTIVE
    assert result.final_value < evaluate_objective(spec, w0)
    reached = annotate(spec.rg, result.weights).arc_prob
    assert np.max(np.abs(reached - state["start"])) <= radius
    assert evaluate_objective(spec, result.weights) == pytest.approx(result.final_value, rel=1e-9)


def test_lh_non_finite_gradient_is_scored_invalid(monkeypatch):
    spec = _two_loop_spec("lh")
    original = swnopt.optimize.log_weight_gradient
    calls = []

    def poisoned(arg, arc_grad):
        calls.append(1)
        grad = original(arg, arc_grad)
        return grad if len(calls) % 3 else np.full_like(grad, np.nan)

    monkeypatch.setattr(swnopt.optimize, "log_weight_gradient", poisoned)
    weights = np.ones(spec.n_weights)
    assert swnopt.optimize._score(spec, weights, gradient=True)[0] < INVALID_OBJECTIVE
    assert swnopt.optimize._score(spec, weights, gradient=True)[0] < INVALID_OBJECTIVE
    value, grad = swnopt.optimize._score(spec, weights, gradient=True)
    assert value == INVALID_OBJECTIVE
    assert np.array_equal(grad, np.zeros(spec.n_weights))

    returned = []
    checked = swnopt.optimize._score

    def recording(s, point, gradient=False):
        returned.append(checked(s, point, gradient))
        return returned[-1]

    monkeypatch.setattr(swnopt.optimize, "_score", recording)
    w0 = np.random.default_rng(1).uniform(0.2, 1.0, spec.n_weights)
    result = minimize(spec, w0, OptimizerConfig(max_iter=20, seed=0))
    assert any(value == INVALID_OBJECTIVE for value, _ in returned)
    assert all(np.all(np.isfinite(grad)) for _, grad in returned)
    assert math.isfinite(result.final_value) and result.final_value < evaluate_objective(spec, w0)


def test_two_loop_lh_needs_few_factorizations(splu_calls):
    # one splu per value-and-gradient point; 3-point differences needed 315
    result = optimized_weights(_two_loop_spec("lh"), OptimizerConfig(n0=10, max_iter=50, delta=1e-3, seed=42))
    assert len(splu_calls) <= 40
    assert result.final_value <= 3.93


def test_remd_has_no_gradient():
    spec = _pc_spec("remd")
    with pytest.raises(ValueError):
        evaluate_objective(spec, np.ones(spec.n_weights), gradient=True)


@pytest.fixture
def objective_calls(monkeypatch):
    """The weights of every evaluate_objective call, in call order."""
    calls = []
    original = swnopt.optimize.evaluate_objective

    def recording(spec, weights, *args, **kwargs):
        calls.append(np.array(weights, dtype=np.float64))
        return original(spec, weights, *args, **kwargs)

    monkeypatch.setattr(swnopt.optimize, "evaluate_objective", recording)
    return calls


@pytest.mark.parametrize("measure", MEASURES)
def test_minimize_scores_start_once(objective_calls, measure):
    spec = _two_loop_spec(measure)
    w0 = np.random.default_rng(1).uniform(0.2, 1.0, spec.n_weights)
    result = minimize(spec, w0, OptimizerConfig(max_iter=5, seed=0))
    start = np.exp(np.log(w0))
    assert np.array_equal(objective_calls[0], start)
    assert sum(np.array_equal(w, start) for w in objective_calls) == 1
    assert result.trace[0] == (0, evaluate_objective(spec, w0))


@pytest.mark.parametrize("measure", MEASURES)
def test_every_factorization_is_one_objective_call(objective_calls, splu_calls, measure):
    optimized_weights(_two_loop_spec(measure), OptimizerConfig(n0=5, max_iter=10, seed=42))
    assert len(objective_calls) > 5
    assert len(objective_calls) == len(splu_calls)
