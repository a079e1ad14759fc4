import random

import numpy as np
import pytest

from swnopt import unfolding
from swnopt.logs import StochasticLanguage
from swnopt.nets import LabeledPetriNet, StochasticWorkflowNet, validate_workflow
from swnopt.optimize import INVALID_OBJECTIVE, ObjectiveSpec, _score, evaluate_objective
from swnopt.semantics import annotate, build_rg
from swnopt.unfolding import (
    IllConditioned,
    PrefixCapExceeded,
    PrefixProduct,
    trace_probabilities,
    unfold_language,
)

from .fixtures import (
    PARALLEL_CHOICE_PROBS,
    closed_form_aa,
    closed_form_qa,
    parallel_choice_swn,
    silent_livelock_wn,
    single_transition_wn,
    two_loop_swn,
)
from .sim import simulate_target_frequencies
from .treegen import random_swn


def _annotated(swn):
    rg = build_rg(swn.wn)
    return annotate(rg, swn.weight_vector())


def test_trace_probabilities_collapses_duplicate_targets():
    arg = _annotated(parallel_choice_swn())
    once = trace_probabilities(arg, [("a", "b", "c"), ("a", "c", "b")])
    twice = trace_probabilities(arg, [("a", "b", "c"), ("a", "c", "b"), ["a", "b", "c"]])
    assert twice == once
    assert list(twice) == [("a", "b", "c"), ("a", "c", "b")]


def test_trace_probabilities_empty_trace_target():
    # the parallel-choice net cannot finish without an event; a net with only
    # silent transitions gives the empty trace probability one
    assert trace_probabilities(_annotated(parallel_choice_swn()), [()]) == {}
    net = LabeledPetriNet(
        places=("source", "sink"),
        transitions=("t",),
        flow={("source", "t"): 1, ("t", "sink"): 1},
        labeling={"t": None},
        initial_marking={"source": 1},
    )
    swn = StochasticWorkflowNet(validate_workflow(net, "source", "sink"), {"t": 1.0})
    assert trace_probabilities(_annotated(swn), [(), ("a",)]) == {(): 1.0}


def test_trace_probabilities_empty_target_set_raises():
    arg = _annotated(parallel_choice_swn())
    with pytest.raises(ValueError, match="non-empty"):
        trace_probabilities(arg, [])
    with pytest.raises(ValueError, match="non-empty"):
        trace_probabilities(arg, iter(()))


def test_parallel_choice_exact_probabilities():
    result = trace_probabilities(_annotated(parallel_choice_swn()), PARALLEL_CHOICE_PROBS)
    assert set(result) == set(PARALLEL_CHOICE_PROBS)
    for trace, expected in PARALLEL_CHOICE_PROBS.items():
        assert abs(result[trace] - expected) <= 1e-12


def test_single_transition_net():
    from swnopt.nets import StochasticWorkflowNet

    swn = StochasticWorkflowNet(single_transition_wn(), {"a": 2.5})
    result = trace_probabilities(_annotated(swn), [("a",)])
    assert result == {("a",): 1.0}


def test_two_loop_closed_forms_at_unit_weights():
    swn = two_loop_swn(1.0)
    result = trace_probabilities(_annotated(swn), [("Q", "A"), ("A", "A")])
    assert result[("Q", "A")] == pytest.approx(1 / 27, rel=1e-12)
    assert result[("A", "A")] == pytest.approx(11 / 81, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_two_loop_closed_forms_at_random_weights(seed):
    rng = random.Random(seed)
    wn = two_loop_swn(1.0).wn
    weights = {t: rng.uniform(0.05, 5.0) for t in wn.net.transitions}
    result = trace_probabilities(_annotated(two_loop_swn(weights)), [("Q", "A"), ("A", "A")])
    assert result[("Q", "A")] == pytest.approx(closed_form_qa(weights), rel=1e-9)
    assert result[("A", "A")] == pytest.approx(closed_form_aa(weights), rel=1e-9)


def test_unreachable_target_is_simply_absent():
    result = trace_probabilities(_annotated(parallel_choice_swn()), [("b", "a")])
    assert result == {}


def _livelock(w_go: float) -> StochasticWorkflowNet:
    return StochasticWorkflowNet(
        silent_livelock_wn(), {"t_in": 1.0, "t_go": w_go, "t_back": 1.0, "emit": 1.0, "t_out": 1.0}
    )


@pytest.mark.parametrize("w_go", [1.0, 20.0, 200.0])
def test_silent_livelock_is_exact(w_go):
    # the silent cycle is left with probability 1 / (1 + w_go) per visit, so
    # <a> is certain; the level-budgeted sweep gave 0.969 / 0.216 / 0.025
    result = trace_probabilities(_annotated(_livelock(w_go)), [("a",)])
    assert result[("a",)] == pytest.approx(1.0, abs=1e-12)


def test_exitless_silent_cycle_is_pruned():
    # source -τ-> p; p -a-> x -τ-> sink; p -τ-> q, a silent 2-cycle q <-> r whose
    # only exit (q, x) -τ-> sink can never fire: without pruning the solve is singular
    net = LabeledPetriNet(
        places=("source", "p", "x", "q", "r", "sink"),
        transitions=("t_in", "emit", "t_out", "t_trap", "t_qr", "t_rq", "t_exit"),
        flow={
            ("source", "t_in"): 1, ("t_in", "p"): 1,
            ("p", "emit"): 1, ("emit", "x"): 1, ("x", "t_out"): 1, ("t_out", "sink"): 1,
            ("p", "t_trap"): 1, ("t_trap", "q"): 1,
            ("q", "t_qr"): 1, ("t_qr", "r"): 1, ("r", "t_rq"): 1, ("t_rq", "q"): 1,
            ("q", "t_exit"): 1, ("x", "t_exit"): 1, ("t_exit", "sink"): 1,
        },
        labeling={t: None for t in ("t_in", "t_out", "t_trap", "t_qr", "t_rq", "t_exit")} | {"emit": "a"},
        initial_marking={"source": 1},
    )
    weights = {"t_in": 1.0, "emit": 2.0, "t_out": 1.0, "t_trap": 3.0, "t_qr": 1.0, "t_rq": 1.0, "t_exit": 1.0}
    swn = StochasticWorkflowNet(validate_workflow(net, "source", "sink"), weights)
    result = trace_probabilities(_annotated(swn), [("a",)])
    assert result[("a",)] == pytest.approx(0.4, abs=1e-12)


def test_escape_below_float_precision_scores_invalid():
    with pytest.raises(IllConditioned):
        trace_probabilities(_annotated(_livelock(1e18)), [("a",)])
    spec = ObjectiveSpec.for_net("lh", silent_livelock_wn(), StochasticLanguage({("a",): 1.0}))
    weights = np.array([1.0, 1e18, 1.0, 1.0, 1.0])
    assert _score(spec, weights) == INVALID_OBJECTIVE
    value, grad = _score(spec, weights, gradient=True)
    assert value == INVALID_OBJECTIVE and np.array_equal(grad, np.zeros(5))


def test_product_built_once_per_spec(monkeypatch):
    calls = []
    original = PrefixProduct.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PrefixProduct, "__init__", counting)
    swn = two_loop_swn(1.0)
    spec = ObjectiveSpec.for_net("lh", swn.wn, StochasticLanguage({("Q", "A"): 0.5, ("A", "A"): 0.5}))
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert evaluate_objective(spec, rng.uniform(0.1, 1.0, size=spec.n_weights)) > 0.0
    assert len(calls) == 1


def test_unfold_language_prefix_cap(monkeypatch):
    monkeypatch.setattr(unfolding, "MAX_PREFIXES", 50)
    with pytest.raises(PrefixCapExceeded, match="--coverage.*--max-trace-len"):
        unfold_language(_annotated(two_loop_swn(1.0)), coverage=1.0)


def test_unfold_language_level_cutoff_moves_mass_to_residual():
    # the derived level budget cuts the silent livelock's slow escape
    cut = unfold_language(_annotated(_livelock(9.0)), coverage=1.0)
    assert cut.residual > 0.1
    assert cut.probs[("a",)] < 1.0
    assert sum(cut.probs.values()) + cut.residual == pytest.approx(1.0, abs=1e-12)


def test_unfold_language_prob_floor_moves_mass_to_residual(monkeypatch):
    monkeypatch.setattr(unfolding, "PROB_FLOOR", 0.5)
    lang = unfold_language(_annotated(parallel_choice_swn()), coverage=1.0)
    assert lang.probs == {}
    assert lang.residual == pytest.approx(1.0)


def test_unfold_language_complete_reference():
    lang = unfold_language(_annotated(parallel_choice_swn()), coverage=1.0)
    assert lang.residual == 0.0
    for trace, expected in PARALLEL_CHOICE_PROBS.items():
        assert abs(lang.probs[trace] - expected) <= 1e-12


def test_unfold_language_single_transition_low_coverage():
    from swnopt.nets import StochasticWorkflowNet

    swn = StochasticWorkflowNet(single_transition_wn(), {"a": 1.0})
    lang = unfold_language(_annotated(swn), coverage=0.5)
    assert lang.probs == {("a",): 1.0}
    assert lang.residual == 0.0


def test_unfold_language_coverage_stop_on_infinite_language():
    lang = unfold_language(_annotated(two_loop_swn(1.0)), coverage=0.5)
    mass = lang.mass()
    assert mass >= 0.5
    assert mass < 1.0  # the language is infinite; full mass is unreachable
    assert lang.residual == pytest.approx(1.0 - mass, abs=1e-9)


def test_unfold_language_respects_trace_length_budget():
    lang = unfold_language(_annotated(two_loop_swn(1.0)), coverage=1.0, max_trace_len=3)
    assert all(len(t) <= 3 for t in lang.probs)
    assert lang.residual > 0.0


def test_unfold_language_validates_budgets():
    arg = _annotated(parallel_choice_swn())
    with pytest.raises(ValueError):
        unfold_language(arg, coverage=0.0)
    with pytest.raises(ValueError):
        unfold_language(arg, coverage=1.5)
    with pytest.raises(ValueError):
        unfold_language(arg, coverage=0.5, max_trace_len=0)


def test_restriction_consistency_exact():
    # restricted unfolding must equal the full unfolding filtered to the
    # targets, bit for bit, because dropped branches never feed kept keys
    for seed in range(10):
        swn = random_swn(random.Random(seed), max_transitions=8, allow_loops=False)
        arg = _annotated(swn)
        if arg.rg.n_states > 10:
            continue
        full = unfold_language(arg, coverage=1.0)
        support = tuple(full.probs)
        if not support:
            continue
        some = support[: max(1, len(support) // 2)]
        restricted = trace_probabilities(arg, some)
        for trace in some:
            assert restricted[trace] == full.probs[trace]  # exact float equality


def test_probability_conservation_on_acyclic_nets():
    for seed in range(25):
        swn = random_swn(random.Random(1000 + seed), max_transitions=8, allow_loops=False)
        lang = unfold_language(_annotated(swn), coverage=1.0)
        assert lang.residual <= 1e-9
        assert abs(lang.mass() - 1.0) <= 1e-9


def test_weight_scaling_leaves_unfolding_unchanged():
    wn = two_loop_swn(1.0).wn
    base = {t: w for t, w in zip(wn.net.transitions, (0.4, 1.7, 0.8, 2.0, 1.0, 0.6, 1.2, 3.0, 0.5))}
    targets = [("A", "A"), ("Q", "A"), ("A", "A", "A")]
    reference = trace_probabilities(_annotated(two_loop_swn(base)), targets)
    for c in (0.1, 10.0, 1000.0):
        scaled = trace_probabilities(
            _annotated(two_loop_swn({t: w * c for t, w in base.items()})), targets
        )
        for trace, p in reference.items():
            assert scaled[trace] == pytest.approx(p, rel=1e-12)


def test_monte_carlo_agreement_two_loop():
    swn = two_loop_swn({"t1": 1.2, "t2": 0.7, "t3": 1.0, "t4": 1.0, "t5": 0.9,
                        "t6": 1.4, "t7": 0.8, "tA": 1.1, "tQ": 1.3})
    targets = [("A", "A"), ("Q", "A"), ("A", "A", "A")]
    result = trace_probabilities(_annotated(swn), targets)
    n = 200_000
    counts = simulate_target_frequencies(swn, targets, n_runs=n, seed=99)
    for trace in targets:
        p = result.get(trace, 0.0)
        phat = counts[trace] / n
        sigma = np.sqrt(max(phat * (1 - phat), 1e-12) / n)
        assert abs(p - phat) <= 3.3 * sigma, (trace, p, phat)
