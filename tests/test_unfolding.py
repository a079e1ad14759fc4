import random

import numpy as np
import pytest

from swnopt.semantics import annotate, build_rg
from swnopt.unfolding import PrefixIndex, trace_probabilities, unfold_language

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


def test_prefix_index_basics():
    idx = PrefixIndex([("a", "b"), ("a", "c", "d"), ("a", "b")])
    assert len(idx) == 2
    assert idx.max_trace_len == 3
    with pytest.raises(ValueError):
        PrefixIndex([])


def test_prefix_index_with_empty_trace_member():
    idx = PrefixIndex([()])
    assert len(idx) == 1
    assert idx.max_trace_len == 0


def test_parallel_choice_exact_probabilities():
    result = trace_probabilities(_annotated(parallel_choice_swn()), PrefixIndex(PARALLEL_CHOICE_PROBS))
    assert result.dropped_mass == 0.0
    assert set(result.probs) == set(PARALLEL_CHOICE_PROBS)
    for trace, expected in PARALLEL_CHOICE_PROBS.items():
        assert abs(result.probs[trace] - expected) <= 1e-12


def test_single_transition_net():
    from swnopt.nets import StochasticWorkflowNet

    swn = StochasticWorkflowNet(single_transition_wn(), {"a": 2.5})
    result = trace_probabilities(_annotated(swn), PrefixIndex([("a",)]))
    assert result.probs == {("a",): 1.0}
    assert result.dropped_mass == 0.0


def test_two_loop_closed_forms_at_unit_weights():
    swn = two_loop_swn(1.0)
    result = trace_probabilities(_annotated(swn), PrefixIndex([("Q", "A"), ("A", "A")]))
    assert result.probs[("Q", "A")] == pytest.approx(1 / 27, rel=1e-12)
    assert result.probs[("A", "A")] == pytest.approx(11 / 81, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_two_loop_closed_forms_at_random_weights(seed):
    rng = random.Random(seed)
    wn = two_loop_swn(1.0).wn
    weights = {t: rng.uniform(0.05, 5.0) for t in wn.net.transitions}
    result = trace_probabilities(_annotated(two_loop_swn(weights)), PrefixIndex([("Q", "A"), ("A", "A")]))
    assert result.probs[("Q", "A")] == pytest.approx(closed_form_qa(weights), rel=1e-9)
    assert result.probs[("A", "A")] == pytest.approx(closed_form_aa(weights), rel=1e-9)


def test_unreachable_target_is_simply_absent():
    result = trace_probabilities(_annotated(parallel_choice_swn()), PrefixIndex([("b", "a")]))
    assert result.probs == {}
    assert result.dropped_mass == 0.0  # paths died by prefix filtering, not budgets


def test_dropped_mass_accounts_level_cutoff():
    from swnopt.nets import StochasticWorkflowNet

    swn = StochasticWorkflowNet(
        silent_livelock_wn(),
        {"t_in": 1.0, "t_go": 9.0, "t_back": 1.0, "emit": 1.0, "t_out": 1.0},
    )
    full = trace_probabilities(_annotated(swn), PrefixIndex([("a",)]), max_level=600)
    assert full.probs[("a",)] == pytest.approx(1.0, abs=1e-9)

    cut = trace_probabilities(_annotated(swn), PrefixIndex([("a",)]), max_level=4)
    assert cut.dropped_mass > 0.1
    assert cut.probs[("a",)] < 1.0
    assert cut.probs[("a",)] + cut.dropped_mass <= 1.0 + 1e-9
    assert cut.levels_explored <= 5


def test_prob_floor_moves_mass_to_dropped():
    arg = _annotated(parallel_choice_swn())
    result = trace_probabilities(arg, PrefixIndex(PARALLEL_CHOICE_PROBS), prob_floor=0.5)
    assert result.probs == {}
    assert result.dropped_mass == pytest.approx(1.0)


def test_unfold_language_level_cutoff_moves_mass_to_residual():
    from swnopt.nets import StochasticWorkflowNet

    swn = StochasticWorkflowNet(
        silent_livelock_wn(),
        {"t_in": 1.0, "t_go": 9.0, "t_back": 1.0, "emit": 1.0, "t_out": 1.0},
    )
    cut = unfold_language(_annotated(swn), coverage=1.0, max_level=4)
    assert cut.residual > 0.1
    assert cut.probs[("a",)] < 1.0
    assert sum(cut.probs.values()) + cut.residual == pytest.approx(1.0, abs=1e-12)


def test_unfold_language_prob_floor_moves_mass_to_residual():
    lang = unfold_language(_annotated(parallel_choice_swn()), coverage=1.0, prob_floor=0.5)
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
        restricted = trace_probabilities(arg, PrefixIndex(some))
        for trace in some:
            assert restricted.probs[trace] == full.probs[trace]  # exact float equality


def test_probability_conservation_on_acyclic_nets():
    for seed in range(25):
        swn = random_swn(random.Random(1000 + seed), max_transitions=8, allow_loops=False)
        lang = unfold_language(_annotated(swn), coverage=1.0)
        assert lang.residual <= 1e-9
        assert abs(lang.mass() - 1.0) <= 1e-9


def test_weight_scaling_leaves_unfolding_unchanged():
    wn = two_loop_swn(1.0).wn
    base = {t: w for t, w in zip(wn.net.transitions, (0.4, 1.7, 0.8, 2.0, 1.0, 0.6, 1.2, 3.0, 0.5))}
    targets = PrefixIndex([("A", "A"), ("Q", "A"), ("A", "A", "A")])
    reference = trace_probabilities(_annotated(two_loop_swn(base)), targets)
    for c in (0.1, 10.0, 1000.0):
        scaled = trace_probabilities(
            _annotated(two_loop_swn({t: w * c for t, w in base.items()})), targets
        )
        for trace, p in reference.probs.items():
            assert scaled.probs[trace] == pytest.approx(p, rel=1e-12)


def test_monte_carlo_agreement_two_loop():
    swn = two_loop_swn({"t1": 1.2, "t2": 0.7, "t3": 1.0, "t4": 1.0, "t5": 0.9,
                        "t6": 1.4, "t7": 0.8, "tA": 1.1, "tQ": 1.3})
    targets = [("A", "A"), ("Q", "A"), ("A", "A", "A")]
    result = trace_probabilities(_annotated(swn), PrefixIndex(targets))
    n = 200_000
    counts = simulate_target_frequencies(swn, targets, n_runs=n, seed=99)
    for trace in targets:
        p = result.probs.get(trace, 0.0)
        phat = counts[trace] / n
        sigma = np.sqrt(max(phat * (1 - phat), 1e-12) / n)
        assert abs(p - phat) <= 3.3 * sigma, (trace, p, phat)
