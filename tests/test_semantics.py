import random

import numpy as np
import pytest

from swnopt import semantics
from swnopt.nets import LabeledPetriNet, validate_workflow
from swnopt.semantics import (
    NotEnabled,
    NotOneSafe,
    StateCapExceeded,
    annotate,
    build_rg,
    enabled,
    fire,
    rg_to_dot,
)

from .fixtures import parallel_choice_wn, single_transition_wn, two_loop_wn
from .treegen import random_swn, random_workflow_net


def test_enabled_reference_markings():
    wn = parallel_choice_wn()
    assert enabled(frozenset({"p2", "p3"}), wn) == {"b", "c", "d"}
    assert enabled(frozenset({"sink"}), wn) == set()
    assert enabled(frozenset({"source"}), wn) == {"a"}


def test_fire_reference_markings():
    wn = parallel_choice_wn()
    assert fire(frozenset({"source"}), "a", wn) == {"p2", "p3"}
    assert fire(frozenset({"p2", "p3"}), "b", wn) == {"p4", "p3"}
    with pytest.raises(NotEnabled):
        fire(frozenset({"source"}), "b", wn)
    with pytest.raises(NotEnabled):
        fire(frozenset({"source"}), "ghost", wn)


def test_token_game_agrees_with_the_reachability_graph():
    for seed in range(20):
        wn = random_workflow_net(random.Random(seed), max_transitions=12, allow_loops=True)
        rg = build_rg(wn)
        names = wn.net.transitions
        for s in range(rg.n_states):
            marking = rg.marking_of(s)
            assert enabled(marking, wn) == {names[rg.arc_tid[a]] for a, _, _ in rg.out_arcs[s]}
            for a, dst, _ in rg.out_arcs[s]:
                assert fire(marking, names[rg.arc_tid[a]], wn) == rg.marking_of(dst)


def test_marking_with_a_place_outside_the_net_is_rejected():
    wn = parallel_choice_wn()
    with pytest.raises(ValueError, match="ghost"):
        enabled(frozenset({"source", "ghost"}), wn)
    with pytest.raises(ValueError, match="ghost"):
        fire(frozenset({"source", "ghost"}), "a", wn)


def test_token_game_requires_unit_arcs():
    net = LabeledPetriNet(
        places=("source", "p", "sink"),
        transitions=("t1", "t2"),
        flow={("source", "t1"): 1, ("t1", "p"): 1, ("p", "t2"): 2, ("t2", "sink"): 1},
        labeling={"t1": "a", "t2": "b"},
        initial_marking={"source": 1},
    )
    with pytest.raises(ValueError, match="unit arc"):
        fire(frozenset({"source"}), "t1", net)
    with pytest.raises(ValueError, match="unit arc"):
        enabled(frozenset({"source"}), net)


def test_fire_detects_one_safety_violation():
    net = LabeledPetriNet(
        places=("source", "p", "q", "sink"),
        transitions=("t1", "t2", "t3"),
        flow={
            ("source", "t1"): 1,
            ("t1", "p"): 1,
            ("t1", "q"): 1,
            ("q", "t2"): 1,
            ("t2", "p"): 1,
            ("p", "t3"): 1,
            ("q", "t3"): 1,
            ("t3", "sink"): 1,
        },
        labeling={"t1": None, "t2": None, "t3": None},
        initial_marking={"source": 1},
    )
    with pytest.raises(NotOneSafe, match=r"'t2' in marking \['p', 'q'\] would put a second token on \['p'\]"):
        fire(frozenset({"p", "q"}), "t2", net)
    with pytest.raises(NotOneSafe):
        enabled(frozenset({"p", "q"}), net)
    wn = validate_workflow(net, "source", "sink")
    with pytest.raises(NotOneSafe):
        build_rg(wn)


def test_build_rg_parallel_choice_shape():
    rg = build_rg(parallel_choice_wn())
    assert rg.n_states == 6
    assert rg.n_arcs == 8
    assert rg.initial == 0
    assert rg.marking_of(0) == {"source"}
    assert rg.marking_of(rg.sink_state) == {"sink"}
    markings = {rg.marking_of(s) for s in range(rg.n_states)}
    assert markings == {
        frozenset({"source"}),
        frozenset({"p2", "p3"}),
        frozenset({"p4", "p3"}),
        frozenset({"p2", "p5"}),
        frozenset({"p4", "p5"}),
        frozenset({"sink"}),
    }


def test_build_rg_deterministic_numbering():
    rg1 = build_rg(parallel_choice_wn())
    rg2 = build_rg(parallel_choice_wn())
    assert rg1.states == rg2.states
    assert np.array_equal(rg1.arc_src, rg2.arc_src)
    assert np.array_equal(rg1.arc_tid, rg2.arc_tid)


def test_build_rg_single_transition():
    rg = build_rg(single_transition_wn())
    assert rg.n_states == 2
    assert rg.n_arcs == 1
    assert rg.sink_state == 1


def test_build_rg_two_loop_shape():
    rg = build_rg(two_loop_wn())
    assert rg.n_states == 10
    assert rg.sink_state is not None
    # every non-sink state has outgoing arcs (the net is sound)
    for s in range(rg.n_states):
        assert (not rg.out_arcs[s]) == (s == rg.sink_state)


def test_state_cap_exceeded(monkeypatch):
    n_states = build_rg(parallel_choice_wn()).n_states
    monkeypatch.setattr(semantics, "STATE_CAP", n_states)  # read at call time
    assert build_rg(parallel_choice_wn()).n_states == n_states
    monkeypatch.setattr(semantics, "STATE_CAP", n_states - 1)
    with pytest.raises(StateCapExceeded, match=f"more than {n_states - 1} reachable markings"):
        build_rg(parallel_choice_wn())


def test_out_arcs_list_each_state_arcs_in_index_order():
    # annotate reads arc_src, the unfolding walks read out_arcs: they must agree
    for wn in (two_loop_wn(), parallel_choice_wn()):
        rg = build_rg(wn)
        assert len(rg.out_arcs) == rg.n_states
        assert np.all(np.diff(rg.arc_src) >= 0)  # arcs numbered in order of their source state
        for s in range(rg.n_states):
            assert [a for a, _, _ in rg.out_arcs[s]] == np.flatnonzero(rg.arc_src == s).tolist()


def test_annotate_simple_normalization():
    net = LabeledPetriNet(
        places=("source", "m", "sink"),
        transitions=("go", "x", "y"),
        flow={
            ("source", "go"): 1,
            ("go", "m"): 1,
            ("m", "x"): 1,
            ("x", "sink"): 1,
            ("m", "y"): 1,
            ("y", "sink"): 1,
        },
        labeling={"go": None, "x": "x", "y": "y"},
        initial_marking={"source": 1},
    )
    wn = validate_workflow(net, "source", "sink")
    rg = build_rg(wn)
    arg = annotate(rg, [1.0, 2.0, 3.0])
    mid = next(s for s in range(rg.n_states) if rg.marking_of(s) == {"m"})
    probs = sorted(arg.arc_prob[a] for a, _, _ in rg.out_arcs[mid])
    assert probs == pytest.approx([0.4, 0.6], abs=1e-15)


def test_annotate_reference_branch_probabilities():
    wn = parallel_choice_wn()
    rg = build_rg(wn)
    arg = annotate(rg, [1, 0.3, 0.35, 0.35, 1])
    state = next(s for s in range(rg.n_states) if rg.marking_of(s) == {"p2", "p3"})
    by_transition = {wn.net.transitions[rg.arc_tid[a]]: arg.arc_prob[a] for a, _, _ in rg.out_arcs[state]}
    assert by_transition == pytest.approx({"b": 0.3, "c": 0.35, "d": 0.35})


def test_annotate_outgoing_probabilities_sum_to_one():
    for seed in range(12):
        swn = random_swn(random.Random(seed), max_transitions=10, allow_loops=True)
        rg = build_rg(swn.wn)
        arg = annotate(rg, swn.weight_vector())
        for s in range(rg.n_states):
            arcs = [a for a, _, _ in rg.out_arcs[s]]
            if not arcs:
                assert s == rg.sink_state  # deadlocks in these nets are only the sink
            else:
                assert abs(arg.arc_prob[arcs].sum() - 1.0) <= 1e-12


def test_annotate_weight_scaling_leaves_probabilities_unchanged():
    wn = two_loop_wn()
    rg = build_rg(wn)
    base = np.array([0.7, 1.3, 0.2, 2.5, 1.0, 0.9, 1.1, 3.0, 0.4])
    reference = annotate(rg, base).arc_prob
    for c in (0.1, 10.0, 1e6, 1e-6):
        scaled = annotate(rg, base * c).arc_prob
        assert np.all(np.abs(scaled - reference) <= 1e-15)


def test_annotate_validates_alignment_and_positivity():
    rg = build_rg(parallel_choice_wn())
    with pytest.raises(ValueError):
        annotate(rg, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        annotate(rg, np.array([1.0, 1.0, 1.0, 1.0, 0.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            annotate(rg, np.array([1.0, 1.0, 1.0, 1.0, bad]))


def _renamed(wn, mapping):
    net = wn.net
    flow = {}
    for (src, dst), m in net.flow.items():
        flow[(mapping.get(src, src), mapping.get(dst, dst))] = m
    renamed_ts = tuple(mapping[t] for t in reversed(net.transitions))
    labeling = {mapping[t]: lbl for t, lbl in net.labeling.items()}
    lpn = LabeledPetriNet(net.places, renamed_ts, flow, labeling, net.initial_marking)
    return validate_workflow(lpn, wn.source, wn.sink)


def test_rg_invariant_under_transition_renaming():
    # states are markings over unchanged place ids, so the isomorphism is
    # forced: match states by marking, arcs by (marking pair, renamed id)
    for seed in range(8):
        wn = random_workflow_net(random.Random(seed), max_transitions=8, allow_loops=True)
        mapping = {t: f"renamed_{t}" for t in wn.net.transitions}
        wn2 = _renamed(wn, mapping)
        rg1, rg2 = build_rg(wn), build_rg(wn2)
        assert rg1.n_states == rg2.n_states
        assert rg1.n_arcs == rg2.n_arcs

        def arc_set(rg, names):
            return {
                (rg.marking_of(s), rg.marking_of(d), names[rg.arc_tid[a]])
                for s in range(rg.n_states)
                for a, d, _ in rg.out_arcs[s]
            }

        arcs1 = {(s, d, mapping[t]) for s, d, t in arc_set(rg1, rg1.wn.net.transitions)}
        arcs2 = arc_set(rg2, rg2.wn.net.transitions)
        assert arcs1 == arcs2


def test_dot_export_mentions_states_and_labels():
    rg = build_rg(parallel_choice_wn())
    dot = rg_to_dot(rg)
    assert dot.startswith("digraph")
    assert '"source"' in dot
    assert '"p2p3"' in dot  # concatenated marked place names
    assert '"τ"' in dot
    arg = annotate(rg, [1, 0.3, 0.35, 0.35, 1])
    dot_probs = rg_to_dot(rg, arg.arc_prob)
    assert "0.35" in dot_probs


def test_dot_export_escapes_quotes_and_backslashes():
    net = LabeledPetriNet(
        places=("source", 'p"q', "sink"),
        transitions=("t1", "t2"),
        flow={("source", "t1"): 1, ("t1", 'p"q'): 1, ('p"q', "t2"): 1, ("t2", "sink"): 1},
        labeling={"t1": 'say "hi"', "t2": "a\\b"},
        initial_marking={"source": 1},
    )
    dot = rg_to_dot(build_rg(validate_workflow(net, "source", "sink")))
    assert 's1 [label="p\\"q" shape=circle];' in dot
    assert 's0 -> s1 [label="say \\"hi\\""];' in dot
    assert 's1 -> s2 [label="a\\\\b"];' in dot
