import math
import random

import networkx as nx
import numpy as np
import pytest

from swnopt.nets import (
    LabeledPetriNet,
    NotAWorkflowNet,
    StochasticWorkflowNet,
    validate_workflow,
)

from .fixtures import parallel_choice_wn
from .treegen import random_workflow_net


def test_parallel_choice_net_is_a_workflow_net():
    wn = parallel_choice_wn()
    assert wn.source == "source"
    assert wn.sink == "sink"
    assert wn.net.alphabet == ("a", "b", "c", "d")


def test_single_place_degenerate_net_rejected():
    net = LabeledPetriNet(
        places=("only",),
        transitions=(),
        flow={},
        labeling={},
        initial_marking={"only": 1},
    )
    with pytest.raises(NotAWorkflowNet):
        validate_workflow(net, "only", "only")


def test_extra_arc_into_source_rejected():
    wn = parallel_choice_wn()
    flow = dict(wn.net.flow)
    flow[("tau", "source")] = 1
    net = LabeledPetriNet(wn.net.places, wn.net.transitions, flow, wn.net.labeling, wn.net.initial_marking)
    with pytest.raises(NotAWorkflowNet, match=r"places without incoming arcs: \[\]"):
        validate_workflow(net, "source", "sink")


def test_second_sourcelike_place_rejected():
    wn = parallel_choice_wn()
    net = LabeledPetriNet(
        wn.net.places + ("stray",),
        wn.net.transitions,
        wn.net.flow,
        wn.net.labeling,
        wn.net.initial_marking,
    )
    with pytest.raises(NotAWorkflowNet):
        validate_workflow(net, "source", "sink")


def test_bad_initial_marking_rejected():
    wn = parallel_choice_wn()
    net = LabeledPetriNet(wn.net.places, wn.net.transitions, wn.net.flow, wn.net.labeling, {"p2": 1})
    with pytest.raises(NotAWorkflowNet, match="initial marking"):
        validate_workflow(net, "source", "sink")


def test_multiplicity_two_rejected():
    wn = parallel_choice_wn()
    flow = dict(wn.net.flow)
    flow[("source", "a")] = 2
    net = LabeledPetriNet(wn.net.places, wn.net.transitions, flow, wn.net.labeling, wn.net.initial_marking)
    with pytest.raises(NotAWorkflowNet, match="multiplicities"):
        validate_workflow(net, "source", "sink")


def test_disconnected_component_rejected():
    # q1 -> x -> q2 hangs off the side: q1 has no incoming arc besides the source
    wn = parallel_choice_wn()
    flow = dict(wn.net.flow)
    flow[("q1", "x")] = 1
    flow[("x", "q2")] = 1
    net = LabeledPetriNet(
        wn.net.places + ("q1", "q2"),
        wn.net.transitions + ("x",),
        flow,
        {**wn.net.labeling, "x": None},
        wn.net.initial_marking,
    )
    with pytest.raises(NotAWorkflowNet):
        validate_workflow(net, "source", "sink")


def test_unknown_source_rejected():
    wn = parallel_choice_wn()
    with pytest.raises(NotAWorkflowNet, match=r"places without incoming arcs: \['source'\]"):
        validate_workflow(wn.net, "nope", "sink")


def test_lpn_rejects_dangling_arc_and_partial_labeling():
    with pytest.raises(ValueError, match="does not connect"):
        LabeledPetriNet(("p",), ("t",), {("p", "ghost"): 1}, {"t": None})
    with pytest.raises(ValueError, match="labeling not total"):
        LabeledPetriNet(("p",), ("t",), {}, {})
    with pytest.raises(ValueError, match="a place and a transition"):
        LabeledPetriNet(("p", "q"), ("t",), {("p", "q"): 1}, {"t": None})


def test_lpn_alphabet_is_derived_from_labels():
    net = LabeledPetriNet(
        ("p", "q"),
        ("t1", "t2", "t3"),
        {("p", "t1"): 1, ("t1", "q"): 1, ("p", "t2"): 1, ("t2", "q"): 1, ("p", "t3"): 1, ("t3", "q"): 1},
        {"t1": "beta", "t2": None, "t3": "alpha"},
    )
    assert net.alphabet == ("alpha", "beta")


def test_weight_vector_positivity_and_alignment():
    wn = parallel_choice_wn()
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite positive"):
            StochasticWorkflowNet(wn, {"a": 1, "b": bad, "c": 3, "d": 4, "tau": 5})
    swn = StochasticWorkflowNet(wn, {"tau": 5, "a": 1, "b": np.float64(2), "c": 3, "d": 4})
    assert swn.weight_vector().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(type(w) is float for w in swn.weights.values())


def test_swn_requires_total_positive_weights():
    wn = parallel_choice_wn()
    with pytest.raises(ValueError):
        StochasticWorkflowNet(wn, {"a": 1.0})
    with pytest.raises(ValueError):
        StochasticWorkflowNet(wn, {"a": 1, "b": 1, "c": 1, "d": 1, "tau": 0.0})


# -- brute-force cross-check ------------------------------------------------


def brute_is_workflow(net: LabeledPetriNet, source: str, sink: str) -> bool:
    """Second opinion: explicit arc enumeration + networkx strong connectivity."""
    if source not in net.places or sink not in net.places or source == sink:
        return False
    incoming = {p: [a for a in net.flow if a[1] == p] for p in net.places}
    outgoing = {p: [a for a in net.flow if a[0] == p] for p in net.places}
    if incoming[source] or outgoing[sink]:
        return False
    for p in net.places:
        if p != source and not incoming[p]:
            return False
        if p != sink and not outgoing[p]:
            return False
    if dict(net.initial_marking) != {source: 1}:
        return False
    if any(m != 1 for m in net.flow.values()):
        return False
    graph = nx.DiGraph()
    graph.add_nodes_from(net.places)
    graph.add_nodes_from(net.transitions)
    graph.add_edges_from(net.flow)
    graph.add_edge(sink, "feedback")
    graph.add_edge("feedback", source)
    return nx.is_strongly_connected(graph)


def _random_small_net(rng: random.Random) -> tuple[LabeledPetriNet, str, str]:
    n_places = rng.randint(2, 5)
    n_trans = rng.randint(1, 5)
    places = tuple(f"p{i}" for i in range(n_places))
    transitions = tuple(f"t{i}" for i in range(n_trans))
    flow = {}
    for t in transitions:
        for p in rng.sample(places, rng.randint(0, 2)):
            flow[(p, t)] = rng.choice((1, 1, 1, 2))
        for p in rng.sample(places, rng.randint(0, 2)):
            flow[(t, p)] = 1
    labeling = {t: rng.choice(("A", "B", None)) for t in transitions}
    marking_choice = rng.random()
    if marking_choice < 0.7:
        marking = {places[0]: 1}
    elif marking_choice < 0.85:
        marking = {}
    else:
        marking = {places[0]: 1, places[-1]: 1}
    net = LabeledPetriNet(places, transitions, flow, labeling, marking)
    return net, places[0], places[-1]


def test_validation_agrees_with_brute_force_on_small_nets():
    rng = random.Random(2024)
    accepted = 0
    for _ in range(400):
        net, source, sink = _random_small_net(rng)
        expected = brute_is_workflow(net, source, sink)
        try:
            validate_workflow(net, source, sink)
            got = True
        except NotAWorkflowNet:
            got = False
        assert got == expected, (net, source, sink)
        accepted += got
    # structured nets below guarantee the accepting path is exercised too
    for seed in range(30):
        wn = random_workflow_net(random.Random(seed), max_transitions=10, allow_loops=True)
        assert brute_is_workflow(wn.net, wn.source, wn.sink)
        accepted += 1
    assert accepted >= 30
