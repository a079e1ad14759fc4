"""Build a small stochastic workflow net and compute its trace language.

The net: activity `a` splits into two parallel branches, one running `b`,
the other choosing between `c` and `d`; a silent transition joins them into
the sink.  With weights b=0.3 and c=d=0.35 the induced language puts 0.15
on abc/abd and 0.35 on acb/adb.

Run:  python demos/build_and_unfold.py
"""

from swnopt import (
    LabeledPetriNet,
    StochasticWorkflowNet,
    annotate,
    build_rg,
    rg_to_dot,
    trace_probabilities,
    unfold_language,
    validate_workflow,
)

net = LabeledPetriNet(
    places=("source", "p2", "p3", "p4", "p5", "sink"),
    transitions=("a", "b", "c", "d", "tau"),
    flow={
        ("source", "a"): 1,
        ("a", "p2"): 1,
        ("a", "p3"): 1,
        ("p2", "b"): 1,
        ("b", "p4"): 1,
        ("p3", "c"): 1,
        ("c", "p5"): 1,
        ("p3", "d"): 1,
        ("d", "p5"): 1,
        ("p4", "tau"): 1,
        ("p5", "tau"): 1,
        ("tau", "sink"): 1,
    },
    labeling={"a": "a", "b": "b", "c": "c", "d": "d", "tau": None},
    initial_marking={"source": 1},
)

wn = validate_workflow(net, "source", "sink")
rg = build_rg(wn)
print(f"reachability graph: {rg.n_states} states, {rg.n_arcs} arcs")
print(rg_to_dot(rg))

swn = StochasticWorkflowNet(wn, {"a": 1.0, "b": 0.3, "c": 0.35, "d": 0.35, "tau": 1.0})
annotated = annotate(rg, swn.weight_vector())

# full language: this net is acyclic, so coverage 1.0 terminates on its own
language = unfold_language(annotated, coverage=1.0)
print("full language (residual", language.residual, "):")
for trace, prob in sorted(language.probs.items()):
    print(f"  {''.join(trace)}: {prob:.6f}")

# restricted to a target set, given as plain traces: only paths that can
# still complete a target trace are kept, and one linear solve gives their
# exact probabilities, even through silent cycles; this is what makes long
# logs tractable
result = trace_probabilities(annotated, [("a", "b", "c"), ("a", "d", "b")])
print("restricted to {abc, adb}:", {("".join(t)): p for t, p in result.items()})
