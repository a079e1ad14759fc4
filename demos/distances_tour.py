"""Tour of the divergence measures between stochastic languages.

Run:  python demos/distances_tour.py
"""

import numpy as np

from swnopt import (
    CostMatrix,
    LabeledPetriNet,
    StochasticLanguage,
    StochasticWorkflowNet,
    annotate,
    build_rg,
    emd,
    language_emd,
    levenshtein,
    log_likelihood_divergence,
    normalized_levenshtein,
    restricted_emd,
    truncated_emd,
    unfold_language,
    validate_workflow,
)

# --- earth mover's distance on plain point masses ---------------------------
# moving 1/4 of mass a distance of 2 and 1/4 a distance of 1 costs 3/4;
# the two marginals are arrays in the order of the cost matrix's rows and columns
points = (("1",), ("2",), ("3",))
cost = CostMatrix(points, points, np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float))
p = np.array([0.25, 0.25, 0.5])
q = np.array([0.5, 0.5, 0.0])
plan = emd(p, q, cost)
print("point-mass EMD:", plan.cost)
print("transport plan:\n", plan.plan)

# --- trace costs -------------------------------------------------------------
print("\nedit distance  <A,A> vs <Q,A>:", levenshtein(("A", "A"), ("Q", "A")))
print("normalized      <A,A> vs <Q,A>:", normalized_levenshtein(("A", "A"), ("Q", "A")))

# --- a net with loops: its language is infinite ------------------------------
# one branch repeats A, the other optionally loops on Q; silent join
net = LabeledPetriNet(
    places=("source", "p1", "p2", "p3", "p4", "p5", "p6", "sink"),
    transitions=("t1", "t2", "t3", "t4", "t5", "t6", "t7", "tA", "tQ"),
    flow={
        ("source", "t4"): 1, ("t4", "p2"): 1, ("t4", "p4"): 1,
        ("p2", "tA"): 1, ("tA", "p3"): 1, ("p3", "t6"): 1, ("t6", "p2"): 1,
        ("p4", "t3"): 1, ("t3", "p5"): 1, ("p4", "t7"): 1, ("t7", "p1"): 1,
        ("p5", "tQ"): 1, ("tQ", "p6"): 1, ("p6", "t1"): 1, ("t1", "p1"): 1,
        ("p6", "t2"): 1, ("t2", "p5"): 1,
        ("p1", "t5"): 1, ("p3", "t5"): 1, ("t5", "sink"): 1,
    },
    labeling={t: None for t in ("t1", "t2", "t3", "t4", "t5", "t6", "t7")} | {"tA": "A", "tQ": "Q"},
    initial_marking={"source": 1},
)
wn = validate_workflow(net, "source", "sink")
swn = StochasticWorkflowNet(wn, {t: 1.0 for t in net.transitions})
annotated = annotate(build_rg(wn), swn.weight_vector())

target = StochasticLanguage(
    {
        ("A", "A", "A", "A"): 0.2,
        ("A", "A", "A"): 0.2,
        ("Q", "A", "Q", "A", "Q"): 0.2,
        ("A", "A"): 0.2,
        ("A", "A", "Q", "Q", "A"): 0.2,
    }
)

# log-likelihood: only needs model probabilities on the log's support, one
# array in the order of target.probs (the order the prefix product keeps)
from swnopt.unfolding import PrefixProduct

model = PrefixProduct(annotated.rg, target.probs).probabilities(annotated)
print("\nlog-likelihood divergence:", log_likelihood_divergence(target, model))

# restricted EMD: renormalize the model on the log support, then transport
report = restricted_emd(target, model)
print("restricted EMD:", report.value, "(model mass on the log:", report.model_mass_on_log, ")")

# truncated EMD: the infinite language's most probable traces, up to the
# first one that brings their mass to 80% coverage
report = truncated_emd(target, unfold_language(annotated, coverage=0.8))
print("truncated EMD:", report.value, "(coverage reached:", report.coverage_used, ")")

# identical languages are at distance zero under either route
print("\nEMD(target, target):", language_emd(target, target).cost)
