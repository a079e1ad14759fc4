"""Estimate transition weights from an event log.

A workflow net fixes which traces are possible; the weights decide how
likely each one is.  Starting from the bare control flow and a log whose
traces carry frequencies, we search for weights whose induced language
matches the log's, minimizing either the log-likelihood divergence (smooth,
fast) or the earth mover's distance restricted to the log's support
(interpretable, bounded in [0, 1]).

Run:  python demos/weight_estimation.py
"""

import math

from swnopt import (
    EventLog,
    LabeledPetriNet,
    ObjectiveSpec,
    OptimizerConfig,
    log_language,
    optimized_weights,
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

log = EventLog(
    {
        ("a", "b", "c"): 15,
        ("a", "c", "b"): 35,
        ("a", "b", "d"): 15,
        ("a", "d", "b"): 35,
    }
)
target = log_language(log)
entropy = -sum(p * math.log(p) for p in target.probs.values())
print(f"log entropy (the likelihood floor): {entropy:.7f} nats\n")

for measure in ("lh", "remd"):
    spec = ObjectiveSpec.for_net(measure, wn, target)
    config = OptimizerConfig(n0=10, max_iter=50, delta=1e-3, seed=42)
    result = optimized_weights(spec, config)
    print(f"measure {measure}: {result.final_value:.6g} after {result.iterations} iterations ({result.stop_reason})")
    print("  weights:", {t: round(w, 4) for t, w in zip(wn.net.transitions, result.weights.tolist())})
    print("  convergence:", " -> ".join(f"{v:.4g}" for _, v in result.trace))
    print()

# the same run through the command line:
#   swnopt discover --net net.pnml --log log.csv --measure remd --seed 42 \
#          --out-net weighted.pnml --out-report report.json --out-convergence conv.csv
