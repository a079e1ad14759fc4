"""Optimal transition weights for workflow Petri nets.

Given a workflow net (typically produced by a control-flow miner) and an
event log, this package estimates transition weights so that the stochastic
language induced by the weighted net matches the log's stochastic language.
The probabilities of the log's traces are computed exactly, by one sparse
linear solve over the product of the reachability graph with the log's
prefix trie; the fit is driven either by the log-likelihood divergence or by
the earth mover's distance restricted to the log's support.

The main entry points, bottom up:

* :mod:`swnopt.nets` / :mod:`swnopt.pnml` — net model and PNML I/O.
* :mod:`swnopt.logs` — event logs (XES/CSV) and stochastic languages.
* :mod:`swnopt.semantics` — token game and reachability graphs.
* :mod:`swnopt.unfolding` — exact trace probabilities.
* :mod:`swnopt.distances` — likelihood, Levenshtein and EMD measures.
* :mod:`swnopt.optimize` — the weight estimation loop.
* :mod:`swnopt.cli` — the ``swnopt`` command.
"""

from .distances import (
    CostMatrix,
    DistanceReport,
    TransportPlan,
    emd,
    language_emd,
    levenshtein,
    levenshtein_cost_matrix,
    log_likelihood_divergence,
    normalized_levenshtein,
    restricted_emd,
    truncated_emd,
)
from .logs import EventLog, StochasticLanguage, Trace, log_language, parse_csv, parse_xes
from .nets import (
    SILENT,
    LabeledPetriNet,
    StochasticWorkflowNet,
    WeightVector,
    WorkflowNet,
    validate_workflow,
)
from .optimize import (
    ObjectiveSpec,
    OptimizationResult,
    OptimizerConfig,
    evaluate_objective,
    minimize,
    optimized_weights,
    select_start,
)
from .pnml import parse_pnml, write_pnml
from .semantics import (
    AnnotatedRG,
    Marking,
    ReachabilityGraph,
    annotate,
    build_rg,
    enabled,
    fire,
    rg_to_dot,
)
from .unfolding import trace_probabilities, unfold_language

__all__ = [
    "SILENT",
    "AnnotatedRG",
    "CostMatrix",
    "DistanceReport",
    "EventLog",
    "LabeledPetriNet",
    "Marking",
    "ObjectiveSpec",
    "OptimizationResult",
    "OptimizerConfig",
    "ReachabilityGraph",
    "StochasticLanguage",
    "StochasticWorkflowNet",
    "Trace",
    "TransportPlan",
    "WeightVector",
    "WorkflowNet",
    "annotate",
    "build_rg",
    "emd",
    "enabled",
    "evaluate_objective",
    "fire",
    "language_emd",
    "levenshtein",
    "levenshtein_cost_matrix",
    "log_language",
    "log_likelihood_divergence",
    "minimize",
    "normalized_levenshtein",
    "optimized_weights",
    "parse_csv",
    "parse_pnml",
    "parse_xes",
    "restricted_emd",
    "rg_to_dot",
    "select_start",
    "trace_probabilities",
    "truncated_emd",
    "unfold_language",
    "validate_workflow",
    "write_pnml",
]

__version__ = "0.1.0"
