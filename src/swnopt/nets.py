"""Petri-net data types and workflow-net structural validation.

A labelled Petri net is described by its places, transitions, arcs with
multiplicities, a labelling that maps each transition to an activity symbol
(or ``None`` for silent transitions) and an initial marking.  A workflow net
additionally has a unique source and sink place, starts with a single token
on the source, uses only unit arc multiplicities, and becomes strongly
connected once a feedback transition from sink to source is added.  A
stochastic workflow net attaches a finite positive weight to every
transition; enabled transitions fire with probability proportional to their
weight, so the weights matter only through their ratios.  Inside the
library a weight vector is a float array in transition declaration order; a
dict keyed by transition id appears only at the file edge (PNML, reports).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import InputError

#: Label value marking a silent transition.
SILENT = None


class NotAWorkflowNet(InputError):
    """The net violates one of the workflow-net structural requirements."""


def _check_disjoint_ids(places, transitions):
    dup = set(places) & set(transitions)
    if dup:
        raise ValueError(f"ids used both as place and transition: {sorted(dup)}")


@dataclass(frozen=True)
class LabeledPetriNet:
    """Immutable labelled Petri net.

    ``flow`` maps ``(source_id, target_id)`` to a positive multiplicity; every
    arc must connect a place to a transition or vice versa.  ``labeling`` must
    be total over transitions, with ``None`` for silent transitions.  The
    alphabet is derived: exactly the set of non-silent labels in use.
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    flow: dict[tuple[str, str], int]
    labeling: dict[str, str | None]
    initial_marking: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.places)) != len(self.places):
            raise ValueError("duplicate place ids")
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("duplicate transition ids")
        _check_disjoint_ids(self.places, self.transitions)
        pset, tset = set(self.places), set(self.transitions)
        for (src, dst), mult in self.flow.items():
            if not (isinstance(mult, int) and mult > 0):
                raise ValueError(f"arc {src}->{dst} has non-positive multiplicity {mult}")
            ok = (src in pset and dst in tset) or (src in tset and dst in pset)
            if not ok:
                raise ValueError(f"arc {src}->{dst} does not connect a place and a transition")
        if set(self.labeling) != tset:
            missing = tset - set(self.labeling)
            extra = set(self.labeling) - tset
            raise ValueError(f"labeling not total over transitions (missing={sorted(missing)}, unknown={sorted(extra)})")
        for place, tokens in self.initial_marking.items():
            if place not in pset:
                raise ValueError(f"initial marking references unknown place {place!r}")
            if tokens < 0:
                raise ValueError(f"negative token count on {place!r}")

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({a for a in self.labeling.values() if a is not None}))


@dataclass(frozen=True)
class WorkflowNet:
    """A validated workflow net; construct via :func:`validate_workflow`."""

    net: LabeledPetriNet
    source: str
    sink: str

    def __post_init__(self):
        if self.source not in self.net.places or self.sink not in self.net.places:
            raise ValueError("source/sink must be declared places")


def is_weight(w) -> bool:
    """A weight is a finite positive number."""
    return math.isfinite(w) and w > 0.0


@dataclass(frozen=True)
class StochasticWorkflowNet:
    """A workflow net whose transitions carry finite positive weights, stored as floats."""

    wn: WorkflowNet
    weights: dict[str, float]

    def __post_init__(self):
        if set(self.weights) != set(self.wn.net.transitions):
            raise ValueError("weights must be total over transitions")
        for t, w in self.weights.items():
            if not is_weight(w):
                raise ValueError(f"weight of {t!r} must be a finite positive number, got {w}")
        object.__setattr__(self, "weights", {t: float(w) for t, w in self.weights.items()})

    def weight_vector(self) -> np.ndarray:
        """The weights as a float array in transition declaration order."""
        return np.array([self.weights[t] for t in self.wn.net.transitions])


def open_ends(net: LabeledPetriNet) -> tuple[list[str], list[str]]:
    """The places without incoming arcs and the places without outgoing arcs, in place order."""
    targets = {dst for _, dst in net.flow}
    sources = {src for src, _ in net.flow}
    return [p for p in net.places if p not in targets], [p for p in net.places if p not in sources]


def validate_workflow(net: LabeledPetriNet, source: str, sink: str) -> WorkflowNet:
    """Check the four workflow-net invariants and return the validated net.

    Raises :class:`NotAWorkflowNet` naming the violated clause: the source
    and the sink as the only places without incoming and without outgoing
    arcs, and distinct; the single-token initial marking; unit arc
    multiplicities; or strong connectability of the augmented graph.
    """
    no_in, no_out = open_ends(net)
    if no_in != [source] or no_out != [sink]:
        raise NotAWorkflowNet(
            f"one source and one sink needed; places without incoming arcs: {no_in}, without outgoing arcs: {no_out}"
        )
    if source == sink:
        raise NotAWorkflowNet("source and sink must be distinct places")

    marked = {p for p, n in net.initial_marking.items() if n > 0}
    if marked != {source} or net.initial_marking.get(source) != 1:
        raise NotAWorkflowNet("initial marking must be exactly one token on the source")

    bad = [(a, m) for a, m in net.flow.items() if m != 1]
    if bad:
        raise NotAWorkflowNet(f"arc multiplicities must all equal 1, got {bad}")

    # the net plus a feedback node (index n) on the arcs sink -> feedback -> source
    index = {node: i for i, node in enumerate((*net.places, *net.transitions))}
    n = len(index)
    arcs = [(index[src], index[dst]) for src, dst in net.flow] + [(index[sink], n), (n, index[source])]
    rows, cols = zip(*arcs)
    graph = csr_array(([1] * len(arcs), (rows, cols)), shape=(n + 1, n + 1))
    if connected_components(graph, directed=True, connection="strong", return_labels=False) != 1:
        raise NotAWorkflowNet("net is not strongly connected after adding a sink->source transition")

    return WorkflowNet(net, source, sink)
