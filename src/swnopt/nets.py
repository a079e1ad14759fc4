"""Petri-net data types and workflow-net structural validation.

A labelled Petri net is described by its places, transitions, arcs with
multiplicities, a labelling that maps each transition to an activity symbol
(or ``None`` for silent transitions) and an initial marking.  A workflow net
additionally has a unique source and sink place, starts with a single token
on the source, uses only unit arc multiplicities, and becomes strongly
connected once a feedback transition from sink to source is added.  A
stochastic workflow net attaches a strictly positive weight to every
transition; enabled transitions fire with probability proportional to their
weight, so the weights matter only through their ratios.
"""

from collections import deque
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class StochasticWorkflowNet:
    """A workflow net whose transitions carry strictly positive weights."""

    wn: WorkflowNet
    weights: dict[str, float]

    def __post_init__(self):
        tset = set(self.wn.net.transitions)
        if set(self.weights) != tset:
            raise ValueError("weights must be total over transitions")
        for t, w in self.weights.items():
            if not (w > 0.0):
                raise ValueError(f"weight of {t!r} must be > 0, got {w}")

    def weight_vector(self) -> "WeightVector":
        return WeightVector(tuple(self.weights[t] for t in self.wn.net.transitions))


@dataclass(frozen=True)
class WeightVector:
    """Positive weights aligned with a net's transition declaration order."""

    values: tuple[float, ...]

    def __post_init__(self):
        for v in self.values:
            if not (v > 0.0):
                raise ValueError(f"weights must be strictly positive, got {v}")

    def __len__(self):
        return len(self.values)

    @classmethod
    def from_mapping(cls, wn: WorkflowNet, weights: dict[str, float]) -> "WeightVector":
        return cls(tuple(weights[t] for t in wn.net.transitions))

    def to_mapping(self, wn: WorkflowNet) -> dict[str, float]:
        if len(self.values) != len(wn.net.transitions):
            raise ValueError("weight vector not aligned with net")
        return dict(zip(wn.net.transitions, self.values))


def _strongly_connected(nodes, edges) -> bool:
    """True iff the directed graph is strongly connected (empty graph: yes)."""
    if not nodes:
        return True
    fwd: dict[str, list[str]] = {n: [] for n in nodes}
    bwd: dict[str, list[str]] = {n: [] for n in nodes}
    for src, dst in edges:
        fwd[src].append(dst)
        bwd[dst].append(src)

    def reaches_all(adj):
        start = next(iter(nodes))
        seen = {start}
        queue = deque([start])
        while queue:
            for nxt in adj[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == len(nodes)

    return reaches_all(fwd) and reaches_all(bwd)


def validate_workflow(net: LabeledPetriNet, source: str, sink: str) -> WorkflowNet:
    """Check the four workflow-net invariants and return the validated net.

    Raises :class:`NotAWorkflowNet` naming the violated clause: source/sink
    arc properties and uniqueness, the single-token initial marking, unit arc
    multiplicities, or strong connectability of the augmented graph.
    """
    if source not in net.places:
        raise NotAWorkflowNet(f"source {source!r} is not a declared place")
    if sink not in net.places:
        raise NotAWorkflowNet(f"sink {sink!r} is not a declared place")
    if source == sink:
        raise NotAWorkflowNet("source and sink must be distinct places")

    incoming = {p: 0 for p in net.places}
    outgoing = {p: 0 for p in net.places}
    for (src, dst) in net.flow:
        if dst in incoming:
            incoming[dst] += 1
        if src in outgoing:
            outgoing[src] += 1

    if incoming[source]:
        raise NotAWorkflowNet("source has incoming arc")
    if outgoing[sink]:
        raise NotAWorkflowNet("sink has outgoing arc")
    no_in = [p for p in net.places if incoming[p] == 0]
    if no_in != [source]:
        raise NotAWorkflowNet(f"places without incoming arcs must be exactly the source, got {no_in}")
    no_out = [p for p in net.places if outgoing[p] == 0]
    if no_out != [sink]:
        raise NotAWorkflowNet(f"places without outgoing arcs must be exactly the sink, got {no_out}")

    marked = {p for p, n in net.initial_marking.items() if n > 0}
    if marked != {source} or net.initial_marking.get(source) != 1:
        raise NotAWorkflowNet("initial marking must be exactly one token on the source")

    bad = [(a, m) for a, m in net.flow.items() if m != 1]
    if bad:
        raise NotAWorkflowNet(f"arc multiplicities must all equal 1, got {bad}")

    nodes = list(net.places) + list(net.transitions)
    edges = list(net.flow) + [(sink, "__feedback__"), ("__feedback__", source)]
    if not _strongly_connected(nodes + ["__feedback__"], edges):
        raise NotAWorkflowNet("net is not strongly connected after adding a sink->source transition")

    return WorkflowNet(net, source, sink)
