"""Token-game semantics and reachability graphs for 1-safe workflow nets.

Markings of a 1-safe net are sets of marked places, held internally as
bitmasks over the place order.  One compiled firing rule (input and output
place masks per transition) serves :func:`enabled`, :func:`fire` and
:func:`build_rg`.  The reachability graph enumerates all markings reachable
from the initial one, breadth first, with deterministic state numbering
(discovery order, with transitions tried in declaration order), so state
indices and arc order are reproducible across runs.

Annotating the graph with a weight vector turns each state's outgoing arcs
into a probability distribution: arc (M, M', t) gets weight(t) divided by the
total weight of all transitions enabled at M.  Scaling every weight by the
same factor leaves all arc probabilities unchanged.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError
from .nets import LabeledPetriNet, WorkflowNet

Marking = frozenset[str]


class NotEnabled(ComputationError):
    """The transition is not enabled in the given marking."""


class NotOneSafe(InputError):
    """Firing would put a second token on a place; the net is not 1-safe."""


class StateCapExceeded(ComputationError):
    """Reachability exploration hit the state cap."""


DEFAULT_STATE_CAP = 1_000_000


def _masks(net) -> tuple[LabeledPetriNet, dict[str, int], list[int], list[int]]:
    """The labelled net, each place's bit and each transition's input and output place masks."""
    net = net.net if isinstance(net, WorkflowNet) else net
    bit = {p: 1 << i for i, p in enumerate(net.places)}
    tid = {t: i for i, t in enumerate(net.transitions)}
    pre, post = [0] * len(tid), [0] * len(tid)
    for (src, dst), mult in net.flow.items():
        if mult != 1:
            raise ValueError("token-game semantics require unit arc multiplicities")
        if dst in tid:
            pre[tid[dst]] |= bit[src]
        else:
            post[tid[src]] |= bit[dst]
    return net, bit, pre, post


def _places(net: LabeledPetriNet, mask: int) -> list[str]:
    """The places set in ``mask``, in place order."""
    return [p for i, p in enumerate(net.places) if mask >> i & 1]


def _fire(net: LabeledPetriNet, mask: int, tid: int, pre: list[int], post: list[int]) -> int | None:
    """The marking after transition ``tid`` fires in ``mask``, or None if it is not enabled."""
    if mask & pre[tid] != pre[tid]:
        return None
    left = mask & ~pre[tid]
    if left & post[tid]:
        raise NotOneSafe(
            f"firing {net.transitions[tid]!r} in marking {sorted(_places(net, mask))} "
            f"would put a second token on {_places(net, left & post[tid])}"
        )
    return left | post[tid]


def _mask(marking: Marking, bit: dict[str, int]) -> int:
    if unknown := sorted(set(marking) - bit.keys()):
        raise ValueError(f"marking names places that are not in the net: {unknown}")
    return sum(bit[p] for p in set(marking))


def enabled(marking: Marking, net) -> set[str]:
    """Transitions whose input places are all marked; raises as :func:`fire` does."""
    net, bit, pre, post = _masks(net)
    mask = _mask(marking, bit)
    return {t for tid, t in enumerate(net.transitions) if _fire(net, mask, tid, pre, post) is not None}


def fire(marking: Marking, transition: str, net) -> Marking:
    """Fire an enabled transition: unmark its inputs, mark its outputs.  Raises
    :class:`NotOneSafe` on a second token, ValueError on a place not in the net."""
    net, bit, pre, post = _masks(net)
    if transition not in net.transitions:
        raise NotEnabled(f"unknown transition {transition!r}")
    after = _fire(net, _mask(marking, bit), net.transitions.index(transition), pre, post)
    if after is None:
        raise NotEnabled(f"{transition!r} is not enabled in {sorted(marking)}")
    return frozenset(_places(net, after))


@dataclass(frozen=True)
class ReachabilityGraph:
    """Marking graph of a workflow net.

    ``states`` holds one bitmask per marking (bit i = place ``i`` in the
    net's place order); state 0 is the initial marking.  Arcs are numbered
    in order of their source state.  ``out_arcs[s]`` lists the arcs leaving
    state ``s`` in index order as ``(arc index, destination, label)``
    triples (label None = silent); the unfolding walks read this table.
    ``arc_src`` and ``arc_tid`` give each arc's source state and its index
    in the net's transition order, the arrays :func:`annotate` reads.
    ``sink_state`` is the index of the marking {sink}, or None if the sink
    marking is unreachable.
    """

    wn: WorkflowNet
    states: tuple[int, ...]
    arc_src: np.ndarray
    arc_tid: np.ndarray
    sink_state: int | None
    out_arcs: tuple[tuple[tuple[int, int, str | None], ...], ...]

    initial: int = 0

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_arcs(self) -> int:
        return len(self.arc_src)

    def marking_of(self, state: int) -> Marking:
        return frozenset(_places(self.wn.net, self.states[state]))

    def state_label(self, state: int) -> str:
        """Marked place names concatenated in place order."""
        return "".join(_places(self.wn.net, self.states[state]))


def build_rg(wn: WorkflowNet, state_cap: int = DEFAULT_STATE_CAP) -> ReachabilityGraph:
    """Breadth-first reachability exploration of a 1-safe workflow net."""
    if state_cap <= 0:
        raise ValueError("state_cap must be positive")
    net, bit, pre, post = _masks(wn)
    labels = [net.labeling[t] for t in net.transitions]
    initial = sum(bit[p] for p, n in net.initial_marking.items() if n > 0)
    state_index: dict[int, int] = {initial: 0}
    states: list[int] = [initial]
    arc_src: list[int] = []
    arc_tid: list[int] = []
    out_arcs: list[tuple[tuple[int, int, str | None], ...]] = []

    queue = deque([0])
    while queue:
        src = queue.popleft()
        row = []
        for tid in range(len(pre)):
            new_mask = _fire(net, states[src], tid, pre, post)
            if new_mask is None:
                continue
            dst = state_index.get(new_mask)
            if dst is None:
                if len(states) >= state_cap:
                    raise StateCapExceeded(f"more than {state_cap} reachable markings")
                dst = len(states)
                state_index[new_mask] = dst
                states.append(new_mask)
                queue.append(dst)
            row.append((len(arc_src), dst, labels[tid]))
            arc_src.append(src)
            arc_tid.append(tid)
        out_arcs.append(tuple(row))

    sink_state = state_index.get(bit[wn.sink])

    def _frozen(values, dtype=np.int64):
        arr = np.asarray(values, dtype=dtype)
        arr.flags.writeable = False
        return arr

    return ReachabilityGraph(
        wn=wn,
        states=tuple(states),
        arc_src=_frozen(arc_src),
        arc_tid=_frozen(arc_tid),
        sink_state=sink_state,
        out_arcs=tuple(out_arcs),
    )


@dataclass(frozen=True)
class AnnotatedRG:
    """Reachability graph with one firing probability per arc."""

    rg: ReachabilityGraph
    arc_prob: np.ndarray


def annotate(rg: ReachabilityGraph, weights) -> AnnotatedRG:
    """Attach firing probabilities: weight(t) over the enabled total per state,
    for ``weights`` any sequence of finite positive floats in transition order."""
    values = np.asarray(weights, dtype=np.float64)
    if values.shape != (len(rg.wn.net.transitions),):
        raise ValueError(f"expected {len(rg.wn.net.transitions)} weights, got {values.shape}")
    if not np.all(np.isfinite(values) & (values > 0.0)):
        raise ValueError("weights must be finite and strictly positive")
    arc_w = values[rg.arc_tid]
    state_sums = np.bincount(rg.arc_src, weights=arc_w, minlength=rg.n_states)
    arc_prob = arc_w / state_sums[rg.arc_src]
    arc_prob.flags.writeable = False
    return AnnotatedRG(rg=rg, arc_prob=arc_prob)


def log_weight_gradient(arg: AnnotatedRG, arc_grad: np.ndarray) -> np.ndarray:
    """Chain ∂L/∂p per arc through :func:`annotate` to ∂L/∂log w per transition.

    With p_a = w_t(a) / Σ_enabled w, ∂L/∂log w_j sums, over the arcs a of
    transition j, p_a times (∂L/∂p_a minus the p-weighted mean of ∂L/∂p over
    the arcs leaving a's source state).
    """
    rg, p = arg.rg, arg.arc_prob
    mean_out = np.bincount(rg.arc_src, p * arc_grad, rg.n_states)
    return np.bincount(rg.arc_tid, p * (arc_grad - mean_out[rg.arc_src]), len(rg.wn.net.transitions))


def _dot_quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def rg_to_dot(rg: ReachabilityGraph, arc_prob: np.ndarray | None = None) -> str:
    """GraphViz dump; state labels concatenate the marked place names."""
    lines = ["digraph rg {"]
    for s in range(rg.n_states):
        shape = "doublecircle" if s == rg.sink_state else "circle"
        lines.append(f'  s{s} [label="{_dot_quote(rg.state_label(s))}" shape={shape}];')
    for s, row in enumerate(rg.out_arcs):
        for a, dst, symbol in row:
            label = _dot_quote(symbol or "τ")
            if arc_prob is not None:
                label += f" {arc_prob[a]:.4g}"
            lines.append(f'  s{s} -> s{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
