"""Breadth-first unfolding of an annotated reachability graph.

Computes exact trace probabilities by expanding the graph level by level
(one level = one arc traversal).  Queue keys are (state, level, trace)
triples; the level matters because silent transitions extend the path
without extending the trace, so the same (state, trace) pair can be reached
by paths of different lengths.  Keys are kept in per-level buckets, which
makes the central correctness property structural: when a bucket is
expanded, every key in it already holds its final probability, because all
of its in-arcs come from the previous bucket.

One private core, :func:`_sweep`, does the expansion for two entry points
that differ only in how a visible arc steps the trace trie, which traces
reaching the sink count, and when to stop:

* :func:`trace_probabilities` restricts the unfolding to a target trace set:
  a read-only trie step abandons a path as soon as its trace is no longer a
  prefix of any target, only targets are collected, and the cut mass is
  reported as ``dropped_mass``.
* :func:`unfold_language` explores freely, growing its trie within
  ``max_trace_len``, collects every trace, and stops once the completed mass
  reaches a coverage threshold or a budget binds; everything not collected
  is left in ``residual``.

The per-state arc table ``(arc index, destination, label)`` does not depend
on the weights, so :func:`~swnopt.semantics.build_rg` builds it once per
graph (``ReachabilityGraph.out_arcs``); a sweep only reads the annotated arc
probabilities.  Traces are interned in a trie; queue keys hold node ids, not
tuples.  Silent cycles would otherwise unfold forever, so both entry points
bound the level count and drop per-key probabilities below ``prob_floor``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Container, Iterable

from .logs import StochasticLanguage, Trace
from .semantics import AnnotatedRG

DEFAULT_PROB_FLOOR = 1e-12


class _Trie:
    """Append-only trie; node 0 is the root (empty trace).

    :meth:`add` creates no node deeper than ``max_depth``.
    """

    __slots__ = ("parent", "symbol", "depth", "children", "max_depth")

    def __init__(self, max_depth: float = math.inf):
        self.parent = [-1]
        self.symbol: list[str | None] = [None]
        self.depth = [0]
        self.children: list[dict[str, int]] = [{}]
        self.max_depth = max_depth

    def __len__(self):
        return len(self.parent)

    def add(self, node: int, symbol: str) -> int | None:
        child = self.children[node].get(symbol)
        if child is None:
            if self.depth[node] >= self.max_depth:
                return None
            child = len(self.parent)
            self.parent.append(node)
            self.symbol.append(symbol)
            self.depth.append(self.depth[node] + 1)
            self.children.append({})
            self.children[node][symbol] = child
        return child

    def step(self, node: int, symbol: str) -> int | None:
        return self.children[node].get(symbol)

    def insert(self, trace: Trace) -> int:
        node = 0
        for symbol in trace:
            node = self.add(node, symbol)
        return node

    def trace_of(self, node: int) -> Trace:
        parts = []
        while node > 0:
            parts.append(self.symbol[node])
            node = self.parent[node]
        return tuple(reversed(parts))


class PrefixIndex:
    """Trie over a non-empty target trace set, plus the set's member nodes."""

    def __init__(self, traces: Iterable[Trace]):
        self._trie = _Trie()
        self._member: set[int] = set()
        for trace in traces:
            self._member.add(self._trie.insert(tuple(trace)))
        if not self._member:
            raise ValueError("target trace set must be non-empty")
        self.max_trace_len = max(self._trie.depth)

    def __len__(self):
        return len(self._member)


@dataclass(frozen=True)
class UnfoldResult:
    """Trace probabilities plus the mass discarded by level/floor cutoffs."""

    probs: dict[Trace, float]
    dropped_mass: float
    levels_explored: int


def default_max_level(n_states: int, longest_trace: int) -> int:
    """Level budget that lets every target complete even through silent detours."""
    return (1 + longest_trace) * n_states


def _sweep(
    arg: AnnotatedRG,
    trie: _Trie,
    step: Callable[[int, str], int | None],
    accept: Container[int] | None,
    max_level: int,
    prob_floor: float,
    coverage: float = math.inf,
) -> tuple[dict[Trace, float], float, int]:
    """The level-by-level expansion both entry points share.

    ``step(node, symbol)`` gives the trie node a visible arc leads to, or
    None to abandon the path.  A path reaching the sink is collected if
    ``accept`` is None or contains its node.  Expansion stops when no key is
    left or, between levels, once the collected mass reaches ``coverage``.
    Returns the collected probability per trace, the mass cut by the level
    budget or the floor, and the number of levels expanded.
    """
    rg = arg.rg
    arcs = rg.out_arcs
    arc_prob = arg.arc_prob.tolist()
    sink = rg.sink_state

    collected: dict[int, float] = {}
    collected_mass = 0.0
    current: dict[tuple[int, int], float] = {(rg.initial, 0): 1.0}
    dropped = 0.0
    level = 0
    while current and collected_mass < coverage:
        nxt: dict[tuple[int, int], float] = {}
        for (state, node), pr in current.items():
            for a, dst, symbol in arcs[state]:
                if symbol is None:
                    new_node = node
                else:
                    new_node = step(node, symbol)
                    if new_node is None:
                        continue
                new_pr = pr * arc_prob[a]
                if dst == sink:
                    if accept is None or new_node in accept:
                        collected[new_node] = collected.get(new_node, 0.0) + new_pr
                        collected_mass += new_pr
                elif level + 1 > max_level:
                    dropped += new_pr
                else:
                    key = (dst, new_node)
                    if key in nxt:
                        nxt[key] += new_pr
                    else:
                        nxt[key] = new_pr
        if prob_floor > 0.0 and nxt:
            kept = {}
            for key, pr in nxt.items():
                if pr < prob_floor:
                    dropped += pr
                else:
                    kept[key] = pr
            nxt = kept
        current = nxt
        level += 1

    probs = {trie.trace_of(node): pr for node, pr in collected.items()}
    return probs, dropped, level


def trace_probabilities(
    arg: AnnotatedRG,
    targets: PrefixIndex,
    max_level: int | None = None,
    prob_floor: float = DEFAULT_PROB_FLOOR,
) -> UnfoldResult:
    """Exact probability of each target trace under the annotated graph.

    The expansion is restricted to paths whose emitted trace is a prefix of
    some target; a path reaching the sink contributes if and only if its
    trace is a target.  Queue keys beyond ``max_level`` or whose aggregated
    probability falls below ``prob_floor`` are moved to ``dropped_mass``
    (so a silent cycle turns into quantified truncation, not a hang).
    """
    rg = arg.rg
    if max_level is None:
        max_level = default_max_level(rg.n_states, targets.max_trace_len)
    if max_level <= 0 or prob_floor < 0:
        raise ValueError("limits must be positive")

    probs, dropped, levels = _sweep(arg, targets._trie, targets._trie.step, targets._member, max_level, prob_floor)
    return UnfoldResult(probs=probs, dropped_mass=dropped, levels_explored=levels)


def unfold_language(
    arg: AnnotatedRG,
    coverage: float = 1.0,
    max_trace_len: int | None = None,
    max_level: int | None = None,
    prob_floor: float = DEFAULT_PROB_FLOOR,
) -> StochasticLanguage:
    """Unrestricted unfolding, stopped once completed mass reaches ``coverage``.

    The coverage check runs between levels, so each level is always fully
    merged before its keys are expanded.  The result has
    ``residual = 1 - sum(probs)``; a residual above ``1 - coverage`` means a
    budget (trace length, level count, probability floor) bound first.
    """
    if not (0.0 < coverage <= 1.0):
        raise ValueError("coverage must be in (0, 1]")
    if max_trace_len is not None and max_trace_len < 1:
        raise ValueError("max_trace_len must be >= 1")
    rg = arg.rg
    if max_level is None:
        max_level = default_max_level(rg.n_states, max_trace_len if max_trace_len is not None else rg.n_states)
    if max_level <= 0 or prob_floor < 0:
        raise ValueError("limits must be positive")

    # a path the length budget stops leaves its mass in the residual
    trie = _Trie(max_trace_len if max_trace_len is not None else math.inf)
    probs, _, _ = _sweep(arg, trie, trie.add, None, max_level, prob_floor, coverage=coverage)
    residual = max(0.0, 1.0 - sum(probs.values()))
    return StochasticLanguage(probs=probs, residual=residual)
