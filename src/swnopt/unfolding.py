"""Trace probabilities of an annotated reachability graph.

* Restricted unfolding, the probability of each trace of a fixed target set
  (a log's support), is one sparse linear solve over :class:`PrefixProduct`,
  the product of the graph with the targets' prefix trie.  The product
  depends only on the graph and the targets, so it is built once.  Inside,
  probabilities are arrays in the product's target order; dicts keyed by
  trace only at the edge (:func:`trace_probabilities`).  Silent
  cycles need no budget: the solve gives their exact absorption
  probabilities, the construction for trace probabilities of stochastic
  labelled Petri nets in Leemans, Syring & van der Aalst, *Earth Movers'
  Stochastic Conformance Checking* (BPM Forum 2019).  The targets' trie is
  as large as the targets themselves, so it has no size cap.
* :func:`unfold_language` enumerates the free language level by level (one
  level = one arc traversal; queue keys are (state, trie node) pairs in
  per-level buckets) until the completed mass reaches a coverage threshold.
  A caller sets two budgets, the coverage and an optional trace length.  The
  language may be infinite, so the code also bounds the work itself: a level
  budget derived from the graph, the per-key floor :data:`PROB_FLOOR` and
  :data:`MAX_PREFIXES`.  The mass not collected is left in ``residual``.
  :data:`PROB_FLOOR` and :data:`MAX_PREFIXES` bound only this free unfolding.
"""

import math
from typing import Callable, Iterable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ComputationError
from .logs import StochasticLanguage, Trace
from .semantics import AnnotatedRG, ReachabilityGraph

#: Free unfolding: a key whose probability falls below this is dropped, its mass left in the residual.
PROB_FLOOR = 1e-12

#: Most nodes the free unfolding's trie may hold; past it `_Trie.add` raises PrefixCapExceeded.
MAX_PREFIXES = 1 << 20

#: How far a solved probability may leave [0, 1] before the solve is rejected.
_PROB_TOL = 1e-9


class PrefixCapExceeded(ComputationError):
    """An unfolding needed more than MAX_PREFIXES distinct trace prefixes."""


class IllConditioned(ComputationError):
    """Trace probabilities beyond float precision (a silent cycle's escape is below it)."""


class _Trie:
    """Append-only trie of the free unfolding; node 0 is the root (empty trace).

    :meth:`add` creates no node deeper than ``max_depth`` and no more than
    :data:`MAX_PREFIXES` nodes.
    """

    __slots__ = ("parent", "symbol", "depth", "children", "max_depth")

    def __init__(self, max_depth: float = math.inf):
        self.parent = [-1]
        self.symbol: list[str | None] = [None]
        self.depth = [0]
        self.children: list[dict[str, int]] = [{}]
        self.max_depth = max_depth

    def add(self, node: int, symbol: str) -> int | None:
        child = self.children[node].get(symbol)
        if child is None:
            if self.depth[node] >= self.max_depth:
                return None
            child = len(self.parent)
            if child >= MAX_PREFIXES:
                raise PrefixCapExceeded(f"over {MAX_PREFIXES} trace prefixes; lower --coverage or set --max-trace-len")
            self.parent.append(node)
            self.symbol.append(symbol)
            self.depth.append(self.depth[node] + 1)
            self.children.append({})
            self.children[node][symbol] = child
        return child

    def trace_of(self, node: int) -> Trace:
        parts = []
        while node > 0:
            parts.append(self.symbol[node])
            node = self.parent[node]
        return tuple(reversed(parts))


class PrefixProduct:
    """The graph × target-trie product and the sparse pattern of ``I - P^T``.

    ``traces`` is any iterable of target traces; the empty trace is allowed,
    and an empty set raises ``ValueError``.  The attribute ``traces`` keeps
    the distinct ones in first-seen order, the order of every probability
    array; ``producible`` masks those with a hit.  Keys
    are (state, node) pairs over the targets' prefix trie, numbered breadth
    first from (initial state, root) along target prefixes: a silent arc
    keeps the node, a visible arc steps the trie.  An arc into the sink is a
    *hit* when its node is a target.  Keys from which no hit is reachable
    are pruned with their arcs: they carry no target mass, and an exitless
    silent cycle among them would make the system singular.  The expected
    visits ``x`` of the keys solve ``(I - P^T) x = e_0``; P(σ) sums
    ``x * p`` over σ's hits.  The adjoint ``λ = (I - P^T)^{-T} c`` reuses
    the same LU factor, so the gradient of any function of the P(σ) with
    respect to every arc probability costs one more (transposed) solve.
    Parallel arcs between two keys share one slot of the pattern.  The
    matrix is built once and each solve overwrites its values in place, so
    one product must not be solved by two threads at once.
    """

    def __init__(self, rg: ReachabilityGraph, traces: Iterable[Trace]):
        self.traces: tuple[Trace, ...] = tuple(dict.fromkeys(map(tuple, traces)))
        if not self.traces:
            raise ValueError("target trace set must be non-empty")
        children: list[dict[str, int]] = [{}]  # the targets' prefix trie; node 0 is the root
        target_of: dict[int, int] = {}  # trie node -> index in self.traces of the target ending there
        for i, trace in enumerate(self.traces):
            node = 0
            for symbol in trace:
                node = children[node].setdefault(symbol, len(children))
                if node == len(children):
                    children.append({})
            target_of[node] = i

        index = {(rg.initial, 0): 0}
        keys = [(rg.initial, 0)]
        edges = []  # (source key, destination key, arc)
        hits = []  # (source key, target index, arc)
        for src, (state, node) in enumerate(keys):  # keys grows while iterated: breadth first
            for a, dst, symbol in rg.out_arcs[state]:
                nxt = node if symbol is None else children[node].get(symbol)
                if nxt is None:
                    continue
                if dst == rg.sink_state:
                    if nxt in target_of:
                        hits.append((src, target_of[nxt], a))
                    continue
                key = (dst, nxt)
                if key not in index:
                    index[key] = len(keys)
                    keys.append(key)
                edges.append((src, index[key], a))

        preds: list[list[int]] = [[] for _ in keys]
        for src, dst, _ in edges:
            preds[dst].append(src)
        live = np.zeros(len(keys), dtype=bool)
        stack = [src for src, _, _ in hits]
        while stack:
            k = stack.pop()
            if not live[k]:
                live[k] = True
                stack.extend(preds[k])
        renumber = np.cumsum(live) - 1
        edges = np.array(edges, dtype=np.int64).reshape(-1, 3)
        kept = edges[live[edges[:, 1]]]  # a predecessor of a live key is live
        n = int(live.sum())

        diag = np.arange(n)
        rows = np.concatenate([diag, renumber[kept[:, 1]]])
        cols = np.concatenate([diag, renumber[kept[:, 0]]])
        slots, slot_of = np.unique(cols * n + rows, return_inverse=True)
        self._identity = np.zeros(len(slots))
        self._identity[slot_of[:n]] = 1.0
        indices = (slots % n).astype(np.intc)  # SuperLU's index type: no cast per solve
        indptr = np.searchsorted(slots // n, np.arange(n + 1)).astype(np.intc)
        self._matrix = sparse.csc_array((self._identity.copy(), indices, indptr), shape=(n, n))
        self._edge_slot = slot_of[n:]
        self._edge_src, self._edge_dst = renumber[kept[:, 0]], renumber[kept[:, 1]]
        self._edge_arc = kept[:, 2]
        self._e0 = np.eye(1, n)[0]

        hits = np.array(hits, dtype=np.int64).reshape(-1, 3)
        self._hit_key, self._hit_target, self._hit_arc = renumber[hits[:, 0]], hits[:, 1], hits[:, 2]
        self.producible = np.bincount(self._hit_target, minlength=len(self.traces)) > 0

    def probabilities(self, arg: AnnotatedRG) -> np.ndarray:
        """Probability of each target trace, in :attr:`traces` order; 0.0 for a
        target the graph cannot produce.  Raises :class:`IllConditioned` when
        the solve fails or gives a probability outside [0, 1]."""
        return self.probabilities_with_pullback(arg)[0]

    def probabilities_with_pullback(self, arg: AnnotatedRG) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """:meth:`probabilities`, plus the map from ∂L/∂P(σ) (an array, like
        them) to ∂L/∂p per arc of ``arg`` for any L of these probabilities.

        The map is one transposed solve on the factor already computed: with
        ``c`` the trace gradients weighted by each hit's arc probability at
        the hit's key, ``λ = (I - P^T)^{-T} c``, and an arc gets its hits'
        ``∂L/∂P(σ) * x[key]`` plus its edges' ``λ[dst] * x[src]``.  Traces
        the graph cannot produce have no arcs to credit and are ignored.
        """
        arc_prob = arg.arc_prob
        n_arcs = len(arc_prob)
        if not self.producible.any():
            return np.zeros(len(self.traces)), lambda trace_grad: np.zeros(n_arcs)
        np.subtract(
            self._identity,
            np.bincount(self._edge_slot, arc_prob[self._edge_arc], len(self._identity)),
            out=self._matrix.data,
        )
        try:
            lu = splu(self._matrix, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise IllConditioned(f"trace probability solve failed: {exc}") from exc
        visits = lu.solve(self._e0)
        probs = np.bincount(self._hit_target, visits[self._hit_key] * arc_prob[self._hit_arc], len(self.traces))
        if not np.all((probs >= -_PROB_TOL) & (probs <= 1.0 + _PROB_TOL)):
            raise IllConditioned(f"trace probability solve left [0, 1]: {probs.min()} .. {probs.max()}")

        def pullback(trace_grad: np.ndarray) -> np.ndarray:
            hit_grad = trace_grad[self._hit_target]
            c = np.bincount(self._hit_key, hit_grad * arc_prob[self._hit_arc], len(visits))
            adjoint = lu.solve(c, trans="T")
            arc_grad = np.bincount(self._hit_arc, hit_grad * visits[self._hit_key], n_arcs)
            arc_grad += np.bincount(self._edge_arc, adjoint[self._edge_dst] * visits[self._edge_src], n_arcs)
            return arc_grad

        return np.clip(probs, 0.0, 1.0), pullback


def trace_probabilities(arg: AnnotatedRG, traces: Iterable[Trace]) -> dict[Trace, float]:
    """Exact probability of each target trace; a target the graph cannot produce is absent.

    Builds the product and solves it once; callers that score many weight
    vectors against one target set keep a :class:`PrefixProduct` instead.
    """
    product = PrefixProduct(arg.rg, traces)
    probs = product.probabilities(arg).tolist()
    return {t: p for t, p, hit in zip(product.traces, probs, product.producible) if hit}


def unfold_language(arg: AnnotatedRG, coverage: float = 1.0, max_trace_len: int | None = None) -> StochasticLanguage:
    """Unrestricted unfolding, stopped once completed mass reaches ``coverage``.

    The coverage check runs between levels, so each level is always fully
    merged before its keys are expanded.  Besides the caller's trace length
    budget, the unfolding stops after ``(1 + (max_trace_len or n_states)) *
    n_states`` levels and drops a key below :data:`PROB_FLOOR`.  The result
    has ``residual = 1 - sum(probs)``; a residual above ``1 - coverage`` means
    one of these bounds cut first.  Past :data:`MAX_PREFIXES` trie nodes it
    raises :class:`PrefixCapExceeded`.
    """
    if not (0.0 < coverage <= 1.0):
        raise ValueError("coverage must be in (0, 1]")
    if max_trace_len is not None and max_trace_len < 1:
        raise ValueError("max_trace_len must be >= 1")
    rg = arg.rg
    max_level = (1 + (max_trace_len or rg.n_states)) * rg.n_states

    # a path the length budget stops leaves its mass in the residual
    trie = _Trie(max_trace_len if max_trace_len is not None else math.inf)
    arcs = rg.out_arcs
    arc_prob = arg.arc_prob.tolist()
    sink = rg.sink_state
    collected: dict[int, float] = {}
    collected_mass = 0.0
    current: dict[tuple[int, int], float] = {(rg.initial, 0): 1.0}
    level = 0
    while current and collected_mass < coverage:
        nxt: dict[tuple[int, int], float] = {}
        for (state, node), pr in current.items():
            for a, dst, symbol in arcs[state]:
                if symbol is None:
                    new_node = node
                else:
                    new_node = trie.add(node, symbol)
                    if new_node is None:
                        continue
                new_pr = pr * arc_prob[a]
                if dst == sink:
                    collected[new_node] = collected.get(new_node, 0.0) + new_pr
                    collected_mass += new_pr
                elif level < max_level:
                    key = (dst, new_node)
                    if key in nxt:
                        nxt[key] += new_pr
                    else:
                        nxt[key] = new_pr
        current = {key: pr for key, pr in nxt.items() if pr >= PROB_FLOOR}
        level += 1

    probs = {trie.trace_of(node): pr for node, pr in collected.items()}
    residual = max(0.0, 1.0 - sum(probs.values()))
    return StochasticLanguage(probs=probs, residual=residual)
