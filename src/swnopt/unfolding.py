"""Trace probabilities of an annotated reachability graph.

* Restricted unfolding, the probability of each trace of a fixed target set
  (a log's support), is one linear solve over :class:`PrefixProduct`,
  the product of the graph with the targets' prefix trie.  The product
  depends only on the graph and the targets, so it is built once.  Inside,
  probabilities are arrays in the product's target order; dicts keyed by
  trace only at the edge (:func:`trace_probabilities`).  Silent
  cycles need no budget: the solve gives their exact absorption
  probabilities, the construction for trace probabilities of stochastic
  labelled Petri nets in Leemans, Syring & van der Aalst, *Earth Movers'
  Stochastic Conformance Checking* (BPM Forum 2019).  The targets' trie is
  as large as the targets themselves, so it has no size cap.
* :func:`unfold_language` unfolds the free language best first, most
  probable trace next, until the collected mass reaches a coverage
  threshold.  The silent moves are factored once per call, so silent cycles
  are exact here too.  A caller sets two budgets, the coverage and an
  optional trace length.  The language may be infinite, so the code caps
  the prefixes it creates at :data:`MAX_PREFIXES`.  The mass not collected
  is left in ``residual``.

Both read a trace's probability as the expected visits of the sink, which
has no outgoing arcs: at the product key (sink, σ), or at the sink entry of
prefix u's visits.  Both prune the nodes from which no trace can end
(:func:`_reaching`) and accept a solved probability only inside [0, 1]
(:func:`_unit_interval`).
"""

import heapq
from typing import Callable, Iterable

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse.linalg import splu

from .errors import ComputationError
from .logs import StochasticLanguage, Trace
from .semantics import AnnotatedRG, ReachabilityGraph

#: Most trace prefixes the free unfolding may create; past it PrefixCapExceeded is raised.
MAX_PREFIXES = 1 << 20

#: How far a solved probability may leave [0, 1] before the solve is rejected.
_PROB_TOL = 1e-9

#: Most keys a :class:`PrefixProduct` solves with dense LU; a larger one goes to
#: SuperLU.  Below the measured crossover, about 75 keys on one core.
_DENSE_KEYS = 64


class PrefixCapExceeded(ComputationError):
    """An unfolding needed more than MAX_PREFIXES distinct trace prefixes."""


class IllConditioned(ComputationError):
    """Trace probabilities beyond float precision (a silent cycle's escape is below it)."""


def _reaching(n: int, edges: Iterable[tuple[int, int]], seeds: Iterable[int]) -> np.ndarray:
    """Mask of the ``n`` nodes from which a seed is reachable along ``edges``, (source, destination) pairs."""
    preds: list[list[int]] = [[] for _ in range(n)]
    for src, dst in edges:
        preds[dst].append(src)
    live = [False] * n
    stack = list(seeds)
    while stack:
        k = stack.pop()
        if not live[k]:
            live[k] = True
            stack.extend(preds[k])
    return np.array(live, dtype=bool)


class _DenseLU:
    """LAPACK LU factor (``dgetrf``, partial pivoting) of a dense matrix, with SuperLU's ``solve``."""

    def __init__(self, matrix: np.ndarray):
        self._lu, self._piv, info = dgetrf(matrix, overwrite_a=True)
        if info > 0:
            raise IllConditioned(f"trace probability solve failed: U({info}, {info}) is exactly zero")

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return dgetrs(self._lu, self._piv, rhs, trans=int(trans == "T"))[0]


def _factor(matrix: np.ndarray | sparse.csc_array):
    """LU factor of ``matrix`` with ``solve(rhs, trans="N"|"T")``: LAPACK's for a
    dense (Fortran-ordered, overwritten) array, SuperLU's in natural order for a
    sparse one.  :class:`IllConditioned` when it is singular."""
    if isinstance(matrix, np.ndarray):
        return _DenseLU(matrix)
    try:
        return splu(matrix, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise IllConditioned(f"trace probability solve failed: {exc}") from exc


def _unit_interval(probs: np.ndarray) -> np.ndarray:
    """``probs`` clipped to [0, 1]; :class:`IllConditioned` when one leaves it by more than :data:`_PROB_TOL`."""
    if not probs.size:
        return probs
    lo, hi = probs.min(), probs.max()
    if not (lo >= -_PROB_TOL and hi <= 1.0 + _PROB_TOL):  # a NaN fails both
        raise IllConditioned(f"trace probability solve left [0, 1]: {lo} .. {hi}")
    return probs if lo >= 0.0 and hi <= 1.0 else np.clip(probs, 0.0, 1.0)


class PrefixProduct:
    """The graph × target-trie product and the sparse pattern of ``I - P^T``.

    ``traces`` is any iterable of target traces; the empty trace is allowed,
    and an empty set raises ``ValueError``.  The attribute ``traces`` keeps
    the distinct ones in first-seen order, the order of every probability
    array.  Keys are (state, node) pairs over the targets' prefix trie,
    numbered breadth first from (initial state, root) along target
    prefixes: a silent arc keeps the node, a visible arc steps the trie.
    Target σ's *end key* is (sink, σ's node); the sink has no outgoing arcs,
    so the key is absorbing and its expected visits are P(σ).
    ``producible`` masks the targets whose end key exists.  Keys from which
    no end key is reachable are pruned with their arcs: they carry no target
    mass, and an exitless silent cycle among them would make the system
    singular.  The expected visits ``x`` of the keys solve
    ``(I - P^T) x = e_0``.  The adjoint ``λ = (I - P^T)^{-T} c`` reuses the
    same LU factor, so the gradient of any function of the P(σ) with respect
    to every arc probability costs one more (transposed) solve.  Parallel
    arcs between two keys share one slot of the pattern.  The pattern is
    fixed once and each solve overwrites its values in place, so one product
    must not be solved by two threads at once.

    A product of at most :data:`_DENSE_KEYS` (64) keys is factored dense, by
    LAPACK's ``dgetrf`` on a matrix filled from the pattern; a larger one by
    SuperLU on the sparse pattern itself.  Both go through :func:`_factor`.
    On a small system SuperLU's fixed set-up costs more than the arithmetic,
    which dense LU does not pay, while dense work grows as the cube of the
    keys; the two cost the same near 75 keys.  They pivot and sum in
    different orders, so where a silent cycle couples keys the probabilities
    of the two paths can differ in the last bits.
    """

    def __init__(self, rg: ReachabilityGraph, traces: Iterable[Trace]):
        self.traces: tuple[Trace, ...] = tuple(dict.fromkeys(map(tuple, traces)))
        if not self.traces:
            raise ValueError("target trace set must be non-empty")
        children: list[dict[str, int]] = [{}]  # the targets' prefix trie; node 0 is the root
        ends = []  # the trie node each target ends at, in self.traces order
        for trace in self.traces:
            node = 0
            for symbol in trace:
                node = children[node].setdefault(symbol, len(children))
                if node == len(children):
                    children.append({})
            ends.append(node)

        index = {(rg.initial, 0): 0}
        keys = [(rg.initial, 0)]
        edges = []  # (source key, destination key, arc)
        for src, (state, node) in enumerate(keys):  # keys grows while iterated: breadth first
            for a, dst, symbol in rg.out_arcs[state]:
                nxt = node if symbol is None else children[node].get(symbol)
                if nxt is None:
                    continue
                key = (dst, nxt)
                if key not in index:
                    index[key] = len(keys)
                    keys.append(key)
                edges.append((src, index[key], a))

        end_key = np.array([index.get((rg.sink_state, node), -1) for node in ends], dtype=np.int64)
        self.producible = end_key >= 0
        end_key = end_key[self.producible]
        live = _reaching(len(keys), [(src, dst) for src, dst, _ in edges], end_key)
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
        self._dense_at = slots  # column * n + row: a slot's place in a Fortran-ordered n x n array
        self._edge_slot = slot_of[n:]
        self._edge_src, self._edge_dst = renumber[kept[:, 0]], renumber[kept[:, 1]]
        self._edge_arc = kept[:, 2]
        self._end_key = renumber[end_key]
        self._e0 = np.eye(1, n)[0]

    def probabilities(self, arg: AnnotatedRG) -> np.ndarray:
        """Probability of each target trace, in :attr:`traces` order; 0.0 for a
        target the graph cannot produce.  Raises :class:`IllConditioned` when
        the solve fails or gives a probability outside [0, 1]."""
        return self.probabilities_with_pullback(arg)[0]

    def probabilities_with_pullback(self, arg: AnnotatedRG) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """:meth:`probabilities`, plus the map from ∂L/∂P(σ) (an array, like
        them) to ∂L/∂p per arc of ``arg`` for any L of these probabilities.

        P(σ) is the visits of σ's end key.  The map is one transposed solve
        on the factor already computed: with ``c`` the trace gradients placed
        at the end keys, ``λ = (I - P^T)^{-T} c``, and an arc gets its edges'
        ``λ[dst] * x[src]``.  Traces the graph cannot produce have no end key
        and are ignored.
        """
        arc_prob = arg.arc_prob
        n_arcs = len(arc_prob)
        probs = np.zeros(len(self.traces))
        if not len(self._end_key):
            return probs, lambda trace_grad: np.zeros(n_arcs)
        values = np.subtract(
            self._identity,
            np.bincount(self._edge_slot, arc_prob[self._edge_arc], len(self._identity)),
            out=self._matrix.data,
        )
        n = len(self._e0)
        if n <= _DENSE_KEYS:
            dense = np.zeros(n * n)
            dense[self._dense_at] = values
            lu = _factor(dense.reshape((n, n), order="F"))
        else:
            lu = _factor(self._matrix)
        visits = lu.solve(self._e0)
        probs[self.producible] = visits[self._end_key]
        probs = _unit_interval(probs)

        def pullback(trace_grad: np.ndarray) -> np.ndarray:
            c = np.zeros(len(visits))
            c[self._end_key] = trace_grad[self.producible]
            adjoint = lu.solve(c, trans="T")
            return np.bincount(self._edge_arc, adjoint[self._edge_dst] * visits[self._edge_src], n_arcs)

        return probs, pullback


def trace_probabilities(arg: AnnotatedRG, traces: Iterable[Trace]) -> dict[Trace, float]:
    """Exact probability of each target trace; a target the graph cannot produce is absent.

    Builds the product and solves it once; callers that score many weight
    vectors against one target set keep a :class:`PrefixProduct` instead.
    """
    product = PrefixProduct(arg.rg, traces)
    probs = product.probabilities(arg).tolist()
    return {t: p for t, p, producible in zip(product.traces, probs, product.producible) if producible}


def budget_error(coverage: float, max_trace_len: int | None) -> tuple[str, str] | None:
    """The first budget of :func:`unfold_language` out of range, as (parameter, rule), or None."""
    if not (0.0 < coverage <= 1.0):
        return "coverage", "must be in (0, 1]"
    if max_trace_len is not None and max_trace_len < 1:
        return "max_trace_len", "must be >= 1"
    return None


def unfold_language(arg: AnnotatedRG, coverage: float = 1.0, max_trace_len: int | None = None) -> StochasticLanguage:
    """The free language, most probable trace first, up to the first trace
    that brings the collected mass to ``coverage``.

    The silent moves are factored once: ``S = (I - P_τ)^{-1}`` over the
    markings that can reach the sink.  A prefix u holds one row vector
    ``v_u`` of expected visits, ``v_ua = (v_u P_a) S``, and P(u) is ``v_u``
    at the sink, exact through silent cycles.  A heap holds each prefix by
    the mass entering it, ``sum(v_u P_a)``, which bounds every completion,
    and each complete trace by P(u), ties by the prefix's creation order,
    labels sorted.  No prefix grows past ``max_trace_len``.  The result has
    ``residual = 1 - sum(probs)``; a residual above ``1 - coverage`` means
    the length budget or markings that cannot reach the sink cut it.  Past
    :data:`MAX_PREFIXES` prefixes it raises :class:`PrefixCapExceeded`, on a
    singular closure or a probability outside [0, 1] :class:`IllConditioned`.
    """
    if error := budget_error(coverage, max_trace_len):
        raise ValueError(" ".join(error))
    rg = arg.rg
    if rg.sink_state is None:
        return StochasticLanguage(probs={}, residual=1.0)
    edges = ((src, dst) for src, row in enumerate(rg.out_arcs) for _, dst, _ in row)
    live = _reaching(rg.n_states, edges, [rg.sink_state])
    n, arc_prob = rg.n_states, arg.arc_prob.tolist()
    labels = sorted({symbol for row in rg.out_arcs for _, _, symbol in row} - {None})
    # P_τ^T, then P_a^T for each label a in order, stacked.  Arcs into markings
    # that cannot reach the sink are dropped, which isolates those markings.
    first_row = {None: 0} | {symbol: (k + 1) * n for k, symbol in enumerate(labels)}
    rows, cols, values = zip(*(
        (first_row[symbol] + dst, src, arc_prob[a])
        for src, row in enumerate(rg.out_arcs) for a, dst, symbol in row if live[dst]
    ))
    moves = sparse.csr_array((values, (rows, cols)), shape=((len(labels) + 1) * n, n))
    closure = _factor(sparse.csc_array(sparse.eye_array(n) - moves[:n]))
    steps = moves[n:]

    sink = rg.sink_state
    start = closure.solve(np.eye(1, n, rg.initial)[0])
    heap = [(-1.0, 0, (), start)]
    created = 1
    collected: dict[Trace, float] = {}
    mass = 0.0
    while heap:
        key, made, trace, visits = heapq.heappop(heap)
        if visits is None:
            collected[trace] = -key
            mass -= key
            if not mass < coverage:  # NaN stops the walk too; the range check rejects it
                break
            continue
        if visits[sink] != 0.0:
            heapq.heappush(heap, (-float(visits[sink]), made, trace, None))
        if len(trace) == max_trace_len:
            continue
        before = (steps @ visits).reshape(len(labels), n)
        fired = np.flatnonzero(before.any(axis=1)).tolist()
        if not fired:
            continue
        if created + len(fired) > MAX_PREFIXES:
            raise PrefixCapExceeded(
                f"over {MAX_PREFIXES} trace prefixes after {len(collected)} traces of mass {mass}; "
                "lower --coverage to at most that mass or set --max-trace-len"
            )
        inflow = before[fired].sum(axis=1).tolist()
        for k, mass_in, after in zip(fired, inflow, closure.solve(before[fired].T).T):  # one solve, a column per label
            heapq.heappush(heap, (-mass_in, created, trace + (labels[k],), after))
            created += 1

    clipped = _unit_interval(np.fromiter(collected.values(), np.float64, len(collected))).tolist()
    probs = {trace: p for trace, p in zip(collected, clipped) if p > 0.0}
    return StochasticLanguage(probs=probs, residual=max(0.0, 1.0 - sum(probs.values())))
