"""Independent Monte-Carlo oracle: direct token-game simulation of a
stochastic workflow net, vectorized over runs.

Deliberately built from the net alone (place bitmasks, pre/post sets) so it
shares no code with the reachability graph or the unfolding.  Each run walks
the token game until the sink marking, a deadlock, or the step cap; trace
identity is tracked against a fixed target set, so runs whose trace stops
being a prefix of any target are retired early into the "other" bucket.
"""

import numpy as np

from swnopt.logs import Trace
from swnopt.nets import StochasticWorkflowNet


def _target_automaton(targets: list[Trace], alphabet: list[str]):
    """Prefix-trie transition table: state x symbol -> state (-1 = dead)."""
    sym_idx = {s: i for i, s in enumerate(alphabet)}
    children: list[dict[int, int]] = [{}]
    member: list[bool] = [False]
    for trace in targets:
        node = 0
        for symbol in trace:
            idx = sym_idx[symbol]
            nxt = children[node].get(idx)
            if nxt is None:
                nxt = len(children)
                children[node][idx] = nxt
                children.append({})
                member.append(False)
            node = nxt
        member[node] = True
    table = np.full((len(children), len(alphabet)), -1, dtype=np.int64)
    for node, kids in enumerate(children):
        for idx, nxt in kids.items():
            table[node, idx] = nxt
    node_of: dict[Trace, int] = {}
    for trace in targets:
        node = 0
        for symbol in trace:
            node = int(table[node, sym_idx[symbol]])
        node_of[trace] = node
    return table, np.array(member, dtype=bool), node_of


def simulate_target_frequencies(
    swn: StochasticWorkflowNet,
    targets: list[Trace],
    n_runs: int,
    seed: int,
    max_steps: int = 5000,
) -> dict[Trace, int]:
    """Number of simulated runs completing each target trace exactly."""
    net = swn.wn.net
    place_idx = {p: i for i, p in enumerate(net.places)}
    n_t = len(net.transitions)

    pre = np.zeros(n_t, dtype=np.int64)
    post = np.zeros(n_t, dtype=np.int64)
    for (src, dst) in net.flow:
        if dst in net.labeling:  # place -> transition
            pre[net.transitions.index(dst)] |= 1 << place_idx[src]
        else:
            post[net.transitions.index(src)] |= 1 << place_idx[dst]

    alphabet = sorted({a for t in targets for a in t} | set(net.alphabet))
    sym_of_t = np.array(
        [alphabet.index(net.labeling[t]) if net.labeling[t] is not None else -1 for t in net.transitions],
        dtype=np.int64,
    )
    table, member, node_of = _target_automaton(targets, alphabet)

    weights = swn.weight_vector()
    initial = sum(1 << place_idx[p] for p, n in net.initial_marking.items() if n > 0)
    sink_mask = np.int64(1 << place_idx[swn.wn.sink])

    rng = np.random.default_rng(seed)
    marking = np.full(n_runs, initial, dtype=np.int64)
    node = np.zeros(n_runs, dtype=np.int64)
    finished = np.zeros(len(member), dtype=np.int64)

    for _ in range(max_steps):
        if marking.size == 0:
            break
        enabled = (marking[:, None] & pre[None, :]) == pre[None, :]
        totals = enabled @ weights
        live = totals > 0.0
        marking, node, totals, enabled = marking[live], node[live], totals[live], enabled[live]
        if marking.size == 0:
            break

        probs = (enabled * weights[None, :]) / totals[:, None]
        draws = rng.random(marking.size)
        chosen = (np.cumsum(probs, axis=1) < draws[:, None]).sum(axis=1)
        chosen = np.minimum(chosen, n_t - 1)

        marking = (marking & ~pre[chosen]) | post[chosen]
        symbols = sym_of_t[chosen]
        emits = symbols >= 0
        node[emits] = table[node[emits], symbols[emits]]

        alive = node >= 0
        at_sink = alive & (marking == sink_mask)
        if at_sink.any():
            np.add.at(finished, node[at_sink], 1)
        keep = alive & ~at_sink
        marking, node = marking[keep], node[keep]

    counts: dict[Trace, int] = {}
    for trace, trie_node in node_of.items():
        counts[trace] = int(finished[trie_node]) if member[trie_node] else 0
    return counts
