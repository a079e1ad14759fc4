"""Seeded benchmark instances: process-tree workflow nets plus sampled logs.

Nets are compiled from random process trees (sequence, exclusive choice,
parallel split, loop; silent leaves allowed) with the block-structured
translation, so every net is a sound 1-safe workflow net.  Unlike the
property-test generator under ``tests/`` every visible leaf gets its own
activity label, as a discovery algorithm's output would.

Logs are sampled by playing the token game at hidden weights (independent of
``swnopt.semantics``), discarding cases longer than a step cap, and cutting
the log to its top-K variants.  Size windows below are properties of the
generated instance only; no window looks at how long the program takes.
"""

import hashlib
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from swnopt.logs import EventLog, write_xes
from swnopt.nets import LabeledPetriNet, StochasticWorkflowNet, WorkflowNet, validate_workflow
from swnopt.pnml import write_pnml

STEP_CAP = 200


@dataclass(frozen=True)
class Window:
    """Accepted ranges for one family of generated instances."""

    leaves: tuple[int, int]
    transitions: tuple[int, int]
    states: tuple[int, int]  # reachable markings
    sample: int  # cases simulated
    cases: int  # cases written: the top-K counts scaled to this total
    top_k: int
    min_support: int
    loops: bool
    min_kept: float  # share of sampled cases inside the top-K variants
    max_trace_len: int
    language: tuple[int, int] | None = None  # complete traces of length <= max_trace_len


@dataclass
class Instance:
    """One benchmark input: net file, log file, and what they contain."""

    name: str
    wn: WorkflowNet
    net_path: Path
    log_path: Path
    hidden_weights: dict[str, float]
    log: EventLog
    stats: dict

    @property
    def entropy(self) -> float:
        """Empirical entropy of the log: the floor of the lh divergence."""
        total = self.log.total
        return -sum(f / total * math.log(f / total) for f in self.log.entries.values())


# ---------------------------------------------------------------------------
# process trees


def _gen_tree(rng: random.Random, n: int, loops: bool):
    """A random tree with exactly ``n`` leaves (labels assigned later)."""
    if n == 1:
        return ["leaf", rng.random() >= 0.12]  # True: visible
    kinds = ["seq", "xor", "and"] + (["loop"] if loops and n >= 2 else [])
    weights = [0.45, 0.3, 0.12] + ([0.13] if len(kinds) == 4 else [])
    kind = rng.choices(kinds, weights)[0]
    if kind == "loop":
        redo = 1 if n < 4 or rng.random() < 0.6 else rng.randint(1, max(1, n // 4))
        body = _gen_tree(rng, n - redo, loops)
        return ["loop", _visible(body), _gen_tree(rng, redo, False)]
    k = min(n, rng.choice((2, 2, 3)) if kind != "seq" else rng.randint(2, 4))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return [kind] + [_gen_tree(rng, s, loops) for s in sizes]


def _visible(tree):
    """Loop bodies must be able to emit something."""
    if not _has_visible(tree):
        _first_leaf(tree)[1] = True
    return tree


def _has_visible(tree) -> bool:
    if tree[0] == "leaf":
        return tree[1]
    return any(_has_visible(c) for c in tree[1:])


def _first_leaf(tree):
    while tree[0] != "leaf":
        tree = tree[1]
    return tree


class _Builder:
    def __init__(self):
        self.places = ["source", "sink"]
        self.transitions: list[str] = []
        self.labeling: dict[str, str | None] = {}
        self.flow: dict[tuple[str, str], int] = {}
        self.n_labels = 0

    def place(self) -> str:
        name = f"p{len(self.places) - 1}"
        self.places.append(name)
        return name

    def transition(self, visible: bool, pre, post) -> None:
        name = f"t{len(self.transitions) + 1}"
        self.transitions.append(name)
        label = None
        if visible:
            label = f"a{self.n_labels:02d}"
            self.n_labels += 1
        self.labeling[name] = label
        for p in pre:
            self.flow[(p, name)] = 1
        for p in post:
            self.flow[(name, p)] = 1

    def compile(self, tree, p_in: str, p_out: str) -> None:
        kind = tree[0]
        if kind == "leaf":
            self.transition(tree[1], [p_in], [p_out])
        elif kind == "seq":
            current = p_in
            for child in tree[1:-1]:
                nxt = self.place()
                self.compile(child, current, nxt)
                current = nxt
            self.compile(tree[-1], current, p_out)
        elif kind == "xor":
            for child in tree[1:]:
                self.compile(child, p_in, p_out)
        elif kind == "and":
            entries = [self.place() for _ in tree[1:]]
            exits = [self.place() for _ in tree[1:]]
            self.transition(False, [p_in], entries)
            for child, e, x in zip(tree[1:], entries, exits):
                self.compile(child, e, x)
            self.transition(False, exits, [p_out])
        else:  # loop
            body_in, body_out = self.place(), self.place()
            self.transition(False, [p_in], [body_in])
            self.compile(tree[1], body_in, body_out)
            self.compile(tree[2], body_out, body_in)
            self.transition(False, [body_out], [p_out])


def tree_to_net(tree) -> WorkflowNet:
    builder = _Builder()
    builder.compile(tree, "source", "sink")
    net = LabeledPetriNet(
        places=tuple(builder.places),
        transitions=tuple(builder.transitions),
        flow=builder.flow,
        labeling=builder.labeling,
        initial_marking={"source": 1},
    )
    return validate_workflow(net, "source", "sink")


# ---------------------------------------------------------------------------
# token game on bitmasks (kept separate from swnopt.semantics on purpose)


class TokenGame:
    def __init__(self, wn: WorkflowNet):
        net = wn.net
        index = {p: i for i, p in enumerate(net.places)}
        self.pre = [0] * len(net.transitions)
        self.post = [0] * len(net.transitions)
        for (src, dst) in net.flow:
            if src in index:
                self.pre[net.transitions.index(dst)] |= 1 << index[src]
            else:
                self.post[net.transitions.index(src)] |= 1 << index[dst]
        self.labels = [net.labeling[t] for t in net.transitions]
        self.initial = 1 << index[wn.source]
        self.final = 1 << index[wn.sink]

    def enabled(self, marking: int) -> list[int]:
        return [t for t, pre in enumerate(self.pre) if marking & pre == pre]

    def fire(self, marking: int, t: int) -> int:
        return (marking & ~self.pre[t]) | self.post[t]

    def states_and_arcs(self, cap: int) -> tuple[int, int]:
        """Reachable markings and arcs; stops counting states past ``cap``."""
        seen = {self.initial}
        frontier = [self.initial]
        arcs = 0
        while frontier and len(seen) <= cap:
            nxt = []
            for m in frontier:
                for t in self.enabled(m):
                    arcs += 1
                    m2 = self.fire(m, t)
                    if m2 not in seen:
                        seen.add(m2)
                        nxt.append(m2)
            frontier = nxt
        return len(seen), arcs

    def sample(self, rng: random.Random, weights: list[float], cases: int) -> list[tuple[str, ...]]:
        """Cases played at the given weights; a case past STEP_CAP firings is dropped."""
        steps: dict[int, tuple[list[int], list[float]]] = {}
        out = []
        for _ in range(cases):
            marking, trace = self.initial, []
            for _ in range(STEP_CAP):
                if marking == self.final:
                    break
                if marking not in steps:
                    choices = self.enabled(marking)
                    steps[marking] = (choices, list(accumulate(weights[c] for c in choices)))
                choices, cum = steps[marking]
                t = rng.choices(choices, cum_weights=cum)[0]
                marking = self.fire(marking, t)
                if self.labels[t] is not None:
                    trace.append(self.labels[t])
            if marking == self.final:
                out.append(tuple(trace))
        return out

    def language_size(self, max_len: int, cap: int) -> int:
        """Distinct complete traces of length <= max_len, counted up to cap + 1."""
        found: set[tuple[str, ...]] = set()
        seen = {(self.initial, ())}
        stack = [(self.initial, ())]
        while stack and len(found) <= cap:
            marking, trace = stack.pop()
            if marking == self.final:
                found.add(trace)
                continue
            for t in self.enabled(marking):
                label = self.labels[t]
                nxt_trace = trace if label is None else trace + (label,)
                if len(nxt_trace) > max_len:
                    continue
                key = (self.fire(marking, t), nxt_trace)
                if key not in seen:
                    seen.add(key)
                    stack.append(key)
        return len(found)


# ---------------------------------------------------------------------------
# instances


def _file_hash(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def write_instance(name: str, wn: WorkflowNet, weights: dict[str, float], log: EventLog, out: Path, **stats) -> Instance:
    """Write the net (at ``weights``) and the log, and record their sizes."""
    net_path = out / f"{name}.pnml"
    log_path = out / f"{name}.xes"
    net_path.write_bytes(write_pnml(StochasticWorkflowNet(wn, weights)))
    log_path.write_bytes(write_xes(log))
    stats = dict(stats)
    stats.update(
        transitions=len(wn.net.transitions),
        support=len(log.entries),
        longest_trace=max(len(t) for t in log.entries),
        cases=log.total,
        sha256=_file_hash(net_path, log_path),
    )
    return Instance(name, wn, net_path, log_path, dict(weights), log, stats)


def sample_log(
    game: TokenGame, rng: random.Random, weights: list[float], sample: int, top_k: int, cases: int | None = None
) -> tuple[EventLog, float]:
    """Top-K variants of ``sample`` simulated cases, and the share of cases kept.

    With ``cases``, the kept counts are scaled to that total (each at least
    one), so the written log is small while its frequencies carry the
    precision of the larger sample.
    """
    counts: dict[tuple[str, ...], int] = {}
    for trace in game.sample(rng, weights, sample):
        counts[trace] = counts.get(trace, 0) + 1
    top = dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k])
    kept = sum(top.values())
    if cases is not None:
        top = {t: max(1, round(c * cases / kept)) for t, c in top.items()}
    return EventLog(top), kept / sample


def _fits(game: TokenGame, rng: random.Random, weights: list[float], window: Window) -> bool:
    """Pilot sample: enough distinct variants, concentrated enough, short enough."""
    log, kept = sample_log(game, rng, weights, 400, window.top_k)
    return (
        len(log.entries) >= window.min_support
        and kept >= window.min_kept
        and max(map(len, log.entries), default=0) <= window.max_trace_len
    )


def draw_net(rng: random.Random, window: Window) -> tuple[WorkflowNet, list[float], dict]:
    """Draw trees and hidden weights from ``rng`` until one meets ``window``."""
    for attempt in range(1, 10_000):
        wn = tree_to_net(_gen_tree(rng, rng.randint(*window.leaves), window.loops))
        n_t = len(wn.net.transitions)
        if not (window.transitions[0] <= n_t <= window.transitions[1]):
            continue
        game = TokenGame(wn)
        states, arcs = game.states_and_arcs(window.states[1])
        if not (window.states[0] <= states <= window.states[1]):
            continue
        stats = {"states": states, "arcs": arcs}
        if window.language is not None:
            stats["language"] = game.language_size(window.max_trace_len, window.language[1])
            if not (window.language[0] <= stats["language"] <= window.language[1]):
                continue
        weights = [rng.uniform(0.2, 2.0) for _ in range(n_t)]
        if _fits(game, random.Random(attempt), weights, window):
            return wn, weights, stats
    raise RuntimeError(f"no net met window {window}")


def generate(name: str, net_rng: random.Random, log_rng: random.Random, window: Window, out: Path) -> Instance:
    """A net drawn from ``net_rng`` and a log sampled from it with ``log_rng``."""
    wn, weights, stats = draw_net(net_rng, window)
    log, kept = sample_log(TokenGame(wn), log_rng, weights, window.sample, window.top_k, window.cases)
    hidden = dict(zip(wn.net.transitions, weights))
    return write_instance(name, wn, hidden, log, out, kept=round(kept, 4), **stats)
