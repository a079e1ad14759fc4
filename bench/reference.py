"""The two hand-built reference nets, their logs, and closed-form oracles.

These are kept in the benchmark rather than imported from ``tests/`` so that
edits to the test suite cannot move the benchmark.

* parallel-choice: ``a`` forks a branch running ``b`` and a branch choosing
  ``c`` or ``d``; a silent join ends the case.  At weights b=0.3, c=d=0.35 its
  language equals the log's, so the lh floor (the log entropy) is reachable.
* two-loop: a silent split into a repeatable ``A`` loop and an optional
  repeatable ``Q`` loop, closed by a silent join.  The probabilities of
  <Q, A> and <A, A> have closed forms in the weights.
"""

from swnopt.logs import EventLog
from swnopt.nets import LabeledPetriNet, WorkflowNet, validate_workflow

#: Log entropy of the parallel-choice log, -(0.3 ln 0.15 + 0.7 ln 0.35).
PARALLEL_CHOICE_ENTROPY = 1.3040115

PARALLEL_CHOICE_WEIGHTS = {"a": 1.0, "b": 0.3, "c": 0.35, "d": 0.35, "tau": 1.0}


def _net(places, transitions, arcs, labeling) -> WorkflowNet:
    net = LabeledPetriNet(
        places=places,
        transitions=transitions,
        flow={arc: 1 for arc in arcs},
        labeling=labeling,
        initial_marking={"source": 1},
    )
    return validate_workflow(net, "source", "sink")


def parallel_choice_wn() -> WorkflowNet:
    return _net(
        ("source", "p2", "p3", "p4", "p5", "sink"),
        ("a", "b", "c", "d", "tau"),
        [
            ("source", "a"), ("a", "p2"), ("a", "p3"), ("p2", "b"), ("b", "p4"),
            ("p3", "c"), ("c", "p5"), ("p3", "d"), ("d", "p5"),
            ("p4", "tau"), ("p5", "tau"), ("tau", "sink"),
        ],
        {"a": "a", "b": "b", "c": "c", "d": "d", "tau": None},
    )


def parallel_choice_log() -> EventLog:
    return EventLog({("a", "b", "c"): 15, ("a", "c", "b"): 35, ("a", "b", "d"): 15, ("a", "d", "b"): 35})


def two_loop_wn() -> WorkflowNet:
    return _net(
        ("source", "p1", "p2", "p3", "p4", "p5", "p6", "sink"),
        ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "tA", "tQ"),
        [
            ("source", "t4"), ("t4", "p2"), ("t4", "p4"), ("p2", "tA"), ("tA", "p3"),
            ("p3", "t6"), ("t6", "p2"), ("p4", "t3"), ("t3", "p5"), ("p4", "t7"),
            ("t7", "p1"), ("p5", "tQ"), ("tQ", "p6"), ("p6", "t1"), ("t1", "p1"),
            ("p6", "t2"), ("t2", "p5"), ("p1", "t5"), ("p3", "t5"), ("t5", "sink"),
        ],
        {"t1": None, "t2": None, "t3": None, "t4": None, "t5": None, "t6": None, "t7": None, "tA": "A", "tQ": "Q"},
    )


def two_loop_log() -> EventLog:
    return EventLog(
        {
            ("A", "A", "A", "A"): 1,
            ("A", "A", "A"): 1,
            ("Q", "A", "Q", "A", "Q"): 1,
            ("A", "A"): 1,
            ("A", "A", "Q", "Q", "A"): 1,
        }
    )


def closed_form_qa(w: dict[str, float]) -> float:
    """Exact probability of trace <Q, A> on the two-loop net."""
    w1, w2, w3, w5, w6, w7 = w["t1"], w["t2"], w["t3"], w["t5"], w["t6"], w["t7"]
    wa, wq = w["tA"], w["tQ"]
    num = w1 * w3 * w5 * (w1 + w2 + w6 + wa) * wq
    den = (w1 + w2 + w6) * (w5 + w6) * (w1 + w2 + wa) * (w3 + w7 + wa) * (wa + wq)
    return num / den


def closed_form_aa(w: dict[str, float]) -> float:
    """Exact probability of trace <A, A> on the two-loop net."""
    w3, w5, w6, w7, wa = w["t3"], w["t5"], w["t6"], w["t7"], w["tA"]
    num = w5 * w6 * w7 * (w3 + w6 + w7 + wa) * ((w3 + w7) * (w3 + w6 + w7) + (w3 + w5 + 2 * w6 + w7) * wa)
    den = (w5 + w6) ** 2 * (w3 + w6 + w7) ** 2 * (w3 + w7 + wa) ** 2
    return num / den
