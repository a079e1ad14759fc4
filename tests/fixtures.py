"""Reference nets and logs shared across the test suite.

Two hand-built instances are used everywhere:

* the *parallel-choice* net: activity ``a`` forks two branches, one running
  ``b``, the other choosing between ``c`` and ``d``, joined by a silent
  transition into the sink.  With weights b=0.3, c=d=0.35 its language is
  {abc: 0.15, acb: 0.35, abd: 0.15, adb: 0.35}, matching the reference log.
* the *two-loop* net: after a silent split, one branch repeats activity
  ``A`` (at least once), the other optionally enters a repeatable ``Q``
  loop; a silent join closes both.  Its trace probabilities have closed
  forms (see :func:`closed_form_qa` / :func:`closed_form_aa`) used as
  oracles against the unfolding.
"""

from swnopt.logs import EventLog, StochasticLanguage, log_language
from swnopt.nets import LabeledPetriNet, StochasticWorkflowNet, WorkflowNet, validate_workflow


def parallel_choice_wn() -> WorkflowNet:
    net = LabeledPetriNet(
        places=("source", "p2", "p3", "p4", "p5", "sink"),
        transitions=("a", "b", "c", "d", "tau"),
        flow={
            ("source", "a"): 1,
            ("a", "p2"): 1,
            ("a", "p3"): 1,
            ("p2", "b"): 1,
            ("b", "p4"): 1,
            ("p3", "c"): 1,
            ("c", "p5"): 1,
            ("p3", "d"): 1,
            ("d", "p5"): 1,
            ("p4", "tau"): 1,
            ("p5", "tau"): 1,
            ("tau", "sink"): 1,
        },
        labeling={"a": "a", "b": "b", "c": "c", "d": "d", "tau": None},
        initial_marking={"source": 1},
    )
    return validate_workflow(net, "source", "sink")


def twin_label_wn() -> WorkflowNet:
    """``b1`` and ``b2``, both labelled ``b``, and ``a``: each moves the source token to the sink."""
    net = LabeledPetriNet(
        places=("source", "sink"),
        transitions=("b1", "b2", "a"),
        flow={
            ("source", "b1"): 1,
            ("b1", "sink"): 1,
            ("source", "b2"): 1,
            ("b2", "sink"): 1,
            ("source", "a"): 1,
            ("a", "sink"): 1,
        },
        labeling={"b1": "b", "b2": "b", "a": "a"},
        initial_marking={"source": 1},
    )
    return validate_workflow(net, "source", "sink")


PARALLEL_CHOICE_WEIGHTS = {"a": 1.0, "b": 0.3, "c": 0.35, "d": 0.35, "tau": 1.0}


def parallel_choice_swn() -> StochasticWorkflowNet:
    return StochasticWorkflowNet(parallel_choice_wn(), dict(PARALLEL_CHOICE_WEIGHTS))


def parallel_choice_log() -> EventLog:
    return EventLog(
        {
            ("a", "b", "c"): 15,
            ("a", "c", "b"): 35,
            ("a", "b", "d"): 15,
            ("a", "d", "b"): 35,
        }
    )


def parallel_choice_language() -> StochasticLanguage:
    return log_language(parallel_choice_log())


#: Exact language of the parallel-choice net at the reference weights.
PARALLEL_CHOICE_PROBS = {
    ("a", "b", "c"): 0.15,
    ("a", "c", "b"): 0.35,
    ("a", "b", "d"): 0.15,
    ("a", "d", "b"): 0.35,
}


def two_loop_wn() -> WorkflowNet:
    """Nine transitions: seven silent (t1..t7) plus activities A and Q.

    t4 splits source into p2 (the A side) and p4 (the Q side).  A: p2->p3
    with t6: p3->p2 closing the A loop.  On the Q side, t3: p4->p5 enters
    the loop (tQ: p5->p6, t2: p6->p5 repeats, t1: p6->p1 leaves) and
    t7: p4->p1 skips it entirely.  t5 joins p1 and p3 into the sink.
    """
    net = LabeledPetriNet(
        places=("source", "p1", "p2", "p3", "p4", "p5", "p6", "sink"),
        transitions=("t1", "t2", "t3", "t4", "t5", "t6", "t7", "tA", "tQ"),
        flow={
            ("source", "t4"): 1,
            ("t4", "p2"): 1,
            ("t4", "p4"): 1,
            ("p2", "tA"): 1,
            ("tA", "p3"): 1,
            ("p3", "t6"): 1,
            ("t6", "p2"): 1,
            ("p4", "t3"): 1,
            ("t3", "p5"): 1,
            ("p4", "t7"): 1,
            ("t7", "p1"): 1,
            ("p5", "tQ"): 1,
            ("tQ", "p6"): 1,
            ("p6", "t1"): 1,
            ("t1", "p1"): 1,
            ("p6", "t2"): 1,
            ("t2", "p5"): 1,
            ("p1", "t5"): 1,
            ("p3", "t5"): 1,
            ("t5", "sink"): 1,
        },
        labeling={
            "t1": None,
            "t2": None,
            "t3": None,
            "t4": None,
            "t5": None,
            "t6": None,
            "t7": None,
            "tA": "A",
            "tQ": "Q",
        },
        initial_marking={"source": 1},
    )
    return validate_workflow(net, "source", "sink")


def two_loop_swn(weights: dict[str, float] | float = 1.0) -> StochasticWorkflowNet:
    wn = two_loop_wn()
    if isinstance(weights, dict):
        mapping = dict(weights)
    else:
        mapping = {t: float(weights) for t in wn.net.transitions}
    return StochasticWorkflowNet(wn, mapping)


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


def single_transition_wn() -> WorkflowNet:
    net = LabeledPetriNet(
        places=("source", "sink"),
        transitions=("a",),
        flow={("source", "a"): 1, ("a", "sink"): 1},
        labeling={"a": "a"},
        initial_marking={"source": 1},
    )
    return validate_workflow(net, "source", "sink")


def silent_livelock_wn() -> WorkflowNet:
    """A net whose silent loop has low escape probability; used for exactness and budget tests.

    source -> t_in -> p ; p -> t_loop -> p is forbidden (not 1-safe), so the
    loop runs through two places: p -> t_go -> q -> t_back -> p, with
    p -> emit(a) -> r -> t_out -> sink as the only way out.
    """
    net = LabeledPetriNet(
        places=("source", "p", "q", "r", "sink"),
        transitions=("t_in", "t_go", "t_back", "emit", "t_out"),
        flow={
            ("source", "t_in"): 1,
            ("t_in", "p"): 1,
            ("p", "t_go"): 1,
            ("t_go", "q"): 1,
            ("q", "t_back"): 1,
            ("t_back", "p"): 1,
            ("p", "emit"): 1,
            ("emit", "r"): 1,
            ("r", "t_out"): 1,
            ("t_out", "sink"): 1,
        },
        labeling={"t_in": None, "t_go": None, "t_back": None, "emit": "a", "t_out": None},
        initial_marking={"source": 1},
    )
    return validate_workflow(net, "source", "sink")
