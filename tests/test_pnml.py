import math
import random
import re

import numpy as np
import pytest

from swnopt.nets import SILENT, LabeledPetriNet, NotAWorkflowNet, StochasticWorkflowNet, validate_workflow
from swnopt.pnml import (
    DanglingArc,
    DuplicateId,
    MalformedPnml,
    PnmlWarning,
    parse_pnml,
    write_pnml,
)

from .fixtures import PARALLEL_CHOICE_WEIGHTS, parallel_choice_swn
from .treegen import random_swn

MINIMAL = """<?xml version="1.0"?>
<pnml>
  <net id="n1"><page id="g1">
    <place id="start"><initialMarking><text>1</text></initialMarking></place>
    <place id="end"/>
    <transition id="t"><name><text>{name}</text></name></transition>
    <arc id="a1" source="start" target="t"/>
    <arc id="a2" source="t" target="end"/>
  </page></net>
</pnml>
"""


def test_minimal_net_parses():
    parsed = parse_pnml(MINIMAL.format(name="a"))
    assert parsed.net.places == ("start", "end")
    assert parsed.net.transitions == ("t",)
    assert parsed.net.labeling["t"] == "a"
    assert parsed.net.initial_marking == {"start": 1}
    assert parsed.source == "start"
    assert parsed.sink == "end"
    assert parsed.unweighted
    assert parsed.weights == {"t": 1.0}


@pytest.mark.parametrize("name", ["tau", "τ", ""])
def test_silent_name_conventions(name):
    parsed = parse_pnml(MINIMAL.format(name=name))
    assert parsed.net.labeling["t"] is SILENT


def test_transition_without_name_is_silent():
    doc = MINIMAL.format(name="x").replace("<name><text>x</text></name>", "")
    parsed = parse_pnml(doc)
    assert parsed.net.labeling["t"] is SILENT


@pytest.mark.parametrize("label", ["tau", "τ", ""])
def test_writer_refuses_a_visible_label_that_reads_back_as_silent(label):
    net = LabeledPetriNet(
        places=("start", "end"),
        transitions=("t",),
        flow={("start", "t"): 1, ("t", "end"): 1},
        labeling={"t": label},
        initial_marking={"start": 1},
    )
    wn = validate_workflow(net, "start", "end")
    assert wn.net.alphabet == (label,)
    with pytest.raises(ValueError, match=f"transition 't': visible label {label!r}"):
        write_pnml(StochasticWorkflowNet(wn, {"t": 1.0}))


@pytest.mark.parametrize(
    "place,transition,label,refused",
    [
        ("start", "t", "a\x01b", "transition 't'"),
        ("start", "t\ufffe", "a", "transition 't\\ufffe'"),
        ("st\x00rt", "t", "a", "place 'st\\x00rt'"),
    ],
    ids=["label", "transition-id", "place-id"],
)
def test_writer_refuses_text_xml_cannot_hold(place, transition, label, refused):
    # once the file was written and parse_pnml rejected it as not well-formed
    net = LabeledPetriNet(
        places=(place, "end"),
        transitions=(transition,),
        flow={(place, transition): 1, (transition, "end"): 1},
        labeling={transition: label},
        initial_marking={place: 1},
    )
    swn = StochasticWorkflowNet(validate_workflow(net, place, "end"), {transition: 1.0})
    with pytest.raises(ValueError, match="^" + re.escape(f"{refused}: XML 1.0 cannot hold")):
        write_pnml(swn)
    kept = LabeledPetriNet(  # whitespace controls and astral characters are fine
        places=("start", "end"),
        transitions=("t\t1",),
        flow={("start", "t\t1"): 1, ("t\t1", "end"): 1},
        labeling={"t\t1": "a\n\U0001f600b"},
        initial_marking={"start": 1},
    )
    swn = StochasticWorkflowNet(validate_workflow(kept, "start", "end"), {"t\t1": 1.0})
    assert parse_pnml(write_pnml(swn)).net == kept


def test_dangling_arc_rejected():
    doc = MINIMAL.format(name="a").replace('target="end"', 'target="ghost"')
    with pytest.raises(DanglingArc):
        parse_pnml(doc)


def test_duplicate_node_id_rejected():
    doc = MINIMAL.format(name="a").replace('<place id="end"/>', '<place id="end"/><place id="end"/>')
    with pytest.raises(DuplicateId):
        parse_pnml(doc)


def test_malformed_xml_rejected():
    with pytest.raises(MalformedPnml):
        parse_pnml(b"this is not xml <")
    with pytest.raises(MalformedPnml):
        parse_pnml(b"<wrongroot/>")


def test_declared_encoding_honoured():
    doc = MINIMAL.format(name="café").replace('<?xml version="1.0"?>', '<?xml version="1.0" encoding="ISO-8859-1"?>')
    assert parse_pnml(doc.encode("iso-8859-1")).net.labeling["t"] == "café"
    with pytest.raises(MalformedPnml):  # bytes that are not UTF-8 in an undeclared (UTF-8) document
        parse_pnml(MINIMAL.format(name="café").encode("iso-8859-1"))


def test_unknown_elements_warn_but_do_not_fail():
    doc = MINIMAL.format(name="a").replace(
        '<place id="end"/>', '<place id="end"><shinyExtension/></place><frob/>'
    )
    with pytest.warns(PnmlWarning):
        parsed = parse_pnml(doc)
    assert parsed.net.places == ("start", "end")


def test_foreign_toolspecific_blocks_are_quiet_noise():
    doc = MINIMAL.format(name="a").replace(
        "</transition>",
        '<toolspecific tool="someTool" version="9"><data/></toolspecific></transition>',
    )
    parsed = parse_pnml(doc)  # no warning expected, no weight either
    assert parsed.unweighted


def test_net_with_some_transitions_unweighted_is_malformed():
    # parallel-choice with b's weight block removed: b must not read as 1.0
    text = write_pnml(parallel_choice_swn()).decode()
    start = text.index("<toolspecific", text.index('<transition id="b"'))
    end = text.index("</toolspecific>", start) + len("</toolspecific>")
    with pytest.raises(MalformedPnml, match=r"\['b'\]"):
        parse_pnml(text[:start] + text[end:])


def test_roundtrip_parallel_choice_weights_exact():
    swn = parallel_choice_swn()
    parsed = parse_pnml(write_pnml(swn))
    assert parsed.weights == PARALLEL_CHOICE_WEIGHTS
    assert not parsed.unweighted
    assert parsed.net.places == swn.wn.net.places
    assert parsed.net.transitions == swn.wn.net.transitions
    assert parsed.net.flow == swn.wn.net.flow
    assert parsed.net.labeling == swn.wn.net.labeling
    assert parsed.source == "source" and parsed.sink == "sink"


def test_tiny_weight_preserved_exactly():
    swn = parallel_choice_swn()
    weights = dict(swn.weights)
    weights["b"] = 1e-9
    weights["c"] = 0.1 + 0.2  # 0.30000000000000004, needs 17 significant digits
    out = write_pnml(StochasticWorkflowNet(swn.wn, weights))
    parsed = parse_pnml(out)
    assert parsed.weights["b"] == 1e-9
    assert parsed.weights["c"] == 0.1 + 0.2


@pytest.mark.parametrize(
    "w",
    [np.float64(0.5), np.float32(0.1), 2, math.inf, math.nan, 0.0],
    ids=["float64", "float32", "int", "inf", "nan", "zero"],
)
def test_every_weight_a_net_accepts_round_trips(w):
    swn = parallel_choice_swn()
    try:
        accepted = StochasticWorkflowNet(swn.wn, dict(swn.weights, b=w))
    except ValueError:
        assert not (math.isfinite(w) and w > 0)
        return
    assert parse_pnml(write_pnml(accepted)).weights["b"] == float(w)


def _canonical(net, weights):
    return (
        sorted(net.places),
        sorted(net.transitions),
        sorted(net.flow.items()),
        sorted((t, lbl) for t, lbl in net.labeling.items()),
        sorted(net.initial_marking.items()),
        sorted((t, round(w, 12)) for t, w in weights.items()),
    )


def test_roundtrip_random_fifty_transition_net():
    rng = random.Random(50)
    swn = random_swn(rng, max_transitions=50, allow_loops=True, min_transitions=45)
    assert 45 <= len(swn.wn.net.transitions) <= 50
    parsed = parse_pnml(write_pnml(swn))
    assert _canonical(parsed.net, parsed.weights) == _canonical(swn.wn.net, swn.weights)


@pytest.mark.parametrize("seed", range(8))
def test_roundtrip_random_nets_identity(seed):
    swn = random_swn(random.Random(seed), max_transitions=14, allow_loops=True)
    parsed = parse_pnml(write_pnml(swn))
    assert parsed.net == swn.wn.net
    assert parsed.weights == swn.weights
    # the reconstruction still validates as the same workflow net
    wn = validate_workflow(parsed.net, parsed.source, parsed.sink)
    assert wn.source == swn.wn.source and wn.sink == swn.wn.sink


def test_ambiguous_source_inference_returns_none():
    doc = MINIMAL.format(name="a").replace(
        '<place id="end"/>', '<place id="end"/><place id="island"/>'
    )
    parsed = parse_pnml(doc)
    assert parsed.source is None
    assert parsed.sink is None


def test_duplicate_arcs_become_multiplicity():
    doc = MINIMAL.format(name="a").replace(
        '<arc id="a2" source="t" target="end"/>',
        '<arc id="a2" source="t" target="end"/><arc id="a3" source="t" target="end"/>',
    )
    parsed = parse_pnml(doc)
    assert parsed.net.flow[("t", "end")] == 2


def test_arc_inscription_is_the_multiplicity():
    doc = MINIMAL.format(name="a").replace(
        '<arc id="a2" source="t" target="end"/>',
        '<arc id="a2" source="t" target="end"><inscription><text>2</text></inscription></arc>',
    )
    parsed = parse_pnml(doc)
    assert parsed.net.flow == {("start", "t"): 1, ("t", "end"): 2}
    with pytest.raises(NotAWorkflowNet):
        validate_workflow(parsed.net, parsed.source, parsed.sink)
    unit = doc.replace("<text>2</text>", "<text>1</text>")
    assert parse_pnml(unit).net.flow == {("start", "t"): 1, ("t", "end"): 1}


@pytest.mark.parametrize("text", ["0", "-1", "1.5", "two", ""])
def test_bad_arc_inscription_rejected(text):
    doc = MINIMAL.format(name="a").replace(
        '<arc id="a2" source="t" target="end"/>',
        f'<arc id="a2" source="t" target="end"><inscription><text>{text}</text></inscription></arc>',
    )
    with pytest.raises(MalformedPnml):
        parse_pnml(doc)
