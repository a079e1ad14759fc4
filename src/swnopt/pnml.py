"""PNML read/write for (stochastic) workflow nets.

Supports the PNML core subset: ``net``/``page``/``place``/``transition``/
``arc`` plus place ``initialMarking``, transition ``name`` and arc
``inscription`` (multiplicity, 1 if absent).  Transition weights travel in
a tool-specific block inside each ``<transition>``::

    <toolspecific tool="stochastic-weights" version="1">
      <weight>0.35</weight>
    </toolspecific>

where the weight text is a base-10 float with up to 17 significant digits,
finite and positive.  Either every transition carries a weight block or
none does.
A transition whose name is empty, absent, or the literal "tau"/"τ" is
silent, so :func:`write_pnml` refuses a visible label spelled that way.
Unknown elements are ignored with a :class:`PnmlWarning` (real-world PNML
carries tool noise); ``graphics`` and other ``inscription`` blocks are
skipped silently.
"""

import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .errors import InputError
from .logs import xml_can_hold
from .nets import SILENT, LabeledPetriNet, StochasticWorkflowNet, is_weight, open_ends

WEIGHT_TOOL = "stochastic-weights"
WEIGHT_TOOL_VERSION = "1"

_SILENT_NAMES = ("", "tau", "τ")
_SKIP_SILENTLY = ("graphics", "inscription")


class MalformedPnml(InputError):
    """Not XML, or the PNML skeleton is missing or inconsistent."""


class DuplicateId(InputError):
    """The same node id is declared twice."""


class DanglingArc(InputError):
    """An arc references an undeclared node."""


class PnmlWarning(UserWarning):
    pass


@dataclass(frozen=True)
class ParsedPnml:
    """Result of :func:`parse_pnml`.

    ``source``/``sink`` are inferred structurally (unique place without
    incoming/outgoing arcs) and are ``None`` when the inference is ambiguous.
    ``unweighted`` is True when no transition carried a weight block; all
    weights are then 1.0.  A net where only some do is :class:`MalformedPnml`.
    """

    net: LabeledPetriNet
    source: str | None
    sink: str | None
    weights: dict[str, float]
    unweighted: bool


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _child(elem, name):
    for c in elem:
        if _local(c.tag) == name:
            return c
    return None


def _text_of(elem) -> str | None:
    text = _child(elem, "text")
    if text is None:
        return None
    return (text.text or "").strip()


def _warn_unknown(elem, context: str) -> None:
    tag = _local(elem.tag)
    if tag not in _SKIP_SILENTLY:
        warnings.warn(f"ignoring unknown PNML element <{tag}> in {context}", PnmlWarning, stacklevel=3)


def parse_pnml(data: bytes | str) -> ParsedPnml:
    """Parse a PNML document into a :class:`LabeledPetriNet` plus annotations."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedPnml(f"not well-formed XML: {exc}") from exc

    if _local(root.tag) == "pnml":
        nets = [c for c in root if _local(c.tag) == "net"]
    elif _local(root.tag) == "net":
        nets = [root]
    else:
        raise MalformedPnml(f"expected <pnml> or <net> root, got <{_local(root.tag)}>")
    if not nets:
        raise MalformedPnml("no <net> element")
    net_elem = nets[0]
    if len(nets) > 1:
        warnings.warn("multiple <net> elements; using the first", PnmlWarning, stacklevel=2)

    places: list[str] = []
    transitions: list[str] = []
    labeling: dict[str, str | None] = {}
    marking: dict[str, int] = {}
    weights: dict[str, float] = {}
    arcs: list[tuple[str, str, int]] = []
    seen_ids: set[str] = set()
    seen_arc_ids: set[str] = set()

    def handle_node(elem):
        tag = _local(elem.tag)
        if tag == "place":
            pid = elem.get("id")
            if pid is None:
                raise MalformedPnml("place without id")
            if pid in seen_ids:
                raise DuplicateId(f"duplicate node id {pid!r}")
            seen_ids.add(pid)
            places.append(pid)
            for c in elem:
                if _local(c.tag) == "initialMarking":
                    text = _text_of(c)
                    try:
                        marking[pid] = int(text or "0")
                    except ValueError as exc:
                        raise MalformedPnml(f"bad initialMarking on {pid!r}: {text!r}") from exc
                elif _local(c.tag) != "name":
                    _warn_unknown(c, f"place {pid!r}")
        elif tag == "transition":
            tid = elem.get("id")
            if tid is None:
                raise MalformedPnml("transition without id")
            if tid in seen_ids:
                raise DuplicateId(f"duplicate node id {tid!r}")
            seen_ids.add(tid)
            transitions.append(tid)
            label = None
            for c in elem:
                ctag = _local(c.tag)
                if ctag == "name":
                    label = _text_of(c)
                elif ctag == "toolspecific":
                    if c.get("tool") == WEIGHT_TOOL:
                        welem = _child(c, "weight")
                        if welem is None or not (welem.text or "").strip():
                            raise MalformedPnml(f"weight block on {tid!r} without <weight> value")
                        try:
                            weights[tid] = float(welem.text.strip())
                        except ValueError as exc:
                            raise MalformedPnml(f"bad weight on {tid!r}: {welem.text!r}") from exc
                        if not is_weight(weights[tid]):
                            raise MalformedPnml(f"weight on {tid!r} must be a finite positive number, got {welem.text!r}")
                    # other tools' blocks are expected noise, no warning
                else:
                    _warn_unknown(c, f"transition {tid!r}")
            labeling[tid] = SILENT if (label is None or label in _SILENT_NAMES) else label
        elif tag == "arc":
            aid = elem.get("id")
            src, dst = elem.get("source"), elem.get("target")
            if src is None or dst is None:
                raise MalformedPnml("arc without source/target")
            if aid is not None:
                if aid in seen_arc_ids:
                    raise DuplicateId(f"duplicate arc id {aid!r}")
                seen_arc_ids.add(aid)
            inscription = _child(elem, "inscription")
            text = "1" if inscription is None else _text_of(inscription) or ""
            if not text.isdecimal() or int(text) < 1:
                raise MalformedPnml(f"bad inscription on arc {src!r}->{dst!r}: {text!r}")
            arcs.append((src, dst, int(text)))
        elif tag == "page":
            for c in elem:
                handle_node(c)
        elif tag == "name":
            pass
        else:
            _warn_unknown(elem, "net")

    for elem in net_elem:
        handle_node(elem)

    flow: dict[tuple[str, str], int] = {}
    node_ids = set(places) | set(transitions)
    for src, dst, mult in arcs:
        if src not in node_ids or dst not in node_ids:
            raise DanglingArc(f"arc {src!r}->{dst!r} references an undeclared node")
        flow[(src, dst)] = flow.get((src, dst), 0) + mult

    try:
        net = LabeledPetriNet(
            places=tuple(places),
            transitions=tuple(transitions),
            flow=flow,
            labeling=labeling,
            initial_marking={p: n for p, n in marking.items() if n > 0},
        )
    except ValueError as exc:
        raise MalformedPnml(str(exc)) from exc

    unstated = [t for t in transitions if t not in weights]
    if weights and unstated:
        raise MalformedPnml(f"transitions without a weight block in a weighted net: {unstated}")

    no_in, no_out = open_ends(net)
    source = no_in[0] if len(no_in) == 1 else None
    sink = no_out[0] if len(no_out) == 1 else None
    return ParsedPnml(net, source, sink, weights or {t: 1.0 for t in transitions}, not weights)


def _refuse_non_xml(kind: str, node: str, *texts: str | None) -> None:
    for text in texts:
        if text is not None and not xml_can_hold(text):
            raise ValueError(f"{kind} {node!r}: XML 1.0 cannot hold {text!r}")


def write_pnml(swn: StochasticWorkflowNet) -> bytes:
    """Serialize a stochastic workflow net; ``parse_pnml`` round-trips it, so a
    visible label the reader takes for silent, or an id or label with a
    character XML 1.0 cannot hold, raises ``ValueError``."""
    net = swn.wn.net
    root = ET.Element("pnml")
    net_elem = ET.SubElement(root, "net", {"id": "net1", "type": "http://www.pnml.org/version-2009/grammar/ptnet"})
    page = ET.SubElement(net_elem, "page", {"id": "page1"})

    for pid in net.places:
        _refuse_non_xml("place", pid, pid)
        place = ET.SubElement(page, "place", {"id": pid})
        name = ET.SubElement(ET.SubElement(place, "name"), "text")
        name.text = pid
        tokens = net.initial_marking.get(pid, 0)
        if tokens:
            im = ET.SubElement(ET.SubElement(place, "initialMarking"), "text")
            im.text = str(tokens)

    for tid in net.transitions:
        trans = ET.SubElement(page, "transition", {"id": tid})
        name = ET.SubElement(ET.SubElement(trans, "name"), "text")
        label = net.labeling[tid]
        _refuse_non_xml("transition", tid, tid, label)
        if label in _SILENT_NAMES:
            raise ValueError(f"transition {tid!r}: visible label {label!r} would read back as silent")
        name.text = "tau" if label is SILENT else label
        tool = ET.SubElement(trans, "toolspecific", {"tool": WEIGHT_TOOL, "version": WEIGHT_TOOL_VERSION})
        weight = ET.SubElement(tool, "weight")
        weight.text = repr(swn.weights[tid])

    arc_no = 0
    for (src, dst), mult in net.flow.items():
        for _ in range(mult):
            arc_no += 1
            ET.SubElement(page, "arc", {"id": f"arc{arc_no}", "source": src, "target": dst})

    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)
