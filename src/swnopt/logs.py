"""Event-log ingestion (XES subset, CSV) and stochastic languages.

Traces are plain tuples of activity strings; the empty tuple is the empty
trace.  An event log is a multiset of traces; its stochastic language assigns
each trace its relative frequency.  A stochastic language may be *defective*:
probabilities summing to less than one, with the gap tracked in ``residual``
(this is how truncated model languages are represented downstream).
"""

import csv
import io
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime

from .errors import InputError

Trace = tuple[str, ...]

_SUM_TOL = 1e-9


class EmptyLog(InputError):
    """The event log contains no traces."""


class MalformedXes(InputError):
    pass


class MissingConceptName(InputError):
    """An event lacks the concept:name string attribute."""


class MissingColumn(InputError):
    pass


class UnparseableTimestamp(InputError):
    pass


@dataclass(frozen=True)
class EventLog:
    """Multiset of traces with positive integer frequencies."""

    entries: dict[Trace, int]

    def __post_init__(self):
        for trace, freq in self.entries.items():
            if not (isinstance(freq, int) and freq >= 1):
                raise ValueError(f"frequency of {trace!r} must be a positive integer, got {freq}")

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({a for t in self.entries for a in t}))

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def support(self) -> tuple[Trace, ...]:
        return tuple(self.entries)


@dataclass(frozen=True)
class StochasticLanguage:
    """Finite map trace -> probability, plus the residual mass not covered.

    ``residual == 0`` means the language is complete; a positive residual
    marks a defective language obtained by truncation or restriction.  The
    probabilities and the residual must account for all mass.
    """

    probs: dict[Trace, float]
    residual: float = 0.0

    def __post_init__(self):
        for t, p in self.probs.items():
            if not (0.0 <= p <= 1.0 + _SUM_TOL):
                raise ValueError(f"probability of {t!r} out of range: {p}")
        if not (-_SUM_TOL <= self.residual <= 1.0 + _SUM_TOL):
            raise ValueError(f"residual out of range: {self.residual}")
        total = sum(self.probs.values()) + self.residual
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities + residual must sum to 1, got {total}")

    @property
    def is_complete(self) -> bool:
        return self.residual <= _SUM_TOL

    def mass(self) -> float:
        return sum(self.probs.values())

    def normalized(self) -> "StochasticLanguage":
        """Rescale the probabilities to total mass 1 (residual dropped)."""
        total = self.mass()
        if total <= 0.0:
            raise ValueError("cannot normalize a language with zero mass")
        return StochasticLanguage({t: p / total for t, p in self.probs.items()}, 0.0)


def log_language(log: EventLog) -> StochasticLanguage:
    """Relative trace frequencies of a non-empty event log."""
    if not log.entries:
        raise EmptyLog("event log has no traces")
    total = log.total
    return StochasticLanguage({t: f / total for t, f in log.entries.items()}, 0.0)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xes(data: bytes | str) -> EventLog:
    """Parse the XES element subset log/trace/event with string attributes.

    The activity of an event is its "concept:name" string attribute; event
    order is document order.  Lifecycle and other attributes are ignored.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedXes(f"not well-formed XML: {exc}") from exc
    if _local(root.tag) != "log":
        raise MalformedXes(f"expected <log> root, got <{_local(root.tag)}>")

    entries: dict[Trace, int] = {}
    for trace_elem in root:
        if _local(trace_elem.tag) != "trace":
            continue
        events: list[str] = []
        for event_elem in trace_elem:
            if _local(event_elem.tag) != "event":
                continue
            activity = None
            for attr in event_elem:
                if _local(attr.tag) == "string" and attr.get("key") == "concept:name":
                    activity = attr.get("value")
                    break
            if activity is None:
                raise MissingConceptName("event without a concept:name string attribute")
            events.append(activity)
        trace = tuple(events)
        entries[trace] = entries.get(trace, 0) + 1
    return EventLog(entries)


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise UnparseableTimestamp(f"not an ISO-8601 timestamp: {raw!r}") from exc
    if ts.tzinfo is None:
        # mixing aware and naive timestamps must not crash the sort
        from datetime import timezone

        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def parse_csv(data: bytes | str, case_col: str, activity_col: str, time_col: str | None = None) -> EventLog:
    """Group CSV rows into traces by case id.

    Within a case, events are ordered by timestamp when ``time_col`` is given
    (ties broken by row order, stable), else by row order.  The header row is
    required.  Bytes are decoded as UTF-8, skipping a leading byte-order mark.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    reader = csv.DictReader(io.StringIO(data))
    if reader.fieldnames is None:
        raise MissingColumn("empty CSV: no header row")
    for col in (case_col, activity_col) + ((time_col,) if time_col else ()):
        if col not in reader.fieldnames:
            raise MissingColumn(f"column {col!r} not in header {reader.fieldnames}")

    cases: dict[str, list[tuple[datetime | None, str]]] = {}
    for row in reader:
        case = row[case_col]
        activity = row[activity_col]
        ts = _parse_timestamp(row[time_col]) if time_col else None
        cases.setdefault(case, []).append((ts, activity))

    entries: dict[Trace, int] = {}
    for events in cases.values():
        if time_col:
            events = sorted(events, key=lambda e: e[0])
        trace = tuple(a for _, a in events)
        entries[trace] = entries.get(trace, 0) + 1
    return EventLog(entries)


def write_csv(log: EventLog, case_col: str = "case", activity_col: str = "activity") -> str:
    """Expand an event log back into rows, one synthetic case per trace copy.
    An empty case would have no row, so a log with one raises :class:`InputError`."""
    empty = log.entries.get((), 0)
    if empty:
        raise InputError(f"CSV has one row per event and cannot hold the log's {empty} empty case(s)")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([case_col, activity_col])
    case_no = 0
    for trace, freq in log.entries.items():
        for _ in range(freq):
            case_no += 1
            for activity in trace:
                writer.writerow([f"c{case_no}", activity])
    return out.getvalue()


def write_xes(log: EventLog) -> bytes:
    root = ET.Element("log", {"xes.version": "1.0"})
    for trace, freq in log.entries.items():
        for _ in range(freq):
            trace_elem = ET.SubElement(root, "trace")
            for activity in trace:
                event = ET.SubElement(trace_elem, "event")
                ET.SubElement(event, "string", {"key": "concept:name", "value": activity})
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)
