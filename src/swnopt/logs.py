"""Event-log ingestion (XES subset, CSV) and stochastic languages.

Traces are plain tuples of activity strings; the empty tuple is the empty
trace.  An event log is a multiset of traces; its stochastic language assigns
each trace its relative frequency.  A stochastic language may be *defective*:
probabilities summing to less than one, with the gap tracked in ``residual``
(this is how truncated model languages are represented downstream).

XES is read in one streaming expat pass that keeps only the variant counts,
so its memory grows with the distinct traces, not with the events; it is
written through ElementTree.
"""

import csv
import io
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from xml.parsers import expat

import numpy as np

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
    probabilities and the residual must account for all mass.  ``probs`` is
    not changed after construction, so :attr:`support` and
    :attr:`prob_array` are computed once.
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

    @cached_property
    def support(self) -> tuple[Trace, ...]:
        """The traces, in ``probs`` order."""
        return tuple(self.probs)

    @cached_property
    def prob_array(self) -> np.ndarray:
        """The probabilities in ``probs`` order, as a read-only float array."""
        probs = np.fromiter(self.probs.values(), np.float64, len(self.probs))
        probs.flags.writeable = False
        return probs

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


def parse_xes(data: bytes | str) -> EventLog:
    """Count the traces of an XES document in one streaming pass.

    Only the path log/trace/event is followed: the root must be ``log``, a
    trace is a direct child of the root and an event a direct child of a
    trace; any other element is skipped with its subtree.  The activity of
    an event is the value of its first direct ``string`` child keyed
    ``concept:name``; event order is document order.  Namespaced tags match
    by local name.  No tree is built: memory grows with the distinct
    variants, not with the events.  A document that is not well-formed
    raises :class:`MalformedXes` even where an event lacks its name.
    """
    entries: dict[Trace, int] = {}
    events: list[str] = []
    activity: str | None = None
    named = False
    depth = 0  # open elements
    followed = 0  # how many of them, outermost first, lie on the path log/trace/event
    error: InputError | None = None  # raised once the whole document has parsed

    def start(name, attrs):
        nonlocal depth, followed, events, activity, named, error
        if depth == followed:
            local = name.rpartition("}")[2]
            if followed == 3:
                if local == "string" and not named and attrs.get("key") == "concept:name":
                    named = True
                    activity = attrs.get("value")
            elif local == ("log", "trace", "event")[followed]:
                followed += 1
                if followed == 2:
                    events = []
                elif followed == 3:
                    named, activity = False, None
            elif depth == 0:
                error = MalformedXes(f"expected <log> root, got <{local}>")
        depth += 1

    def end(name):
        nonlocal depth, followed, error
        depth -= 1
        if depth < followed:
            followed = depth
            if depth == 2:
                if activity is None:
                    error = error or MissingConceptName("event without a concept:name string attribute")
                events.append(activity)
            elif depth == 1:
                trace = tuple(events)
                entries[trace] = entries.get(trace, 0) + 1

    def undefined(name):  # expat skips an entity that no DTD it read declares; refuse it instead
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
        raise expat.ExpatError(f"undefined entity &{name};: line {line}, column {column}")

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = lambda name, is_parameter: is_parameter or undefined(name)
    # expat's context string ends with the entity's name, after a form feed
    parser.ExternalEntityRefHandler = lambda context, *ids: undefined(context.rpartition("\f")[2])
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise MalformedXes(f"not well-formed XML: {exc}") from exc
    finally:
        parser = None  # undefined() refers to it: free the parser now, not at the next collection
    if error is not None:
        raise error
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
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def parse_csv(data: bytes | str, case_col: str, activity_col: str, time_col: str | None = None) -> EventLog:
    """Group CSV rows into traces by case id.

    Within a case, events are ordered by timestamp when ``time_col`` is given
    (ties broken by row order, stable), else by row order.  The header row is
    required.  Bytes are decoded as UTF-8, skipping a leading byte-order mark.
    A row that lacks one of these columns, or one the ``csv`` module refuses
    (a field over its size limit), raises :class:`InputError` naming its line.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    reader = csv.DictReader(io.StringIO(data))
    columns = (case_col, activity_col) + ((time_col,) if time_col else ())
    cases: dict[str, list[tuple[datetime | None, str]]] = {}
    try:
        if reader.fieldnames is None:
            raise MissingColumn("empty CSV: no header row")
        for col in columns:
            if col not in reader.fieldnames:
                raise MissingColumn(f"column {col!r} not in header {reader.fieldnames}")
        for row in reader:
            if any(row[col] is None for col in columns):
                raise MissingColumn(f"CSV line {reader.line_num}: too few fields for the header")
            ts = _parse_timestamp(row[time_col]) if time_col else None
            cases.setdefault(row[case_col], []).append((ts, row[activity_col]))
    except csv.Error as exc:  # e.g. a field over the size limit; reader.line_num counts good rows only
        raise InputError(f"CSV line {reader.reader.line_num}: {exc}") from exc

    entries: dict[Trace, int] = {}
    for events in cases.values():
        if time_col:
            events = sorted(events, key=lambda e: e[0])
        trace = tuple(a for _, a in events)
        entries[trace] = entries.get(trace, 0) + 1
    return EventLog(entries)


def write_csv(log: EventLog, case_col: str = "case", activity_col: str = "activity", time_col: str | None = None) -> str:
    """Expand an event log back into rows, one synthetic case per trace copy.

    With ``time_col`` each row also gets an ISO-8601 timestamp, one second
    after the previous row's, so :func:`parse_csv` with the same columns
    reads the same log back.  An empty case would have no row, so a log with
    one raises :class:`InputError`."""
    empty = log.entries.get((), 0)
    if empty:
        raise InputError(f"CSV has one row per event and cannot hold the log's {empty} empty case(s)")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([case_col, activity_col] + ([time_col] if time_col else []))
    start = datetime(2000, 1, 1, tzinfo=timezone.utc)
    case_no = event_no = 0
    for trace, freq in log.entries.items():
        for _ in range(freq):
            case_no += 1
            for activity in trace:
                row = [f"c{case_no}", activity]
                if time_col:
                    row.append((start + timedelta(seconds=event_no)).isoformat())
                writer.writerow(row)
                event_no += 1
    return out.getvalue()


def xml_can_hold(text: str) -> bool:
    """Whether XML 1.0 can hold ``text``; it has no form, not even a character
    reference, for a character outside the ranges below."""
    return re.search("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]", text) is None


def write_xes(log: EventLog) -> bytes:
    bad = [a for a in log.alphabet if not xml_can_hold(a)]
    if bad:
        raise InputError(f"XES cannot hold activity {bad[0]!r}: XML 1.0 has no such character")
    root = ET.Element("log", {"xes.version": "1.0"})
    for trace, freq in log.entries.items():
        for _ in range(freq):
            trace_elem = ET.SubElement(root, "trace")
            for activity in trace:
                event = ET.SubElement(trace_elem, "event")
                ET.SubElement(event, "string", {"key": "concept:name", "value": activity})
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)
