import random
from fractions import Fraction

import pytest

from swnopt.errors import InputError
from swnopt.logs import (
    EmptyLog,
    EventLog,
    MalformedXes,
    MissingColumn,
    MissingConceptName,
    StochasticLanguage,
    UnparseableTimestamp,
    log_language,
    parse_csv,
    parse_xes,
    write_csv,
    write_xes,
)

from .fixtures import parallel_choice_log

XES = """<?xml version="1.0"?>
<log xes.version="1.0">
  {traces}
</log>
"""


def _xes_trace(*activities):
    events = "".join(f'<event><string key="concept:name" value="{a}"/></event>' for a in activities)
    return f"<trace>{events}</trace>"


def test_log_language_reference_log():
    lang = log_language(parallel_choice_log())
    assert lang.probs == {
        ("a", "b", "c"): 0.15,
        ("a", "c", "b"): 0.35,
        ("a", "b", "d"): 0.15,
        ("a", "d", "b"): 0.35,
    }
    assert lang.residual == 0.0
    assert lang.is_complete


def test_log_language_simple_fractions():
    lang = log_language(EventLog({("a", "b"): 2, ("a", "c"): 1}))
    assert lang.probs == {("a", "b"): 2 / 3, ("a", "c"): 1 / 3}


def test_log_language_empty_trace():
    lang = log_language(EventLog({(): 1}))
    assert lang.probs == {(): 1.0}


def test_empty_log_rejected():
    with pytest.raises(EmptyLog):
        log_language(EventLog({}))


def test_event_log_alphabet_and_total():
    log = parallel_choice_log()
    assert log.alphabet == ("a", "b", "c", "d")
    assert log.total == 100
    assert set(log.support()) == set(log.entries)


def test_event_log_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        EventLog({("a",): 0})
    with pytest.raises(ValueError):
        EventLog({("a",): 1.5})


def test_log_language_rational_crosscheck():
    rng = random.Random(7)
    for _ in range(20):
        entries = {}
        total = 0
        for i in range(rng.randint(1, 12)):
            freq = rng.randint(1, 90)
            entries[("a",) * i + ("b",)] = freq
            total += freq
        if total > 1000:
            continue
        lang = log_language(EventLog(entries))
        assert abs(sum(lang.probs.values()) - 1.0) <= 1e-12
        for trace, freq in entries.items():
            assert lang.probs[trace] == freq / total
            assert Fraction(freq, total) == Fraction(freq) / Fraction(total)


def test_parse_xes_duplicate_traces_aggregate():
    log = parse_xes(XES.format(traces=_xes_trace("A") + _xes_trace("A")))
    assert log.entries == {("A",): 2}


def test_parse_xes_event_order_is_document_order():
    log = parse_xes(XES.format(traces=_xes_trace("A", "Q", "A")))
    assert log.entries == {("A", "Q", "A"): 1}


def test_parse_xes_missing_concept_name():
    doc = XES.format(traces='<trace><event><string key="other" value="A"/></event></trace>')
    with pytest.raises(MissingConceptName):
        parse_xes(doc)


def test_parse_xes_malformed():
    with pytest.raises(MalformedXes):
        parse_xes("<log><trace>")
    with pytest.raises(MalformedXes):
        parse_xes("<notalog/>")


def test_parse_xes_honours_declared_encoding():
    doc = '<?xml version="1.0" encoding="ISO-8859-1"?><log><trace><event><string key="concept:name" value="café"/></event></trace></log>'
    assert parse_xes(doc.encode("iso-8859-1")).entries == {("café",): 1}
    with pytest.raises(MalformedXes):  # bytes that are not UTF-8 in an undeclared (UTF-8) document
        parse_xes(doc.replace(' encoding="ISO-8859-1"', "").encode("iso-8859-1"))


def test_parse_xes_empty_trace_allowed():
    log = parse_xes(XES.format(traces="<trace/>"))
    assert log.entries == {(): 1}


def test_parse_xes_namespaced_document():
    ns = 'xmlns="http://www.xes-standard.org/"'
    doc = f'<log {ns} xes.version="1.0">{_xes_trace("A", "B")}{_xes_trace("A", "B")}</log>'
    assert parse_xes(doc).entries == {("A", "B"): 2}
    with pytest.raises(MalformedXes, match="expected <log> root, got <trace>"):
        parse_xes(f"<trace {ns}>{_xes_trace('A')}</trace>")


def test_parse_xes_ignores_children_that_are_not_traces_or_events():
    event = '<event><string key="concept:name" value="{}"/></event>'
    doc = XES.format(
        traces='<global scope="event"><string key="concept:name" value="G"/></global>'
        '<trace><string key="concept:name" value="case 1"/>'
        + event.format("A")
        + '<container key="nested">' + event.format("N") + "</container>"
        + event.format("C")
        + "</trace>"
    )
    assert parse_xes(doc).entries == {("A", "C"): 1}


def test_parse_xes_first_concept_name_of_an_event_wins():
    doc = XES.format(
        traces="<trace>"
        '<event><string key="concept:name" value="first"/><string key="concept:name" value="second"/></event>'
        '<event><list key="l"><string key="concept:name" value="nested"/></list>'
        '<string key="concept:name" value="direct"/></event>'
        "</trace>"
    )
    assert parse_xes(doc).entries == {("first", "direct"): 1}


def test_parse_csv_row_order_grouping():
    data = "case,activity\nc1,A\nc1,B\nc2,A\n"
    log = parse_csv(data, "case", "activity")
    assert log.entries == {("A", "B"): 1, ("A",): 1}


def test_parse_csv_orders_by_timestamp():
    data = "case,activity,ts\nc1,B,2021-01-01T00:02:00\nc1,A,2021-01-01T00:01:00\n"
    log = parse_csv(data, "case", "activity", "ts")
    assert log.entries == {("A", "B"): 1}


def test_parse_csv_timestamp_ties_keep_row_order():
    data = "case,activity,ts\nc1,X,2021-01-01T00:00:00\nc1,Y,2021-01-01T00:00:00\n"
    log = parse_csv(data, "case", "activity", "ts")
    assert log.entries == {("X", "Y"): 1}


def test_parse_csv_z_suffix_and_offsets():
    data = (
        "case,activity,ts\n"
        "c1,B,2021-01-01T01:00:00Z\n"
        "c1,A,2021-01-01T00:30:00+00:00\n"
    )
    log = parse_csv(data, "case", "activity", "ts")
    assert log.entries == {("A", "B"): 1}


def test_parse_csv_missing_column():
    with pytest.raises(MissingColumn):
        parse_csv("case,activity\nc1,A\n", "case", "action")
    with pytest.raises(MissingColumn):
        parse_csv("", "case", "activity")


def test_parse_csv_bytes_with_byte_order_mark():
    data = "case,activity\nc1,A\nc1,B\n".encode("utf-8-sig")
    assert parse_csv(data, "case", "activity").entries == {("A", "B"): 1}


def test_parse_csv_bad_timestamp():
    with pytest.raises(UnparseableTimestamp):
        parse_csv("case,activity,ts\nc1,A,yesterday\n", "case", "activity", "ts")


def test_parse_csv_case_permutation_invariance():
    rows = ["c1,A", "c1,B", "c2,A", "c2,C", "c3,B"]
    rng = random.Random(3)
    logs = set()
    for _ in range(6):
        by_case = {"c1": ["c1,A", "c1,B"], "c2": ["c2,A", "c2,C"], "c3": ["c3,B"]}
        order = list(by_case)
        rng.shuffle(order)
        shuffled = [row for case in order for row in by_case[case]]
        log = parse_csv("case,activity\n" + "\n".join(shuffled) + "\n", "case", "activity")
        logs.add(tuple(sorted(log.entries.items())))
    assert len(logs) == 1
    del rows


def test_csv_roundtrip_preserves_frequencies():
    log = parallel_choice_log()
    assert parse_csv(write_csv(log), "case", "activity").entries == log.entries


def test_write_csv_refuses_empty_cases():
    # one row per event leaves an empty case no row, so it would be lost
    with pytest.raises(InputError, match="2 empty case"):
        write_csv(EventLog({(): 2, ("a",): 1}))


def test_xes_roundtrip_preserves_frequencies():
    log = parallel_choice_log()
    assert parse_xes(write_xes(log)).entries == log.entries


def test_stochastic_language_validation():
    with pytest.raises(ValueError):
        StochasticLanguage({("a",): 0.5})  # mass accounted nowhere
    with pytest.raises(ValueError):
        StochasticLanguage({("a",): 1.2})
    lang = StochasticLanguage({("a",): 0.25}, residual=0.75)
    assert not lang.is_complete
    norm = lang.normalized()
    assert norm.probs == {("a",): 1.0}
    assert norm.is_complete
