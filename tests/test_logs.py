import random
import tracemalloc
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


def test_parse_xes_follows_only_the_path_log_trace_event():
    doc = XES.format(
        traces=f'<extension name="x">{_xes_trace("nested")}</extension>'
        '<event><string key="concept:name" value="loose"/></event>' + _xes_trace("A")
    )
    assert parse_xes(doc).entries == {("A",): 1}


def test_parse_xes_concept_name_only_inside_a_list_is_missing():
    doc = XES.format(traces='<trace><event><list key="l"><string key="concept:name" value="N"/></list></event></trace>')
    with pytest.raises(MissingConceptName):
        parse_xes(doc)


def test_parse_xes_malformed_document_wins_over_a_missing_concept_name():
    # the nameless event comes first, but the document never closes
    with pytest.raises(MalformedXes, match="no element found"):
        parse_xes('<log><trace><event><string key="x" value="A"/></event></trace><trace>')


@pytest.mark.parametrize(
    "doc",
    [
        '<!DOCTYPE log SYSTEM "log.dtd"><log><trace>&undeclared;</trace></log>',
        '<!DOCTYPE log [<!ENTITY ext SYSTEM "ext.xml">]><log><trace>&ext;</trace></log>',
    ],
    ids=["declared-nowhere", "external"],
)
def test_parse_xes_refuses_an_entity_it_cannot_expand(doc):
    with pytest.raises(MalformedXes, match="undefined entity"):
        parse_xes(doc)


def test_parse_xes_counts_variants_in_first_occurrence_order():
    log = parse_xes(XES.format(traces=_xes_trace("B") + _xes_trace("A") + _xes_trace("B") + "<trace/>"))
    assert list(log.entries.items()) == [(("B",), 2), (("A",), 1), ((), 1)]


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


@pytest.mark.parametrize(
    "data,time_col",
    [
        ("case,activity,ts\nc1,A,2021-01-01\nc2,B\n", "ts"),  # once crashed in the timestamp parser
        ("case,activity\nc1,A\nc2\n", None),  # once left None as an activity
    ],
    ids=["timed", "untimed"],
)
def test_parse_csv_short_row_names_its_line(data, time_col):
    with pytest.raises(MissingColumn, match="CSV line 3: too few fields"):
        parse_csv(data, "case", "activity", time_col)


def test_parse_csv_short_row_may_lack_a_column_it_does_not_read():
    data = "case,activity,resource\nc1,A\nc1,B,r1\n"
    assert parse_csv(data, "case", "activity").entries == {("A", "B"): 1}


HUGE = "x" * 200_000  # the csv module's default field limit is 131072 characters


@pytest.mark.parametrize(
    "data,line", [(f"case,activity,{HUGE}\nc1,A,x\n", 1), (f"case,activity\nc1,A\nc2,{HUGE}\n", 3)], ids=["header", "row"]
)
def test_parse_csv_field_over_the_csv_size_limit_names_its_line(data, line):
    with pytest.raises(InputError, match=f"CSV line {line}: field larger than field limit"):
        parse_csv(data, "case", "activity")


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


def test_csv_roundtrip_with_time_column_keeps_event_order():
    log = EventLog({("b", "a", "b"): 2, ("a",): 1, ("c", "a"): 1})
    header, *rows = write_csv(log, "case", "activity", "ts").splitlines()
    assert header == "case,activity,ts"
    stamps = [row.split(",")[2] for row in rows]
    assert stamps == sorted(set(stamps))  # strictly increasing, one per event
    # the timestamps alone carry the order: reversed rows read back the same log
    for lines in (rows, rows[::-1]):
        data = "\n".join([header] + lines) + "\n"
        assert parse_csv(data, "case", "activity", "ts") == log


def test_write_csv_refuses_empty_cases():
    # one row per event leaves an empty case no row, so it would be lost
    with pytest.raises(InputError, match="2 empty case"):
        write_csv(EventLog({(): 2, ("a",): 1}))


def test_xes_roundtrip_preserves_frequencies():
    log = parallel_choice_log()
    assert parse_xes(write_xes(log)).entries == log.entries


@pytest.mark.parametrize("seed", range(3))
def test_xes_roundtrip_keeps_variant_order(seed):
    rng = random.Random(seed)
    alphabet = ["a", "b", "café", "δ", "名前", "&<>\"'", " spaced out "]
    entries = {(): rng.randint(1, 5)}
    while len(entries) < 50:
        entries.setdefault(tuple(rng.choices(alphabet, k=rng.randint(1, 8))), rng.randint(1, 5))
    items = list(entries.items())
    rng.shuffle(items)
    log = EventLog(dict(items))
    assert list(parse_xes(write_xes(log)).entries.items()) == items


def test_parse_xes_memory_grows_with_variants_not_events():
    rng = random.Random(5)
    variants = {tuple(rng.choices("abcdefgh", k=12)) for _ in range(40)}
    log = EventLog({trace: 5000 // len(variants) + (i < 5000 % len(variants)) for i, trace in enumerate(variants)})
    assert (log.total, sum(len(t) * f for t, f in log.entries.items())) == (5000, 60000)
    data = write_xes(log)
    tracemalloc.start()
    try:
        parsed = parse_xes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == log
    assert peak < 8 * 2**20  # a tree of this document's events would take 62 MiB


@pytest.mark.parametrize("bad", ["\x00", "\x01", "\x1f", "\ud800", "\ufffe"])
def test_write_xes_refuses_an_activity_xml_cannot_hold(bad):
    # the reader would reject the file; whitespace controls and astral characters are fine
    kept = EventLog({("a\tb", "c\nd", "e\rf", "\U0001f600"): 2})
    assert parse_xes(write_xes(kept)) == kept
    with pytest.raises(InputError, match="cannot hold activity"):
        write_xes(EventLog({("ok", f"x{bad}y"): 1}))


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
