import pytest
from hypothesis import given, strategies as st

from sdocheck import report as r
from helpers import parse_report


ALL_CODES = [
    "E101", "E102", "E103",
    "E201", "E202", "E203", "E204", "E205", "E206", "E207", "E208", "E209",
    "E301", "E302", "E303", "E304", "E305",
    "E401", "E402", "E403",
]


def test_catalog_covers_every_code_exactly_once():
    assert sorted(r.CATALOG) == sorted(ALL_CODES)
    for code in ALL_CODES:
        row = r.CATALOG[code]
        assert row.title and isinstance(row.severity, r.Severity)
        assert isinstance(row.source, r.Source)


def test_unknown_code_is_a_programming_error():
    with pytest.raises(KeyError):
        r.make_entry("E999", "$0", "nope")


def test_strict_elevates_only_domain_and_range_codes():
    entries = [r.make_entry(code, "$0.p", "d") for code in ALL_CODES]
    relaxed, strict = (r.merge_reports(entries, target="t", snapshot_id="s",
                                       strict=flag).entries
                       for flag in (False, True))
    assert [e.code for e in relaxed] == ALL_CODES
    assert [(e.code, e.severity, s.severity)
            for e, s in zip(relaxed, strict) if e != s] == [
        ("E203", r.Severity.WARNING, r.Severity.ERROR),
        ("E204", r.Severity.WARNING, r.Severity.ERROR)]


def test_merge_of_nothing_is_the_empty_report():
    report = r.merge_reports([], target="t", snapshot_id="s")
    assert report.entries == []
    assert report.summary == {"error": 0, "warning": 0, "info": 0}
    assert report.worst_severity() is None


def test_merge_counts_by_severity():
    entries = [r.make_entry("E201", "$0", "a"),
               r.make_entry("E206", "$0.name", "b")]
    report = r.merge_reports(entries, target="t", snapshot_id="s")
    assert report.summary == {"error": 1, "warning": 1, "info": 0}


def test_merge_keeps_duplicate_entries():
    entry = r.make_entry("E206", "$0.name", "empty")
    report = r.merge_reports([entry, entry], target="t", snapshot_id="s")
    assert len(report.entries) == 2


def test_merge_sorts_by_path_then_code():
    entries = [
        r.make_entry("E204", "$0.b", "x"),
        r.make_entry("E202", "$0.b", "x"),
        r.make_entry("E201", "$0", "x"),
    ]
    report = r.merge_reports(entries, target="t", snapshot_id="s")
    assert [(e.path, e.code) for e in report.entries] == [
        ("$0", "E201"), ("$0.b", "E202"), ("$0.b", "E204")]


def test_machine_serialization_of_empty_report():
    report = r.merge_reports([], target="t", snapshot_id="s")
    data = r.serialize_report(report, "machine")
    assert b'"entries": []' in data


def test_an_unknown_format_is_refused():
    report = r.merge_reports([], target="t", snapshot_id="s")
    with pytest.raises(ValueError, match="unknown report format: 'xml'"):
        r.serialize_report(report, "xml")


def test_human_line_format():
    report = r.merge_reports(
        [r.make_entry("E302", "$0.name", "mandatory property missing")],
        target="t", snapshot_id="s", ds_name="event")
    text = r.serialize_report(report, "human").decode()
    assert text.splitlines()[:2] == ["target: t",
                                     "domain specification: event"]
    assert any(line.startswith("ERROR E302 $0.name:")
               for line in text.splitlines())


def test_machine_round_trip_is_byte_identical():
    entries = [
        r.make_entry("E302", "$0.name", "missing"),
        r.make_entry("E206", "$0.description", "empty"),
    ]
    score = r.ScoreSummary(score=0.5, checked=2, matched=1, unverifiable=1)
    report = r.merge_reports(entries, target="https://x.example/p",
                             snapshot_id="s", ds_name="event",
                             content_score=score)
    first = r.serialize_report(report, "machine")
    reparsed = parse_report(first)
    assert r.serialize_report(reparsed, "machine") == first
    assert reparsed.content_score == score
    assert reparsed.entries == report.entries


entry_strategy = st.builds(
    r.make_entry,
    st.sampled_from(ALL_CODES),
    st.from_regex(r"\$\d{1,2}(\.[a-z]{1,8})?", fullmatch=True),
    st.text(min_size=1, max_size=30),
)


@given(st.lists(entry_strategy, max_size=20))
def test_summary_matches_entry_multiset(entries):
    report = r.merge_reports(entries, target="t", snapshot_id="s")
    assert len(report.entries) == len(entries)
    for severity in r.Severity:
        expected = sum(1 for e in entries if e.severity is severity)
        assert report.summary[severity.value] == expected


@given(st.lists(entry_strategy, max_size=20))
def test_merge_orders_by_path_then_code_keeping_ties_in_order(entries):
    """The one sort of a report's findings: equal (path, code) pairs keep
    the order the checking layers found them in."""
    report = r.merge_reports(entries, target="t", snapshot_id="s")
    for key in {(e.path, e.code) for e in entries}:
        assert ([e for e in report.entries if (e.path, e.code) == key]
                == [e for e in entries if (e.path, e.code) == key])
    keys = [(e.path, e.code) for e in report.entries]
    assert keys == sorted(keys)


@given(st.lists(entry_strategy, max_size=6))
def test_serialization_round_trip_property(entries):
    report = r.merge_reports(entries, target="t", snapshot_id="s")
    data = r.serialize_report(report, "machine")
    assert r.serialize_report(parse_report(data), "machine") == data
