import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sdocheck import ds, pipeline, sdo_verifier as sv
from sdocheck.annotation import AnnotationNode, Entity, Literal, Reference
from sdocheck.report import Severity, merge_reports
from sdocheck.vocab import load_default_vocabulary
from generators import random_compliant_annotation
from helpers import load_ds, parse_jsonld


COMPLIANT_EVENT = {
    "@context": "https://schema.org",
    "@type": "Event",
    "name": "Summer Music Festival",
    "description": "Open-air concert evening on the town square.",
    "startDate": "2026-07-10",
    "endDate": "2026-07-12",
    "location": "Town Square",
    "image": "https://x.example/poster.jpg",
    "url": "https://x.example/festival",
}


def verify(block, vocab, strict=False):
    """The block's findings, in report order under ``strict``."""
    graph, entries = parse_jsonld(block)
    assert entries == []
    findings = sv.verify_schema_org(graph, vocab)
    if strict:
        return merge_reports(findings, "t", "s", strict=True).entries
    return findings


class TestCheckFamilies:
    def test_compliant_event_is_clean(self, vocab):
        assert verify(COMPLIANT_EVENT, vocab) == []

    def test_unknown_type(self, vocab):
        block = {**COMPLIANT_EVENT, "@type": "Hotell"}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E201", "$0")]

    # only a class or an enumeration names a type; names are case-sensitive
    @pytest.mark.parametrize("name", ["Date", "InStock", "startDate",
                                      "event"])
    def test_a_term_that_is_no_class_is_an_unknown_type(self, vocab, name):
        findings = verify({**COMPLIANT_EVENT, "@type": name}, vocab)
        assert ("E201", "$0") in [(f.code, f.path) for f in findings]

    def test_an_enumeration_names_a_type(self, vocab):
        block = {"@type": "ItemAvailability", "name": "In stock"}
        assert "E201" not in [f.code for f in verify(block, vocab)]

    @pytest.mark.parametrize("name", ["Place", "Date", "InStock"])
    def test_a_term_that_is_no_property_is_unknown(self, vocab, name):
        findings = verify({**COMPLIANT_EVENT, name: "x"}, vocab)
        assert [(f.code, f.path) for f in findings] == [("E202", f"$0.{name}")]

    def test_unknown_property(self, vocab):
        block = {**COMPLIANT_EVENT, "nmae": "typo"}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E202", "$0.nmae")]

    def test_domain_violation(self, vocab):
        block = {**COMPLIANT_EVENT, "servesCuisine": "Tirolean"}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E203", "$0.servesCuisine")]

    def test_range_violation_entity(self, vocab):
        block = {**COMPLIANT_EVENT,
                 "location": {"@type": "Offer", "price": "10"}}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E204", "$0.location")]

    def test_range_violation_reference(self, vocab):
        block = {**COMPLIANT_EVENT, "name": {"@id": "https://x.example/n"}}
        findings = verify(block, vocab)
        assert [(f.code, f.path, f.description) for f in findings] == [
            ("E204", "$0.name", "reference 'https://x.example/n' where "
                                "'name' expects range {Text}")]

    def test_a_reference_fits_a_url_range(self, vocab):
        block = {**COMPLIANT_EVENT, "url": {"@id": "https://e.example/"}}
        assert verify(block, vocab) == []

    def test_malformed_date_literal(self, vocab):
        block = {**COMPLIANT_EVENT, "startDate": "next friday"}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E205", "$0.startDate")]

    def test_empty_name(self, vocab):
        block = {**COMPLIANT_EVENT, "name": ""}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E206", "$0.name")]

    def test_duplicated_value(self, vocab):
        block = {**COMPLIANT_EVENT,
                 "image": ["https://x.example/poster.jpg",
                           "https://x.example/poster.jpg"]}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E207", "$0.image")]

    def test_end_before_start(self, vocab):
        block = {**COMPLIANT_EVENT, "endDate": "2026-07-01"}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E208", "$0.endDate")]

    def test_empty_entity_value(self, vocab):
        block = {**COMPLIANT_EVENT, "location": {"@type": "Place"}}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E206", "$0.location")]

    def test_untyped_nested_entity_is_info(self, vocab):
        block = {**COMPLIANT_EVENT, "location": {"name": "Town Hall"}}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E209", "$0.location")]
        assert findings[0].severity is Severity.INFO

    def test_untyped_entity_with_datatype_only_range_is_violation(self, vocab):
        block = {**COMPLIANT_EVENT, "startDate": {"name": "vague"}}
        findings = verify(block, vocab)
        assert ("E204", "$0.startDate") in [(f.code, f.path) for f in findings]

    def test_reference_duplicates_by_identifier(self, vocab):
        block = {**COMPLIANT_EVENT,
                 "organizer": [{"@id": "https://x.example/org"},
                               {"@id": "https://x.example/org"}]}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E207", "$0.organizer")]

    def test_an_empty_identifier_duplicates_by_identifier(self, vocab):
        block = {**COMPLIANT_EVENT, "organizer": [
            {"@id": "", "@type": "Organization", "name": "Org"}, {"@id": ""}]}
        findings = verify(block, vocab)
        assert [(f.code, f.path, f.description) for f in findings] == [
            ("E207", "$0.organizer",
             "value '' occurs 2 times under 'organizer'")]

    def test_enumeration_literal_and_iri_forms(self, vocab):
        offer = {"@context": "https://schema.org", "@type": "Offer",
                 "price": "10", "priceCurrency": "EUR",
                 "availability": "InStock"}
        assert verify(offer, vocab) == []
        offer["availability"] = "https://schema.org/InStock"
        assert verify(offer, vocab) == []
        offer["availability"] = {"@id": "https://schema.org/InStock"}
        assert verify(offer, vocab) == []

    def test_non_member_literal_for_enumeration_range(self, vocab):
        offer = {"@context": "https://schema.org", "@type": "Offer",
                 "price": "10", "availability": "yes"}
        findings = verify(offer, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E204", "$0.availability")]

    def test_text_accepted_when_range_includes_text(self, vocab):
        block = {**COMPLIANT_EVENT, "location": "not really a place"}
        assert verify(block, vocab) == []

    def test_strict_mode_elevates_domain_and_range(self, vocab):
        block = {**COMPLIANT_EVENT, "servesCuisine": "Tirolean"}
        relaxed = verify(block, vocab)
        strict = verify(block, vocab, strict=True)
        assert relaxed[0].severity is Severity.WARNING
        assert strict[0].severity is Severity.ERROR

    def test_multi_typed_node_passes_domain_if_any_type_fits(self, vocab):
        block = {"@context": "https://schema.org",
                 "@type": ["Person", "Event"],
                 "name": "odd double", "startDate": "2026-07-10"}
        assert verify(block, vocab) == []


def _entity(*types):
    return Entity(AnnotationNode(types=list(types)))


SCHEDULED = "https://schema.org/EventScheduled"

# {literal, reference, typed entity} x {datatype, enumeration, class} ranges
FITS_RANGE_TABLE = [
    # literal, datatype range
    pytest.param(Literal("2020-05-01", "Date"), "Date", True,
                 id="exact_datatype_match"),
    pytest.param(Literal("2020-05-01", "Date"), "Text", True,
                 id="text_range_accepts_anything"),
    pytest.param(Literal("12", "Integer"), "Number", True,
                 id="widening_integer_to_number"),
    pytest.param(Literal("12.5", "Float"), "Number", True,
                 id="widening_float_to_number"),
    pytest.param(Literal("12", "Integer"), "Float", True,
                 id="widening_integer_to_float"),
    pytest.param(Literal("12.5", "Float"), "Integer", False,
                 id="float_never_narrows_to_integer"),
    pytest.param(Literal("2020-05-01", "Date"), "DateTime", False,
                 id="date_never_widens_to_datetime"),
    pytest.param(Literal("2020-05-01", "Date"), "Time", False,
                 id="date_is_not_a_time"),
    pytest.param(Literal("yes", "Text"), "Boolean", False,
                 id="no_rule_maps_yes_to_boolean"),
    pytest.param(Literal("true", "Boolean"), "Date", False,
                 id="boolean_is_not_a_date"),
    # literal, enumeration range
    pytest.param(Literal("InStock", "Text"), "ItemAvailability", True,
                 id="enumeration_member_name"),
    pytest.param(Literal("https://schema.org/InStock", "URL"),
                 "ItemAvailability", True, id="enumeration_member_iri"),
    pytest.param(Literal("Cancelled", "Text"), "EventStatusType", False,
                 id="literal_non_member"),
    # literal, class range
    pytest.param(Literal("Town Square", "Text"), "Place", False,
                 id="literal_is_no_entity"),
    # reference, datatype range
    pytest.param(Reference("https://x.example/a"), "URL", True,
                 id="reference_is_a_url"),
    pytest.param(Reference("https://x.example/a"), "Text", False,
                 id="reference_is_no_text"),
    pytest.param(Reference("https://x.example/a"), "Date", False,
                 id="reference_is_no_date"),
    # reference, enumeration range
    pytest.param(Reference(SCHEDULED), "EventStatusType", True,
                 id="reference_member_iri"),
    pytest.param(Reference("https://x.example/status"), "EventStatusType",
                 False, id="reference_non_member"),
    # reference, class range
    pytest.param(Reference("https://x.example/place/1"), "Place", True,
                 id="reference_fits_any_class"),
    # typed entity, datatype range
    pytest.param(_entity("Place"), "Text", False, id="entity_is_no_literal"),
    # typed entity, enumeration range
    pytest.param(_entity("EventStatusType"), "EventStatusType", True,
                 id="entity_typed_as_enumeration"),
    pytest.param(_entity("Place"), "EventStatusType", False,
                 id="entity_outside_enumeration"),
    # typed entity, class range
    pytest.param(_entity("Place"), "Place", True, id="entity_exact_class"),
    pytest.param(_entity("Hotel"), "Place", True, id="subclass_value_conforms"),
    pytest.param(_entity("Offer"), "Place", False, id="entity_unrelated_class"),
    pytest.param(_entity("Person", "Hotel"), "Place", True,
                 id="entity_any_type_fits"),
    pytest.param(_entity("Hotell"), "Place", False,
                 id="entity_of_unknown_type_fits_nothing"),
    pytest.param(_entity("Hotell", "Hotel"), "Place", True,
                 id="entity_unknown_type_ignored"),
    pytest.param(_entity(), "Place", False, id="untyped_entity_fits_nothing"),
]


class TestValueFitsRange:
    @pytest.mark.parametrize("value, range_name, expected", FITS_RANGE_TABLE)
    def test_table(self, vocab, value, range_name, expected):
        assert sv.value_fits_range(vocab, value, range_name) is expected

    def test_only_the_constraint_layer_checks_reference_membership(self,
                                                                    vocab):
        # the vocabulary layer lets any reference through a class range
        block = {**COMPLIANT_EVENT,
                 "eventStatus": {"@id": "https://x.example/status"}}
        assert verify(block, vocab) == []
        doc = {"name": "status", "root": {"targetTypes": ["Event"],
               "properties": [{"name": "eventStatus",
                               "ranges": ["EventStatusType"]}]}}
        spec = load_ds(doc, vocab)
        graph, _ = parse_jsonld(block)
        assert [(f.code, f.path)
                for f in ds.verify_against_ds(graph, spec, vocab)] == [
            ("E304", "$0.eventStatus")]


# the literal pairs each semantic rule compares or skips: (type, lower value,
# upper value, the E208 description or None); an Event's pair is its
# startDate/endDate, a QuantitativeValue's its minValue/maxValue, and
# tests/fixtures/probes/semantic_rule_pairs.json holds the same pairs
ENTITY = {"@type": "Thing", "name": "listed first"}
RULE_PAIRS = [
    ("Event", "2026-07-10", "2026-07-12", None),
    ("Event", "2026-07-10", "2026-07-10", None),
    ("Event", "2026-07-12", "2026-07-10", "rule 'event-dates': endDate "
     "2026-07-10 precedes startDate 2026-07-12"),
    ("Event", "2026-07-10T18:00:00", "2026-07-10T19:00:00", None),
    ("Event", "2026-07-10T18:00:00", "2026-07-10T17:00:00",
     "rule 'event-dates': endDate 2026-07-10T17:00:00 precedes startDate "
     "2026-07-10T18:00:00"),
    ("Event", "2026-07-10T18:00:00+02:00", "2026-07-10T17:00:00Z", None),
    ("Event", "2026-07-10T18:00:00Z", "2026-07-10T19:00:00+02:00",
     "rule 'event-dates': endDate 2026-07-10T19:00:00+02:00 precedes "
     "startDate 2026-07-10T18:00:00Z"),
    ("Event", "2026-07-10T18:00:00Z", "2026-07-10T17:00:00", None),
    ("Event", "2026-07-10T18:00:00", "2026-07-10T17:00:00Z", None),
    ("Event", "2026-07-10T18:00:00", "2026-07-01", None),
    ("Event", "2026-07-10", "2026-07-01T18:00:00", None),
    ("Event", "19:00:00", "18:00:00", None),
    ("Event", 5, 2, None),
    ("Event", "next week", "last week", None),
    ("Event", [ENTITY, "2026-07-12"], "2026-07-10", "rule 'event-dates': "
     "endDate 2026-07-10 precedes startDate 2026-07-12"),
    ("Event", ["2026-07-10", "2026-07-20"], "2026-07-15", None),
    ("QuantitativeValue", 2, 5, None),
    ("QuantitativeValue", 2, 2.0, None),
    ("QuantitativeValue", 5, 2,
     "rule 'value-order': minValue 5 exceeds maxValue 2"),
    ("QuantitativeValue", 3, 2.5,
     "rule 'value-order': minValue 3 exceeds maxValue 2.5"),
    ("QuantitativeValue", 2.75, 2.5,
     "rule 'value-order': minValue 2.75 exceeds maxValue 2.5"),
    ("QuantitativeValue", "10", "9",
     "rule 'value-order': minValue 10 exceeds maxValue 9"),
    ("QuantitativeValue", "high", "low", None),
    ("QuantitativeValue", "2026-07-12", "2026-07-10", None),
    ("QuantitativeValue", True, False, None),
    ("QuantitativeValue", "", 2, None),
    ("QuantitativeValue", [ENTITY, 5], 2,
     "rule 'value-order': minValue 5 exceeds maxValue 2"),
    ("QuantitativeValue", [{"@id": "https://x.example/v"}, 5], [2, 9],
     "rule 'value-order': minValue 5 exceeds maxValue 2"),
]


@pytest.mark.parametrize("node_type, low, high, description", RULE_PAIRS)
def test_a_rule_compares_the_first_literals_of_its_datatypes(
        vocab, node_type, low, high, description):
    low_prop, high_prop, named = (
        ("startDate", "endDate", "$0.endDate") if node_type == "Event"
        else ("minValue", "maxValue", "$0.minValue"))
    block = {"@context": "https://schema.org", "@type": node_type,
             "name": "pair", low_prop: low, high_prop: high}
    assert [(f.path, f.description) for f in verify(block, vocab)
            if f.code == "E208"] == ([] if description is None
                                     else [(named, description)])


class TestSemanticRules:
    def test_compliant_event_fires_no_rule(self, vocab):
        assert verify(COMPLIANT_EVENT, vocab) == []

    def test_start_date_alone_is_fine(self, vocab):
        block = dict(COMPLIANT_EVENT)
        del block["endDate"]
        assert verify(block, vocab) == []

    def test_mixed_granularity_dates_are_not_compared(self, vocab):
        block = {**COMPLIANT_EVENT, "startDate": "2026-07-10T18:00:00",
                 "endDate": "2026-07-01"}
        assert verify(block, vocab) == []

    def test_datetime_pair_compares(self, vocab):
        block = {**COMPLIANT_EVENT, "startDate": "2026-07-10T18:00:00",
                 "endDate": "2026-07-10T17:00:00"}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E208", "$0.endDate")]

    def test_naive_and_zoned_datetimes_are_not_compared(self, vocab):
        block = {**COMPLIANT_EVENT, "startDate": "2026-07-10T18:00:00Z",
                 "endDate": "2026-07-10T17:00:00"}
        assert verify(block, vocab) == []

    def test_value_order_rule(self, vocab):
        block = {"@context": "https://schema.org",
                 "@type": "QuantitativeValue", "name": "range",
                 "minValue": 5, "maxValue": 2}
        findings = verify(block, vocab)
        assert [(f.code, f.path) for f in findings] == [("E208", "$0.minValue")]

    def test_times_are_not_compared(self, vocab):
        block = {**COMPLIANT_EVENT, "startDate": "19:00:00",
                 "endDate": "18:00:00"}
        assert "E208" not in [f.code for f in verify(block, vocab)]

    def test_bounds_that_are_no_numbers_are_not_compared(self, vocab):
        block = {"@context": "https://schema.org",
                 "@type": "QuantitativeValue", "name": "range",
                 "minValue": "high", "maxValue": "low"}
        assert "E208" not in [f.code for f in verify(block, vocab)]

    def test_rule_applies_to_subclasses(self, vocab):
        block = {**COMPLIANT_EVENT, "@type": "Festival",
                 "endDate": "2026-07-01"}
        findings = verify(block, vocab)
        assert [f.code for f in findings] == ["E208"]


class TestDeterminismAndSoundness:
    def test_runs_are_identical_and_ordered(self, vocab):
        block = {**COMPLIANT_EVENT, "name": "", "nmae": "x",
                 "endDate": "2026-01-01"}
        graph, _ = parse_jsonld(block)
        one = sv.verify_schema_org(graph, vocab)
        two = sv.verify_schema_org(graph, vocab)
        assert one == two
        reported = pipeline.run(json.dumps(block).encode(), "t", vocab).entries
        assert reported == sorted(one, key=lambda e: (e.path, e.code))

    @settings(max_examples=40)
    @given(st.integers(0, 10**9))
    def test_generator_soundness(self, vocab, seed):
        rng = random.Random(seed)
        block = random_compliant_annotation(vocab, rng)
        graph, entries = parse_jsonld(block)
        assert entries == []
        assert sv.verify_schema_org(graph, vocab) == []

    @settings(max_examples=25)
    @given(st.integers(0, 10**9))
    def test_locality_of_added_property(self, vocab, seed):
        """A property bolted onto one node only adds findings under it."""
        rng = random.Random(seed)
        block = random_compliant_annotation(vocab, rng, max_depth=1)
        block["location" if "location" not in block else "nmae"] = \
            {"@type": "Offer"}  # empty entity: always at least one finding
        graph, _ = parse_jsonld(block)
        findings = sv.verify_schema_org(graph, vocab)
        assert findings
        for finding in findings:
            assert finding.path.startswith("$0")


def test_checking_leaves_the_vocabulary_as_loaded():
    """Checking 10,000 distinct types, properties and values reports each
    unknown name and leaves the vocabulary equal to a fresh load."""
    vocab = load_default_vocabulary()
    count = 10_000
    block = {"@context": "https://schema.org",
             "@type": ["Event"] + [f"Kind{i}" for i in range(count)],
             "name": [f"text number {i}" for i in range(count)],
             **{f"prop{i}": "x" for i in range(count)}}
    findings = sv.verify_schema_org(parse_jsonld(block)[0], vocab)
    assert [(e.code, e.path) for e in findings] == (
        [("E201", "$0")] * count
        + [("E202", f"$0.prop{i}") for i in range(count)])
    assert vocab == load_default_vocabulary()
