import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st
from importlib import resources

from sdocheck import ds as d, pipeline
from generators import delete_property, random_ds_with_annotation
from helpers import load_ds, parse_jsonld, report_order


MINIMAL = {"name": "E", "root": {"targetTypes": ["Event"], "properties": []}}

EVENT_DS = {
    "name": "event-test",
    "dsVersion": "1.0",
    "root": {
        "targetTypes": ["Event"],
        "properties": [
            {"name": "name", "ranges": ["Text"]},
            {"name": "startDate", "ranges": ["Date", "DateTime"]},
            {"name": "image", "isOptional": True, "ranges": ["URL"]},
            {"name": "location", "isOptional": True, "ranges": [
                "Text",
                {"type": "Place", "node": {
                    "targetTypes": ["Place"],
                    "properties": [{"name": "name", "ranges": ["Text"]}],
                }},
            ]},
            {"name": "eventStatus", "isOptional": True,
             "ranges": ["EventStatusType"]},
        ],
    },
}

GOOD_EVENT = {
    "@context": "https://schema.org",
    "@type": "Event",
    "name": "Fest",
    "startDate": "2026-07-10",
}


ORGANIZATION = {"@context": "https://schema.org", "@type": "Organization",
                "name": "Hall Trust"}


def check(annotation, ds_doc, vocab):
    spec = load_ds(ds_doc, vocab)
    graph, entries = parse_jsonld(annotation)
    assert entries == []
    return d.verify_against_ds(graph, spec, vocab)


def page_of(*blocks) -> bytes:
    """A page of one JSON-LD script per block."""
    return "".join(f'<script type="application/ld+json">{json.dumps(block)}'
                   "</script>" for block in blocks).encode()


def entries_of(page: bytes, ds_doc, vocab) -> list[tuple[str, str]]:
    result = pipeline.run(page, "https://x.example/", vocab,
                          spec=load_ds(ds_doc, vocab))
    return [(entry.code, entry.path) for entry in result.entries]


class TestLoading:
    def test_minimal_document_loads_and_is_vacuous(self, vocab):
        assert check(GOOD_EVENT, MINIMAL, vocab) == []

    def test_unknown_property_name(self, vocab):
        doc = {"name": "E", "root": {"targetTypes": ["Event"], "properties": [
            {"name": "nmae", "ranges": ["Text"]}]}}
        with pytest.raises(d.DsIntegrityError):
            load_ds(doc, vocab)

    def test_defaults_are_materialized(self, vocab):
        doc = {"name": "E", "root": {"targetTypes": ["Event"], "properties": [
            {"name": "name", "ranges": ["Text"]}]}}
        spec = load_ds(doc, vocab)
        prop = spec.root.properties[0]
        assert prop.is_optional is False
        assert prop.multiple_values_allowed is False

    def test_unknown_target_type(self, vocab):
        doc = {"name": "E", "root": {"targetTypes": ["Hotell"],
                                     "properties": []}}
        with pytest.raises(d.DsIntegrityError):
            load_ds(doc, vocab)

    def test_empty_ranges_rejected(self, vocab):
        doc = {"name": "E", "root": {"targetTypes": ["Event"], "properties": [
            {"name": "name", "ranges": []}]}}
        with pytest.raises(d.DsIntegrityError):
            load_ds(doc, vocab)

    def test_duplicate_property_rejected(self, vocab):
        doc = {"name": "E", "root": {"targetTypes": ["Event"], "properties": [
            {"name": "name", "ranges": ["Text"]},
            {"name": "name", "ranges": ["Text"]}]}}
        with pytest.raises(d.DsIntegrityError):
            load_ds(doc, vocab)

    def test_nested_target_must_specialize_range_class(self, vocab):
        doc = {"name": "E", "root": {"targetTypes": ["Event"], "properties": [
            {"name": "location", "ranges": [{"type": "Place", "node": {
                "targetTypes": ["Organization"], "properties": []}}]}]}}
        with pytest.raises(d.DsIntegrityError):
            load_ds(doc, vocab)

    def test_syntax_errors_are_parse_errors(self, vocab):
        with pytest.raises(d.DsParseError):
            d.load_domain_specification(b"{not json", vocab)
        with pytest.raises(d.DsParseError):
            d.load_domain_specification(b"[1, 2]", vocab)
        with pytest.raises(d.DsParseError):
            load_ds({"name": "E"}, vocab)
        with pytest.raises(d.DsParseError):
            load_ds({"name": "E", "root": {"targetTypes": ["Event"],
                     "properties": [{"name": "name", "isOptional": "yes",
                                     "ranges": ["Text"]}]}}, vocab)

        def with_ranges(ranges, prop="location"):
            return {"name": "E", "root": {"targetTypes": ["Event"],
                                          "properties": [{"name": prop,
                                                          "ranges": ranges}]}}

        root = {"targetTypes": ["Event"]}
        cases = [
            ({"root": root}, d.DsParseError,
             "document needs a non-empty 'name'"),
            ({"name": "E", "dsVersion": 1, "root": root}, d.DsParseError,
             "'dsVersion' must be a string"),
            ({"name": "E", "root": {"targetTypes": "Event"}}, d.DsParseError,
             "root: 'targetTypes' must be a non-empty list"),
            ({"name": "E", "root": {**root, "properties": {}}},
             d.DsParseError, "root: 'properties' must be a list"),
            ({"name": "E", "root": {**root, "properties": ["name"]}},
             d.DsParseError, "root: property entries must be objects"),
            ({"name": "E", "root": {**root, "properties": [
                {"ranges": ["Text"]}]}},
             d.DsParseError, "root: property entry without a name"),
            (with_ranges(["Txt"], "name"), d.DsIntegrityError,
             "root.name: unknown range term 'Txt'"),
            (with_ranges([{"node": root}]), d.DsParseError,
             "root.location: range object needs a 'type' name"),
            (with_ranges([{"type": "Plaec"}]), d.DsIntegrityError,
             "root.location: unknown range type 'Plaec'"),
            (with_ranges([{"type": "Place", "node": ["Place"]}]),
             d.DsParseError, "root.location: nested 'node' must be an object"),
            (with_ranges([3]), d.DsParseError,
             "root.location: range entries must be names or objects"),
        ]
        for doc, error, message in cases:
            with pytest.raises(error) as raised:
                load_ds(doc, vocab)
            assert str(raised.value) == message

    def test_shipped_example_documents_load(self, vocab):
        base = resources.files("sdocheck.data").joinpath("ds")
        for name in ("event.json", "lodging-business.json",
                     "local-business.json"):
            data = base.joinpath(name).read_bytes()
            spec = d.load_domain_specification(data, vocab)
            assert spec.root.target_types


class TestMatching:
    def test_exact_and_sibling_roots(self, vocab):
        block = json.dumps({"@context": "https://schema.org", "@graph": [
            {"@type": "Event", "name": "A"},
            {"@type": "Person", "name": "B"}]})
        spec = load_ds(MINIMAL, vocab)
        graph, _ = parse_jsonld(block)
        assert d.match_target(spec, graph, vocab) == [0]

    def test_thing_target_matches_every_typed_root(self, vocab):
        block = json.dumps({"@context": "https://schema.org", "@graph": [
            {"@type": "Event", "name": "A"},
            {"@type": "Person", "name": "B"}]})
        doc = {"name": "any", "root": {"targetTypes": ["Thing"],
                                       "properties": []}}
        spec = load_ds(doc, vocab)
        graph, _ = parse_jsonld(block)
        assert d.match_target(spec, graph, vocab) == [0, 1]

    def test_untyped_root_never_matches(self, vocab):
        block = json.dumps({"@context": "https://schema.org", "@graph": [
            {"name": "untyped"}, {"@type": "Event", "name": "A"}]})
        spec = load_ds(MINIMAL, vocab)
        graph, _ = parse_jsonld(block)
        assert d.match_target(spec, graph, vocab) == [1]

    def test_subclass_matches_target(self, vocab):
        doc = {"name": "lodging", "root": {
            "targetTypes": ["LodgingBusiness"], "properties": []}}
        hotel = {"@context": "https://schema.org", "@type": "Hotel",
                 "name": "Alpenhof"}
        assert check(hotel, doc, vocab) == []

    def test_no_match_is_one_entry_per_page(self, vocab):
        doc = {"name": "lodging", "root": {
            "targetTypes": ["LodgingBusiness"], "properties": []}}
        assert check(GOOD_EVENT, doc, vocab) is None  # the page decides
        page = page_of(GOOD_EVENT, ORGANIZATION, GOOD_EVENT)
        assert entries_of(page, doc, vocab) == [("E301", "$")]

    def test_a_target_root_in_any_block_matches_the_page(self, vocab):
        page = page_of(ORGANIZATION, GOOD_EVENT, ORGANIZATION)
        assert entries_of(page, MINIMAL, vocab) == []

    def test_a_page_whose_blocks_do_not_parse_gets_no_e301(self, vocab):
        page = page_of({"@context": "https://x.example/", "@type": "Event"})
        assert entries_of(page, MINIMAL, vocab) == [("E102", "$"),
                                                    ("E103", "$")]


class TestConstraintChecks:
    def test_missing_mandatory_property(self, vocab):
        block = {k: v for k, v in GOOD_EVENT.items() if k != "name"}
        findings = check(block, EVENT_DS, vocab)
        assert [(f.code, f.path) for f in findings] == [("E302", "$0.name")]

    def test_cardinality_violation(self, vocab):
        block = {**GOOD_EVENT,
                 "image": ["https://x.example/1.jpg",
                           "https://x.example/2.jpg"]}
        findings = check(block, EVENT_DS, vocab)
        assert [(f.code, f.path) for f in findings] == [("E303", "$0.image")]

    def test_range_not_permitted(self, vocab):
        block = {**GOOD_EVENT, "startDate": "P1D"}
        findings = check(block, EVENT_DS, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E304", "$0.startDate")]

    def test_nested_non_compliance_wraps(self, vocab):
        block = {**GOOD_EVENT,
                 "location": {"@type": "Place",
                              "telephone": "+43 1 234"}}
        findings = check(block, EVENT_DS, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E305", "$0.location"), ("E302", "$0.location.name")]

    def test_nested_compliance_is_silent(self, vocab):
        block = {**GOOD_EVENT,
                 "location": {"@type": "Place", "name": "Town Square"}}
        assert check(block, EVENT_DS, vocab) == []

    def test_text_range_accepts_plain_location(self, vocab):
        block = {**GOOD_EVENT, "location": "Town Square"}
        assert check(block, EVENT_DS, vocab) == []

    def test_enumeration_range_accepts_three_forms(self, vocab):
        # the object form {"type": <enumeration>} matches like the bare name
        object_form = copy.deepcopy(EVENT_DS)
        object_form["root"]["properties"][-1]["ranges"] = [
            {"type": "EventStatusType"}]
        for doc in (EVENT_DS, object_form):
            for value in ("EventScheduled",
                          "https://schema.org/EventScheduled",
                          {"@id": "https://schema.org/EventScheduled"},
                          {"@type": "EventStatusType", "name": "scheduled"}):
                block = {**GOOD_EVENT, "eventStatus": value}
                assert check(block, doc, vocab) == [], value
            block = {**GOOD_EVENT,
                     "eventStatus": {"@id": "https://x.example/status"}}
            assert [(f.code, f.path) for f in check(block, doc, vocab)] == [
                ("E304", "$0.eventStatus")]

    def test_enumeration_rejects_non_member(self, vocab):
        block = {**GOOD_EVENT, "eventStatus": "Cancelled"}
        findings = check(block, EVENT_DS, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E304", "$0.eventStatus")]

    def test_open_world_extra_properties(self, vocab):
        block = {**GOOD_EVENT, "organizer": {"@type": "Person", "name": "Ana"},
                 "doorTime": "18:00"}
        assert check(block, EVENT_DS, vocab) == []

    def test_reference_value_satisfies_type_range(self, vocab):
        block = {**GOOD_EVENT,
                 "location": {"@id": "https://x.example/place/1"}}
        assert check(block, EVENT_DS, vocab) == []

    @pytest.mark.parametrize("prop, codes", [
        ("url", []), ("name", [("E304", "$0.name")])])
    def test_a_reference_fits_only_a_url_range_of_a_shipped_document(
            self, vocab, prop, codes):
        document = resources.files("sdocheck") / "data/ds/local-business.json"
        spec = d.load_domain_specification(document.read_bytes(), vocab)
        block = {"@context": "https://schema.org", "@type": "LocalBusiness",
                 "name": "Shop", "address": "1 Main Street",
                 "url": "https://shop.example/",
                 prop: {"@id": "https://shop.example/"}}
        graph, _ = parse_jsonld(block)
        assert [(f.code, f.path)
                for f in d.verify_against_ds(graph, spec, vocab)] == codes

    def test_widening_applies_to_ds_datatype_ranges(self, vocab):
        doc = {"name": "offer", "root": {"targetTypes": ["Offer"],
               "properties": [{"name": "price", "ranges": ["Number"]}]}}
        block = {"@context": "https://schema.org", "@type": "Offer",
                 "price": 12}
        assert check(block, doc, vocab) == []

    def test_identifier_cycle_terminates(self, vocab):
        doc = {"name": "places", "root": {"targetTypes": ["Place"],
               "properties": [
                   {"name": "name", "ranges": ["Text"]},
                   {"name": "containsPlace", "isOptional": True,
                    "ranges": [{"type": "Place", "node": {
                        "targetTypes": ["Place"],
                        "properties": [{"name": "name", "ranges": ["Text"]}],
                    }}]}]}}
        block = json.dumps({"@context": "https://schema.org", "@graph": [
            {"@id": "#a", "@type": "Place", "name": "A",
             "containsPlace": {"@id": "#b"}},
            {"@id": "#b", "@type": "Place", "name": "B",
             "containsPlace": {"@id": "#a"}},
        ]})
        spec = load_ds(doc, vocab)
        graph, _ = parse_jsonld(block)
        assert d.verify_against_ds(graph, spec, vocab) == []

    def test_multiple_matching_roots_verified_independently(self, vocab):
        block = json.dumps({"@context": "https://schema.org", "@graph": [
            {"@type": "Event", "startDate": "2026-07-10"},
            {"@type": "Event", "name": "ok", "startDate": "2026-07-11"},
        ]})
        findings = check(block, EVENT_DS, vocab)
        assert [(f.code, f.path) for f in findings] == [("E302", "$0.name")]

    def test_removing_optional_value_keeps_compliance(self, vocab):
        block = {**GOOD_EVENT, "image": "https://x.example/1.jpg"}
        assert check(block, EVENT_DS, vocab) == []
        del block["image"]
        assert check(block, EVENT_DS, vocab) == []


class TestGeneratorRoundTrip:
    @settings(max_examples=30)
    @given(st.integers(0, 10**9))
    def test_synthesized_annotations_comply(self, vocab, seed):
        rng = random.Random(seed)
        case = random_ds_with_annotation(vocab, rng)
        spec = load_ds(case.ds, vocab)
        graph, entries = parse_jsonld(case.annotation)
        assert entries == []
        assert d.verify_against_ds(graph, spec, vocab) == []

    @settings(max_examples=30)
    @given(st.integers(0, 10**9))
    def test_single_fault_detection(self, vocab, seed):
        rng = random.Random(seed)
        case = random_ds_with_annotation(vocab, rng)
        spec = load_ds(case.ds, vocab)

        node_path, prop = rng.choice(case.mandatory)
        mutated = copy.deepcopy(case.annotation)
        delete_property(mutated, node_path, prop)
        graph, _ = parse_jsonld(mutated)
        findings = d.verify_against_ds(graph, spec, vocab)
        e302 = [f for f in findings if f.code == "E302"]
        assert len(e302) == 1
        assert e302[0].path == f"{node_path}.{prop}"
        assert all(f.code in ("E302", "E305") for f in findings)


ADDRESS_DS = {"name": "address", "root": {"targetTypes": ["Event"],
    "properties": [{"name": "location", "multipleValuesAllowed": True,
                    "ranges": [{"type": "Place", "node": {
                        "targetTypes": ["Place"],
                        "properties": [{"name": "address", "ranges": [
                            {"type": "PostalAddress", "node": {
                                "targetTypes": ["PostalAddress"],
                                "properties": [{"name": "addressLocality",
                                                "ranges": ["Text"]}]}}]}]}},
                        "LocalBusiness"]}]}}
SHARED_ADDRESS = {"@id": "#addr", "@type": "PostalAddress",
                  "streetAddress": "Elm Street 1"}


class TestNestedReporting:
    """A pair's nested findings follow the first E305 the report keeps."""

    def test_rescued_attempt_does_not_swallow_nested_findings(self, vocab):
        # location[0] breaks the Place node through #addr, then fits the
        # LocalBusiness range cleanly; location[1] breaks it for good
        block = {"@context": "https://schema.org", "@type": "Event",
                 "location": [
                     {"@type": "LocalBusiness", "address": SHARED_ADDRESS},
                     {"@type": "Place", "address": {"@id": "#addr"}}]}
        findings = report_order(check(block, ADDRESS_DS, vocab))
        assert [(f.code, f.path) for f in findings] == [
            ("E302", "$0.location[0].address.addressLocality"),
            ("E305", "$0.location[1]"),
            ("E305", "$0.location[1].address")]

    def test_shared_node_is_reported_once_across_roots(self, vocab):
        place = {"@id": "#p", "@type": "Place", "telephone": "+43 1 234"}
        block = json.dumps({"@context": "https://schema.org", "@graph": [
            {**GOOD_EVENT, "location": place},
            {**GOOD_EVENT, "location": {"@id": "#p"}}]})
        findings = check(block, EVENT_DS, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E305", "$0.location"), ("E302", "$0.location.name"),
            ("E305", "$1.location")]

    def test_shared_node_is_reported_once_within_a_root(self, vocab):
        block = {"@context": "https://schema.org", "@type": "Event",
                 "location": [
                     {"@type": "Place", "address": SHARED_ADDRESS},
                     {"@type": "Place", "address": {"@id": "#addr"}}]}
        findings = check(block, ADDRESS_DS, vocab)
        assert [(f.code, f.path) for f in findings] == [
            ("E305", "$0.location[0]"),
            ("E305", "$0.location[0].address"),
            ("E302", "$0.location[0].address.addressLocality"),
            ("E305", "$0.location[1]"),
            ("E305", "$0.location[1].address")]
