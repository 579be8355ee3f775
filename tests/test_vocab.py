import json

import pytest
from hypothesis import given, strategies as st

from sdocheck import vocab as v


def dump(graph_terms) -> bytes:
    return json.dumps({"@graph": graph_terms}).encode()


MINI = [
    {"@id": "schema:Thing", "@type": "rdfs:Class"},
    {"@id": "schema:Event", "@type": "rdfs:Class",
     "rdfs:subClassOf": {"@id": "schema:Thing"}},
    {"@id": "schema:Text", "@type": ["rdfs:Class", "schema:DataType"]},
    {"@id": "schema:name", "@type": "rdf:Property",
     "schema:domainIncludes": {"@id": "schema:Thing"},
     "schema:rangeIncludes": {"@id": "schema:Text"}},
]


class TestLoading:
    def test_default_snapshot_loads_with_thing_at_root(self, vocab):
        assert "Thing" in vocab.classes
        assert vocab.classes["Thing"].sub_class_of == frozenset()

    def test_start_date_ranges_from_snapshot(self, vocab):
        assert {"Date", "DateTime"} <= vocab.properties["startDate"].range_includes

    def test_empty_stream_is_a_parse_error(self):
        with pytest.raises(v.ParseError):
            v.load_vocabulary(b"")

    def test_missing_graph_key_is_a_parse_error(self):
        with pytest.raises(v.ParseError):
            v.load_vocabulary(b'{"terms": []}')

    def test_snapshot_id_is_content_derived(self):
        first = v.load_vocabulary(dump(MINI))
        second = v.load_vocabulary(dump(MINI))
        assert first.snapshot_id == second.snapshot_id
        assert first.snapshot_id.startswith("sha256:")

    def test_dangling_superclass_reference(self):
        terms = MINI + [{"@id": "schema:Festival", "@type": "rdfs:Class",
                         "rdfs:subClassOf": {"@id": "schema:Nowhere"}}]
        with pytest.raises(v.IntegrityError):
            v.load_vocabulary(dump(terms))

    def test_cyclic_subclass_chain(self):
        terms = MINI + [
            {"@id": "schema:A", "@type": "rdfs:Class",
             "rdfs:subClassOf": {"@id": "schema:B"}},
            {"@id": "schema:B", "@type": "rdfs:Class",
             "rdfs:subClassOf": {"@id": "schema:A"}},
        ]
        with pytest.raises(v.IntegrityError,
                           match="^cyclic subclass chain: A -> B -> A$"):
            v.load_vocabulary(dump(terms))

    def test_long_subclass_chain_listed_child_first(self):
        chain = [{"@id": f"schema:C{i}", "@type": "rdfs:Class",
                  "rdfs:subClassOf": {"@id": f"schema:C{i + 1}"}}
                 for i in range(1499)]
        chain.append({"@id": "schema:C1499", "@type": "rdfs:Class",
                      "rdfs:subClassOf": {"@id": "schema:Event"}})
        graph = v.load_vocabulary(dump(chain + MINI))
        assert v.is_subclass_of(graph, "C0", "Event")
        assert v.is_subclass_of(graph, "C0", "Thing")
        assert not v.is_subclass_of(graph, "C1", "C0")

    def test_property_without_range_is_rejected(self):
        terms = MINI + [{"@id": "schema:broken", "@type": "rdf:Property",
                         "schema:domainIncludes": {"@id": "schema:Thing"}}]
        with pytest.raises(v.IntegrityError):
            v.load_vocabulary(dump(terms))

    def test_second_root_class_is_rejected(self):
        terms = MINI + [{"@id": "schema:Orphan", "@type": "rdfs:Class"}]
        with pytest.raises(v.IntegrityError):
            v.load_vocabulary(dump(terms))

    def test_key_sets_pairwise_disjoint(self, vocab):
        classes, props = set(vocab.classes), set(vocab.properties)
        assert not classes & props
        assert not classes & set(vocab.datatypes)
        assert not props & set(vocab.datatypes)


class TestLookup:
    @pytest.mark.parametrize("name,kind", [
        ("Event", v.TermKind.CLASS),
        ("startDate", v.TermKind.PROPERTY),
        ("ItemAvailability", v.TermKind.ENUMERATION),
        ("InStock", v.TermKind.ENUMERATION_MEMBER),
        ("Date", v.TermKind.DATATYPE),
        ("Hotell", v.TermKind.UNKNOWN),
        ("", v.TermKind.UNKNOWN),
        ("event", v.TermKind.UNKNOWN),  # lookup is case-sensitive
    ])
    def test_lookup_kinds(self, vocab, name, kind):
        assert v.lookup_term(vocab, name) is kind

    def test_lookup_is_pure(self, vocab):
        assert v.lookup_term(vocab, "Event") is v.lookup_term(vocab, "Event")

    def test_namespace_prefixes_strip(self):
        assert v.strip_namespace("https://schema.org/Event") == "Event"
        assert v.strip_namespace("http://schema.org/Event") == "Event"
        assert v.strip_namespace("schema:Event") == "Event"
        assert v.strip_namespace("Event") == "Event"
        assert v.strip_namespace("https://example.com/Event") \
            == "https://example.com/Event"


class TestSubclass:
    def test_event_reaches_thing(self, vocab):
        assert v.is_subclass_of(vocab, "Event", "Thing")

    def test_thing_is_not_under_event(self, vocab):
        assert not v.is_subclass_of(vocab, "Thing", "Event")

    def test_reflexive(self, vocab):
        assert v.is_subclass_of(vocab, "Event", "Event")

    def test_multi_parent_class_reaches_both(self, vocab):
        assert v.is_subclass_of(vocab, "LocalBusiness", "Organization")
        assert v.is_subclass_of(vocab, "LocalBusiness", "Place")

    def test_unknown_names_raise(self, vocab):
        with pytest.raises(v.UnknownTerm):
            v.is_subclass_of(vocab, "Hotell", "Thing")
        with pytest.raises(v.UnknownTerm):
            v.is_subclass_of(vocab, "Text", "Thing")  # datatype, not a class

    def test_every_class_reaches_thing(self, vocab):
        for name in vocab.classes:
            assert v.is_subclass_of(vocab, name, "Thing"), name


class TestDomainRange:
    def test_start_date_applies_to_event(self, vocab):
        assert v.property_applies_to(vocab, "startDate", "Event")

    def test_start_date_not_on_person(self, vocab):
        assert not v.property_applies_to(vocab, "startDate", "Person")

    def test_name_applies_to_thing(self, vocab):
        assert v.property_applies_to(vocab, "name", "Thing")

    def test_unknown_terms_raise(self, vocab):
        with pytest.raises(v.UnknownTerm):
            v.property_applies_to(vocab, "nmae", "Event")
        with pytest.raises(v.UnknownTerm):
            v.property_applies_to(vocab, "name", "Hotell")


@st.composite
def class_pairs(draw, names):
    sub = draw(st.sampled_from(names))
    sup = draw(st.sampled_from(names))
    return sub, sup


def test_domain_monotonicity_under_subclassing(vocab):
    """If a property applies to a type, it applies to every subtype."""
    names = sorted(vocab.classes)
    props = sorted(vocab.properties)

    @given(st.sampled_from(props), class_pairs(names))
    def check(prop, pair):
        sub, sup = pair
        if v.is_subclass_of(vocab, sub, sup) \
                and v.property_applies_to(vocab, prop, sup):
            assert v.property_applies_to(vocab, prop, sub)

    check()
