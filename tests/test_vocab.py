import codecs
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from sdocheck import content, ds, vocab as v


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


# each loader of an input document: the loader on bytes, a document it
# reads, a view of what it read and its error
LOADERS = {
    "vocab": (lambda data, vocab: v.load_vocabulary(data), dump(MINI),
              lambda graph: (graph.classes, graph.properties), v.ParseError),
    "ds": (ds.load_domain_specification,
           b'{"name": "E", "root": {"targetTypes": ["Event"]}}',
           lambda spec: spec, ds.DsParseError),
    "config": (lambda data, vocab: content.load_validation_config(data),
               b'{"threshold": 0.6}', lambda config: config.threshold,
               ValueError),
}
# values that RFC 8259 does not allow in a JSON text, and a nesting deeper
# than the decoder goes
NOT_JSON = {"NaN": b"NaN", "Infinity": b"Infinity", "1e400": b"1e400",
            "bad-utf-8": b'"caf\xe9"', "3000-deep": b"[" * 3000 + b"]" * 3000}


class TestLoading:
    def test_default_snapshot_loads_with_thing_at_root(self, vocab):
        assert "Thing" in vocab.classes
        assert vocab.classes["Thing"] == {"Thing"}

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

    @pytest.mark.parametrize("case", ["byte-order-mark", *NOT_JSON])
    @pytest.mark.parametrize("loader", LOADERS)
    def test_every_document_loader_reads_json_as_rfc_8259_says(
            self, loader, case, vocab):
        load, document, view, error = LOADERS[loader]
        if case == "byte-order-mark":
            marked = codecs.BOM_UTF8 + document
            assert view(load(marked, vocab)) == view(load(document, vocab))
            if loader == "vocab":
                # the snapshot is named by the bytes as read, the mark
                # included
                assert load(marked, vocab).snapshot_id == (
                    "sha256:" + hashlib.sha256(marked).hexdigest()[:16])
            return
        with pytest.raises(error, match="does not parse"):
            load(b'{"x": ' + NOT_JSON[case] + b", " + document[1:], vocab)

    @pytest.mark.parametrize("terms, error, message", [
        ([{"@id": "schema:Event", "@type": "rdfs:Class",
           "rdfs:subClassOf": 3}],
         v.ParseError, "unsupported reference value: 3"),
        ([{"@type": "rdfs:Class"}], v.ParseError,
         "term without '@id': {'@type': 'rdfs:Class'}"),
        ([{"@id": "schema:Loop", "@type": "rdfs:Class",
           "rdfs:subClassOf": {"@id": "schema:Loop"}}],
         v.IntegrityError, "class 'Loop' lists itself as superclass"),
        ([{"@id": "schema:odd"}], v.ParseError,
         "term 'odd' carries no recognized '@type'"),
        ([{"@id": "schema:Gold", "@type": "schema:Medal"}], v.IntegrityError,
         "enumeration member 'Gold' declares unknown class 'Medal'"),
        ([{"@id": "schema:name", "@type": "rdfs:Class",
           "rdfs:subClassOf": {"@id": "schema:Thing"}}],
         v.IntegrityError, "names with conflicting roles: ['name']"),
        ([{"@id": "schema:about", "@type": "rdf:Property",
           "schema:domainIncludes": {"@id": "schema:Nowhere"},
           "schema:rangeIncludes": {"@id": "schema:Text"}}],
         v.IntegrityError, "property 'about' names unknown domain 'Nowhere'"),
        ([{"@id": "schema:about", "@type": "rdf:Property",
           "schema:domainIncludes": {"@id": "schema:Thing"},
           "schema:rangeIncludes": {"@id": "schema:Nowhere"}}],
         v.IntegrityError, "property 'about' names unknown range 'Nowhere'"),
    ])
    def test_a_malformed_term_is_rejected_with_its_reason(self, terms, error,
                                                          message):
        with pytest.raises(error) as raised:
            v.load_vocabulary(dump(MINI + terms))
        assert str(raised.value) == message

    def test_dangling_superclass_reference(self):
        terms = MINI + [{"@id": "schema:Festival", "@type": "rdfs:Class",
                         "rdfs:subClassOf": {"@id": "schema:Nowhere"}}]
        with pytest.raises(v.IntegrityError):
            v.load_vocabulary(dump(terms))

    def test_a_superclass_may_be_a_plain_string(self):
        terms = MINI + [{"@id": "schema:Festival", "@type": "rdfs:Class",
                         "rdfs:subClassOf": "schema:Event"}]
        graph = v.load_vocabulary(dump(terms))
        assert "Event" in graph.classes["Festival"]

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
        assert "Event" in graph.classes["C0"]
        assert "Thing" in graph.classes["C0"]
        assert "C0" not in graph.classes["C1"]

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
    def test_namespace_prefixes_strip(self):
        assert v.strip_namespace("https://schema.org/Event") == "Event"
        assert v.strip_namespace("http://schema.org/Event") == "Event"
        assert v.strip_namespace("schema:Event") == "Event"
        assert v.strip_namespace("Event") == "Event"
        assert v.strip_namespace("https://example.com/Event") \
            == "https://example.com/Event"


class TestSubclass:
    def test_event_reaches_thing(self, vocab):
        assert "Thing" in vocab.classes["Event"]

    def test_thing_is_not_under_event(self, vocab):
        assert "Event" not in vocab.classes["Thing"]

    def test_reflexive(self, vocab):
        assert "Event" in vocab.classes["Event"]

    def test_multi_parent_class_reaches_both(self, vocab):
        assert "Organization" in vocab.classes["LocalBusiness"]
        assert "Place" in vocab.classes["LocalBusiness"]

    def test_every_class_reaches_thing(self, vocab):
        for name in vocab.classes:
            assert "Thing" in vocab.classes[name], name


class TestDomainRange:
    def test_start_date_applies_to_event(self, vocab):
        assert v.property_applies_to(vocab, "startDate", "Event")

    def test_start_date_not_on_person(self, vocab):
        assert not v.property_applies_to(vocab, "startDate", "Person")

    def test_name_applies_to_thing(self, vocab):
        assert v.property_applies_to(vocab, "name", "Thing")

    def test_each_vocabulary_answers_from_its_own_memo(self):
        """Two vocabularies that give one property different domains keep
        their own answers in one process, whichever is asked first."""
        on_event = [dict(term) for term in MINI]
        on_event[3]["schema:domainIncludes"] = {"@id": "schema:Event"}
        wide = v.load_vocabulary(dump(MINI))
        narrow = v.load_vocabulary(dump(on_event))
        for _ in range(2):
            assert v.property_applies_to(wide, "name", "Thing")
            assert not v.property_applies_to(narrow, "name", "Thing")
            assert v.property_applies_to(narrow, "name", "Event")


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
        if sup in vocab.classes[sub] \
                and v.property_applies_to(vocab, prop, sup):
            assert v.property_applies_to(vocab, prop, sub)

    check()


@st.composite
def class_hierarchies(draw):
    """Random acyclic classes under MINI's Thing, as (declared parents by
    class, the dump's class terms in shuffled order).  A class's parents are
    Thing, earlier classes and sometimes the datatype Text."""
    parents = {}
    for i in range(draw(st.integers(0, 30))):
        earlier = ["Thing", "Text", *parents]
        parents[f"C{i}"] = draw(st.sets(st.sampled_from(earlier), min_size=1,
                                        max_size=3))
    terms = [{"@id": f"schema:{name}", "@type": "rdfs:Class",
              "rdfs:subClassOf": [{"@id": f"schema:{p}"} for p in sorted(ps)]}
             for name, ps in parents.items()]
    return parents, draw(st.permutations(terms))


def closure_by_fixed_point(parents):
    """Each class -> itself, its parents and its class parents' closures,
    grown until nothing changes; a datatype parent is kept as a leaf."""
    closure = {name: {name, *ps} for name, ps in parents.items()}
    changed = True
    while changed:
        changed = False
        for name in closure:
            grown = closure[name].union(
                *(closure[p] for p in list(closure[name]) if p in closure))
            changed |= grown != closure[name]
            closure[name] = grown
    return closure


@settings(max_examples=60)
@given(class_hierarchies())
def test_the_class_table_is_the_superclass_closure(hierarchy):
    parents, terms = hierarchy
    graph = v.load_vocabulary(dump(MINI + terms))
    expected = closure_by_fixed_point(
        {"Thing": set(), "Event": {"Thing"}, **parents})
    assert graph.classes == expected


@settings(max_examples=60)
@given(class_hierarchies(), st.data())
def test_a_back_edge_is_a_cyclic_subclass_chain(hierarchy, data):
    parents, terms = hierarchy
    closure = closure_by_fixed_point(parents)
    edges = [(sub, sup) for sub in parents for sup in closure[sub]
             if sup in parents and sup != sub]
    if not edges:
        return
    sub, sup = data.draw(st.sampled_from(edges))
    # sup becomes a subclass of its own subclass sub
    for term in terms:
        if term["@id"] == f"schema:{sup}":
            term["rdfs:subClassOf"].append({"@id": f"schema:{sub}"})
    with pytest.raises(v.IntegrityError,
                       match="^cyclic subclass chain: ") as raised:
        v.load_vocabulary(dump(MINI + terms))
    chain = str(raised.value).removeprefix("cyclic subclass chain: ")
    chain = chain.split(" -> ")
    # the chain follows declared parents and ends on a class it passed
    assert chain[-1] in chain[:-1]
    declared = {**parents, sup: parents[sup] | {sub}}
    assert all(b in declared[a] for a, b in zip(chain, chain[1:]))
