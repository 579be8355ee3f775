import json
import random
from datetime import timezone
from decimal import Decimal
from html import escape
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdocheck import annotation as a, pipeline, report
from generators import random_compliant_annotation
from sdocheck.htmltree import decode_html, parse_html
from helpers import (PATH_GRAMMAR_RE, graph_fingerprint, node_fingerprint,
                     parse_jsonld, resolve_path)

PROBES = Path(__file__).parent / "fixtures" / "probes"


def blocks_of(html, base="https://x.example/"):
    return a.extract_annotation_blocks(parse_html(html, base))


EVENT_BLOCK = ('{"@context":"https://schema.org","@type":"Event",'
               '"name":"X"}')


class TestBlockExtraction:
    def test_two_jsonld_scripts_in_document_order(self):
        html = """<html><body>
        <script type="application/ld+json">{"a":1}</script>
        <p>filler</p>
        <script type="application/ld+json">{"b":2}</script>
        </body></html>"""
        blocks = blocks_of(html)
        assert [(b.block_index, b.source_format) for b in blocks] == [
            (0, "json-ld"), (1, "json-ld")]
        assert '"a"' in blocks[0].payload and '"b"' in blocks[1].payload

    def test_page_without_structured_data(self):
        html = "<html><body><p>just text</p></body></html>"
        assert blocks_of(html) == []

    def test_jsonld_then_microdata_ordering(self):
        html = """<html><body>
        <div itemscope itemtype="https://schema.org/Event">
          <span itemprop="name">E</span></div>
        <script type="application/ld+json">{}</script>
        </body></html>"""
        blocks = blocks_of(html)
        assert [(b.block_index, b.source_format) for b in blocks] == [
            (0, "json-ld"), (1, "microdata")]

    def test_media_type_parameters_are_tolerated(self):
        html = ('<script type="application/ld+json; charset=utf-8">{}'
                '</script>')
        assert len(blocks_of(html)) == 1

    def test_plain_script_is_not_an_annotation_block(self):
        html = '<script>var x = {"@type": "Event"};</script>'
        assert blocks_of(html) == []


class TestJsonLdParsing:
    def test_single_typed_root(self):
        graph, entries = parse_jsonld(EVENT_BLOCK)
        assert entries == []
        root = graph.roots[0]
        assert root.types == ["Event"]
        name = root.properties["name"][0]
        assert isinstance(name, a.Literal) and name.raw == "X"
        assert name.path == "$0.name"

    def test_context_only_block_is_empty(self):
        graph, entries = a.parse_annotation(
            a.RawBlock('{"@context":"https://schema.org"}', 0))
        assert graph is None
        assert [e.code for e in entries] == ["E102"]

    def test_truncated_block_is_invalid_syntax(self):
        graph, entries = a.parse_annotation(a.RawBlock('{"@type":"Event"', 0))
        assert graph is None
        assert [e.code for e in entries] == ["E101"]

    def test_graph_array_gives_multiple_roots(self):
        block = ('{"@context":"https://schema.org","@graph":['
                 '{"@type":"Event","name":"A"},{"@type":"Person","name":"B"}]}')
        graph, _ = parse_jsonld(block)
        assert [r.types for r in graph.roots] == [["Event"], ["Person"]]
        assert [r.path for r in graph.roots] == ["$0", "$1"]

    def test_a_graph_object_is_a_graph_of_one_node(self):
        graph, entries = parse_jsonld({"@context": "https://schema.org",
                                       "@graph": {"@type": "Event",
                                                  "nmae": "A"}})
        assert entries == []
        assert [(r.path, r.types, list(r.properties))
                for r in graph.roots] == [("$0", ["Event"], ["nmae"])]

    def test_a_graph_entry_that_is_no_object_is_skipped(self):
        graph, entries = parse_jsonld({"@context": "https://schema.org",
                                       "@graph": [1, {"@type": "Event"}]})
        assert [(e.code, e.description) for e in entries] == [
            ("E103", "@graph entry is not an object; skipped")]
        assert [r.path for r in graph.roots] == ["$0"]

    def test_keys_beside_a_top_level_graph_are_reported(self):
        graph, entries = parse_jsonld({
            "@context": "https://schema.org", "@type": "Event", "name": "x",
            "startDate": "2026-07-10",
            "@graph": [{"@type": "Place", "name": "P"}]})
        assert [(e.code, e.description) for e in entries] == [
            ("E103", "keys beside @graph are not read: '@type', 'name', "
                     "'startDate'")]
        assert [r.types for r in graph.roots] == [["Place"]]

    @pytest.mark.parametrize("block", [
        {"@type": "Event", "name": "x",
         "location": {"@graph": [{"@type": "Place", "name": "P"}]}},
        {"@graph": [{"@type": "Event", "name": "x",
                     "@graph": {"@type": "Place", "name": "P"}}]}])
    def test_a_graph_below_the_top_level_is_reported(self, block):
        graph, entries = parse_jsonld(block)
        assert [(e.code, e.description) for e in entries] == [
            ("E103", "@graph is read only in a top-level object; skipped")]
        assert [n.types for n in graph.nodes if n.types] == [["Event"]]

    def test_an_embedded_context_is_ignored(self):
        graph, entries = parse_jsonld({
            "@context": "https://schema.org", "@type": "Event",
            "location": {"@context": "https://x.example/", "@type": "Place",
                         "name": "B"}})
        assert [(e.code, e.description) for e in entries] == [
            ("E103", "embedded @context ignored")]
        assert graph.nodes[1].types == ["Place"]

    def test_a_graph_entry_folds_its_context_over_the_top_level_one(self):
        graph, entries = parse_jsonld({
            "@context": {"@vocab": "https://x.example/"},
            "@graph": [
                {"@type": "Event"},
                {"@context": None, "@type": "Event"},
                {"@context": "https://schema.org", "@type": "Event"},
                {"@context": {"schema": "https://y.example/"},
                 "@type": "schema:Event"},
                {"@type": "Place"}]})
        assert entries == []
        assert [r.types for r in graph.roots] == [
            ["https://x.example/Event"], ["Event"], ["Event"],
            ["https://y.example/Event"], ["https://x.example/Place"]]

    def test_a_graph_entry_whose_context_fails_is_skipped(self):
        graph, entries = parse_jsonld({
            "@context": "https://schema.org",
            "@graph": [{"@context": "https://x.example/", "@type": "Event",
                        "name": "x"}, {"@type": "Place", "name": "P"}]})
        assert [(e.code, e.description) for e in entries] == [
            ("E103", "context 'https://x.example/' is not a schema.org "
                     "context; @graph entry skipped")]
        assert [r.types for r in graph.roots] == [["Place"]]

    def test_top_level_array(self):
        block = ('[{"@context":"https://schema.org","@type":"Event","name":"A"},'
                 '{"@context":"https://schema.org","@type":"Person","name":"B"}]')
        graph, _ = parse_jsonld(block)
        assert len(graph.roots) == 2

    def test_first_root_ordinal_offsets_paths(self):
        graph, _ = parse_jsonld(EVENT_BLOCK, first_root_ordinal=3)
        assert graph.roots[0].path == "$3"
        assert graph.roots[0].properties["name"][0].path == "$3.name"

    def test_namespace_prefixes_stripped_from_terms(self):
        block = ('{"@context":"https://schema.org",'
                 '"@type":"https://schema.org/Event","schema:name":"A"}')
        graph, _ = parse_jsonld(block)
        assert graph.roots[0].types == ["Event"]
        assert "name" in graph.roots[0].properties

    def test_multiple_types_keep_order(self):
        block = ('{"@context":"https://schema.org",'
                 '"@type":["Hotel","LocalBusiness"],"name":"A"}')
        graph, _ = parse_jsonld(block)
        assert graph.roots[0].types == ["Hotel", "LocalBusiness"]

    def test_value_indexes_only_for_multi_values(self):
        block = ('{"@context":"https://schema.org","@type":"Event",'
                 '"name":"A","image":["https://x.example/1","https://x.example/2"]}')
        graph, _ = parse_jsonld(block)
        root = graph.roots[0]
        assert root.properties["name"][0].path == "$0.name"
        assert [v.path for v in root.properties["image"]] == [
            "$0.image[0]", "$0.image[1]"]

    def test_scalar_json_values_become_typed_literals(self):
        block = ('{"@context":"https://schema.org","@type":"Hotel",'
                 '"numberOfRooms":33,"petsAllowed":true,"latitude":47.25}')
        graph, _ = parse_jsonld(block)
        props = graph.roots[0].properties
        assert (props["numberOfRooms"][0].raw,
                props["numberOfRooms"][0].datatype) == ("33", "Integer")
        assert (props["petsAllowed"][0].raw,
                props["petsAllowed"][0].datatype) == ("true", "Boolean")
        assert (props["latitude"][0].raw,
                props["latitude"][0].datatype) == ("47.25", "Float")

    def test_at_value_object_is_honored(self):
        block = ('{"@context":"https://schema.org","@type":"Event",'
                 '"startDate":{"@value":"2026-05-01"}}')
        graph, _ = parse_jsonld(block)
        value = graph.roots[0].properties["startDate"][0]
        assert (value.raw, value.datatype) == ("2026-05-01", "Date")

    @pytest.mark.parametrize("value, warning", [
        ([["a"]], "nested array value is not supported; skipped"),
        ({"@value": {"name": "a"}}, "non-scalar @value; skipped"),
        ({"@list": ["a"]}, "@list/@set containers are not supported; skipped"),
    ])
    def test_a_value_that_is_no_literal_is_skipped(self, value, warning):
        graph, entries = parse_jsonld({"@context": "https://schema.org",
                                       "@type": "Event", "name": "A",
                                       "description": value})
        assert [(e.code, e.description) for e in entries] == [
            ("E103", warning)]
        assert list(graph.roots[0].properties) == ["name"]

    def test_bare_id_object_becomes_reference(self):
        block = ('{"@context":"https://schema.org","@type":"Offer",'
                 '"availability":{"@id":"https://schema.org/InStock"}}')
        graph, _ = parse_jsonld(block)
        value = graph.roots[0].properties["availability"][0]
        assert isinstance(value, a.Reference)
        assert value.iri == "https://schema.org/InStock"

    def test_an_empty_bare_reference_is_a_reference(self):
        graph, entries = parse_jsonld({
            "@context": "https://schema.org", "@type": "Event", "name": "x",
            "organizer": {"@id": ""}, "location": {"@id": ""}})
        assert entries == []
        values = [graph.roots[0].properties[p][0]
                  for p in ("organizer", "location")]
        assert [(type(v), v.iri, v.path) for v in values] == [
            (a.Reference, "", "$0.organizer"),
            (a.Reference, "", "$0.location")]

    def test_a_node_keeps_an_empty_identifier(self):
        graph, _ = parse_jsonld({"@type": "Event", "@id": "", "name": "x",
                                 "superEvent": {"@id": ""}})
        root = graph.roots[0]
        assert root.identifier == ""
        assert root.properties["superEvent"][0].node is root

    def test_shared_identifier_merges_nodes(self):
        block = json.dumps({
            "@context": "https://schema.org",
            "@graph": [
                {"@type": "Event", "name": "A",
                 "location": {"@id": "#place"}},
                {"@id": "#place", "@type": "Place", "name": "Town Hall"},
            ],
        })
        graph, _ = parse_jsonld(block)
        event, place = graph.roots
        linked = event.properties["location"][0]
        assert isinstance(linked, a.Entity)
        assert linked.node is place

    def test_conflicting_literals_concatenate_as_multiple_values(self):
        block = json.dumps({
            "@context": "https://schema.org",
            "@graph": [
                {"@id": "#p", "@type": "Person", "name": "Ann"},
                {"@id": "#p", "name": "Anna"},
            ],
        })
        graph, _ = parse_jsonld(block)
        names = [v.raw for v in graph.roots[0].properties["name"]]
        assert names == ["Ann", "Anna"]

    def test_identifier_cycle_parses_and_terminates(self):
        block = json.dumps({
            "@context": "https://schema.org",
            "@graph": [
                {"@id": "#a", "@type": "Place", "name": "A",
                 "containsPlace": {"@id": "#b"}},
                {"@id": "#b", "@type": "Place", "name": "B",
                 "containedInPlace": {"@id": "#a"}},
            ],
        })
        graph, _ = parse_jsonld(block)
        nodes = list(graph.iter_nodes())
        assert len(nodes) == 2
        assert all(n.path is not None for n in nodes)

    def test_shared_node_keeps_its_first_preorder_path(self):
        block = json.dumps({
            "@context": "https://schema.org",
            "@graph": [
                {"@type": "Event", "name": "E", "location": {"@id": "#a"},
                 "organizer": {"@id": "#nobody"}},
                {"@id": "#a", "@type": "Place", "name": "A"},
            ],
        })
        graph, _ = parse_jsonld(block)
        event, place = graph.roots
        assert [n.path for n in graph.iter_nodes()] == [
            "$0", "$0.location"]
        assert place.path == "$0.location"
        assert event.properties["location"][0].node is place
        organizer = event.properties["organizer"][0]
        assert isinstance(organizer, a.Reference)
        assert (organizer.iri, organizer.path) == (
            "#nobody", "$0.organizer")

    def test_foreign_context_skips_block(self):
        block = '{"@context":"https://example.com/vocab","@type":"Event"}'
        graph, entries = a.parse_annotation(a.RawBlock(block, 0))
        assert graph is None
        assert [e.code for e in entries] == ["E103", "E102"]

    @pytest.mark.parametrize("context, warning", [
        (["https://x.example/"],
         "context 'https://x.example/' is not a schema.org context; "
         "block skipped"),
        (["https://schema.org", "https://x.example/"],
         "context 'https://x.example/' is not a schema.org context; "
         "block skipped"),
        ([{"sdo": "https://schema.org/"}, 7],
         "unsupported @context form; block skipped")])
    def test_a_context_list_without_schema_org_skips_the_block(self, context,
                                                               warning):
        block = json.dumps({"@context": context, "@type": "Event"})
        graph, entries = a.parse_annotation(a.RawBlock(block, 0))
        assert graph is None
        assert [(e.code, e.description) for e in entries] == [
            ("E103", warning),
            ("E102", "annotation block contains no typed node")]

    # a block starts from the schema.org context and null resets to it;
    # a later list entry wins
    @pytest.mark.parametrize("context, types, properties", [
        ([], ["Event"], ["name"]),
        ([None], ["Event"], ["name"]),
        ([{"@vocab": "https://x.example/"}, None], ["Event"], ["name"]),
        ([{"@vocab": "https://x.example/"}],
         ["https://x.example/Event"], ["https://x.example/name"]),
        ([{"@vocab": "https://schema.org/"}, {"@vocab": "https://x.example/"}],
         ["https://x.example/Event"], ["https://x.example/name"]),
        ([{"@vocab": "https://x.example/"}, "https://schema.org"],
         ["Event"], ["name"]),
        ([{"@vocab": "https://x.example/"}, {"@vocab": "http://schema.org/"}],
         ["Event"], ["name"]),
        # @vocab is joined to a plain name as it stands; no "/" is added
        ([{"@language": "en"}, {"@vocab": "http://schema.org"}],
         ["http://schema.orgEvent"], ["http://schema.orgname"])])
    def test_a_context_list_folds_in_order(self, context, types, properties):
        graph, entries = parse_jsonld({"@context": context, "@type": "Event",
                                       "name": "A"})
        assert entries == []
        root = graph.roots[0]
        assert (root.types, list(root.properties)) == (types, properties)

    def test_context_object_with_vocab_and_aliases(self):
        block = ('{"@context":{"@vocab":"https://schema.org/","n":"name"},'
                 '"@type":"Event","n":"A"}')
        graph, entries = a.parse_annotation(a.RawBlock(block, 0))
        assert entries == []
        assert [v.raw for v in graph.roots[0].properties["name"]] == ["A"]

    @pytest.mark.parametrize("context", [
        ["https://schema.org", {"@language": "en"}],
        {"@vocab": "https://schema.org/", "@language": "en"},
        {"schema": "https://schema.org/"},
        {"@vocab": "https://schema.org/", "schema": "https://schema.org/"},
        ["https://schema.org", {"schema": "https://schema.org/"}],
        [{"@vocab": "https://schema.org/"}],
        [{"@language": "en"}, {"@vocab": "http://schema.org/"}],
        {"@base": "https://x.example/", "@version": 1.1},
    ])
    def test_a_schema_org_context_reads_plain_names(self, context):
        block = json.dumps({"@context": context, "@type": "Event",
                            "name": "A"})
        graph, entries = a.parse_annotation(a.RawBlock(block, 0))
        assert entries == []
        assert graph.roots[0].types == ["Event"]

    @pytest.mark.parametrize("context", [
        ["https://schema.org", {"title": "name"}],
        ["https://schema.org", {"@language": "en", "title": "n"},
         {"n": "name", "title": "name"}],
        {"schema": "http://schema.org/", "title": "schema:name"},
        [{"schema": "https://schema.org/"}, {"title": "name"}],
        {"title": {"@id": "schema:name"}},
        {"title": {"@id": "https://schema.org/name", "@type": "@id"}},
        {"title": "http://schema.org/name"},
        # a term defined by one entry is replaced by a later one
        [{"title": "https://x.example/t"}, {"title": "name"}],
    ])
    def test_a_term_reads_as_the_name_it_maps_to(self, context):
        graph, entries = parse_jsonld({"@context": context, "@type": "Event",
                                       "title": "A"})
        assert entries == []
        assert list(graph.roots[0].properties) == ["name"]

    def test_a_schema_prefix_names_schema_org_terms(self):
        graph, entries = parse_jsonld({
            "@context": {"schema": "https://schema.org/"},
            "@type": "schema:Event", "schema:name": "A"})
        assert entries == []
        assert (graph.roots[0].types, list(graph.roots[0].properties)) == (
            ["Event"], ["name"])

    @pytest.mark.parametrize("context, type_iri, name_iri", [
        ({"sdo": "https://schema.org/"}, "Event", "name"),
        ({"schema": "https://x.example/"},
         "https://x.example/Event", "https://x.example/name"),
        ({"schema": "schema.org"}, "schema.orgEvent", "schema.orgname"),
        # schema.org by one of @vocab and schema, elsewhere by the other
        ({"@vocab": "https://schema.org/", "schema": "https://x.example/"},
         "https://x.example/Event", "https://x.example/name"),
        ({"@vocab": "https://x.example/", "schema": "https://schema.org/"},
         "Event", "name"),
        # the namespace itself names no term
        ({"schema:name": "schema"}, "Event", "https://schema.org/"),
        (["https://schema.org", {"schema": "https://x.example/"}],
         "https://x.example/Event", "https://x.example/name"),
        (["https://schema.org",
          {"schema": "http://schema.org", "@vocab": None}],
         "http://schema.orgEvent", "http://schema.orgname"),
    ])
    def test_a_prefix_expands_to_the_iri_it_names(self, context, type_iri,
                                                  name_iri):
        graph, entries = parse_jsonld({"@context": context,
                                       "@type": "schema:Event",
                                       "schema:name": "A"})
        assert entries == []
        assert (graph.roots[0].types, list(graph.roots[0].properties)) == (
            [type_iri], [name_iri])

    @pytest.mark.parametrize("context", [
        ["https://schema.org", {"@vocab": None}],
        {"@vocab": 7},
        {"name": None, "Event": None},
        {"name": {"@id": None}, "Event": None},
        {"name": "@type", "Event": {"@id": "@id"}},
    ])
    def test_a_name_that_expands_to_no_iri_is_skipped_once(self, context):
        graph, entries = parse_jsonld({
            "@context": context, "@type": ["Event", "schema:Event"],
            "name": "A", "schema:subEvent": {"@type": "Event", "name": "B"}})
        assert [e.description for e in entries] == [
            "name 'Event' expands to no IRI; skipped",
            "name 'name' expands to no IRI; skipped"]
        assert [(n.types, list(n.properties)) for n in graph.nodes] == [
            (["Event"], ["subEvent"]), ([], [])]

    def test_reverse_keyword_is_skipped_with_warning(self):
        block = ('{"@context":"https://schema.org","@type":"Event","name":"A",'
                 '"@reverse":{"organizer":{"@type":"Person"}}}')
        graph, entries = a.parse_annotation(a.RawBlock(block, 0))
        assert graph is not None
        assert [e.code for e in entries] == ["E103"]
        assert "organizer" not in graph.roots[0].properties

    # A JSON decoder's object hook sees inner objects before outer ones and
    # the @context object as an object of its own: the three tests below
    # pin the document order that the reports keep.
    ORDER_BLOCK = {"@context": {"@vocab": "https://schema.org/"},
                   "@type": "Event", "@reverse": 1,
                   "location": {"@type": "Place", "@nest": 2, "name": "x"}}

    def test_unsupported_keywords_are_reported_in_document_order(self):
        _, entries = parse_jsonld(self.ORDER_BLOCK)
        assert [e.description for e in entries if e.code == "E103"] == [
            "keyword '@reverse' is not supported; skipped",
            "keyword '@nest' is not supported; skipped"]

    def test_a_vocab_context_object_is_neither_a_finding_nor_a_node(self):
        graph, entries = parse_jsonld(self.ORDER_BLOCK)
        assert not any("@vocab" in e.description for e in entries)
        assert [n.path for n in graph.nodes] == ["$0", "$0.location"]

    def test_a_node_named_at_two_depths_gains_properties_in_document_order(
            self):
        graph, _ = parse_jsonld({
            "@type": "Event", "@id": "#a", "name": "n",
            "subEvent": {"@id": "#a", "description": "d"},
            "url": "https://x.example/"})
        assert list(graph.roots[0].properties) == [
            "name", "description", "subEvent", "url"]

    @pytest.mark.parametrize("context", [
        "http://schema.org", "https://schema.org", "http://schema.org/",
        "https://schema.org/", "schema.org"])
    def test_accepted_context_strings(self, context):
        text = json.dumps({"@context": context, "@type": "Event", "name": "A"})
        graph, entries = a.parse_annotation(a.RawBlock(text, 0))
        assert graph is not None and entries == []

    def test_round_trip_stability(self):
        block = ('{"@context":"https://schema.org","@type":"Event","name":"A",'
                 '"location":{"@type":"Place","name":"B"},'
                 '"image":["https://x.example/1","https://x.example/2"]}')
        one, _ = parse_jsonld(block)
        two, _ = parse_jsonld(block)
        assert graph_fingerprint(one) == graph_fingerprint(two)


def _aliased(value, aliases: dict):
    """``value`` with each property key renamed to an alias term, which
    ``aliases`` records against the name it stands for."""
    if isinstance(value, list):
        return [_aliased(item, aliases) for item in value]
    if not isinstance(value, dict):
        return value
    return {key if key.startswith("@")
            else aliases.setdefault(key, f"alias{len(aliases)}"):
            _aliased(item, aliases) for key, item in value.items()}


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_properties_renamed_through_alias_terms_report_the_same(vocab, seed):
    original = random_compliant_annotation(vocab, random.Random(seed))
    aliases: dict[str, str] = {}
    renamed = _aliased(original, aliases)
    # the string form and the {"@id": "schema:..."} form, in turn
    renamed["@context"] = ["https://schema.org", {
        alias: name if i % 2 else {"@id": f"schema:{name}"}
        for i, (name, alias) in enumerate(aliases.items())}]

    def report_bytes(doc):
        return report.serialize_report(pipeline.run(
            json.dumps(doc).encode(), "annotation.json", vocab))

    assert report_bytes(renamed) == report_bytes(original)


class TestMicrodataParsing:
    HTML = """<html><body>
    <div itemscope itemtype="https://schema.org/Hotel" itemid="#hotel">
      <h1 itemprop="name">Alpenhof</h1>
      <a itemprop="url" href="/home">site</a>
      <img itemprop="image" src="/pic.jpg">
      <time itemprop="checkinTime" datetime="15:00">three</time>
      <meta itemprop="petsAllowed" content="true">
      <div itemprop="address" itemscope
           itemtype="https://schema.org/PostalAddress">
        <span itemprop="addressLocality">Innsbruck</span>
      </div>
    </div></body></html>"""

    def parse(self):
        blocks = blocks_of(self.HTML, "https://x.example/p")
        assert len(blocks) == 1
        graph, entries = a.parse_annotation(blocks[0])
        assert graph is not None, entries
        return graph, entries

    def test_value_extraction_rules(self):
        graph, entries = self.parse()
        assert entries == []
        root = graph.roots[0]
        assert root.types == ["Hotel"]
        assert root.identifier == "https://x.example/p#hotel"
        props = root.properties
        assert props["name"][0].raw == "Alpenhof"  # trimmed text content
        assert props["url"][0].raw == "https://x.example/home"  # resolved href
        assert props["image"][0].raw == "https://x.example/pic.jpg"
        assert props["checkinTime"][0].raw == "15:00"  # datetime attribute
        assert props["petsAllowed"][0].raw == "true"  # content attribute wins
        nested = props["address"][0]
        assert isinstance(nested, a.Entity)
        assert nested.node.types == ["PostalAddress"]
        assert nested.node.properties["addressLocality"][0].raw == "Innsbruck"

    def test_object_data_and_meter_read_their_attributes(self):
        page = (PROBES / "microdata_value_elements.html").read_bytes()
        blocks = blocks_of(decode_html(page), "https://x.example/e/1")
        graph, entries = a.parse_annotation(blocks[0])
        assert entries == []
        props = graph.roots[0].properties
        assert props["url"][0].raw == "https://x.example/tickets/1"
        offer = props["offers"][0].node.properties
        assert offer["price"][0].raw == "12.50"
        rating = props["aggregateRating"][0].node.properties
        assert rating["ratingValue"][0].raw == "4"

    # one end tag, or the page end, closes several properties at once
    @pytest.mark.parametrize("end", ["</div>", ""])
    def test_a_property_is_added_at_its_close(self, end):
        html = ('<div itemscope itemtype="https://schema.org/Event">'
                '<a itemprop="url" href="/u"><span itemprop="name">n</span>'
                '</a><p itemprop="description">d<b itemprop="about">a'
                '<i itemprop="subEvent" itemscope>' + end)
        root = a.parse_annotation(blocks_of(html)[0])[0].roots[0]
        assert list(root.properties) == ["name", "url", "subEvent", "about",
                                         "description"]
        assert root.properties["description"][0].raw == "da"

    def test_a_base_after_the_item_resolves_its_urls(self):
        html = ('<div itemscope itemtype="https://schema.org/Event" '
                'itemid="#e"><a itemprop="url" href="u">x</a></div>'
                '<base href="https://b.example/d/">')
        root = a.parse_annotation(blocks_of(html)[0])[0].roots[0]
        assert root.identifier == "https://b.example/d/#e"
        assert root.properties["url"][0].raw == "https://b.example/d/u"

    def test_hidden_text_is_no_part_of_a_property(self):
        html = ('<div itemscope itemtype="https://schema.org/Event">'
                '<p itemprop="description"> a <script>s</script><style>t'
                '</style><template>u<b itemprop="name">v</b></template>'
                '</p></div>')
        props = a.parse_annotation(blocks_of(html)[0])[0].roots[0].properties
        assert props["description"][0].raw == "a"
        assert props["name"][0].raw == "v"

    def test_content_attribute_beats_text(self):
        html = ('<div itemscope itemtype="https://schema.org/Event">'
                '<span itemprop="name" content="Real">shown text</span></div>')
        blocks = blocks_of(html)
        graph, _ = a.parse_annotation(blocks[0])
        assert graph.roots[0].properties["name"][0].raw == "Real"

    def test_multi_token_itemprop_assigns_both(self):
        html = ('<div itemscope itemtype="https://schema.org/Event">'
                '<span itemprop="name alternateName">Fest</span></div>')
        blocks = blocks_of(html)
        graph, _ = a.parse_annotation(blocks[0])
        props = graph.roots[0].properties
        assert props["name"][0].raw == "Fest"
        assert props["alternateName"][0].raw == "Fest"

    def test_properties_inside_property_elements_still_count(self):
        html = ('<div itemscope itemtype="https://schema.org/Event">'
                '<div itemprop="description">with <span itemprop="name">N'
                '</span></div></div>')
        blocks = blocks_of(html)
        graph, _ = a.parse_annotation(blocks[0])
        assert set(graph.roots[0].properties) == {"description", "name"}

    def test_keyword_shaped_itemprop_is_an_ordinary_property(self):
        html = ('<div itemscope itemtype="https://schema.org/Event">'
                '<span itemprop="@type">Person</span>'
                '<span itemprop="@id">x</span></div>')
        blocks = blocks_of(html)
        graph, entries = a.parse_annotation(blocks[0])
        assert entries == []
        root = graph.roots[0]
        assert (root.types, root.identifier) == (["Event"], None)
        assert [(p, v[0].raw) for p, v in root.properties.items()] == [
            ("@type", "Person"), ("@id", "x")]

    def test_itemref_is_unsupported(self):
        html = ('<div itemscope itemref="extra" '
                'itemtype="https://schema.org/Event">'
                '<span itemprop="name">E</span></div>')
        blocks = blocks_of(html)
        graph, entries = a.parse_annotation(blocks[0])
        assert graph is not None
        assert [e.code for e in entries] == ["E103"]

    def test_untyped_microdata_item_is_empty_annotation(self):
        html = '<div itemscope><span itemprop="name">x</span></div>'
        blocks = blocks_of(html)
        graph, entries = a.parse_annotation(blocks[0])
        assert graph is None
        assert [e.code for e in entries] == ["E102"]

    def test_format_equivalence_simple_pair(self):
        jsonld = ('{"@context":"https://schema.org","@type":"Event",'
                  '"name":"Fest","startDate":"2026-07-10"}')
        html = ('<div itemscope itemtype="https://schema.org/Event">'
                '<span itemprop="name">Fest</span>'
                '<time itemprop="startDate" datetime="2026-07-10">x</time>'
                '</div>')
        g1, _ = parse_jsonld(jsonld)
        blocks = blocks_of(html)
        g2, _ = a.parse_annotation(blocks[0])
        assert graph_fingerprint(g1) == graph_fingerprint(g2)


class TestOneReadingRule:
    """Both carriers expand names in schema.org's context and resolve
    identifiers against the block's base."""

    @staticmethod
    def microdata_root(attrs, prop="name"):
        html = (f'<div itemscope {attrs}><span itemprop="{prop}">x</span>'
                '</div>')
        graph, entries = a.parse_annotation(blocks_of(html)[0])
        assert entries == []
        return graph.roots[0]

    @pytest.mark.parametrize("name", [
        "Event", "schema:Event", "https://schema.org/Event",
        "http://schema.org/Event"])
    def test_names_read_alike_in_both_carriers(self, name):
        prop = name.replace("Event", "name")
        root = self.microdata_root(f'itemtype="{name}"', prop)
        graph, _ = parse_jsonld({"@type": name, prop: "x"})
        assert (root.types, list(root.properties)) == (["Event"], ["name"])
        assert graph_fingerprint(graph) == (node_fingerprint(root),)

    @pytest.mark.parametrize("prop", ["https://schema.org/", "schema"])
    def test_an_itemprop_naming_the_namespace_keeps_the_iri(self, prop):
        root = self.microdata_root('itemtype="https://schema.org/Event"',
                                   prop)
        assert list(root.properties) == ["https://schema.org/"]
        assert root.properties["https://schema.org/"][0].path == (
            "$0.https://schema.org/")

    def test_an_itemtype_naming_the_namespace_keeps_the_iri(self):
        root = self.microdata_root('itemtype="https://schema.org/"')
        assert root.types == ["https://schema.org/"]

    def test_both_carriers_resolve_an_identifier_to_one(self):
        html = ('<script type="application/ld+json">{"@type": "Event", '
                '"@id": "/e/1", "location": {"@id": "hall"}}</script>'
                '<div itemscope itemtype="https://schema.org/Event" '
                'itemid="/e/1"><span itemprop="name">x</span></div>')
        roots = [a.parse_annotation(block)[0].roots[0]
                 for block in blocks_of(html, "https://x.example/d/p")]
        assert [root.identifier for root in roots] == [
            "https://x.example/e/1", "https://x.example/e/1"]
        assert roots[0].properties["location"][0].iri == (
            "https://x.example/d/hall")

    @pytest.mark.parametrize("identifier", ["_:b0", "http://["])
    def test_a_blank_or_unparsable_identifier_stays_as_written(
            self, identifier):
        root = self.microdata_root('itemtype="https://schema.org/Event" '
                                   f'itemid="{identifier}"')
        graph, _ = a.parse_annotation(a.RawBlock(json.dumps(
            {"@type": "Event", "@id": identifier,
             "organizer": {"@id": identifier}}), 0, "https://x.example/"))
        assert root.identifier == graph.roots[0].identifier == identifier

    def test_an_empty_itemid_is_kept_as_written(self):
        root = self.microdata_root('itemtype="https://schema.org/Event" '
                                   'itemid=""')
        assert root.identifier == ""

    @staticmethod
    def identifiers(obj) -> list[str]:
        """Each node's identifier and each reference's IRI, in order, of
        ``obj`` read on a page at https://x.example/d/p."""
        graph, entries = a.parse_annotation(a.RawBlock(
            json.dumps(obj), 0, "https://x.example/d/p"))
        assert entries == []
        return [item.identifier if isinstance(item, a.AnnotationNode)
                else item.iri for node in graph.nodes
                for item in [node, *node.properties.get("url", [])]]

    @pytest.mark.parametrize("context, base", [
        ({"@base": "https://other.example/dir/"}, "https://other.example/dir/"),
        # a relative @base resolves against the block's base
        ({"@base": "sub/"}, "https://x.example/d/sub/"),
        # a later entry wins, resolved against the base before it
        ([{"@base": "https://a.example/x/"}, {"@base": "y/"}],
         "https://a.example/x/y/"),
        # null: identifiers stay as written
        ({"@base": None}, ""),
    ])
    def test_a_context_base_resolves_identifiers(self, context, base):
        assert self.identifiers(
            {"@context": context, "@type": "Event", "@id": "e1",
             "url": {"@id": "page"}}) == [base + "e1", base + "page"]

    def test_a_graph_entry_keeps_the_top_level_base(self):
        assert self.identifiers(
            {"@context": {"@base": "https://a.example/"}, "@graph": [
                {"@type": "Event", "@id": "e1"},
                {"@context": {"name": "name"}, "@type": "Event", "@id": "e2"},
                {"@context": {"@base": "b/"}, "@type": "Event", "@id": "e3"},
            ]}) == ["https://a.example/e1", "https://a.example/e2",
                    "https://a.example/b/e3"]

    def test_a_null_context_resets_the_base(self):
        assert self.identifiers(
            {"@context": [{"@base": "https://a.example/"}, None],
             "@type": "Event", "@id": "e1"}) == ["https://x.example/d/e1"]

    @pytest.mark.parametrize("value", [5, ["https://a.example/"], {}])
    def test_a_base_that_is_no_string_skips_the_block(self, value):
        block = json.dumps({"@context": {"@base": value}, "@type": "Event"})
        graph, entries = a.parse_annotation(a.RawBlock(block, 0))
        assert graph is None
        assert [e.description for e in entries] == [
            "unsupported @base form; block skipped",
            "annotation block contains no typed node"]

    def test_a_standalone_file_resolves_identifiers_against_its_url(self):
        _, blocks = pipeline.parse(b'{"@type": "Event", "@id": "e1"}',
                                   "file:///d/f.json")
        (_, graph, _), = blocks
        assert graph.roots[0].identifier == "file:///d/e1"


class TestClassifyLiteral:
    @pytest.mark.parametrize("raw,expected", [
        ("2020-05-01", "Date"),
        ("2020-05-01T10:00:00Z", "DateTime"),
        ("2020-05-01 10:00", "DateTime"),
        ("15:04", "Time"),
        ("15:04:05", "Time"),
        ("P1DT2H", "Duration"),
        ("PT30M", "Duration"),
        ("true", "Boolean"),
        ("false", "Boolean"),
        ("12", "Integer"),
        ("-7", "Integer"),
        ("12.5", "Float"),
        (".5", "Float"),
        ("https://x.example/a", "URL"),
        ("http://x.example", "URL"),
        ("HTTPS://x.example/a", "URL"),  # a scheme is case-insensitive
        ("Http://x.example", "URL"),
        ("FILE:///srv/a.html", "URL"),
        ("HTTPS:x", "Text"),
        ("", a.UNDETERMINED),
        ("next friday", "Text"),
        ("2020-13-45", "Text"),  # shape of a date, but not a valid one
        ("25:99", "Text"),
        ("/relative/path", "Text"),
        ("P", "Text"),
        ("TRUE", "Text"),  # booleans are lowercase tokens
        ("1.2.3", "Text"),
    ])
    def test_classification_table(self, raw, expected):
        assert a.classify_literal(raw) == expected

    @given(st.dates())
    def test_every_iso_date_classifies_as_date(self, when):
        assert a.classify_literal(when.isoformat()) == "Date"

    @given(st.integers())
    def test_every_integer_numeral_classifies_as_integer(self, n):
        assert a.classify_literal(str(n)) == "Integer"

    @given(st.one_of(
        st.text(max_size=30),
        st.datetimes(timezones=st.sampled_from([None, timezone.utc])).map(
            lambda when: when.isoformat()),
        *(st.from_regex(pattern) for pattern in (
            a._DATE_RE, a._DATETIME_RE, a._INTEGER_RE, a._FLOAT_RE))))
    def test_a_date_or_number_label_is_one_its_reader_reads(self, raw):
        """Content scoring reads a Date or DateTime literal with
        parse_temporal and an Integer or Float one with Decimal, and
        expects neither to fail."""
        datatype = a.classify_literal(raw)
        if datatype in ("Date", "DateTime"):
            a.parse_temporal(raw, datatype)
        elif datatype in ("Integer", "Float"):
            Decimal(raw)


# random JSON-LD-ish annotation objects for the path properties
prop_names = st.sampled_from(["name", "description", "url", "location",
                              "organizer", "image", "offers"])
literal_values = st.one_of(st.text(min_size=1, max_size=8),
                           st.integers(-5, 5), st.booleans())


@st.composite
def annotation_objects(draw, depth=2, literals=literal_values):
    node = {"@type": draw(st.sampled_from(["Event", "Place", "Person"]))}
    for prop in draw(st.lists(prop_names, min_size=1, max_size=4,
                              unique=True)):
        if depth > 0 and draw(st.booleans()):
            child = draw(annotation_objects(depth=depth - 1,
                                            literals=literals))
        else:
            child = draw(literals)
        if draw(st.booleans()):
            node[prop] = [child, draw(literals)]
        else:
            node[prop] = child
    return node


@given(annotation_objects())
def test_every_rendered_path_matches_grammar_and_resolves(obj):
    obj["@context"] = "https://schema.org"
    graph, _ = a.parse_annotation(a.RawBlock(json.dumps(obj), 0))
    assert graph is not None

    def walk(node):
        assert PATH_GRAMMAR_RE.match(node.path)
        for values in node.properties.values():
            for value in values:
                rendered = value.path
                assert PATH_GRAMMAR_RE.match(rendered)
                assert resolve_path(graph, rendered) is value
                if isinstance(value, a.Entity):
                    walk(value.node)

    for root in graph.roots:
        assert resolve_path(graph, root.path) is root
        walk(root)


@given(annotation_objects())
def test_parsing_twice_is_structurally_identical(obj):
    obj["@context"] = "https://schema.org"
    block = json.dumps(obj)
    g1, e1 = a.parse_annotation(a.RawBlock(block, 0))
    g2, e2 = a.parse_annotation(a.RawBlock(block, 0))
    assert graph_fingerprint(g1) == graph_fingerprint(g2)
    assert [x.code for x in e1] == [x.code for x in e2]


def microdata_page(obj: dict, prop: str | None = None) -> str:
    """``obj`` as one Microdata item, every literal in a content attribute."""
    scope = f' itemprop="{prop}"' if prop else ""
    parts = [f'<div{scope} itemscope '
             f'itemtype="https://schema.org/{obj["@type"]}">']
    for name, value in obj.items():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, dict):
                parts.append(microdata_page(item, name))
            elif name != "@type":
                parts.append(f'<meta itemprop="{name}" '
                             f'content="{escape(item)}">')
    return "".join(parts) + "</div>"


@given(annotation_objects(literals=st.text(min_size=1, max_size=8)))
def test_both_carriers_build_the_same_graph(obj):
    blocks = blocks_of(microdata_page(obj))
    from_microdata, _ = a.parse_annotation(blocks[0])
    from_jsonld, _ = a.parse_annotation(a.RawBlock(
        json.dumps({"@context": "https://schema.org", **obj}), 0))
    assert graph_fingerprint(from_microdata) == graph_fingerprint(from_jsonld)
