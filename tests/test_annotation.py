import json
from html import escape

import pytest
from hypothesis import given, strategies as st

from sdocheck import annotation as a
from sdocheck.htmltree import parse_html
from helpers import graph_fingerprint, parse_jsonld


def blocks_of(html, base="https://x.example/"):
    return a.extract_annotation_blocks(parse_html(html), base)


EVENT_BLOCK = ('{"@context":"https://schema.org","@type":"Event",'
               '"name":"X"}')


class TestBlockExtraction:
    def test_two_jsonld_scripts_in_document_order(self):
        html = b"""<html><body>
        <script type="application/ld+json">{"a":1}</script>
        <p>filler</p>
        <script type="application/ld+json">{"b":2}</script>
        </body></html>"""
        blocks = blocks_of(html)
        assert [(b.block_index, b.source_format) for b in blocks] == [
            (0, a.SourceFormat.JSON_LD), (1, a.SourceFormat.JSON_LD)]
        assert '"a"' in blocks[0].payload and '"b"' in blocks[1].payload

    def test_page_without_structured_data(self):
        html = b"<html><body><p>just text</p></body></html>"
        assert blocks_of(html) == []

    def test_jsonld_then_microdata_ordering(self):
        html = b"""<html><body>
        <div itemscope itemtype="https://schema.org/Event">
          <span itemprop="name">E</span></div>
        <script type="application/ld+json">{}</script>
        </body></html>"""
        blocks = blocks_of(html)
        assert [(b.block_index, b.source_format) for b in blocks] == [
            (0, a.SourceFormat.JSON_LD), (1, a.SourceFormat.MICRODATA)]

    def test_media_type_parameters_are_tolerated(self):
        html = (b'<script type="application/ld+json; charset=utf-8">{}'
                b'</script>')
        assert len(blocks_of(html)) == 1

    def test_plain_script_is_not_an_annotation_block(self):
        html = b'<script>var x = {"@type": "Event"};</script>'
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

    def test_bare_id_object_becomes_reference(self):
        block = ('{"@context":"https://schema.org","@type":"Offer",'
                 '"availability":{"@id":"https://schema.org/InStock"}}')
        graph, _ = parse_jsonld(block)
        value = graph.roots[0].properties["availability"][0]
        assert isinstance(value, a.Reference)
        assert value.iri == "https://schema.org/InStock"

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

    def test_context_object_with_vocab_and_aliases(self):
        block = ('{"@context":{"@vocab":"https://schema.org/","n":"name"},'
                 '"@type":"Event","name":"A"}')
        graph, entries = a.parse_annotation(a.RawBlock(block, 0))
        assert graph is not None
        assert [e.code for e in entries] == ["E103"]

    def test_reverse_keyword_is_skipped_with_warning(self):
        block = ('{"@context":"https://schema.org","@type":"Event","name":"A",'
                 '"@reverse":{"organizer":{"@type":"Person"}}}')
        graph, entries = a.parse_annotation(a.RawBlock(block, 0))
        assert graph is not None
        assert [e.code for e in entries] == ["E103"]
        assert "organizer" not in graph.roots[0].properties

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


class TestMicrodataParsing:
    HTML = b"""<html><body>
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

    def test_content_attribute_beats_text(self):
        html = (b'<div itemscope itemtype="https://schema.org/Event">'
                b'<span itemprop="name" content="Real">shown text</span></div>')
        blocks = blocks_of(html)
        graph, _ = a.parse_annotation(blocks[0])
        assert graph.roots[0].properties["name"][0].raw == "Real"

    def test_multi_token_itemprop_assigns_both(self):
        html = (b'<div itemscope itemtype="https://schema.org/Event">'
                b'<span itemprop="name alternateName">Fest</span></div>')
        blocks = blocks_of(html)
        graph, _ = a.parse_annotation(blocks[0])
        props = graph.roots[0].properties
        assert props["name"][0].raw == "Fest"
        assert props["alternateName"][0].raw == "Fest"

    def test_properties_inside_property_elements_still_count(self):
        html = (b'<div itemscope itemtype="https://schema.org/Event">'
                b'<div itemprop="description">with <span itemprop="name">N'
                b'</span></div></div>')
        blocks = blocks_of(html)
        graph, _ = a.parse_annotation(blocks[0])
        assert set(graph.roots[0].properties) == {"description", "name"}

    def test_keyword_shaped_itemprop_is_an_ordinary_property(self):
        html = (b'<div itemscope itemtype="https://schema.org/Event">'
                b'<span itemprop="@type">Person</span>'
                b'<span itemprop="@id">x</span></div>')
        blocks = blocks_of(html)
        graph, entries = a.parse_annotation(blocks[0])
        assert entries == []
        root = graph.roots[0]
        assert (root.types, root.identifier) == (["Event"], None)
        assert [(p, v[0].raw) for p, v in root.properties.items()] == [
            ("@type", "Person"), ("@id", "x")]

    def test_itemref_is_unsupported(self):
        html = (b'<div itemscope itemref="extra" '
                b'itemtype="https://schema.org/Event">'
                b'<span itemprop="name">E</span></div>')
        blocks = blocks_of(html)
        graph, entries = a.parse_annotation(blocks[0])
        assert graph is not None
        assert [e.code for e in entries] == ["E103"]

    def test_untyped_microdata_item_is_empty_annotation(self):
        html = b'<div itemscope><span itemprop="name">x</span></div>'
        blocks = blocks_of(html)
        graph, entries = a.parse_annotation(blocks[0])
        assert graph is None
        assert [e.code for e in entries] == ["E102"]

    def test_format_equivalence_simple_pair(self):
        jsonld = ('{"@context":"https://schema.org","@type":"Event",'
                  '"name":"Fest","startDate":"2026-07-10"}')
        html = (b'<div itemscope itemtype="https://schema.org/Event">'
                b'<span itemprop="name">Fest</span>'
                b'<time itemprop="startDate" datetime="2026-07-10">x</time>'
                b'</div>')
        g1, _ = parse_jsonld(jsonld)
        blocks = blocks_of(html)
        g2, _ = a.parse_annotation(blocks[0])
        assert graph_fingerprint(g1) == graph_fingerprint(g2)


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
        assert a.PATH_GRAMMAR_RE.match(node.path)
        for values in node.properties.values():
            for value in values:
                rendered = value.path
                assert a.PATH_GRAMMAR_RE.match(rendered)
                assert a.resolve_path(graph, rendered) is value
                if isinstance(value, a.Entity):
                    walk(value.node)

    for root in graph.roots:
        assert a.resolve_path(graph, root.path) is root
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
    blocks = blocks_of(microdata_page(obj).encode())
    from_microdata, _ = a.parse_annotation(blocks[0])
    from_jsonld, _ = a.parse_annotation(a.RawBlock(
        json.dumps({"@context": "https://schema.org", **obj}), 0))
    assert graph_fingerprint(from_microdata) == graph_fingerprint(from_jsonld)
