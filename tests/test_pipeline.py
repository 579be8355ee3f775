"""The check pipeline shared by the CLI and library callers."""

import codecs
import json
from html import escape
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sdocheck import pipeline, report
from sdocheck.annotation import extract_annotation_blocks
from sdocheck.content import ValidationConfig, extract_page_content
from sdocheck.htmltree import parse_html

from helpers import (flat_blocks, oracle_blocks, oracle_page_content,
                     oracle_text_and_urls, stdlib_is_the_oracle)

ROOT = Path(__file__).resolve().parent.parent
BASE = "https://x.example/page"


def test_readme_library_call_prints_the_cli_report(monkeypatch, capsys):
    """The README's "Library use" code gives the bytes that ``sdocheck
    validate`` prints for the same page."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    monkeypatch.chdir(ROOT)
    exec(code, namespace)
    golden = ROOT / "tests/fixtures/golden/validate-page_mixed.html.out"
    assert report.serialize_report(namespace["result"]) == golden.read_bytes()
    assert "$0" in capsys.readouterr().out


def test_validate_needs_a_web_page(vocab):
    with pytest.raises(pipeline.NotAPageError, match="needs a web page"):
        pipeline.run(b'{"@type": "Event"}', BASE, vocab,
                     validate=ValidationConfig())


def test_roots_are_numbered_across_blocks():
    page = b"""<html><body>
    <div itemscope itemtype="https://schema.org/Place">
      <span itemprop="name">P</span></div>
    <script type="application/ld+json">[{"@type": "Event", "name": "A"},
      {"@type": "Event", "name": "B"}]</script>
    <script type="application/ld+json">{"@type": "Event"</script>
    <script type="application/ld+json">{"@type": "Event", "name": "C"}</script>
    </body></html>"""
    tree, blocks = pipeline.parse(page, BASE)
    assert tree is not None
    roots = [[root.path for root in graph.roots] if graph else None
             for _, graph, _ in blocks]
    assert roots == [["$0", "$1"], None, ["$2"], ["$3"]]


# ---------------------------------------------------------------------------
# end-to-end fuzzing: every input gets a report, under verify and validate


def check_every_way(vocab, data: bytes) -> list[report.ReportEntry]:
    """Run ``data`` through verify and validate; returns the verify
    entries.  Raises on anything but a report or, for validate on an input
    that is not a page, NotAPageError."""
    verified = pipeline.run(data, BASE, vocab)
    report.serialize_report(verified)
    try:
        validated = pipeline.run(data, BASE, vocab,
                                 validate=ValidationConfig())
    except pipeline.NotAPageError:
        assert data.lstrip()[:1] != b"<"
    else:
        report.serialize_report(validated)
    return verified.entries


URLISH = (st.sampled_from(["http://[", "http://[oops", "http://[::1]/x",
                           "https://x.example/a", "/rel", "#frag", "",
                           "mailto:a@b.example", "http://a]b", "[",
                           "https://schema.org/Event"])
          | st.text(alphabet="[]:/.#?ahtps x", max_size=12))
ATTRIBUTES = st.lists(st.tuples(
    st.sampled_from(["itemscope", "itemprop", "itemid", "itemtype", "href",
                     "src", "content", "datetime", "itemref", "type",
                     "value", "data"]),
    st.none() | URLISH | st.sampled_from(["name", "url", "subEvent", "@type",
                                          "startDate", "application/ld+json"]),
), max_size=4)
RAW_MARKUP = st.sampled_from([
    "<![foo bar]>", "<![CDATA[x]]>", "<![if !IE]>", "<![endif]>", "<![",
    "<![ ]>", "<!x>", "</p>", "<p", "&amp;", "&#xZZ;", "July 10, 2026",
    "10 July 2026", "2026-07-10", "12.5",
    # unclosed elements and stray end tags
    "<div>", "<li>x", "<ul><li>a<li>b</ul>", "</div>", "</li>", "</template>",
    "</script>", "<template>", "<style>", "<span itemscope>", "<br/>",
    "<div/>", "<p>a<br>b",
    # a <base> after a link still resolves it; only the first one counts
    '<a href="rel/x">l</a><base href="https://b.example/d/">',
    '<base href="/other/"><img src="i.png">',
    # an item hidden in a template is still a block; its text is not shown
    '<template><div itemscope itemtype="https://schema.org/Event">'
    '<span itemprop="name">T 2026-07-10</span></div></template>',
    '<script type="application/ld+json"/>',
    # start tags the tokenizer does not read with its one plain pattern
    "<a href=/x/y>u</a>", "<a href='q'>s</a>", '<a href = "sp">e</a>',
    "<a href=rel/>t</a>", '<IMG SRC="UP.png"><DIV ITEMSCOPE>U</DIV>',
    '<a href="one" href="two">r</a>', '<span itemprop="name"content="c">',
    '<a\x0bhref="vt">v</a>', '<a href="/a?b=1&amp;c=&#x32;">ent</a>',
    # raw text, stray end tags, declarations, comments
    '<script type="application/ld+json">{}</SCRIPT >', "<script>", "</>",
    '</a x=">">', "<!doctype html>", "<?xml ?>", "<!-- a -- >",
    # properties: one valued by an attribute with a property inside, a void
    # one, text with a script and a style in it, an item before the <base>
    '<a itemprop="url" href="/u"><span itemprop="name">n</span></a>',
    '<img itemprop="image" src="i.png">',
    '<span itemprop="name"> a<script>b</script>c<style>d</style>e\n</span>',
    '<div itemscope itemid="i"><a itemprop="url" href="u">x</a></div>'
    '<base href="https://b.example/d/">',
]) | st.text(max_size=8)
JSONLD_KEYS = st.sampled_from(["@context", "@type", "@id", "@graph", "@value",
                               "@list", "name", "url", "subEvent",
                               "startDate", "minValue", "maxValue"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | URLISH
    | st.sampled_from(["Event", "https://schema.org", "2026-07-10"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(JSONLD_KEYS, inner, max_size=4),
    max_leaves=12)


# how _element writes an attribute with a value: double or single quotes,
# spaces around "=", no quotes, or after a vertical tab
_ATTRIBUTE_FORMS = (' {}="{}"', " {}='{}'", ' {} = "{}"', " {}={}",
                    ' \x0b{}="{}"')


def _element(tag: str, attributes, children: list[str],
             form: str = _ATTRIBUTE_FORMS[0], upper: bool = False) -> str:
    if upper:
        tag = tag.upper()
        attributes = [(name.upper(), value) for name, value in attributes]
    attrs = "".join(f" {name}" if value is None
                    else form.format(name, escape(value))
                    for name, value in attributes)
    return f"<{tag}{attrs}>" + "".join(children) + f"</{tag}>"


SCRIPTS = st.builds(
    lambda kind, text: f"<script{kind}>{text}</script>",
    st.sampled_from([' type="application/ld+json"',
                     ' type="Application/LD+JSON; charset=utf-8"', "",
                     ' type="text/javascript"']),
    JSON_VALUES.map(json.dumps) | st.text(max_size=20))
HTML_NODES = st.recursive(
    RAW_MARKUP | SCRIPTS,
    lambda children: st.builds(
        _element,
        st.sampled_from(["div", "span", "a", "img", "link", "meta", "time",
                         "base", "p", "template", "style", "br", "li",
                         "data", "meter", "object"]),
        ATTRIBUTES, st.lists(children, max_size=4),
        st.sampled_from(_ATTRIBUTE_FORMS), st.booleans()),
    max_leaves=20)
PAGES = st.lists(HTML_NODES, max_size=5).map(
    lambda nodes: "<html><body>" + "".join(nodes) + "</body></html>")


# what random bytes may start with: nothing, markup, or a byte order mark
# with or without markup after it
BYTE_PREFIXES = st.sampled_from([
    b"", b"<", codecs.BOM_UTF8, codecs.BOM_UTF8 + b"<", codecs.BOM_UTF16_LE,
    codecs.BOM_UTF16_LE + b"<\x00", codecs.BOM_UTF16_BE,
    codecs.BOM_UTF16_BE + b"\x00<"])
# how a page is encoded: UTF-8 without a byte order mark, or one of the
# encodings a byte order mark names
PAGE_CODECS = st.sampled_from([None, "utf-8", "utf-16-le", "utf-16-be"])


def encode_page(page: str, codec: str | None) -> bytes:
    return page.encode() if codec is None else ("\ufeff" + page).encode(codec)


@settings(max_examples=60)
@given(st.builds(bytes.__add__, BYTE_PREFIXES, st.binary(max_size=200)))
def test_random_bytes_get_a_report(vocab, data):
    check_every_way(vocab, data)


@settings(max_examples=100)
@given(PAGES, PAGE_CODECS)
def test_random_pages_get_a_report(vocab, page, codec):
    check_every_way(vocab, encode_page(page, codec))


@settings(max_examples=40)
@given(PAGES, PAGE_CODECS)
def test_a_page_reports_the_same_in_every_encoding(vocab, page, codec):
    config = ValidationConfig()
    plain = pipeline.run(page.encode(), BASE, vocab, validate=config)
    encoded = pipeline.run(encode_page(page, codec), BASE, vocab,
                           validate=config)
    assert (report.serialize_report(encoded)
            == report.serialize_report(plain))


@stdlib_is_the_oracle
@settings(max_examples=150)
@given(PAGES)
@example('<p><a href="a">x</a><base href="https://b.example/d/">'
         '<base href="/other/"><div itemscope><li>y<template>'
         '<b itemscope itemtype="Event">z</b>')
def test_one_read_of_a_page_matches_a_full_tree_walk(page):
    """The blocks and pools that one parse records are those that walks of
    the page's full tree find."""
    document = parse_html(page.encode())
    assert (flat_blocks(extract_annotation_blocks(document, BASE))
            == flat_blocks(oracle_blocks(page, BASE)))
    assert document.text == oracle_text_and_urls(page, BASE)[0]
    assert extract_page_content(document, BASE) == oracle_page_content(page,
                                                                       BASE)


@settings(max_examples=60)
@given(JSON_VALUES.map(json.dumps))
def test_random_json_gets_a_report(vocab, text):
    check_every_way(vocab, text.encode())


@settings(max_examples=12)
@given(st.integers(1, 5000), st.booleans())
@example(5000, True)
@example(900, False)
def test_deep_json_gets_a_report(vocab, depth, in_page):
    text = ('{"@type": "Event", "subEvent": ' * depth + '{"nmae": "x"}'
            + "}" * depth)
    if in_page:
        text = ('<html><body><script type="application/ld+json">'
                + text + "</script></body></html>")
    check_every_way(vocab, text.encode())


@settings(max_examples=4)
@given(st.integers(1, 1200))
@example(1200)
def test_deep_microdata_is_checked_to_its_deepest_path(vocab, depth):
    item = 'itemscope itemtype="https://schema.org/Event"'
    page = ("<html><body>" + f"<div {item}>"
            + f'<div itemprop="subEvent" {item}>' * (depth - 1)
            + '<span itemprop="nmae">x</span>' + "</div>" * depth
            + "</body></html>")
    entries = check_every_way(vocab, page.encode())
    deepest = "$0" + ".subEvent" * (depth - 1) + ".nmae"
    assert ("E202", deepest) in [(e.code, e.path) for e in entries]
