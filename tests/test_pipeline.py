"""The check pipeline shared by the CLI and library callers."""

import json
from html import escape
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sdocheck import pipeline, report
from sdocheck.content import ValidationConfig

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
                     "src", "content", "datetime", "itemref", "type"]),
    st.none() | URLISH | st.sampled_from(["name", "url", "subEvent", "@type",
                                          "startDate", "application/ld+json"]),
), max_size=4)
RAW_MARKUP = st.sampled_from([
    "<![foo bar]>", "<![CDATA[x]]>", "<![if !IE]>", "<![endif]>", "<![",
    "<![ ]>", "<!x>", "</p>", "<p", "&amp;", "&#xZZ;", "July 10, 2026",
    "10 July 2026", "2026-07-10", "12.5"]) | st.text(max_size=8)
JSONLD_KEYS = st.sampled_from(["@context", "@type", "@id", "@graph", "@value",
                               "@list", "name", "url", "subEvent",
                               "startDate", "minValue", "maxValue"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | URLISH
    | st.sampled_from(["Event", "https://schema.org", "2026-07-10"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(JSONLD_KEYS, inner, max_size=4),
    max_leaves=12)


def _element(tag: str, attributes, children: list[str]) -> str:
    attrs = "".join(f" {name}" if value is None
                    else f' {name}="{escape(value)}"'
                    for name, value in attributes)
    return f"<{tag}{attrs}>" + "".join(children) + f"</{tag}>"


SCRIPTS = (JSON_VALUES.map(json.dumps) | st.text(max_size=20)).map(
    lambda text: f'<script type="application/ld+json">{text}</script>')
HTML_NODES = st.recursive(
    RAW_MARKUP | SCRIPTS,
    lambda children: st.builds(
        _element,
        st.sampled_from(["div", "span", "a", "img", "link", "meta", "time",
                         "base", "p"]),
        ATTRIBUTES, st.lists(children, max_size=4)),
    max_leaves=20)


@settings(max_examples=60)
@given(st.binary(max_size=200) | st.binary(max_size=200).map(b"<".__add__))
def test_random_bytes_get_a_report(vocab, data):
    check_every_way(vocab, data)


@settings(max_examples=100)
@given(st.lists(HTML_NODES, max_size=5))
def test_random_pages_get_a_report(vocab, nodes):
    page = "<html><body>" + "".join(nodes) + "</body></html>"
    check_every_way(vocab, page.encode())


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
