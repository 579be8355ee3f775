"""The one-pass page parser and its built-in tokenizer, checked against the
interpreter's ``html.parser`` driving the same builder."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sdocheck import htmltree

from helpers import flat_item, stdlib_document, stdlib_is_the_oracle

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted(p for p in (ROOT / "tests" / "fixtures").rglob("*")
                  if p.is_file())

URL = "https://x.example/dir/page"


def _recorded(document):
    return (document.scripts, [flat_item(item) for item in document.items],
            document.text, document.links, document.base)


def _same_as_stdlib(page: str) -> None:
    assert (_recorded(htmltree.parse_html(page, URL))
            == _recorded(stdlib_document(page, URL)))


@stdlib_is_the_oracle
@pytest.mark.parametrize("fixture", FIXTURES,
                         ids=lambda p: str(p.relative_to(ROOT / "tests")))
def test_fixture_reads_as_the_stdlib_tokenizer_reads_it(fixture):
    _same_as_stdlib(htmltree.decode_html(fixture.read_bytes()))


# pieces of markup that steer the tokenizer: tag and attribute syntax, the
# whitespace that html.parser's names and values stop at, character
# references, comments, declarations, marked sections and raw-text elements
MARKUP_PIECES = st.sampled_from([
    "<", ">", "/", "=", '"', "'", " ", "\t", "\n", "\r", "\x0c", "\x0b",
    "\x00", "&amp;", "&#x41;", "&#65;", "&", "&#", "&amp", "<!", "<?", "--",
    "-->", "<!--", "</", "[CDATA[", "]]>", "]>", "<![", "if", "endif",
    "doctype", "DOCTYPE", "script", "SCRIPT", "style", "template", "a", "p",
    "div", "br", "base", "itemscope", "itemprop", "itemtype", "href", "src",
    "type", "application/ld+json", "x", "é", "ſ", " ",
    "<script>", "</script>", "<style>", "</style >", "<p ", "<a href=",
])


@stdlib_is_the_oracle
@settings(max_examples=400)
@given(st.lists(MARKUP_PIECES, max_size=40).map("".join))
@example('<a href=x/>t</a><P Itemscope B=1 b=2>&amp;</p>')
@example('<script>a</SCRIPT ><style>b</ſtyle></style><script>c')
@example('<![foo bar]><![if x]>y<![endif]><!x><?p ?><!doctype html></>')
@example('<a x=">">z</a x=">"><!-- a -- >text&amp')
@example('<p itemscope>x<a href="y')
@example('<script type="application/ld+json">a</ſcript>b</script>')
@example('<p itemscope><a\x00>x</a></p>')
def test_tag_soup_reads_as_the_stdlib_tokenizer_reads_it(page):
    _same_as_stdlib(page)


# start tags of every quoting and spacing, inside an item, where property
# values and links show what each attribute was read as
_SPACE = st.sampled_from([" ", "\n", "\t ", "\x0b", ""])
_VALUE = st.sampled_from(["", "x", "a/b", "x/", "1&amp;2", "a b", "'", '"',
                          ">", "https://schema.org/Event"])
_ATTRIBUTE = st.builds(
    lambda name, space, quote, value: (
        name if quote is None
        else f"{name}{space}={space}{quote}{value}{quote}"),
    st.sampled_from(["b", "B", "itemprop", "content", "href", "data-x",
                     "x:y", "a\"b"]),
    _SPACE, st.none() | st.sampled_from(['"', "'", ""]), _VALUE)
_START_TAG = st.builds(
    lambda name, attrs, space, close: (
        f"<{name}" + "".join(space + a for a in attrs) + f"{space}{close}>"),
    st.sampled_from(["a", "A", "span", "my-el", "br", "script"]),
    st.lists(_ATTRIBUTE, max_size=4), _SPACE, st.sampled_from(["", "/"]))


@stdlib_is_the_oracle
@settings(max_examples=300)
@given(st.lists(_START_TAG, max_size=5).map(
    lambda tags: "<div itemscope>" + "t".join(tags) + "</div>"))
@example('<div itemscope><a href=x/><a b=c/ ><a b="1" b="2"><a b c=""></div>')
@example('<div itemscope><a b="1&amp;2"><a b=\'&#x41;\'><a b=&lt;></div>')
@example('<div itemscope><a\x0bhref="v"><a href="w"\x0b><a b\x0b=1></div>')
def test_start_tags_read_as_the_stdlib_tokenizer_reads_them(page):
    _same_as_stdlib(page)
