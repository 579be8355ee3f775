"""The one-pass page parser and its override of a private html.parser hook."""

import _markupbase
import inspect
from pathlib import Path

import pytest

from sdocheck import htmltree

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted(p for p in (ROOT / "tests" / "fixtures").rglob("*")
                  if p.is_file())


class _CountingLines(htmltree._TreeBuilder):
    """The builder with the stdlib's line and column count put back."""

    updatepos = _markupbase.ParserBase.updatepos


def _flat(element):
    """An element's subtree as a flat list, walked without recursion, so
    that subtrees 1,200 items deep compare too."""
    out, stack = [], [element]
    while stack:
        item = stack.pop()
        if isinstance(item, htmltree.Element):
            out.append((item.tag, item.attrs))
            stack.append(None)  # the element's close
            stack.extend(reversed(item.children))
        else:
            out.append(item)
    return out


def _recorded(builder_class, data: bytes):
    builder = builder_class()
    builder.feed(htmltree.decode_html(data))
    builder.close()
    document = builder.document
    return ([_flat(e) for e in document.scripts + document.items],
            document.text, document.links, document.base_href)


def test_updatepos_hook_still_exists_with_its_arguments():
    """The builder overrides ``ParserBase.updatepos(self, i, j)``, which the
    tokenizer calls to count lines; a renamed or reshaped hook would leave
    the override dead or wrong."""
    hook = getattr(_markupbase.ParserBase, "updatepos", None)
    assert hook is not None
    assert list(inspect.signature(hook).parameters) == ["self", "i", "j"]
    assert htmltree._TreeBuilder.updatepos is not hook


def test_nothing_reads_line_positions():
    """The override leaves ``getpos()`` at line 1, so no code may read it."""
    sources = (ROOT / "src" / "sdocheck").glob("*.py")
    assert [p.name for p in sources if ".getpos" in p.read_text()] == []


@pytest.mark.parametrize("fixture", FIXTURES,
                         ids=lambda p: str(p.relative_to(ROOT / "tests")))
def test_parse_is_the_same_with_and_without_the_override(fixture):
    data = fixture.read_bytes()
    assert (_recorded(htmltree._TreeBuilder, data)
            == _recorded(_CountingLines, data))
