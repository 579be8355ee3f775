"""Minimal DOM built on the stdlib HTML parser.

Lenient by design: unmatched end tags are dropped, unclosed elements are
closed when an ancestor closes, and decoding falls back to UTF-8 with
replacement characters.  Enough structure for annotation-block discovery,
microdata walking and visible-text extraction; not a rendering engine.
"""

from __future__ import annotations

from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit

VOID_ELEMENTS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

# elements whose raw content never counts as page text
NON_CONTENT_ELEMENTS = frozenset({"script", "style", "template"})


class Element:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[Element | str] = []

    def __repr__(self) -> str:
        return f"<Element {self.tag} attrs={self.attrs}>"

    def iter_elements(self):
        """All descendant elements in document order, self excluded."""
        stack = [c for c in reversed(self.children) if isinstance(c, Element)]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(c for c in reversed(element.children)
                         if isinstance(c, Element))

    def text_content(self, skip: frozenset[str] = NON_CONTENT_ELEMENTS) -> str:
        parts: list[str] = []
        stack: list[Element | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item.tag not in skip:
                stack.extend(reversed(item.children))
        return "".join(parts)


class Document(Element):
    """The root of a parsed page; remembers the first ``<base href>``."""

    __slots__ = ("base_href",)

    def __init__(self):
        super().__init__("#document")
        self.base_href: str | None = None


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Document()
        self.stack: list[Element] = [self.root]

    def _append(self, tag: str, attr_map: dict[str, str]) -> Element:
        element = Element(tag, attr_map)
        self.stack[-1].children.append(element)
        if (tag == "base" and attr_map.get("href")
                and self.root.base_href is None):
            self.root.base_href = attr_map["href"]
        return element

    def handle_starttag(self, tag, attrs):
        attr_map: dict[str, str] = {}
        for key, value in attrs:
            # a bare attribute (itemscope) carries an empty string value
            attr_map.setdefault(key, value if value is not None else "")
        element = self._append(tag, attr_map)
        if tag not in VOID_ELEMENTS:
            self.stack.append(element)

    def handle_startendtag(self, tag, attrs):
        self._append(tag, {k: (v if v is not None else "") for k, v in attrs})

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # no matching open element: ignore

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)

    def parse_marked_section(self, i, report=1):
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:  # an unknown keyword, as in <![foo bar]>
            return self.parse_bogus_comment(i, report)


def parse_html(data: bytes | str) -> Document:
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8", errors="replace")
    builder = _TreeBuilder()
    builder.feed(data)
    builder.close()
    return builder.root


def resolve_url(text: str, base: str = "") -> str | None:
    """``text`` resolved against ``base`` as ``urljoin`` does, or None when
    it does not parse (an unclosed IPv6 bracket, say).  Every URL read from
    page or annotation text goes through here."""
    try:
        joined = urljoin(base, text)
        urlsplit(joined)
    except ValueError:
        return None
    return joined


def effective_base_url(root: Document, fallback: str) -> str:
    """The document base: the first <base href>, resolved against fallback.
    A <base href> that does not parse is ignored, as in WHATWG HTML."""
    if root.base_href:
        return resolve_url(root.base_href, fallback) or fallback
    return fallback
