"""Shared test utilities: graph fingerprints, quick parse wrappers, a
full-tree page reader that serves as an oracle for the one-pass parse, and
the stdlib tokenizer that serves as an oracle for the built-in one."""

import json
from html.parser import HTMLParser

from sdocheck import annotation, content, htmltree
from sdocheck.annotation import (AnnotationGraph, AnnotationNode, Entity,
                                 Literal, RawBlock, Reference,
                                 parse_annotation)
from sdocheck.htmltree import (BLOCK_ELEMENTS, NON_CONTENT_ELEMENTS,
                               VOID_ELEMENTS, Element, decode_html,
                               resolve_url)


def parse_jsonld(payload, **kwargs):
    """Parse a JSON-LD block given as dict or str; fail the test on errors."""
    if isinstance(payload, dict):
        payload = json.dumps(payload)
    graph, entries = parse_annotation(RawBlock(payload, 0), **kwargs)
    assert graph is not None, [e.description for e in entries]
    return graph, entries


def node_fingerprint(node: AnnotationNode, bound=None):
    """Canonical structure of a node, ignoring paths and source format.

    Property value lists are compared as multisets, so two serializations
    of the same content fingerprint identically regardless of value order.
    Cycles are cut by the visit index at which a node was first seen.
    """
    bound = bound or {}
    if id(node) in bound:
        return ("cycle", bound[id(node)])
    bound = {**bound, id(node): len(bound)}
    properties = []
    for name, values in node.properties.items():
        rendered = sorted(repr(value_fingerprint(v, bound)) for v in values)
        properties.append((name, tuple(rendered)))
    properties.sort()
    return ("node", tuple(node.types), node.identifier, tuple(properties))


def value_fingerprint(value, bound):
    if isinstance(value, Literal):
        return ("lit", value.raw, value.datatype)
    if isinstance(value, Reference):
        return ("ref", value.iri)
    if isinstance(value, Entity):
        return node_fingerprint(value.node, bound)
    raise TypeError(value)


def graph_fingerprint(graph: AnnotationGraph):
    return tuple(node_fingerprint(root) for root in graph.roots)


def codes_of(entries):
    return sorted(e.code for e in entries)


# ---------------------------------------------------------------------------
# oracle: the stdlib's html.parser tokens, fed to the one-pass builder


def _attr_map(attrs):
    """An attribute list as the builder takes it: the first of a repeated
    attribute wins and a bare one is empty."""
    attr_map = {}
    for key, value in attrs:
        attr_map.setdefault(key, "" if value is None else value)
    return attr_map


class _StdlibTokens(HTMLParser):
    """Drives ``htmltree``'s builder from the stdlib tokenizer."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.builder = htmltree._TreeBuilder()

    def handle_starttag(self, tag, attrs):
        self.builder._open(tag, _attr_map(attrs), tag not in VOID_ELEMENTS)

    def handle_startendtag(self, tag, attrs):
        self.builder._open(tag, _attr_map(attrs), False)

    def handle_endtag(self, tag):
        self.builder._end(tag)

    def handle_data(self, data):
        self.builder._data(data)

    def parse_marked_section(self, i, report=1):
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:  # an unknown keyword, as in <![foo bar]>
            return self.parse_bogus_comment(i, report)


def stdlib_document(html: str) -> htmltree.Document:
    """The ``Document`` the builder records from the tokens of the
    interpreter's ``html.parser``."""
    parser = _StdlibTokens()
    parser.feed(html)
    parser.close()
    parser.builder.close()
    return parser.builder.document


# ---------------------------------------------------------------------------
# oracle: build the whole tree, then walk it for blocks and for page text


class _FullTree(HTMLParser):
    """Every element and text run of a page, kept as a tree; the first
    ``<base href>`` anywhere in it."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Element("#document")
        self.stack = [self.root]
        self.base_href = None

    def _append(self, tag, attrs):
        attr_map = _attr_map(attrs)
        element = Element(tag, attr_map)
        self.stack[-1].children.append(element)
        if tag == "base" and attr_map.get("href") and self.base_href is None:
            self.base_href = attr_map["href"]
        return element

    def handle_starttag(self, tag, attrs):
        element = self._append(tag, attrs)
        if tag not in VOID_ELEMENTS:
            self.stack.append(element)

    def handle_startendtag(self, tag, attrs):
        self._append(tag, attrs)

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        self.stack[-1].children.append(data)

    def parse_marked_section(self, i, report=1):
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)


def _full_tree(html: str) -> _FullTree:
    tree = _FullTree()
    tree.feed(decode_html(html.encode()))
    tree.close()
    return tree


def _preorder(root: Element):
    stack = [c for c in reversed(root.children) if isinstance(c, Element)]
    while stack:
        element = stack.pop()
        yield element
        stack.extend(c for c in reversed(element.children)
                     if isinstance(c, Element))


def _base(tree: _FullTree, base_url: str) -> str:
    if tree.base_href:
        return resolve_url(tree.base_href, base_url) or base_url
    return base_url


def oracle_blocks(html: str, base_url: str) -> list[RawBlock]:
    """The page's annotation blocks, read from a walk of its full tree:
    JSON-LD scripts in document order, then top-level Microdata items."""
    tree = _full_tree(html)
    base = _base(tree, base_url)
    scripts, items = [], []
    for element in _preorder(tree.root):
        media_type = element.attrs.get("type", "").split(";")[0]
        if (element.tag == "script"
                and media_type.strip().lower() == "application/ld+json"):
            scripts.append("".join(c for c in element.children
                                   if isinstance(c, str)))
        if "itemscope" in element.attrs and "itemprop" not in element.attrs:
            items.append(annotation._read_microdata_item(element, base))
    return [RawBlock(payload, index)
            for index, payload in enumerate(scripts + items)]


def oracle_text_and_urls(html: str, base_url: str) -> tuple[str, set[str]]:
    """The page's text and URLs, from a walk of its full tree: text outside
    script, style and template, a newline at each block element's open and
    close, and the href/src of every visible element but ``<base>``,
    resolved against the first ``<base href>`` and normalized."""
    tree = _full_tree(html)
    base = _base(tree, base_url)
    chunks, urls = [], set()
    stack = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            chunks.append(item)
            continue
        if item.tag in NON_CONTENT_ELEMENTS:
            continue
        if item.tag != "base":
            for attr in ("href", "src"):
                if item.attrs.get(attr):
                    url = resolve_url(item.attrs[attr], base)
                    if url is not None:
                        urls.add(content.normalize_url(url))
        if item.tag in BLOCK_ELEMENTS:
            chunks.append("\n")
            stack.append("\n")
        stack.extend(reversed(item.children))
    return "".join(chunks), urls


def oracle_page_content(html: str, base_url: str) -> content.PageContent:
    """The pools ``content.extract_page_content`` should give for the page
    under the default configuration, from ``oracle_text_and_urls``."""
    text, urls = oracle_text_and_urls(html, base_url)
    config = content.ValidationConfig()
    return content.PageContent(
        text_tokens=frozenset(content.tokenize(text)),
        urls=frozenset(urls),
        dates=frozenset(content._extract_dates(text, config.date_order)),
        numbers=frozenset(content._extract_numbers(
            text, config.decimal_separator)))
