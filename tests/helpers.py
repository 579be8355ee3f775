"""Shared test utilities: graph fingerprints, quick parse wrappers, the
report order and the inverse of the machine report, the grammar and
resolution of rendered paths, a full-tree page reader that serves as an
oracle for the one-pass parse, and the stdlib tokenizer that serves as an
oracle for the built-in one."""

import html.parser
import json
import re
from html.parser import HTMLParser

import pytest

from sdocheck import content, ds, htmltree, report
from sdocheck.annotation import (AnnotationGraph, AnnotationNode, Entity,
                                 Literal, RawBlock, Reference,
                                 parse_annotation)
from sdocheck.htmltree import (BLOCK_ELEMENTS, NON_CONTENT_ELEMENTS,
                               VOID_ELEMENTS, MicrodataItem, PageURL,
                               decode_html, resolve_url)


def parse_jsonld(payload, **kwargs):
    """Parse a JSON-LD block given as dict or str; fail the test on errors."""
    if isinstance(payload, dict):
        payload = json.dumps(payload)
    graph, entries = parse_annotation(RawBlock(payload, 0), **kwargs)
    assert graph is not None, [e.description for e in entries]
    return graph, entries


def load_ds(document: dict, vocab):
    """Load a Domain Specification given as a dict."""
    return ds.load_domain_specification(json.dumps(document).encode(), vocab)


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


def report_order(entries):
    """``entries`` in the order a report lists them."""
    return report.merge_reports(entries, target="t", snapshot_id="s").entries


def parse_report(data: bytes) -> report.VerificationReport:
    """Inverse of machine serialization; round-trips byte-identically."""
    raw = json.loads(data)
    entries = [
        report.ReportEntry(
            code=e["code"], title=e["title"],
            severity=report.Severity(e["severity"]), path=e["path"],
            description=e["description"], source=report.Source(e["source"]))
        for e in raw["entries"]
    ]
    score = raw["content_score"]
    if score is not None:
        score = report.ScoreSummary(**score)
    return report.VerificationReport(
        target=raw["target"], snapshot_id=raw["snapshot_id"],
        ds_name=raw["ds_name"], entries=entries, content_score=score)


# ---------------------------------------------------------------------------
# rendered paths: ``$0.offers[1].price``

_PATH_STEP_RE = re.compile(r"\.([^.\[\]]+)(?:\[(\d+)\])?")
PATH_GRAMMAR_RE = re.compile(r"^\$\d+(?:\.[^.\[\]]+(?:\[\d+\])?)*$")


def resolve_path(graph: AnnotationGraph, rendered: str):
    """Follow a rendered path; returns the AnnotationNode or PropertyValue
    it designates.  Raises KeyError when the path does not resolve."""
    match = re.match(r"^\$(\d+)", rendered)
    if not match:
        raise KeyError(f"bad path: {rendered!r}")
    node = next((r for r in graph.roots if r.path == match.group()), None)
    if node is None:
        raise KeyError(f"no root {match.group(1)} in graph")
    rest = rendered[match.end():]
    steps = _PATH_STEP_RE.findall(rest)
    if "".join(f".{p}" + (f"[{i}]" if i else "") for p, i in steps) != rest:
        raise KeyError(f"bad path: {rendered!r}")
    current = node
    for prop, index in steps:
        if isinstance(current, Entity):
            current = current.node
        if not isinstance(current, AnnotationNode):
            raise KeyError(f"path {rendered!r} descends into a non-entity")
        values = current.properties.get(prop)
        if not values:
            raise KeyError(f"path {rendered!r}: no property {prop!r}")
        current = values[int(index) if index else 0]
    return current


def flat_item(item: MicrodataItem) -> list:
    """An item as a flat list, walked without recursion, so that items
    1,200 deep compare too.  A value keeps its class, so a URL that is not
    marked as one shows."""
    out, stack = [], [item]
    while stack:
        entry = stack.pop()
        if isinstance(entry, MicrodataItem):
            out.append((entry.types, entry.identifier, entry.itemref))
            stack.append(None)  # the item's end
            stack.extend(reversed(entry.properties))
        elif isinstance(entry, tuple):
            name, value = entry
            if isinstance(value, MicrodataItem):
                out.append(name)
                stack.append(value)
            else:
                out.append((name, type(value).__name__, value))
        else:
            out.append(entry)
    return out


def flat_blocks(blocks: list[RawBlock]) -> list:
    """Blocks as ``flat_item`` shows their items."""
    return [(block.payload if isinstance(block.payload, str)
             else flat_item(block.payload), block.block_index, block.base_url)
            for block in blocks]


# ---------------------------------------------------------------------------
# oracle: the stdlib's html.parser tokens, fed to the one-pass builder

# htmltree copies Python 3.11's patterns; an interpreter whose html.parser
# reads markup by other rules is no oracle for it
_PINNED = {
    html.parser.tagfind_tolerant: htmltree._TAGFIND_RE,
    html.parser.attrfind_tolerant: htmltree._ATTRFIND_RE,
    html.parser.locatestarttagend_tolerant: htmltree._LOCATESTARTTAGEND_RE,
    html.parser.endtagfind: htmltree._ENDTAGFIND_RE,
    html.parser.commentclose: htmltree._COMMENTCLOSE_RE,
}
stdlib_is_the_oracle = pytest.mark.skipif(
    any(ours.pattern != theirs.pattern for theirs, ours in _PINNED.items()),
    reason="this interpreter's html.parser is not Python 3.11's")


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


def stdlib_document(html: str, url: str) -> htmltree.Document:
    """The ``Document`` the builder records from the tokens of the
    interpreter's ``html.parser``, for the page at ``url``."""
    parser = _StdlibTokens()
    parser.feed(html)
    parser.close()
    parser.builder.close(url)
    return parser.builder.document


# ---------------------------------------------------------------------------
# oracle: build the whole tree, then walk it for blocks and for page text


class Element:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[Element | str] = []

    def text_content(self) -> str:
        """The text of the element, leaving out script, style and template
        elements at or below it."""
        parts: list[str] = []
        stack: list[Element | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item.tag not in NON_CONTENT_ELEMENTS:
                stack.extend(reversed(item.children))
        return "".join(parts)


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


def _new_item(element: Element) -> MicrodataItem:
    attrs = element.attrs
    return MicrodataItem(attrs.get("itemtype", "").split(),
                         attrs.get("itemid"), "itemref" in attrs, [])


def _read_item(element: Element) -> MicrodataItem:
    """The item whose scope ``element`` opens, nested items included."""
    root = _new_item(element)
    # entries are (element, item it belongs to) still to visit, or
    # (names, value, item) to emit once the properties nested inside a
    # literal property are out
    stack: list = [(c, root) for c in reversed(element.children)
                   if isinstance(c, Element)]
    while stack:
        entry = stack.pop()
        if len(entry) == 3:
            names, value, item = entry
            item.properties.extend((name, value) for name in names)
            continue
        child, item = entry
        if "itemprop" in child.attrs:
            names = child.attrs["itemprop"].split()
            if "itemscope" in child.attrs:
                nested = _new_item(child)
                item.properties.extend((name, nested) for name in names)
                item = nested
            else:
                stack.append((names, _item_value(child), item))
        elif "itemscope" in child.attrs:
            continue  # a separate top-level item, not a property of this one
        stack.extend((c, item) for c in reversed(child.children)
                     if isinstance(c, Element))
    return root


def _item_value(element: Element) -> str:
    """The WHATWG HTML value of a property element, a URL as written."""
    attrs, tag = element.attrs, element.tag
    if "content" in attrs:
        return attrs["content"]
    if tag in ("a", "area", "link") and attrs.get("href"):
        return PageURL(attrs["href"])
    if (tag in ("audio", "embed", "iframe", "img", "source", "track",
                "video") and attrs.get("src")):
        return PageURL(attrs["src"])
    if tag == "object" and attrs.get("data"):
        return PageURL(attrs["data"])
    if tag == "time" and attrs.get("datetime"):
        return attrs["datetime"]
    if tag in ("data", "meter") and attrs.get("value"):
        return attrs["value"]
    return element.text_content().strip()


def oracle_blocks(html: str, base_url: str) -> list[RawBlock]:
    """The page's annotation blocks, read from a walk of its full tree:
    JSON-LD scripts in document order, then top-level Microdata items, all
    with the document base."""
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
            items.append(_read_item(element))
    return ([RawBlock(text, index, base) for index, text in enumerate(scripts)]
            + [RawBlock(item, index, base)
               for index, item in enumerate(items, len(scripts))])


def oracle_text_and_urls(html: str, base_url: str) -> tuple[str, set[str]]:
    """The page's text and URLs, from a walk of its full tree: text outside
    script, style and template, a newline at each block element's open and
    close, and the href/src of every visible element but ``<base>`` and the
    data of every visible ``<object>``, resolved against the first
    ``<base href>`` and normalized."""
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
        link_attrs = (("href", "src", "data") if item.tag == "object"
                      else ("href", "src"))
        if item.tag != "base":
            for attr in link_attrs:
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
