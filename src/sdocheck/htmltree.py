"""One pass of the stdlib HTML parser over a page, keeping only what the
later stages read.

While it parses, the builder records the page's JSON-LD ``<script>``
elements and its top-level Microdata items (``itemscope`` without
``itemprop``) in document order, the first ``<base href>``, the visible
text and the raw ``href``/``src`` values.  It keeps an element's children
only where something reads them: the whole subtree of an open item, and the
text of a ``<script>``.  Every other element is dropped once it closes, so
no full tree of the page is ever held.

Lenient by design: unmatched end tags are dropped, unclosed elements are
closed when an ancestor closes or the page ends, and decoding falls back to
UTF-8 with replacement characters when the page declares no encoding a
browser knows.  Not a rendering engine.
"""

from __future__ import annotations

import codecs
import re
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit

VOID_ELEMENTS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

# elements whose raw content never counts as page text
NON_CONTENT_ELEMENTS = frozenset({"script", "style", "template"})

# elements that break the text flow: a newline at their open and at their
# close keeps the words on either side apart
BLOCK_ELEMENTS = frozenset({
    "address", "article", "aside", "blockquote", "br", "caption", "dd",
    "div", "dl", "dt", "fieldset", "figcaption", "figure", "footer", "form",
    "h1", "h2", "h3", "h4", "h5", "h6", "header", "hr", "li", "main", "nav",
    "ol", "option", "p", "pre", "section", "select", "table", "td", "tfoot",
    "th", "thead", "title", "tr", "ul",
})

# the charset a <meta charset> or <meta http-equiv="Content-Type"> names
_META_CHARSET_RE = re.compile(
    rb"""<meta\s[^>]*?charset\s*=\s*["']?\s*([\w.:-]+)""", re.IGNORECASE)

# the WHATWG Encoding Standard's labels, by the Python codec that decodes
# them as a browser does; a meta tag naming UTF-8, UTF-16 or any label not
# listed here means UTF-8
_CHARSET_CODECS = {label: codec for codec, labels in (
    ("cp866", "866 cp866 csibm866 ibm866"),
    ("iso8859_2", "csisolatin2 iso-8859-2 iso-ir-101 iso8859-2 iso88592 "
                  "iso_8859-2 iso_8859-2:1987 l2 latin2"),
    ("iso8859_3", "csisolatin3 iso-8859-3 iso-ir-109 iso8859-3 iso88593 "
                  "iso_8859-3 iso_8859-3:1988 l3 latin3"),
    ("iso8859_4", "csisolatin4 iso-8859-4 iso-ir-110 iso8859-4 iso88594 "
                  "iso_8859-4 iso_8859-4:1988 l4 latin4"),
    ("iso8859_5", "csisolatincyrillic cyrillic iso-8859-5 iso-ir-144 "
                  "iso8859-5 iso88595 iso_8859-5 iso_8859-5:1988"),
    ("iso8859_6", "arabic asmo-708 csiso88596e csiso88596i csisolatinarabic "
                  "ecma-114 iso-8859-6 iso-8859-6-e iso-8859-6-i iso-ir-127 "
                  "iso8859-6 iso88596 iso_8859-6 iso_8859-6:1987"),
    ("iso8859_7", "csisolatingreek ecma-118 elot_928 greek greek8 iso-8859-7 "
                  "iso-ir-126 iso8859-7 iso88597 iso_8859-7 iso_8859-7:1987 "
                  "sun_eu_greek"),
    ("iso8859_8", "csiso88598e csisolatinhebrew hebrew iso-8859-8 "
                  "iso-8859-8-e iso-ir-138 iso8859-8 iso88598 iso_8859-8 "
                  "iso_8859-8:1988 visual csiso88598i iso-8859-8-i logical"),
    ("iso8859_10", "csisolatin6 iso-8859-10 iso-ir-157 iso8859-10 "
                   "iso885910 l6 latin6"),
    ("iso8859_13", "iso-8859-13 iso8859-13 iso885913"),
    ("iso8859_14", "iso-8859-14 iso8859-14 iso885914"),
    ("iso8859_15", "csisolatin9 iso-8859-15 iso8859-15 iso885915 "
                   "iso_8859-15 l9"),
    ("iso8859_16", "iso-8859-16"),
    ("koi8_r", "cskoi8r koi koi8 koi8-r koi8_r"),
    ("koi8_u", "koi8-ru koi8-u"),
    ("mac_roman", "csmacintosh mac macintosh x-mac-roman"),
    ("cp874", "dos-874 iso-8859-11 iso8859-11 iso885911 tis-620 windows-874"),
    ("cp1250", "cp1250 windows-1250 x-cp1250"),
    ("cp1251", "cp1251 windows-1251 x-cp1251"),
    # Latin-1 and ASCII labels read as windows-1252, as browsers do
    ("cp1252", "ansi_x3.4-1968 ascii cp1252 cp819 csisolatin1 ibm819 "
               "iso-8859-1 iso-ir-100 iso8859-1 iso88591 iso_8859-1 "
               "iso_8859-1:1987 l1 latin1 us-ascii windows-1252 x-cp1252"),
    ("cp1253", "cp1253 windows-1253 x-cp1253"),
    ("cp1254", "cp1254 csisolatin5 iso-8859-9 iso-ir-148 iso8859-9 iso88599 "
               "iso_8859-9 iso_8859-9:1989 l5 latin5 windows-1254 x-cp1254"),
    ("cp1255", "cp1255 windows-1255 x-cp1255"),
    ("cp1256", "cp1256 windows-1256 x-cp1256"),
    ("cp1257", "cp1257 windows-1257 x-cp1257"),
    ("cp1258", "cp1258 windows-1258 x-cp1258"),
    ("mac_cyrillic", "x-mac-cyrillic x-mac-ukrainian"),
    ("gb18030", "chinese csgb2312 csiso58gb231280 gb2312 gb_2312 gb_2312-80 "
                "gbk iso-ir-58 x-gbk gb18030"),
    ("big5hkscs", "big5 big5-hkscs cn-big5 csbig5 x-x-big5"),
    ("euc_jp", "cseucpkdfmtjapanese euc-jp x-euc-jp"),
    ("iso2022_jp", "csiso2022jp iso-2022-jp"),
    ("cp932", "csshiftjis ms932 ms_kanji shift-jis shift_jis sjis "
              "windows-31j x-sjis"),
    ("cp949", "cseuckr csksc56011987 euc-kr iso-ir-149 korean ks_c_5601-1987 "
              "ks_c_5601-1989 ksc5601 ksc_5601 windows-949"),
) for label in labels.split()}


class Element:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[Element | str] = []

    def __repr__(self) -> str:
        return f"<Element {self.tag} attrs={self.attrs}>"

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


class Document:
    """What one parse of a page records.

    ``scripts`` are the JSON-LD script elements and ``items`` the top-level
    Microdata item elements, each with its children, in document order.
    ``text`` is the visible text, with a newline at each block element's
    open and close.  ``links`` are the raw ``href`` and ``src`` values of
    visible elements other than ``<base>``, unresolved, because the first
    ``<base href>`` also applies to links that come before it.
    """

    __slots__ = ("base_href", "scripts", "items", "text", "links")

    def __init__(self):
        self.base_href: str | None = None
        self.scripts: list[Element] = []
        self.items: list[Element] = []
        self.text = ""
        self.links: set[str] = set()


def _is_jsonld_type(attrs: dict[str, str]) -> bool:
    media_type = attrs.get("type", "")
    return media_type.split(";")[0].strip().lower() == "application/ld+json"


class _TreeBuilder(HTMLParser):
    """Records a ``Document`` while the parser reads the page."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.document = Document()
        # the open elements, the document's own sentinel at the bottom
        self.stack: list[Element] = [Element("#document")]
        # stack index of the outermost open item and of the outermost open
        # script, style or template, or None
        self.item_at: int | None = None
        self.hidden_at: int | None = None
        self.text: list[str] = []

    def updatepos(self, i, j):
        # the private _markupbase hook that counts lines for getpos(); nothing
        # here reads positions, so the count is skipped
        return j

    def _open(self, tag: str, attrs, pushed: bool) -> None:
        attr_map: dict[str, str] = {}
        for key, value in attrs:
            # a bare attribute (itemscope) carries an empty string value
            attr_map.setdefault(key, value if value is not None else "")
        element = Element(tag, attr_map)
        stack = self.stack
        document = self.document
        if self.item_at is not None:
            stack[-1].children.append(element)
        if tag == "base":
            if document.base_href is None and attr_map.get("href"):
                document.base_href = attr_map["href"]
        elif self.hidden_at is None and tag not in NON_CONTENT_ELEMENTS:
            if attr_map.get("href"):
                document.links.add(attr_map["href"])
            if attr_map.get("src"):
                document.links.add(attr_map["src"])
            if tag in BLOCK_ELEMENTS:
                self.text.append("\n" if pushed else "\n\n")
        if tag == "script" and _is_jsonld_type(attr_map):
            document.scripts.append(element)
        if "itemscope" in attr_map and "itemprop" not in attr_map:
            document.items.append(element)
            if pushed and self.item_at is None:
                self.item_at = len(stack)
        if pushed:
            if tag in NON_CONTENT_ELEMENTS and self.hidden_at is None:
                self.hidden_at = len(stack)
            stack.append(element)

    def _close_from(self, index: int) -> None:
        """Close the open elements from stack position ``index`` up; each
        block element among them below any hidden one ends its block."""
        for element in self.stack[index:self.hidden_at]:
            if element.tag in BLOCK_ELEMENTS:
                self.text.append("\n")
        if self.item_at is not None and self.item_at >= index:
            self.item_at = None
        if self.hidden_at is not None and self.hidden_at >= index:
            self.hidden_at = None
        del self.stack[index:]

    def handle_starttag(self, tag, attrs):
        self._open(tag, attrs, tag not in VOID_ELEMENTS)

    def handle_startendtag(self, tag, attrs):
        self._open(tag, attrs, False)

    def handle_endtag(self, tag):
        stack = self.stack
        for i in range(len(stack) - 1, 0, -1):
            if stack[i].tag == tag:
                self._close_from(i)
                return
        # no matching open element: ignore

    def handle_data(self, data):
        if self.hidden_at is None:
            self.text.append(data)
        top = self.stack[-1]
        if self.item_at is not None or top.tag == "script":
            top.children.append(data)

    def close(self):
        super().close()
        self._close_from(1)
        self.document.text = "".join(self.text)

    def parse_marked_section(self, i, report=1):
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:  # an unknown keyword, as in <![foo bar]>
            return self.parse_bogus_comment(i, report)


def decode_html(data: bytes) -> str:
    """A page's text.  A UTF-8 byte order mark means UTF-8.  Otherwise the
    first ``<meta charset>`` or ``<meta http-equiv="Content-Type"
    content="...; charset=...">`` within the first 1,024 bytes names the
    encoding, read through the WHATWG label table.  Otherwise UTF-8.  Bytes
    that do not decode become U+FFFD."""
    if data.startswith(codecs.BOM_UTF8):
        return data[3:].decode("utf-8", errors="replace")
    match = _META_CHARSET_RE.search(data, 0, 1024)
    label = match.group(1).decode("ascii").lower() if match else ""
    return data.decode(_CHARSET_CODECS.get(label, "utf-8"), errors="replace")


def parse_html(data: bytes | str) -> Document:
    if isinstance(data, (bytes, bytearray)):
        data = decode_html(bytes(data))
    builder = _TreeBuilder()
    builder.feed(data)
    builder.close()
    return builder.document


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
