"""One pass over a page, keeping only what the later stages read.

A single scan loop tokenizes the page by the rules of Python 3.11's
``html.parser`` (its patterns are copied here, so reports do not depend on
the interpreter's copy); a plain start tag is read whole by one pattern.
Each token goes straight to the builder, which records, in document order,
the text of the page's JSON-LD ``<script>`` elements and its top-level
Microdata items (``itemscope`` without ``itemprop``) as ``MicrodataItem``
trees, the visible text, the raw link values (``href``, ``src`` and
``<object data>``) and, once the page ends, the document base.  The WHATWG
Microdata rules live here: which items are top level, which item a property
belongs to, and a property's value.  The builder holds the names of the
open elements and, for each open item or property, what it is still filling
in; no element is kept once it closes, so no tree of the page is ever held.

Lenient by design: unmatched end tags are dropped, unclosed elements are
closed when an ancestor closes or the page ends, and decoding falls back to
UTF-8 with replacement characters when the page declares no encoding a
browser knows.  Not a rendering engine.
"""

from __future__ import annotations

import codecs
import re
from html import unescape
from typing import NamedTuple
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

# the byte order marks that WHATWG HTML sniffs before any declared
# encoding, with the codec each one selects
_BOMS = ((codecs.BOM_UTF8, "utf-8"), (codecs.BOM_UTF16_LE, "utf-16-le"),
         (codecs.BOM_UTF16_BE, "utf-16-be"))

# the charset a <meta charset> or <meta http-equiv="Content-Type"> names
_META_CHARSET_RE = re.compile(
    rb"""<meta\s[^>]*?charset\s*=\s*["']?\s*([\w.:-]+)""", re.IGNORECASE)

# the WHATWG Encoding Standard's labels of UTF-8
_UTF8_LABELS = frozenset({"unicode-1-1-utf-8", "unicode11utf8",
                          "unicode20utf8", "utf-8", "utf8", "x-unicode20utf8"})

# the WHATWG Encoding Standard's other labels, by the Python codec that
# decodes them as a browser does; a meta tag naming UTF-8, UTF-16 or any
# label not listed here means UTF-8
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

# the WHATWG Encoding Standard's labels of UTF-16LE and UTF-16BE, which only
# the HTTP charset can name: a meta tag naming one of them means UTF-8
_UTF16_CODECS = {label: codec for codec, labels in (
    ("utf-16-le", "csunicode iso-10646-ucs-2 ucs-2 unicode unicodefeff "
                  "utf-16 utf-16le"),
    ("utf-16-be", "unicodefffe utf-16be"),
) for label in labels.split()}


class PageURL(str):
    """A link or media URL of a Microdata property as the page writes it.
    The first ``<base href>`` may come after the item, so the graph builder
    resolves it against the document base."""

    __slots__ = ()


# the attribute that gives a Microdata property its value, by element, and
# what that value is
_VALUE_ATTRIBUTES = {
    **dict.fromkeys(("a", "area", "link"), ("href", PageURL)),
    **dict.fromkeys(("audio", "embed", "iframe", "img", "source", "track",
                     "video"), ("src", PageURL)),
    "object": ("data", PageURL),
    **dict.fromkeys(("data", "meter"), ("value", str)),
    "time": ("datetime", str),
}


class MicrodataItem(NamedTuple):
    """One Microdata item as the page writes it: its ``itemtype`` tokens,
    its unresolved ``itemid``, whether it names ``itemref``, and
    ``(itemprop name, value)`` pairs in document order.  A value is a nested
    item, a ``PageURL`` or the property's attribute or text."""
    types: list[str]
    identifier: str | None
    itemref: bool
    properties: list[tuple]


class Document:
    """What one parse of a page records.

    ``scripts`` are the texts of the JSON-LD script elements and ``items``
    the top-level Microdata items, each with its properties and nested
    items, in document order.  ``text`` is the visible text, with a newline
    at each block element's open and close.  ``links`` are the raw ``href``
    and ``src`` values of visible elements other than ``<base>`` and the
    ``data`` values of visible ``<object>`` elements, unresolved.  ``base``
    is the document base that every URL of the page resolves against: the
    first ``<base href>`` resolved against the page's URL, else that URL (a
    ``<base href>`` that does not parse is ignored, as in WHATWG HTML).  It
    is known only when the page ends, as it applies to earlier links too.
    """

    __slots__ = ("base", "scripts", "items", "text", "links")

    def __init__(self):
        self.base = ""
        self.scripts: list[str] = []
        self.items: list[MicrodataItem] = []
        self.text = ""
        self.links: set[str] = set()


def _is_jsonld_type(attrs: dict[str, str]) -> bool:
    media_type = attrs.get("type", "")
    return media_type.split(";")[0].strip().lower() == "application/ld+json"


def _new_item(attrs: dict[str, str]) -> MicrodataItem:
    return MicrodataItem(attrs.get("itemtype", "").split(),
                         attrs.get("itemid"), "itemref" in attrs, [])


def _property_value(tag: str, attrs: dict[str, str]) -> str | None:
    """The WHATWG HTML value of a property element when an attribute gives
    it, else None: the value is then the element's text."""
    if "content" in attrs:
        return attrs["content"]
    attr, kind = _VALUE_ATTRIBUTES.get(tag, (None, None))
    value = attrs.get(attr)
    return kind(value) if value else None


# The tokenizer follows Python 3.11's html.parser, as an HTMLParser with
# convert_charrefs=True reads a whole page fed at once and then closed.  Its
# patterns are copied here, so that a report does not depend on the
# interpreter's html.parser.
_TAGFIND_RE = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND_RE = re.compile(
    r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*'
    r'(\'[^\']*\'|"[^"]*"|(?![\'"])[^>\s]*))?(?:\s|/(?!>))*')
_LOCATESTARTTAGEND_RE = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_ENDTAGFIND_RE = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENTCLOSE_RE = re.compile(r"--\s*>")
_DECLNAME_RE = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*")
# the end of a marked section (<![CDATA[...]]>, <![if ...]>), by keyword
_MARKED_SECTION_CLOSE = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"),
                    re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
# the end tag that ends a script's or a style's raw text
_CDATA_END_RE = {tag: re.compile(rf"</\s*{tag}\s*>", re.IGNORECASE)
                 for tag in ("script", "style")}

# A plain start tag, read whole: a lowercase name, then attributes after
# ASCII whitespace, each bare or with a value that holds no character
# reference.  The general path reads such a tag the same way; every other
# start tag takes it.
_PLAIN_START_TAG_RE = re.compile(
    r"<([a-z][-a-z0-9]*)"
    r"((?:[ \t\n\r\f]+[a-z_:][-a-z0-9_:.]*"
    r"""(?:="[^"&]*"|='[^'&]*'|=[^\s"'=<>`&]+)?)*)"""
    r"[ \t\n\r\f]*(/?)>")
_PLAIN_ATTR_RE = re.compile(
    r"""([a-z_:][-a-z0-9_:.]*)(?:="([^"]*)"|='([^']*)'|=([^ \t\n\r\f]+))?""")

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# an ASCII letter after "<" starts a tag
_TAG_START = frozenset(_LETTERS)
# a start tag whose attributes stop before one of these is unfinished
_UNFINISHED_TAG = _LETTERS + "=/"


def _start_tag(html: str, i: int):
    """The general path for the start tag at ``i``: ``(end, tag, attrs,
    closed)``.  ``end`` is -1 when the tag does not end; ``tag`` is None
    when the markup up to ``end`` is text."""
    j = _LOCATESTARTTAGEND_RE.match(html, i).end()
    after = html[j:j + 1]
    if after == ">":
        end = j + 1
    elif html.startswith("/>", j):
        end = j + 2
    elif not after or after in _UNFINISHED_TAG:
        return -1, None, None, False
    else:
        end = j
    match = _TAGFIND_RE.match(html, i + 1)
    tag = match.group(1).lower()
    k = match.end()
    attrs: dict[str, str] = {}
    while k < end:
        match = _ATTRFIND_RE.match(html, k)
        if not match:
            break
        name, has_value, value = match.group(1, 2, 3)
        if not has_value:
            value = ""
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if "&" in value:
            value = unescape(value)
        # the first of a repeated attribute wins; a bare one is empty
        attrs.setdefault(name.lower(), value)
        k = match.end()
    rest = html[k:end].strip()
    if rest not in (">", "/>"):
        return end, None, None, False
    return end, tag, attrs, rest == "/>"


def _declaration(html: str, i: int) -> int:
    """The end of the ``<!`` declaration at ``i`` (not a comment), or -1
    when it does not end."""
    if html.startswith("<![", i):
        name = _DECLNAME_RE.match(html, i + 3)
        close = name and _MARKED_SECTION_CLOSE.get(name.group().lower())
        if close:
            match = close.search(html, i + 3)
            return match.end() if match else -1
        # no keyword or an unknown one, as in <![foo bar]>: a bogus comment
    elif html[i:i + 9].lower() == "<!doctype":
        end = html.find(">", i + 9)
        return end + 1 if end >= 0 else -1
    end = html.find(">", i + 2)
    return end + 1 if end >= 0 else -1


class _TreeBuilder:
    """Reads a page token by token and records its ``Document``."""

    def __init__(self):
        self.document = Document()
        self.base_href: str | None = None  # the first <base href>
        # the names of the open elements, the document's sentinel at the
        # bottom
        self.stack: list[str] = ["#document"]
        # stack index of the outermost open script, style or template
        self.hidden_at: int | None = None
        self.text: list[str] = []
        # the text of the open JSON-LD script
        self.script: list[str] | None = None
        # Microdata: the innermost open item, which takes the properties
        # that open in it; the text of the innermost open property element,
        # None inside a script, style or template; and for each open element
        # that changed either, (stack index, the item and text it replaced,
        # the property it adds at its close or None)
        self.item: MicrodataItem | None = None
        self.prop_text: list[str] | None = None
        self.scopes: list[tuple] = []

    def _open(self, tag: str, attrs: dict[str, str], pushed: bool) -> None:
        stack = self.stack
        document = self.document
        if tag == "base":
            if self.base_href is None and attrs.get("href"):
                self.base_href = attrs["href"]
        elif self.hidden_at is None and tag not in NON_CONTENT_ELEMENTS:
            if attrs.get("href"):
                document.links.add(attrs["href"])
            if attrs.get("src"):
                document.links.add(attrs["src"])
            if tag == "object" and attrs.get("data"):
                document.links.add(attrs["data"])
            if tag in BLOCK_ELEMENTS:
                self.text.append("\n" if pushed else "\n\n")
        if tag == "script" and _is_jsonld_type(attrs):
            if pushed:
                self.script = []
            else:
                document.scripts.append("")
        if ("itemscope" in attrs or "itemprop" in attrs or (
                tag in NON_CONTENT_ELEMENTS and self.prop_text is not None)):
            self._microdata(tag, attrs, pushed)
        if pushed:
            if tag in NON_CONTENT_ELEMENTS and self.hidden_at is None:
                self.hidden_at = len(stack)
            stack.append(tag)

    def _microdata(self, tag: str, attrs: dict[str, str],
                   pushed: bool) -> None:
        """Record what an element with ``itemscope`` or ``itemprop``, or a
        script, style or template inside a property, adds to the items.

        An item without ``itemprop`` is a top-level item.  Inside an item,
        a nested item is added to it at its open, and a property element's
        value at its close, so that the properties inside come first."""
        item, text, prop = self.item, self.prop_text, None
        if "itemprop" not in attrs:
            if "itemscope" in attrs:
                item = _new_item(attrs)
                self.document.items.append(item)
        elif item is not None:
            names = attrs["itemprop"].split()
            if "itemscope" in attrs:
                item = _new_item(attrs)
                self.item.properties.extend((name, item) for name in names)
            else:
                value = _property_value(tag, attrs)
                if not pushed:
                    item.properties.extend(
                        (name, "" if value is None else value)
                        for name in names)
                    return
                # the text of a property inside another is part of both
                text = [] if text is None else text
                prop = (names, value, text, len(text))
        if pushed:
            self.scopes.append((len(self.stack), self.item, self.prop_text,
                                prop))
            self.item = item
            self.prop_text = None if tag in NON_CONTENT_ELEMENTS else text

    def _close_from(self, index: int) -> None:
        """Close the open elements from stack position ``index`` up; each
        block element among them below any hidden one ends its block, and
        each property element among them adds its value, innermost
        first."""
        for tag in self.stack[index:self.hidden_at]:
            if tag in BLOCK_ELEMENTS:
                self.text.append("\n")
        if self.hidden_at is not None and self.hidden_at >= index:
            self.hidden_at = None
        if self.script is not None:  # a script holds no element
            self.document.scripts.append("".join(self.script))
            self.script = None
        scopes = self.scopes
        while scopes and scopes[-1][0] >= index:
            _, self.item, self.prop_text, prop = scopes.pop()
            if prop is not None:
                names, value, text, start = prop
                if value is None:
                    value = "".join(text[start:]).strip()
                self.item.properties.extend((name, value) for name in names)
        del self.stack[index:]

    def _end(self, tag: str) -> None:
        stack = self.stack
        for i in range(len(stack) - 1, 0, -1):
            if stack[i] == tag:
                self._close_from(i)
                return
        # no matching open element: ignore

    def _data(self, data: str) -> None:
        if self.hidden_at is None:
            self.text.append(data)
        if self.prop_text is not None:
            self.prop_text.append(data)
        elif self.script is not None:
            self.script.append(data)

    def feed(self, html: str) -> None:
        """Read the whole page.  Text between tags arrives in the chunks
        html.parser gives, character references resolved outside a script
        or style; comments, declarations and processing instructions are
        skipped."""
        data = self._data
        find = html.find
        plain_start_tag = _PLAIN_START_TAG_RE.match
        plain_attrs = _PLAIN_ATTR_RE.findall
        end_tag = _ENDTAGFIND_RE.match
        n = len(html)
        i = 0
        # while a script or style is open: the pattern of the end tag that
        # ends its raw text
        raw_end = None
        while i < n:
            if raw_end is None:
                # html.parser holds back text with an "&" in its last 34
                # characters for more input; with the whole page given, that
                # text comes out at the close unchanged, as it does here
                j = find("<", i)
                if j < 0:
                    j = n
            else:
                match = raw_end.search(html, i)
                if match is None:
                    break  # an unclosed script or style: the rest is dropped
                j = match.start()
            if i < j:
                text = html[i:j]
                data(unescape(text) if raw_end is None and "&" in text
                     else text)
            i = j
            if i == n:
                break
            # what follows "<" decides the construct, as in html.parser
            second = html[i + 1:i + 2]
            if second in _TAG_START:
                match = plain_start_tag(html, i)
                if match is not None:
                    k = match.end()
                    tag, attr_text, closed = match.groups()
                    attrs = {}
                    for name, value1, value2, value3 in plain_attrs(attr_text):
                        if name not in attrs:
                            attrs[name] = value1 or value2 or value3
                else:
                    k, tag, attrs, closed = _start_tag(html, i)
                    if tag is None and k >= 0:
                        data(html[i:k])
                if tag is not None:
                    self._open(tag, attrs,
                               not closed and tag not in VOID_ELEMENTS)
                    if not closed and tag in _CDATA_END_RE:
                        raw_end = _CDATA_END_RE[tag]
            elif second == "/":
                match = end_tag(html, i)
                if match is not None:
                    # in a script or style, only its own end tag gets here:
                    # an ASCII name that matches it ignoring case is its name
                    k = match.end()
                    self._end(match.group(1).lower())
                    raw_end = None
                else:
                    k = find(">", i + 2)
                    if k >= 0:
                        k += 1
                        if raw_end is not None:  # as in </ſcript>
                            data(html[i:k])
                        else:
                            # </a x=">"> ends at its first ">"; </> and
                            # </ a> end nothing
                            name = _TAGFIND_RE.match(html, i + 2)
                            if name is not None:
                                self._end(name.group(1).lower())
            elif html.startswith("<!--", i):
                match = _COMMENTCLOSE_RE.search(html, i + 4)
                k = match.end() if match else -1
            elif second == "?":
                k = find(">", i + 2)
                if k >= 0:
                    k += 1
            elif second == "!":
                k = _declaration(html, i)
            elif second:
                data("<")
                k = i + 1
            else:
                break
            if k < 0:
                # a construct that does not end (never in a script or style)
                # is text up to the next ">", else up to the next "<", else
                # one character
                k = find(">", i + 1) + 1
                if not k:
                    k = find("<", i + 1)
                    if k < 0:
                        k = i + 1
                data(unescape(html[i:k]))
            i = k
        if i < n and raw_end is None:
            data(unescape(html[i:]))

    def close(self, url: str) -> None:
        self._close_from(1)
        self.document.text = "".join(self.text)
        self.document.base = (self.base_href
                              and resolve_url(self.base_href, url) or url)


def decode_html(data: bytes, charset: str | None = None) -> str:
    """A page's text, decoded in the WHATWG order.  A byte order mark of
    UTF-8, UTF-16LE or UTF-16BE names the encoding.  Otherwise ``charset``,
    the HTTP ``Content-Type`` charset, names the encoding when it is a label
    of the WHATWG table, of UTF-8, or of UTF-16LE or UTF-16BE; any other
    label is ignored.  Otherwise the first ``<meta charset>`` or ``<meta
    http-equiv="Content-Type" content="...; charset=...">`` within the
    first 1,024 bytes names it, read through the same table, where UTF-16
    means UTF-8.  Otherwise UTF-8.  Bytes that do not decode become
    U+FFFD."""
    for bom, codec in _BOMS:
        if data.startswith(bom):
            return data[len(bom):].decode(codec, errors="replace")
    label = (charset or "").strip().lower()
    if label in _UTF16_CODECS:
        return data.decode(_UTF16_CODECS[label], errors="replace")
    if label not in _CHARSET_CODECS and label not in _UTF8_LABELS:
        match = _META_CHARSET_RE.search(data, 0, 1024)
        label = match.group(1).decode("ascii").lower() if match else ""
    return data.decode(_CHARSET_CODECS.get(label, "utf-8"), errors="replace")


def parse_html(text: str, url: str) -> Document:
    """What one pass over the page at ``url`` records (see ``decode_html``)."""
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close(url)
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

