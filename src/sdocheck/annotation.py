"""Extract annotation blocks from HTML and parse them into annotation graphs.

Two carriers are supported: JSON-LD ``<script>`` blocks and Microdata
(``itemscope``/``itemprop``) attribute trees.  A block is a JSON-LD
script's text or a ``MicrodataItem`` tree that the page's one parse
recorded.  One builder turns either into the same graph shape, by one
rule: typed nodes with ordered property -> value lists, every identifier
resolved against the block's base and every name expanded.  One
finishing pass then gives every node and value the path at which it sits
(``$0.offers[1].price``) and records the node order that the checking
layers read.  Every walk uses an explicit stack, so nesting depth is
bounded by memory, not by the interpreter's recursion limit.

JSON-LD handling is deliberately schema.org-flavored: only the keywords
``@context``, ``@graph``, ``@value``, and ``@id`` and ``@type`` or a term
aliasing them, are honored; anything else is reported as unsupported and
skipped.  Each top-level object's ``@context`` folds into one active
context, and every type and property name is expanded in it: a schema.org
IRI becomes its bare term, any other IRI stays whole.  A Microdata item is
read in schema.org's context, and its names are never keywords.

Parsing is pure; parsed graphs are only mutated during construction and are
safe to share afterwards.
"""

from __future__ import annotations

import json
import re
from datetime import date, datetime, time
from typing import NamedTuple
from urllib.parse import urlsplit

from .htmltree import Document, MicrodataItem, PageURL, resolve_url
from .report import ReportEntry, make_entry
from .vocab import read_json

UNDETERMINED = "Undetermined"

_HONORED_KEYWORDS = {"@context", "@type", "@id", "@graph", "@value"}

_DURATION_RE = re.compile(
    r"^P(?=\d|T\d)(?:\d+Y)?(?:\d+M)?(?:\d+W)?(?:\d+D)?"
    r"(?:T(?=\d)(?:\d+H)?(?:\d+M)?(?:\d+(?:\.\d+)?S)?)?$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(?:\d+\.\d+|\.\d+)$")
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_DATETIME_RE = re.compile(
    r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(?::\d{2}(?:\.\d+)?)?"
    r"(?:Z|[+-]\d{2}:?\d{2})?$")
_TIME_RE = re.compile(r"^\d{2}:\d{2}(?::\d{2}(?:\.\d+)?)?(?:Z|[+-]\d{2}:?\d{2})?$")
_TEMPORAL_FORMS = ((_DATE_RE, "Date"), (_DATETIME_RE, "DateTime"),
                   (_TIME_RE, "Time"))


class AnnotationPath(str):
    """A rendered path, ``$0.offers[1].price``.

    Paths are plain ``str`` values that the finishing pass builds once.  The
    class stays only because the benchmark's tracer (``perfbench/tracer.py``)
    counts path renders by patching ``render``; the package never calls it,
    so that count reads 0."""

    def render(self) -> str:
        return str(self)


class Literal:
    __slots__ = ("raw", "datatype", "path")

    def __init__(self, raw: str, datatype: str,
                 path: str | None = None):
        self.raw = raw
        self.datatype = datatype  # a vocabulary datatype name or UNDETERMINED
        self.path = path


class Reference:
    __slots__ = ("iri", "path")

    def __init__(self, iri: str, path: str | None = None):
        self.iri = iri
        self.path = path


class Entity:
    __slots__ = ("node", "path")

    def __init__(self, node: "AnnotationNode",
                 path: str | None = None):
        self.node = node
        self.path = path


PropertyValue = Literal | Reference | Entity


class AnnotationNode:
    __slots__ = ("types", "identifier", "properties", "path")

    def __init__(self, types: list[str] | None = None,
                 identifier: str | None = None,
                 properties: dict[str, list[PropertyValue]] | None = None,
                 path: str | None = None):
        self.types = [] if types is None else types
        self.identifier = identifier
        self.properties = {} if properties is None else properties
        self.path = path


class AnnotationGraph(NamedTuple):
    roots: list[AnnotationNode]
    nodes: list[AnnotationNode]  # every reachable node once, preorder

    def iter_nodes(self):
        """Every reachable node exactly once, in the preorder that parsing
        recorded."""
        return iter(self.nodes)


class RawBlock(NamedTuple):
    """One annotation block as found on a page.

    For JSON-LD the payload is the verbatim script text, or the bytes of a
    standalone file; for Microdata it is the item that the page's parse
    recorded (the attribute syntax has no textual block to preserve).
    ``base_url``, a page's document base or a standalone file's URL, is
    what the block's identifiers and link and media URLs resolve against.
    """
    payload: str | bytes | MicrodataItem
    block_index: int
    base_url: str = ""

    @property
    def source_format(self) -> str:
        """``"json-ld"`` or ``"microdata"``."""
        if isinstance(self.payload, MicrodataItem):
            return "microdata"
        return "json-ld"


def parse_temporal(raw: str, datatype: str) -> date | datetime | time:
    """The value of an ISO 8601 literal of datatype Date, DateTime or Time.

    A trailing ``Z`` reads as UTC.  Raises ValueError when ``raw`` is not a
    valid value of that datatype.
    """
    if datatype == "Date":
        return date.fromisoformat(raw)
    parser = datetime if datatype == "DateTime" else time
    return parser.fromisoformat(raw.replace("Z", "+00:00"))


def classify_literal(raw: str) -> str:
    """Deterministically infer the vocabulary datatype of a literal."""
    if raw == "":
        return UNDETERMINED
    if raw in ("true", "false"):
        return "Boolean"
    for pattern, datatype in _TEMPORAL_FORMS:
        if pattern.match(raw):
            try:
                parse_temporal(raw, datatype)
            except ValueError:
                return "Text"
            return datatype
    if _DURATION_RE.match(raw):
        return "Duration"
    if _INTEGER_RE.match(raw):
        return "Integer"
    if _FLOAT_RE.match(raw):
        return "Float"
    if " " not in raw and (scheme := raw[:8].lower()).startswith(
            ("http://", "https://", "file:/")):  # a scheme is case-insensitive
        url = resolve_url(raw)
        # a web URL names a host, a file URL an absolute path
        if url is not None and (scheme.startswith("file:")
                                or urlsplit(url).netloc):
            return "URL"
    return "Text"


# ---------------------------------------------------------------------------
# block extraction


def extract_annotation_blocks(tree: Document) -> list[RawBlock]:
    """All annotation blocks of a parsed page, in document order, each with
    the document base.

    JSON-LD script blocks come first (verbatim, even if malformed), followed
    by one synthetic block per top-level Microdata item scope.  Block indices
    are global and zero-based.
    """
    blocks = [RawBlock(text, index, tree.base)
              for index, text in enumerate(tree.scripts)]
    blocks.extend(RawBlock(item, index, tree.base)
                  for index, item in enumerate(tree.items, len(blocks)))
    return blocks


# ---------------------------------------------------------------------------
# parsing


def parse_annotation(block: RawBlock, first_root_ordinal: int = 0,
                     ) -> tuple[AnnotationGraph | None, list[ReportEntry]]:
    """Parse one block into an annotation graph.

    Returns ``(graph, findings)``; the graph is None when the block is
    unusable (E101 invalid syntax, E102 no typed node).  Warnings (E103)
    may accompany a successful parse.  ``first_root_ordinal`` offsets root
    numbering so paths stay unique when a page carries several blocks.
    """
    entries: list[ReportEntry] = []
    builder = _GraphBuilder(entries, block.base_url)
    if isinstance(block.payload, MicrodataItem):
        roots = [builder.build(block.payload)]
    else:
        roots = _parse_jsonld(block.payload, builder)
    if roots is None:
        return None, entries

    # one node listed twice (an @id repeated in @graph) is one root
    roots = list({id(root): root for root in roots}.values())
    nodes = _finish(roots, first_root_ordinal)
    if not any(node.types for node in nodes):
        entries.append(make_entry(
            "E102", "$", "annotation block contains no typed node"))
        return None, entries
    return AnnotationGraph(roots, nodes), entries


class _GraphBuilder:
    """Builds the nodes of JSON-LD objects and Microdata items.

    ``build_node`` and ``build_value`` are generators: each yields the
    generator of a nested node or value it needs and is sent back that
    generator's result.  ``build`` runs them from an explicit stack, so the
    nesting depth is not bounded by the recursion limit.
    """

    def __init__(self, entries: list[ReportEntry], base_url: str = ""):
        self.entries = entries
        self.base_url = base_url  # identifiers, page URLs resolve against it
        self.by_id: dict[str, AnnotationNode] = {}
        # the active context: vocab, terms, @base ("" the block's) and aliases
        self.vocab, self.terms, self.base, self.aliases = _SCHEMA_ORG_CONTEXT
        self.unexpanded: set[str] = set()

    def warn(self, construct: str) -> None:
        self.entries.append(make_entry("E103", "$", construct))

    def expand(self, name: str) -> str | None:
        """A type or property name as a node keeps it: a schema.org term
        bare, any other IRI (the bare namespace too) whole; None, with one
        E103 per name, when it expands to no IRI."""
        if (":" not in name and self.vocab == _SCHEMA_ORG
                and name not in self.terms):
            return name  # the common case, a schema.org term by @vocab
        iri = _expand(name, self.vocab, self.terms)
        if iri is None or ":" not in iri:
            if name not in self.unexpanded:
                self.unexpanded.add(name)
                self.warn(f"name {name!r} expands to no IRI; skipped")
            return None
        if iri.startswith(_SCHEMA_ORG_IRIS):
            return iri.partition("schema.org/")[2] or iri
        return iri

    def node_for_id(self, identifier: str) -> AnnotationNode:
        if (identifier and not identifier.startswith("_:")  # no blank node
                and self.base is not None):  # "@base": null: as written
            base = resolve_url(self.base, self.base_url) or ""
            identifier = resolve_url(identifier, base) or identifier
        node = self.by_id.get(identifier)
        if node is None:
            node = AnnotationNode(identifier=identifier)
            self.by_id[identifier] = node
        return node

    def build(self, obj: dict | MicrodataItem,
              context: tuple | None = None) -> AnnotationNode:
        if context is not None:  # a top-level JSON-LD object's, folded
            self.vocab, self.terms, self.base, self.aliases = context
        stack = [self.build_node(obj, context is not None)]
        result = None
        while True:
            try:
                stack.append(stack[-1].send(result))
                result = None
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                result = done.value

    def build_node(self, obj: dict | MicrodataItem, top_level: bool = False):
        if isinstance(obj, MicrodataItem):
            identifier, types, pairs = obj.identifier, obj.types, obj.properties
            if obj.itemref:
                self.warn("itemref is not supported; "
                          "referenced properties skipped")
        else:
            obj = self.unalias(obj) if self.aliases else obj
            identifier, types = obj.get("@id"), obj.get("@type")
            types = types if isinstance(types, list) else [types]
            pairs = obj.items()
        if isinstance(identifier, str):
            node = self.node_for_id(identifier)
        else:
            node = AnnotationNode()
        for t in types:
            t = self.expand(t) if isinstance(t, str) else None
            if t is not None and t not in node.types:
                node.types.append(t)
        keywords = isinstance(obj, dict)  # an itemprop is never a keyword
        for key, value in pairs:
            if keywords and key.startswith("@"):
                if key == "@context" and not top_level:
                    self.warn("embedded @context ignored")
                elif key == "@graph" and value is not None:  # not top-level
                    self.warn("@graph is read only in a top-level object; "
                              "skipped")
                elif key not in _HONORED_KEYWORDS:
                    self.warn(f"keyword {key!r} is not supported; skipped")
                continue
            key = self.expand(key)
            if key is None:
                continue
            parsed = []
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, str):  # the common case: no generator
                    if item.__class__ is PageURL:
                        item = resolve_url(item, self.base_url) or str(item)
                    built = Literal(item, classify_literal(item))
                else:
                    built = yield self.build_value(item)
                if built is not None:
                    parsed.append(built)
            if parsed:
                node.properties.setdefault(key, []).extend(parsed)
        return node

    def unalias(self, obj: dict) -> dict:
        """``obj`` with each alias read as its keyword, given once."""
        read = {}
        for key, value in obj.items():
            keyword = self.aliases.get(key, key)
            if keyword in read:  # JSON-LD's colliding keywords
                self.warn(f"keyword {keyword} given twice; {key!r} skipped")
            read.setdefault(keyword, value)
        return read

    def build_value(self, value):
        if isinstance(value, bool):
            return Literal("true" if value else "false", "Boolean")
        if isinstance(value, int):
            return Literal(str(value), "Integer")
        if isinstance(value, float):
            return Literal(json.dumps(value), "Float")
        if isinstance(value, str):
            return Literal(value, classify_literal(value))
        if isinstance(value, MicrodataItem):
            return Entity((yield self.build_node(value)))
        if value is None:
            return None
        if isinstance(value, list):
            self.warn("nested array value is not supported; skipped")
            return None
        # a JSON object, the one type left
        if "@list" in value or "@set" in value:
            self.warn("@list/@set containers are not supported; skipped")
            return None
        if "@value" in value:
            inner = yield self.build_value(value["@value"])
            if inner is None or not isinstance(inner, Literal):
                self.warn("non-scalar @value; skipped")
                return None
            return inner
        return Entity((yield self.build_node(value)))


def _finish(roots: list[AnnotationNode],
            first_root_ordinal: int) -> list[AnnotationNode]:
    """The one pass over a built graph, preorder from the roots in order.

    Turns each bare-identifier placeholder that never gained types or
    properties into a Reference, gives every node and value its path (a
    node reached twice keeps the path of its first visit), and returns the
    nodes in visit order.
    """
    nodes: list[AnnotationNode] = []
    seen: set[int] = set()
    stack = [(root, f"${n}")
             for n, root in enumerate(roots, first_root_ordinal)][::-1]
    while stack:
        node, path = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        node.path = path
        nodes.append(node)
        children = []
        for prop, values in node.properties.items():
            prop_path = f"{path}.{prop}"
            multi = len(values) > 1
            for i, value in enumerate(values):
                if isinstance(value, Entity):
                    target = value.node
                    if (target.identifier is not None and not target.types
                            and not target.properties):
                        value = values[i] = Reference(target.identifier)
                value.path = f"{prop_path}[{i}]" if multi else prop_path
                if isinstance(value, Entity):
                    children.append((value.node, value.path))
        stack.extend(reversed(children))
    return nodes


def _parse_jsonld(payload: str | bytes, builder: _GraphBuilder):
    try:
        doc = read_json(payload, ValueError, "block")
    except ValueError as exc:
        builder.entries.append(make_entry("E101", "$", str(exc)))
        return None
    if not isinstance(doc, (dict, list)):
        builder.entries.append(make_entry(
            "E101", "$", "top-level JSON value is not an object or array"))
        return None

    top_objects = doc if isinstance(doc, list) else [doc]
    roots: list[AnnotationNode] = []
    for top in top_objects:
        if not isinstance(top, dict):
            builder.warn("top-level entry is not an object; skipped")
            continue
        context = _fold_context(top.get("@context"))
        if isinstance(context, str):
            builder.warn(f"{context}; block skipped")
            continue
        graph = top.get("@graph")
        if graph is None:
            roots.append(builder.build(top, context))
            continue
        beside = [repr(k) for k in top if k not in ("@context", "@graph")]
        if beside:
            builder.warn("keys beside @graph are not read: "
                         + ", ".join(beside))
        # JSON-LD 1.1 allows a graph of one node
        for item in graph if isinstance(graph, list) else [graph]:
            if not isinstance(item, dict):
                builder.warn("@graph entry is not an object; skipped")
                continue
            own = (_fold_context(item["@context"], context)
                   if "@context" in item else context)
            if isinstance(own, str):
                builder.warn(f"{own}; @graph entry skipped")
            else:
                roots.append(builder.build(item, own))
    return roots


_SCHEMA_ORG = "https://schema.org/"
_SCHEMA_ORG_IRIS = ("https://schema.org/", "http://schema.org/")
_SCHEMA_ORG_NAMES = {"http://schema.org", "https://schema.org", "schema.org"}
_SCHEMA_ORG_CONTEXT = (_SCHEMA_ORG, {"schema": _SCHEMA_ORG}, "", {})


def _fold_context(context, start=_SCHEMA_ORG_CONTEXT,
                  ) -> tuple[str | None, dict, str | None, dict] | str:
    """The ``(vocab, terms, base, aliases)`` that an object's ``@context``
    folds into (JSON-LD 1.1 API §4.1), or why the object is skipped.

    The fold starts from ``start``: a ``@graph`` entry's from the top-level
    object's context, any other from schema.org's, to which ``null`` resets.
    A later entry wins.  The schema.org IRI, known by name, sets ``@vocab``
    and ``schema`` to schema.org; an object sets ``@vocab``, its terms (a
    string, ``{"@id": ...}``, or ``@id`` or ``@type`` for an alias) and
    ``@base``: a string resolved against the base before it, or null.
    A term is defined after the terms of its object that its value names
    (§4.2), and a cycle of them skips the object.
    """
    vocab, terms, base, _ = start
    for entry in context if isinstance(context, list) else [context]:
        if entry is None:
            vocab, terms, base, _ = _SCHEMA_ORG_CONTEXT
        elif isinstance(entry, str):
            if entry.rstrip("/") not in _SCHEMA_ORG_NAMES:
                return f"context {entry!r} is not a schema.org context"
            vocab, terms = _SCHEMA_ORG, {**terms, "schema": _SCHEMA_ORG}
        elif isinstance(entry, dict):
            vocab = entry.get("@vocab", vocab)
            vocab = vocab if isinstance(vocab, str) else None
            if "@base" in entry:
                value = entry["@base"]
                if value is not None and not isinstance(value, str):
                    return "unsupported @base form"
                base = (None if value is None
                        else resolve_url(value, base or "") or value)
            terms = dict(terms)
            # @vocab, @base above; other keywords unread.  A dict without
            # @id names the term's own IRI
            pending = {term: value.get("@id", term)
                       if isinstance(value, dict) else value
                       for term, value in entry.items()
                       if not term.startswith("@")}
            while pending:
                # terms to define, each named by the one before: an ordered
                # dict as a stack, so a chain needs no recursion
                chain = {next(iter(pending)): None}
                while chain:
                    term = next(reversed(chain))
                    named = _term_named(term, pending[term], pending)
                    if named in chain:
                        return f"cyclic definition of term {named!r}"
                    if named is not None:
                        chain[named] = None
                        continue
                    chain.popitem()
                    value = pending.pop(term)
                    terms.pop(term, None)
                    terms[term] = (value if value in ("@id", "@type")
                                   else _expand(value, vocab, terms)
                                   if isinstance(value, str)
                                   and not value.startswith("@") else None)
        else:
            return "unsupported @context form"
    return vocab, terms, base, {term: iri for term, iri in terms.items()
                                if iri in ("@id", "@type")}


def _term_named(term: str, value, pending: dict) -> str | None:
    """The term of ``pending`` other than ``term`` that ``value``, a term
    definition, names whole or as a compact IRI's prefix (§4.2), if any."""
    if not isinstance(value, str):
        return None
    prefix, colon, suffix = value.partition(":")
    for name in (value, prefix if colon and suffix[:2] != "//" else None):
        if name != term and name in pending:
            return name
    return None


def _expand(name: str, vocab: str | None, terms: dict) -> str | None:
    """The IRI of a type or property name in an active context (JSON-LD 1.1
    API §5.2, vocabulary-relative), or None when it has none."""
    if name in terms:
        return terms[name]
    prefix, colon, suffix = name.partition(":")
    if colon:  # a compact IRI, an absolute IRI or a blank node identifier
        iri = terms.get(prefix) or "@"  # a keyword alias is no prefix
        return name if iri[0] == "@" or suffix[:2] == "//" else iri + suffix
    return None if vocab is None else vocab + name
