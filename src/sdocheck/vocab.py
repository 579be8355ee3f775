"""Pinned schema.org vocabulary: loading, term lookup, subclass and
domain/range queries.

The vocabulary is vendored as a JSON dump in the publisher's graph-of-terms
shape: a top-level object with a ``@graph`` array of term objects carrying
``@id``, ``@type`` (``rdfs:Class`` / ``rdf:Property``), ``rdfs:subClassOf``,
``schema:domainIncludes`` and ``schema:rangeIncludes``.  Term names are
stored bare, without namespace prefix.

A loaded :class:`VocabularyGraph` is immutable and safe to share across
concurrent verification runs.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from typing import BinaryIO, NamedTuple

DEFAULT_SNAPSHOT_RESOURCE = "schemaorg.jsonld"

#: The literal datatypes of the vocabulary.  These are kept apart from the
#: class hierarchy even though the dump declares them as classes.
DATATYPE_NAMES = frozenset({
    "Text", "URL", "Number", "Integer", "Float", "Boolean",
    "Date", "DateTime", "Time", "Duration",
})

#: value datatype -> datatypes it may be widened to.  Numeric widening is
#: lossless; Date/DateTime are deliberately not interchangeable.
DATATYPE_WIDENING = {
    "Integer": frozenset({"Number", "Float"}),
    "Float": frozenset({"Number"}),
}

_NAMESPACE_PREFIXES = ("http://schema.org/", "https://schema.org/", "schema:")


class ParseError(Exception):
    """The vocabulary source is not a well-formed term dump."""


class IntegrityError(Exception):
    """The term dump is structurally broken (dangling reference, cycle)."""


class UnknownTerm(Exception):
    """A query named a term the vocabulary does not define."""


class TermKind(enum.Enum):
    CLASS = "Class"
    PROPERTY = "Property"
    ENUMERATION = "Enumeration"
    ENUMERATION_MEMBER = "EnumerationMember"
    DATATYPE = "Datatype"
    UNKNOWN = "Unknown"


def strip_namespace(name: str) -> str:
    """Strip any schema.org namespace prefix; other names pass through."""
    for prefix in _NAMESPACE_PREFIXES:
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


class ClassDef(NamedTuple):
    name: str
    sub_class_of: frozenset[str]
    is_enumeration: bool = False


class PropertyDef(NamedTuple):
    name: str
    domain_includes: frozenset[str]
    range_includes: frozenset[str]


class VocabularyGraph:
    __slots__ = ("classes", "properties", "enumeration_members", "datatypes",
                 "snapshot_id", "_ancestors", "_member_index")

    def __init__(self, classes: dict[str, ClassDef],
                 properties: dict[str, PropertyDef],
                 enumeration_members: dict[str, frozenset[str]],
                 datatypes: frozenset[str], snapshot_id: str):
        self.classes = classes
        self.properties = properties
        self.enumeration_members = enumeration_members
        self.datatypes = datatypes
        self.snapshot_id = snapshot_id
        # reflexive-transitive superclass closure, precomputed at load time
        self._ancestors: dict[str, frozenset[str]] = {}
        # member name -> enumeration classes it belongs to
        self._member_index: dict[str, frozenset[str]] = {}

    def ancestors(self, class_name: str) -> frozenset[str]:
        return self._ancestors[class_name]

    def enumerations_of_member(self, member_name: str) -> frozenset[str]:
        return self._member_index.get(member_name, frozenset())


def _as_id_list(value) -> list[str]:
    """Normalize a subClassOf/domainIncludes/rangeIncludes value to id strings."""
    if value is None:
        return []
    items = value if isinstance(value, list) else [value]
    out = []
    for item in items:
        if isinstance(item, dict) and "@id" in item:
            out.append(str(item["@id"]))
        elif isinstance(item, str):
            out.append(item)
        else:
            raise ParseError(f"unsupported reference value: {item!r}")
    return out


def _type_list(term: dict) -> list[str]:
    value = term.get("@type")
    if value is None:
        return []
    return [str(t) for t in (value if isinstance(value, list) else [value])]


def load_vocabulary(source: bytes | BinaryIO) -> VocabularyGraph:
    """Load a vocabulary dump and build the query graph.

    Raises ParseError on malformed input and IntegrityError on dangling
    references, cyclic subclass chains, root classes other than Thing, or
    properties lacking domain/range declarations.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if not isinstance(data, (bytes, bytearray)):
        raise ParseError("vocabulary source must be a byte stream")

    snapshot_id = "sha256:" + hashlib.sha256(data).hexdigest()[:16]
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"vocabulary dump does not parse: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("@graph"), list):
        raise ParseError("vocabulary dump must be an object with a '@graph' array")

    classes: dict[str, ClassDef] = {}
    properties: dict[str, PropertyDef] = {}
    datatypes: set[str] = set()
    member_decls: list[tuple[str, list[str]]] = []

    for term in doc["@graph"]:
        if not isinstance(term, dict) or "@id" not in term:
            raise ParseError(f"term without '@id': {term!r}")
        name = strip_namespace(str(term["@id"]))
        types = _type_list(term)
        if name in DATATYPE_NAMES:
            datatypes.add(name)
        elif "rdfs:Class" in types:
            supers = frozenset(strip_namespace(s)
                               for s in _as_id_list(term.get("rdfs:subClassOf")))
            if name in supers:
                raise IntegrityError(f"class {name!r} lists itself as superclass")
            classes[name] = ClassDef(name=name, sub_class_of=supers)
        elif "rdf:Property" in types:
            domains = frozenset(strip_namespace(s)
                                for s in _as_id_list(term.get("schema:domainIncludes")))
            ranges = frozenset(strip_namespace(s)
                               for s in _as_id_list(term.get("schema:rangeIncludes")))
            properties[name] = PropertyDef(name=name, domain_includes=domains,
                                           range_includes=ranges)
        elif types:
            # instance of an enumeration class: an enumeration member
            member_decls.append((name, [strip_namespace(t) for t in types]))
        else:
            raise ParseError(f"term {name!r} carries no recognized '@type'")

    graph = VocabularyGraph(classes=classes, properties=properties,
                            enumeration_members={}, datatypes=frozenset(datatypes),
                            snapshot_id=snapshot_id)
    _link_members(graph, member_decls)
    _check_integrity(graph)
    _compute_closure(graph)
    _mark_enumerations(graph)
    return graph


def load_default_vocabulary() -> VocabularyGraph:
    """Load the snapshot vendored with the package."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        DEFAULT_SNAPSHOT_RESOURCE)
    with open(path, "rb") as handle:
        return load_vocabulary(handle.read())


def _link_members(graph: VocabularyGraph, decls: list[tuple[str, list[str]]]) -> None:
    members: dict[str, set[str]] = {}
    index: dict[str, set[str]] = {}
    for member, enum_classes in decls:
        for enum_class in enum_classes:
            if enum_class not in graph.classes:
                raise IntegrityError(
                    f"enumeration member {member!r} declares unknown class "
                    f"{enum_class!r}")
            members.setdefault(enum_class, set()).add(member)
            index.setdefault(member, set()).add(enum_class)
    graph.enumeration_members = {k: frozenset(v) for k, v in members.items()}
    graph._member_index = {k: frozenset(v) for k, v in index.items()}


def _check_integrity(graph: VocabularyGraph) -> None:
    resolvable = set(graph.classes) | graph.datatypes

    overlap = (set(graph.classes) & set(graph.properties)) \
        | (set(graph.classes) & graph.datatypes) \
        | (set(graph.properties) & graph.datatypes)
    if overlap:
        raise IntegrityError(f"names with conflicting roles: {sorted(overlap)}")

    for cls in graph.classes.values():
        for sup in cls.sub_class_of:
            if sup not in resolvable:
                raise IntegrityError(
                    f"class {cls.name!r} references unknown superclass {sup!r}")
        if not cls.sub_class_of and cls.name != "Thing":
            raise IntegrityError(f"class {cls.name!r} has no superclass")

    for prop in graph.properties.values():
        if not prop.domain_includes or not prop.range_includes:
            raise IntegrityError(
                f"property {prop.name!r} lacks domain or range declarations")
        for d in prop.domain_includes:
            if d not in graph.classes:
                raise IntegrityError(
                    f"property {prop.name!r} names unknown domain {d!r}")
        for r in prop.range_includes:
            if r not in resolvable:
                raise IntegrityError(
                    f"property {prop.name!r} names unknown range {r!r}")


def _compute_closure(graph: VocabularyGraph) -> None:
    ancestors: dict[str, frozenset[str]] = {}
    for start in graph.classes:
        # a subclass chain, child first, whose closures are still open
        trail = [] if start in ancestors else [start]
        while trail:
            name = trail[-1]
            supers = graph.classes[name].sub_class_of
            pending = next((sup for sup in supers if sup in graph.classes
                            and sup not in ancestors), None)
            if pending is None:
                # a datatype superclass is a leaf for the closure
                ancestors[name] = frozenset({name}.union(
                    *(ancestors.get(sup, {sup}) for sup in supers)))
                trail.pop()
            elif pending in trail:
                cycle = " -> ".join(trail + [pending])
                raise IntegrityError(f"cyclic subclass chain: {cycle}")
            else:
                trail.append(pending)
    graph._ancestors = ancestors


def _mark_enumerations(graph: VocabularyGraph) -> None:
    for name, cls in list(graph.classes.items()):
        if "Enumeration" in graph._ancestors[name]:
            graph.classes[name] = cls._replace(is_enumeration=True)


def lookup_term(vocab: VocabularyGraph, name: str) -> TermKind:
    """Classify a bare term name; names are case-sensitive."""
    if name in vocab.classes:
        if vocab.classes[name].is_enumeration:
            return TermKind.ENUMERATION
        return TermKind.CLASS
    if name in vocab.properties:
        return TermKind.PROPERTY
    if name in vocab.datatypes:
        return TermKind.DATATYPE
    if name in vocab._member_index:
        return TermKind.ENUMERATION_MEMBER
    return TermKind.UNKNOWN


def is_subclass_of(vocab: VocabularyGraph, sub: str, super_: str) -> bool:
    """Reflexive-transitive subclass test over the class hierarchy."""
    if sub not in vocab.classes:
        raise UnknownTerm(f"not a class: {sub!r}")
    if super_ not in vocab.classes:
        raise UnknownTerm(f"not a class: {super_!r}")
    return super_ in vocab._ancestors[sub]


def property_applies_to(vocab: VocabularyGraph, property_name: str,
                        type_name: str) -> bool:
    """True iff the property's expected domains cover the given type."""
    prop = vocab.properties.get(property_name)
    if prop is None:
        raise UnknownTerm(f"not a property: {property_name!r}")
    if type_name not in vocab.classes:
        raise UnknownTerm(f"not a class: {type_name!r}")
    return any(d in vocab._ancestors[type_name] for d in prop.domain_includes)

