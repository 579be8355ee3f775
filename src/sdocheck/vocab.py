"""Pinned schema.org vocabulary: loading, term lookup, subclass and
domain/range queries.

The vocabulary is vendored as a JSON dump in the publisher's graph-of-terms
shape: a top-level object with a ``@graph`` array of term objects carrying
``@id``, ``@type`` (``rdfs:Class`` / ``rdf:Property``), ``rdfs:subClassOf``,
``schema:domainIncludes`` and ``schema:rangeIncludes``.  Term names are
stored bare, without namespace prefix.

A loaded graph keeps one class table: each class name maps to its
superclass closure, the class itself included, so every subclass question
is a lookup in it.  The declared superclasses are read only while loading.

The terms of a loaded :class:`VocabularyGraph` never change.  Each graph
memoizes whether a property applies to a type in a table of its own, keyed
on the two vocabulary terms, so the memo's size depends on the vocabulary,
not on the input checked against it.  Graphs share no memo; any run computes
the same answer, so sharing a graph across concurrent runs stays safe.

``read_json`` is the one JSON reader of every input: annotation blocks,
vocabulary dumps, Domain Specifications and validation configs.  It lives
here, in the lowest module that all of their loaders import.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import NamedTuple

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

#: The deepest nesting of arrays and objects that a JSON input may have.  It
#: is fixed, so whether an input parses does not depend on how deep in the
#: call stack the decoder runs, and it is far enough below the interpreter's
#: recursion limit that the decoder reaches it from any caller.
MAX_DEPTH = 500


class ParseError(ValueError):
    """The vocabulary source is not a well-formed term dump."""


class IntegrityError(ValueError):
    """The term dump is structurally broken (dangling reference, cycle)."""


def strip_namespace(name: str) -> str:
    """Strip any schema.org namespace prefix; other names pass through."""
    if ":" not in name:  # every prefix holds a colon
        return name
    for prefix in _NAMESPACE_PREFIXES:
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


class PropertyDef(NamedTuple):
    domain_includes: frozenset[str]
    range_includes: frozenset[str]


class VocabularyGraph:
    """The terms of one vocabulary dump.  ``classes`` is the one class
    table: a class's name -> its superclass closure, the class included.
    ``member_enumerations`` is the one member table: a member's name -> the
    enumeration classes it is of."""

    __slots__ = ("classes", "properties", "member_enumerations", "datatypes",
                 "snapshot_id", "_applies")

    def __init__(self, classes: dict[str, frozenset[str]],
                 properties: dict[str, PropertyDef],
                 member_enumerations: dict[str, frozenset[str]],
                 datatypes: frozenset[str], snapshot_id: str):
        self.classes = classes
        self.properties = properties
        self.member_enumerations = member_enumerations
        self.datatypes = datatypes
        self.snapshot_id = snapshot_id
        # (property, type) -> whether the property applies to the type,
        # filled as property_applies_to answers
        self._applies: dict[tuple[str, str], bool] = {}

    def is_enumeration(self, class_name: str) -> bool:
        return "Enumeration" in self.classes[class_name]


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


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number (RFC 8259 section 6)")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} does not fit a float")
    return value


def _nests_too_deeply(value) -> bool:
    """Whether ``value`` holds arrays and objects more than ``MAX_DEPTH``
    deep; a walk level by level, so no recursion."""
    level = [value] if isinstance(value, (dict, list)) else []
    for _ in range(MAX_DEPTH):
        level = [child for item in level
                 for child in (item.values() if isinstance(item, dict)
                               else item)
                 if isinstance(child, (dict, list))]
        if not level:
            return False
    return True


def read_json(data: bytes | str, error: type[ValueError], what: str):
    """The JSON value of one input: an annotation block's text or the bytes
    of a vocabulary dump, Domain Specification or validation config.

    Every input follows RFC 8259: bytes are UTF-8, after an optional byte
    order mark, and ``NaN``, the infinities and a number too large for a
    float are not numbers.  No input nests arrays and objects more than
    ``MAX_DEPTH`` deep.  Any failure raises
    ``error(f"{what} does not parse: ...")``.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8-sig")
        value = json.loads(data, parse_constant=_reject_constant,
                           parse_float=_finite_float)
    except ValueError as exc:
        # bad UTF-8, syntax errors, non-finite numbers and the int-string
        # digit limit
        raise error(f"{what} does not parse: {exc}") from exc
    except RecursionError:
        pass  # only a value deeper than MAX_DEPTH runs out of stack
    else:
        # fewer containers than the limit cannot nest past it
        if (data.count("[") + data.count("{") <= MAX_DEPTH
                or not _nests_too_deeply(value)):
            return value
    raise error(f"{what} does not parse: it nests deeper than {MAX_DEPTH} "
                "levels")


def load_vocabulary(data: bytes) -> VocabularyGraph:
    """Load a vocabulary dump and build the query graph.

    Raises ParseError on malformed input and IntegrityError on dangling
    references, cyclic subclass chains, root classes other than Thing, or
    properties lacking domain/range declarations.
    """
    snapshot_id = "sha256:" + hashlib.sha256(data).hexdigest()[:16]
    doc = read_json(data, ParseError, "vocabulary dump")
    if not isinstance(doc, dict) or not isinstance(doc.get("@graph"), list):
        raise ParseError("vocabulary dump must be an object with a '@graph' array")

    # class name -> its declared superclasses, read only while loading
    supers: dict[str, frozenset[str]] = {}
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
            declared = frozenset(strip_namespace(s) for s
                                 in _as_id_list(term.get("rdfs:subClassOf")))
            if name in declared:
                raise IntegrityError(f"class {name!r} lists itself as superclass")
            supers[name] = declared
        elif "rdf:Property" in types:
            domains = frozenset(strip_namespace(s)
                                for s in _as_id_list(term.get("schema:domainIncludes")))
            ranges = frozenset(strip_namespace(s)
                               for s in _as_id_list(term.get("schema:rangeIncludes")))
            properties[name] = PropertyDef(domain_includes=domains,
                                           range_includes=ranges)
        elif types:
            # instance of an enumeration class: an enumeration member
            member_decls.append((name, [strip_namespace(t) for t in types]))
        else:
            raise ParseError(f"term {name!r} carries no recognized '@type'")

    members = _link_members(supers, member_decls)
    _check_integrity(supers, properties, datatypes)
    return VocabularyGraph(classes=_closure(supers), properties=properties,
                           member_enumerations=members,
                           datatypes=frozenset(datatypes),
                           snapshot_id=snapshot_id)


def load_default_vocabulary() -> VocabularyGraph:
    """Load the snapshot vendored with the package."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        DEFAULT_SNAPSHOT_RESOURCE)
    with open(path, "rb") as handle:
        return load_vocabulary(handle.read())


def _link_members(supers: dict[str, frozenset[str]],
                  decls: list[tuple[str, list[str]]]) -> dict[str, frozenset[str]]:
    index: dict[str, set[str]] = {}
    for member, enum_classes in decls:
        for enum_class in enum_classes:
            if enum_class not in supers:
                raise IntegrityError(
                    f"enumeration member {member!r} declares unknown class "
                    f"{enum_class!r}")
            index.setdefault(member, set()).add(enum_class)
    return {k: frozenset(v) for k, v in index.items()}


def _check_integrity(supers: dict[str, frozenset[str]],
                     properties: dict[str, PropertyDef],
                     datatypes: set[str]) -> None:
    resolvable = set(supers) | datatypes

    overlap = (set(supers) & set(properties)) | (set(supers) & datatypes) \
        | (set(properties) & datatypes)
    if overlap:
        raise IntegrityError(f"names with conflicting roles: {sorted(overlap)}")

    for name, declared in supers.items():
        for sup in declared:
            if sup not in resolvable:
                raise IntegrityError(
                    f"class {name!r} references unknown superclass {sup!r}")
        if not declared and name != "Thing":
            raise IntegrityError(f"class {name!r} has no superclass")

    for name, prop in properties.items():
        if not prop.domain_includes or not prop.range_includes:
            raise IntegrityError(
                f"property {name!r} lacks domain or range declarations")
        for d in prop.domain_includes:
            if d not in supers:
                raise IntegrityError(
                    f"property {name!r} names unknown domain {d!r}")
        for r in prop.range_includes:
            if r not in resolvable:
                raise IntegrityError(
                    f"property {name!r} names unknown range {r!r}")


def _closure(supers: dict[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    """The class table: each class -> its reflexive-transitive superclass
    closure."""
    closure: dict[str, frozenset[str]] = {}
    for start in supers:
        # a subclass chain, child first, whose closures are still open
        trail = [] if start in closure else [start]
        while trail:
            name = trail[-1]
            pending = next((sup for sup in supers[name] if sup in supers
                            and sup not in closure), None)
            if pending is None:
                # a datatype superclass is a leaf for the closure
                closure[name] = frozenset({name}.union(
                    *(closure.get(sup, {sup}) for sup in supers[name])))
                trail.pop()
            elif pending in trail:
                cycle = " -> ".join(trail + [pending])
                raise IntegrityError(f"cyclic subclass chain: {cycle}")
            else:
                trail.append(pending)
    return closure


def property_applies_to(vocab: VocabularyGraph, property_name: str,
                        type_name: str) -> bool:
    """True iff the property's expected domains cover the given type."""
    applies = vocab._applies.get((property_name, type_name))
    if applies is None:
        applies = any(d in vocab.classes[type_name] for d
                      in vocab.properties[property_name].domain_includes)
        vocab._applies[(property_name, type_name)] = applies
    return applies
