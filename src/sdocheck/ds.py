"""Domain Specifications: recursive constraint trees over annotation graphs.

A document (JSON) mirrors the node structure directly:

    {
      "name": "event",
      "dsVersion": "1.0",
      "root": {
        "targetTypes": ["Event"],
        "properties": [
          {"name": "name", "ranges": ["Text"]},
          {"name": "startDate", "ranges": ["Date", "DateTime"]},
          {"name": "location", "isOptional": true,
           "multipleValuesAllowed": true,
           "ranges": ["Text", {"type": "Place", "node": {
               "targetTypes": ["Place"],
               "properties": [{"name": "name", "ranges": ["Text"]}]}}]}
        ]
      }
    }

Range entries are either a bare term name (datatype, enumeration or class)
or an object ``{"type": <class>, "node": <nested type node>}``; a value fits
one as ``sdo_verifier.value_fits_range`` decides.  ``isOptional`` and
``multipleValuesAllowed`` default to false: a constraint document tightens,
silence must not loosen.
Properties the document does not mention are permitted silently.

Loaded documents are immutable; verification is pure and safe to run
concurrently against one document.
"""

from __future__ import annotations

from typing import NamedTuple

from .annotation import AnnotationGraph, AnnotationNode, Entity
from .report import ReportEntry, make_entry
from .sdo_verifier import value_fits_range
from .vocab import VocabularyGraph, read_json, strip_namespace


class DsParseError(ValueError):
    """The document is not syntactically a domain specification."""


class DsIntegrityError(ValueError):
    """The document names unknown terms or breaks structural rules."""


class RangeNode(NamedTuple):
    """A range term (datatype, enumeration or class), with the nested type
    node of the object form."""
    name: str
    node: "TypeNode | None" = None


class PropertyNode(NamedTuple):
    name: str
    is_optional: bool
    multiple_values_allowed: bool
    ranges: tuple[RangeNode, ...]


class TypeNode(NamedTuple):
    target_types: tuple[str, ...]
    properties: tuple[PropertyNode, ...]


class DomainSpecification(NamedTuple):
    name: str
    root: TypeNode


def load_domain_specification(data: bytes,
                              vocab: VocabularyGraph) -> DomainSpecification:
    """Parse and validate a document; defaults are materialized on load."""
    raw = read_json(data, DsParseError, "document")
    if not isinstance(raw, dict):
        raise DsParseError("document must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise DsParseError("document needs a non-empty 'name'")
    if not isinstance(raw.get("dsVersion", ""), str):
        raise DsParseError("'dsVersion' must be a string")
    if not isinstance(raw.get("root"), dict):
        raise DsParseError("document needs a 'root' type node")
    root = _load_type_node(raw["root"], vocab, where="root")
    return DomainSpecification(name=name, root=root)


def _load_type_node(raw: dict, vocab: VocabularyGraph, where: str) -> TypeNode:
    targets = raw.get("targetTypes")
    if not isinstance(targets, list) or not targets:
        raise DsParseError(f"{where}: 'targetTypes' must be a non-empty list")
    target_types = []
    for t in targets:
        name = strip_namespace(str(t))
        if name not in vocab.classes:
            raise DsIntegrityError(f"{where}: unknown target type {name!r}")
        target_types.append(name)

    raw_properties = raw.get("properties", [])
    if not isinstance(raw_properties, list):
        raise DsParseError(f"{where}: 'properties' must be a list")
    properties = []
    seen: set[str] = set()
    for raw_prop in raw_properties:
        if not isinstance(raw_prop, dict):
            raise DsParseError(f"{where}: property entries must be objects")
        prop = _load_property_node(raw_prop, vocab, where)
        if prop.name in seen:
            raise DsIntegrityError(
                f"{where}: property {prop.name!r} listed twice")
        seen.add(prop.name)
        properties.append(prop)
    return TypeNode(target_types=tuple(target_types),
                    properties=tuple(properties))


def _load_property_node(raw: dict, vocab: VocabularyGraph,
                        where: str) -> PropertyNode:
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise DsParseError(f"{where}: property entry without a name")
    name = strip_namespace(name)
    if name not in vocab.properties:
        raise DsIntegrityError(f"{where}: unknown property {name!r}")
    here = f"{where}.{name}"
    is_optional = raw.get("isOptional", False)
    multiple = raw.get("multipleValuesAllowed", False)
    if not isinstance(is_optional, bool) or not isinstance(multiple, bool):
        raise DsParseError(f"{here}: constraint keywords must be booleans")
    raw_ranges = raw.get("ranges")
    if not isinstance(raw_ranges, list) or not raw_ranges:
        raise DsIntegrityError(f"{here}: 'ranges' must be a non-empty list")
    ranges = tuple(_load_range_node(r, vocab, here) for r in raw_ranges)
    return PropertyNode(name=name, is_optional=is_optional,
                        multiple_values_allowed=multiple, ranges=ranges)


def _load_range_node(raw, vocab: VocabularyGraph, where: str) -> RangeNode:
    if isinstance(raw, str):
        name = strip_namespace(raw)
        if name not in vocab.datatypes and name not in vocab.classes:
            raise DsIntegrityError(f"{where}: unknown range term {name!r}")
        return RangeNode(name)
    if isinstance(raw, dict):
        class_name = raw.get("type")
        if not isinstance(class_name, str):
            raise DsParseError(f"{where}: range object needs a 'type' name")
        class_name = strip_namespace(class_name)
        if class_name not in vocab.classes:
            raise DsIntegrityError(f"{where}: unknown range type {class_name!r}")
        nested = None
        if raw.get("node") is not None:
            if not isinstance(raw["node"], dict):
                raise DsParseError(f"{where}: nested 'node' must be an object")
            nested = _load_type_node(raw["node"], vocab,
                                     where=f"{where}<{class_name}>")
            for target in nested.target_types:
                if class_name not in vocab.classes[target]:
                    raise DsIntegrityError(
                        f"{where}: nested target {target!r} is not a subclass "
                        f"of {class_name!r}")
        return RangeNode(class_name, nested)
    raise DsParseError(f"{where}: range entries must be names or objects")


# ---------------------------------------------------------------------------
# verification


def match_target(ds: DomainSpecification, graph: AnnotationGraph,
                 vocab: VocabularyGraph) -> list[int]:
    """Indices of roots whose type matches (or specializes) a target type."""
    targets = ds.root.target_types
    return [i for i, root in enumerate(graph.roots)
            if any(target in vocab.classes.get(t, ())
                   for t in root.types for target in targets)]


# a (node, type node) pair, by identity: the key of the findings memo
_Pair = tuple[int, int]
# a finding, with the pair whose findings explain it when it is an E305
_Failure = tuple[ReportEntry, _Pair | None]


def verify_against_ds(graph: AnnotationGraph, ds: DomainSpecification,
                      vocab: VocabularyGraph) -> list[ReportEntry] | None:
    """Check every matching root against the constraint tree; None when no
    root is of a target type.

    Codes: E302 missing mandatory property, E303 cardinality, E304 value
    fits no declared range, E305 a value class-matches a nested type node
    but breaks its constraints.  Each (node, type node) pair is checked
    once, and a pair's nested findings follow the first E305 that the
    report keeps, at their own paths.  E301 is about a whole input, so the
    pipeline makes it once no block of the input matches.
    """
    matching = match_target(ds, graph, vocab)
    if not matching:
        return None
    findings: list[ReportEntry] = []
    memo: dict[_Pair, list[_Failure]] = {}
    reported: set[_Pair] = set()
    for index in matching:
        root = graph.roots[index]
        _failures(root, ds.root, vocab, memo)
        _report((id(root), id(ds.root)), memo, reported, findings)
    return findings


def _failures(node: AnnotationNode, tnode: TypeNode, vocab: VocabularyGraph,
              memo: dict[_Pair, list[_Failure]]) -> list[_Failure]:
    """The pair's own findings in property order, computed once per pair."""
    key = (id(node), id(tnode))
    if key in memo:
        return memo[key]
    memo[key] = []  # in progress: an identifier cycle counts as compliant
    failures: list[_Failure] = []
    for pnode in tnode.properties:
        values = node.properties.get(pnode.name, [])
        prop_path = f"{node.path}.{pnode.name}"
        if not values:
            if not pnode.is_optional:
                failures.append((make_entry(
                    "E302", prop_path,
                    f"mandatory property {pnode.name!r} is missing"), None))
            continue
        if len(values) > 1 and not pnode.multiple_values_allowed:
            failures.append((make_entry(
                "E303", prop_path,
                f"{len(values)} values of {pnode.name!r} where only one "
                "is allowed"), None))
        for value in values:
            broken = None  # the first range whose nested node it breaks
            for range_node in pnode.ranges:
                if not value_fits_range(vocab, value, range_node.name):
                    continue
                if range_node.node is None or not isinstance(value, Entity):
                    break
                if not _failures(value.node, range_node.node, vocab, memo):
                    break
                if broken is None:
                    broken = range_node
            else:
                if broken is None:
                    names = ", ".join(r.name for r in pnode.ranges)
                    failures.append((make_entry(
                        "E304", value.path,
                        f"value conforms to no declared range of "
                        f"{pnode.name!r} ({names})"), None))
                else:
                    failures.append((make_entry(
                        "E305", value.path,
                        f"value matches type {broken.name!r} but fails its "
                        "nested constraints"),
                        (id(value.node), id(broken.node))))
    memo[key] = failures
    return failures


def _report(key: _Pair, memo: dict[_Pair, list[_Failure]],
            reported: set[_Pair], out: list[ReportEntry]) -> None:
    """Append the pair's findings, each E305 followed by its nested pair's;
    a pair already reported adds nothing."""
    if key in reported:
        return
    reported.add(key)
    for entry, nested in memo[key]:
        out.append(entry)
        if nested is not None:
            _report(nested, memo, reported, out)
