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

import json
from typing import BinaryIO, NamedTuple

from .annotation import AnnotationGraph, AnnotationNode, Entity, PropertyValue
from .report import ReportEntry, make_entry
from .sdo_verifier import value_fits_range
from .vocab import VocabularyGraph, is_subclass_of, strip_namespace


class DsParseError(Exception):
    """The document is not syntactically a domain specification."""


class DsIntegrityError(Exception):
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
    ds_version: str
    root: TypeNode


def load_domain_specification(source: bytes | str | dict | BinaryIO,
                              vocab: VocabularyGraph) -> DomainSpecification:
    """Parse and validate a document; defaults are materialized on load."""
    raw = _read_document(source)
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise DsParseError("document needs a non-empty 'name'")
    version = raw.get("dsVersion", "1.0")
    if not isinstance(version, str):
        raise DsParseError("'dsVersion' must be a string")
    if not isinstance(raw.get("root"), dict):
        raise DsParseError("document needs a 'root' type node")
    root = _load_type_node(raw["root"], vocab, where="root")
    return DomainSpecification(name=name, ds_version=version, root=root)


def _read_document(source) -> dict:
    if isinstance(source, dict):
        return source
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8", errors="replace")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise DsParseError(f"document does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise DsParseError("document must be a JSON object")
    return doc


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
                if not is_subclass_of(vocab, target, class_name):
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
    out = []
    for i, root in enumerate(graph.roots):
        if _node_matches_targets(root, ds.root.target_types, vocab):
            out.append(i)
    return out


def _node_matches_targets(node: AnnotationNode, targets: tuple[str, ...],
                          vocab: VocabularyGraph) -> bool:
    class_types = [t for t in node.types if t in vocab.classes]
    return any(is_subclass_of(vocab, t, target)
               for t in class_types for target in targets)


def verify_against_ds(graph: AnnotationGraph, ds: DomainSpecification,
                      vocab: VocabularyGraph) -> list[ReportEntry]:
    """Check every matching root against the constraint tree.

    Codes: E301 no root matches at all, E302 missing mandatory property,
    E303 cardinality, E304 value fits no declared range, E305 a value
    class-matches a nested type node but breaks its constraints (the nested
    findings follow at their own paths).
    """
    matching = match_target(ds, graph, vocab)
    if not matching:
        targets = ", ".join(ds.root.target_types)
        return [make_entry("E301", "$",
                           f"no annotation root is of target type {targets}")]
    findings: list[ReportEntry] = []
    memo: dict[tuple[int, int], str] = {}
    for index in matching:
        findings.extend(_check_type_node(graph.roots[index], ds.root,
                                         vocab, memo))
    findings.sort(key=lambda e: (e.path, e.code))
    return findings


def _check_type_node(node: AnnotationNode, tnode: TypeNode,
                     vocab: VocabularyGraph,
                     memo: dict[tuple[int, int], str]) -> list[ReportEntry]:
    # memo states: "in-progress" breaks identifier cycles (assume compliant);
    # "pass"/"fail" stop a shared node from being re-checked and re-reported
    key = (id(node), id(tnode))
    if key in memo:
        return []
    memo[key] = "in-progress"
    findings: list[ReportEntry] = []
    for pnode in tnode.properties:
        values = node.properties.get(pnode.name, [])
        prop_path = node.path.child(pnode.name).render()
        if not values:
            if not pnode.is_optional:
                findings.append(make_entry(
                    "E302", prop_path,
                    f"mandatory property {pnode.name!r} is missing"))
            continue
        if len(values) > 1 and not pnode.multiple_values_allowed:
            findings.append(make_entry(
                "E303", prop_path,
                f"{len(values)} values of {pnode.name!r} where only one "
                "is allowed"))
        for value in values:
            clean, nested_failure = _match_ranges(value, pnode.ranges,
                                                  vocab, memo)
            value_path = value.path.render()
            if clean:
                continue
            if nested_failure is None:
                findings.append(make_entry(
                    "E304", value_path,
                    f"value conforms to no declared range of {pnode.name!r} "
                    f"({_range_names(pnode.ranges)})"))
            else:
                class_name, nested_findings = nested_failure
                findings.append(make_entry(
                    "E305", value_path,
                    f"value matches type {class_name!r} but fails its nested "
                    f"constraints"))
                findings.extend(nested_findings)
    memo[key] = "fail" if findings else "pass"
    return findings


def _range_names(ranges: tuple[RangeNode, ...]) -> str:
    return ", ".join(r.name for r in ranges)


def _match_ranges(value: PropertyValue, ranges: tuple[RangeNode, ...],
                  vocab: VocabularyGraph, memo: dict[tuple[int, int], str],
                  ) -> tuple[bool, tuple[str, list[ReportEntry]] | None]:
    """(cleanly matched, first nested failure) over the declared ranges."""
    nested_failure: tuple[str, list[ReportEntry]] | None = None
    for range_node in ranges:
        outcome = _match_one_range(value, range_node, vocab, memo)
        if outcome == "clean":
            return True, None
        if isinstance(outcome, list) and nested_failure is None:
            nested_failure = (range_node.name, outcome)
    return False, nested_failure


def _match_one_range(value: PropertyValue, range_node: RangeNode,
                     vocab: VocabularyGraph, memo: dict[tuple[int, int], str]):
    """Returns "clean", "no", or the nested findings list on a class match
    that breaks its nested type node."""
    if not value_fits_range(vocab, value, range_node.name):
        return "no"
    if range_node.node is None or not isinstance(value, Entity):
        return "clean"
    nested = _check_type_node(value.node, range_node.node, vocab, memo)
    if nested:
        return nested
    if memo.get((id(value.node), id(range_node.node))) == "fail":
        return []  # shared node: findings already reported once, still a failure
    return "clean"
