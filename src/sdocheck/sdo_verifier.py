"""Vocabulary conformance checks over an annotation graph.

Eight check families, each keyed to a report code:

    E201 unknown type              E205 malformed literal
    E202 unknown property          E206 empty value
    E203 domain violation          E207 duplicated value
    E204 range violation           E208 semantic inconsistency

plus E209, an informational note for untyped nested entities whose own
properties cannot be checked.  Findings are data, never exceptions, and
carry their catalog severity; ``report.merge_reports`` applies ``--strict``.
"""

from __future__ import annotations

from .annotation import (AnnotationGraph, AnnotationNode, Entity, Literal,
                         PropertyValue, Reference, parse_temporal)
from .report import ReportEntry, make_entry
from .vocab import (DATATYPE_WIDENING, VocabularyGraph, property_applies_to,
                    strip_namespace)


def _first_literal(node: AnnotationNode, prop: str) -> Literal | None:
    for value in node.properties.get(prop, []):
        if isinstance(value, Literal):
            return value
    return None


def _check_event_dates(node: AnnotationNode) -> tuple[str, str] | None:
    start = _first_literal(node, "startDate")
    end = _first_literal(node, "endDate")
    if start is None or end is None or start.datatype != end.datatype:
        return None
    if start.datatype not in ("Date", "DateTime"):
        return None
    start_value = parse_temporal(start.raw, start.datatype)
    end_value = parse_temporal(end.raw, end.datatype)
    if (start.datatype == "DateTime"
            and (start_value.tzinfo is None) != (end_value.tzinfo is None)):
        return None  # mixed naive/zoned timestamps are not comparable
    if end_value < start_value:
        return "endDate", f"endDate {end.raw} precedes startDate {start.raw}"
    return None


def _check_value_order(node: AnnotationNode) -> tuple[str, str] | None:
    low = _first_literal(node, "minValue")
    high = _first_literal(node, "maxValue")
    if low is None or high is None:
        return None
    if low.datatype not in ("Integer", "Float") or high.datatype not in ("Integer", "Float"):
        return None
    from decimal import Decimal  # the one verify-path rule that reads it
    if Decimal(low.raw) > Decimal(high.raw):
        return "minValue", f"minValue {low.raw} exceeds maxValue {high.raw}"
    return None


# the semantic rules every run checks, in id order: (id, applicable type,
# check), where a check is side-effect free, total over nodes of (a subclass
# of) its type, and returns None when the node satisfies it, else the
# property at fault and a description
_RULES = (
    ("event-dates", "Event", _check_event_dates),
    ("value-order", "Thing", _check_value_order),
)


def value_fits_range(vocab: VocabularyGraph, value: PropertyValue,
                     range_name: str) -> bool:
    """Does ``value`` fit the range term ``range_name``?

    The one conformance rule of both checking layers.  A literal fits a
    datatype range that is Text, its own datatype or a numeric widening of
    it, and an enumeration range when its text is a member name or member
    IRI.  A reference fits the URL datatype, which names an IRI as it does,
    any other class range, and an enumeration range when its IRI names a
    member.  An entity fits a class range that is in
    the superclass closure of one of its known types.
    """
    if range_name not in vocab.classes:  # a datatype range
        if isinstance(value, Reference):
            return range_name == "URL"
        return isinstance(value, Literal) and (
            range_name in ("Text", value.datatype)
            or range_name in DATATYPE_WIDENING.get(value.datatype, ()))
    if isinstance(value, Entity):
        return any(range_name in vocab.classes.get(t, ())
                   for t in value.node.types)
    if not vocab.is_enumeration(range_name):
        return isinstance(value, Reference)
    term = value.raw if isinstance(value, Literal) else value.iri
    return range_name in vocab.member_enumerations.get(strip_namespace(term),
                                                       ())


def verify_schema_org(graph: AnnotationGraph,
                      vocab: VocabularyGraph) -> list[ReportEntry]:
    """Run all vocabulary conformance checks over every reachable node."""
    findings: list[ReportEntry] = []
    for node in graph.iter_nodes():
        _check_node(node, vocab, findings)
    return findings


def _check_node(node: AnnotationNode, vocab: VocabularyGraph,
                findings: list[ReportEntry]) -> None:
    known_types = []
    for t in node.types:
        if t not in vocab.classes:
            findings.append(make_entry(
                "E201", node.path, f"type {t!r} is not defined by the vocabulary"))
        else:
            known_types.append(t)

    if not node.types and node.properties:
        findings.append(make_entry(
            "E209", node.path,
            "entity has no type; domain and range checks were skipped"))
    if not node.properties:
        findings.append(make_entry(
            "E206", node.path, "entity has no properties"))

    for prop, values in node.properties.items():
        prop_path = f"{node.path}.{prop}"
        # no name is both a class and a property (vocab._check_integrity)
        prop_known = prop in vocab.properties
        if not prop_known:
            findings.append(make_entry(
                "E202", prop_path,
                f"property {prop!r} is not defined by the vocabulary"))
        elif known_types and not any(property_applies_to(vocab, prop, t)
                                     for t in known_types):
            findings.append(make_entry(
                "E203", prop_path,
                f"property {prop!r} does not apply to "
                f"{_type_list_text(node.types)}"))

        for value in values:
            _check_value(value, prop, prop_known, vocab, findings)
        _check_duplicates(prop, prop_path, values, findings)

    for rule_id, applicable_type, check in _RULES:
        if not any(applicable_type in vocab.classes[t] for t in known_types):
            continue
        violation = check(node)
        if violation is not None:
            prop, description = violation
            findings.append(make_entry(
                "E208", f"{node.path}.{prop}",
                f"rule {rule_id!r}: {description}"))


def _type_list_text(types: list[str]) -> str:
    return "type " + "/".join(types) if types else "an untyped node"


def _check_value(value: PropertyValue, prop: str, prop_known: bool,
                 vocab: VocabularyGraph, findings: list[ReportEntry]) -> None:
    if isinstance(value, Literal) and value.raw.strip() == "":
        findings.append(make_entry(
            "E206", value.path, f"value of {prop!r} is empty"))
        return
    if not prop_known:
        return
    ranges = vocab.properties[prop].range_includes
    if any(value_fits_range(vocab, value, r) for r in ranges):
        return
    any_class_range = any(r in vocab.classes for r in ranges)
    if isinstance(value, Reference) and any_class_range:
        return  # lenient: an external reference may denote any entity

    if isinstance(value, Literal):
        if value.datatype == "Text" and not any_class_range:
            findings.append(make_entry(
                "E205", value.path,
                f"value {_shorten(value.raw)!r} is plain text but {prop!r} "
                f"expects {_range_text(ranges)}"))
        else:
            findings.append(make_entry(
                "E204", value.path,
                f"value {_shorten(value.raw)!r} ({value.datatype}) does not "
                f"conform to {_range_text(ranges)}"))
    elif isinstance(value, Reference):
        findings.append(make_entry(
            "E204", value.path,
            f"reference {value.iri!r} where {prop!r} expects "
            f"{_range_text(ranges)}"))
    elif any(t in vocab.classes for t in value.node.types):
        findings.append(make_entry(
            "E204", value.path,
            f"entity of {_type_list_text(value.node.types)} does not "
            f"conform to {_range_text(ranges)}"))
    elif not value.node.types and not any_class_range:
        findings.append(make_entry(
            "E204", value.path,
            f"untyped entity where {prop!r} expects {_range_text(ranges)}"))
    # an entity whose declared types are all unknown: E201 is filed there


def _check_duplicates(prop: str, prop_path: str, values: list[PropertyValue],
                      findings: list[ReportEntry]) -> None:
    counts: dict[tuple, int] = {}
    labels: dict[tuple, str] = {}
    for value in values:
        if isinstance(value, Literal):
            key = ("lit", value.raw)
            labels[key] = value.raw
        elif isinstance(value, Reference):
            key = ("ref", value.iri)
            labels[key] = value.iri
        elif value.node.identifier is not None:
            key = ("ref", value.node.identifier)
            labels[key] = value.node.identifier
        else:
            key = ("ent", id(value.node))
            labels[key] = "<anonymous entity>"
        counts[key] = counts.get(key, 0) + 1
    for key, count in counts.items():
        if count > 1:
            findings.append(make_entry(
                "E207", prop_path,
                f"value {_shorten(labels[key])!r} occurs {count} times "
                f"under {prop!r}"))


def _range_text(ranges) -> str:
    return "range {" + ", ".join(sorted(ranges)) + "}"


def _shorten(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[:limit - 3] + "..."
