"""Randomized builders used by the property and acceptance tests.

Two families:

* ``random_compliant_annotation`` draws only snapshot terms, respects
  domain/range declarations, keeps values non-empty and distinct and the
  property pairs of every semantic rule (``sdo_verifier._RULES``) in
  order.  Such annotations must verify cleanly.

* ``random_ds_with_annotation`` builds a constraint document and an
  annotation synthesized from it in one pass, recording where mandatory and
  single-valued properties ended up so tests can knock one out and predict
  the exact finding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, timedelta

from sdocheck.sdo_verifier import _NUMBERS, _RULES
from sdocheck.vocab import VocabularyGraph, property_applies_to

_THING_PROPS_LIMIT = 4


def _literal_for(datatype: str, n: int) -> str:
    if datatype == "Text":
        return f"sample text {n}"
    if datatype == "URL":
        return f"https://example.com/res/{n}"
    if datatype == "Integer":
        return str(10 + n)
    if datatype == "Number":
        return f"{10 + n}.5"
    if datatype == "Float":
        return f"{10 + n}.25"
    if datatype == "Boolean":
        return "true" if n % 2 else "false"
    if datatype == "Date":
        return (date(2026, 1, 1) + timedelta(days=n % 300)).isoformat()
    if datatype == "DateTime":
        return f"2026-03-{(n % 27) + 1:02d}T10:00:00"
    if datatype == "Time":
        return f"{n % 23:02d}:30"
    if datatype == "Duration":
        return f"P{(n % 30) + 1}D"
    raise ValueError(datatype)


class _Counter:
    def __init__(self):
        self.n = 0

    def next(self) -> int:
        self.n += 1
        return self.n


def _instantiable_classes(vocab: VocabularyGraph) -> list[str]:
    return sorted(name for name in vocab.classes
                  if not vocab.is_enumeration(name))


def _members(vocab: VocabularyGraph, enumeration: str) -> list[str]:
    return sorted(member for member, enumerations
                  in vocab.member_enumerations.items()
                  if enumeration in enumerations)


def _applying_properties(vocab: VocabularyGraph, class_name: str) -> list[str]:
    return sorted(p for p in vocab.properties
                  if property_applies_to(vocab, p, class_name))


# ---------------------------------------------------------------------------
# schema.org-compliant annotations


def random_compliant_annotation(vocab: VocabularyGraph, rng: random.Random,
                                max_depth: int = 2) -> dict:
    counter = _Counter()
    root_class = rng.choice(_instantiable_classes(vocab))
    node = _compliant_node(vocab, rng, root_class, counter, max_depth)
    node["@context"] = "https://schema.org"
    return node


def _compliant_node(vocab: VocabularyGraph, rng: random.Random,
                    class_name: str, counter: _Counter, depth: int) -> dict:
    node: dict = {"@type": class_name}
    candidates = _applying_properties(vocab, class_name)
    chosen = rng.sample(candidates, k=min(len(candidates),
                                          rng.randint(1, _THING_PROPS_LIMIT)))
    if "name" not in chosen:
        chosen.append("name")  # guarantees at least one property everywhere
    for prop in chosen:
        node[prop] = _compliant_value(vocab, rng, prop, counter, depth)
    for _, _, low_prop, high_prop, datatypes, _ in _RULES:  # the rules' pairs
        numbers = any(datatype in _NUMBERS for datatype in datatypes)
        (_order_number_pair if numbers else _order_date_pair)(
            node, low_prop, high_prop)
    return node


def _compliant_value(vocab: VocabularyGraph, rng: random.Random, prop: str,
                     counter: _Counter, depth: int):
    ranges = sorted(vocab.properties[prop].range_includes)
    datatype_ranges = [r for r in ranges if r in vocab.datatypes]
    class_ranges = [r for r in ranges if r in vocab.classes
                    and not vocab.is_enumeration(r)]
    enum_ranges = [r for r in ranges if r in vocab.classes
                   and vocab.is_enumeration(r)]

    if enum_ranges and (not datatype_ranges or rng.random() < 0.5):
        members = _members(vocab, enum_ranges[0])
        if members:
            return rng.choice(members)
    if class_ranges and depth > 0 and (not datatype_ranges or rng.random() < 0.4):
        target = class_ranges[0]
        subclasses = [c for c in _instantiable_classes(vocab)
                      if target in vocab.classes[c]]
        return _compliant_node(vocab, rng, rng.choice(subclasses), counter,
                               depth - 1)
    if datatype_ranges:
        return _literal_for(rng.choice(datatype_ranges), counter.next())
    # class-only range at depth 0: emit a minimal typed entity
    target = class_ranges[0] if class_ranges else "Thing"
    return {"@type": target, "name": f"sample text {counter.next()}"}


def _order_date_pair(node: dict, low_prop: str, high_prop: str) -> None:
    if low_prop in node and high_prop in node:
        low, high = str(node[low_prop]), str(node[high_prop])
        if len(low) == len(high) and high < low:
            node[low_prop], node[high_prop] = high, low


def _order_number_pair(node: dict, low_prop: str, high_prop: str) -> None:
    if low_prop in node and high_prop in node:
        try:
            low, high = float(node[low_prop]), float(node[high_prop])
        except (TypeError, ValueError):
            return
        if high < low:
            node[low_prop], node[high_prop] = node[high_prop], node[low_prop]


# ---------------------------------------------------------------------------
# constraint documents plus matching annotations


@dataclass
class DsCase:
    ds: dict
    annotation: dict
    # (node path, property name) of every mandatory property occurrence
    mandatory: list[tuple[str, str]] = field(default_factory=list)
    # (node path, property name) where exactly one value is allowed
    single_valued: list[tuple[str, str]] = field(default_factory=list)


def random_ds_with_annotation(vocab: VocabularyGraph, rng: random.Random,
                              max_depth: int = 3,
                              max_props: int = 6) -> DsCase:
    counter = _Counter()
    root_class = rng.choice(_instantiable_classes(vocab))
    type_node, instance, mandatory, single = _ds_type_node(
        vocab, rng, root_class, counter, "$0", max_depth, max_props,
        force_mandatory=True)
    instance["@context"] = "https://schema.org"
    return DsCase(
        ds={"name": f"generated-{rng.randint(0, 99999)}",
            "dsVersion": "1.0", "root": type_node},
        annotation=instance, mandatory=mandatory, single_valued=single)


def _ds_type_node(vocab: VocabularyGraph, rng: random.Random,
                  class_name: str, counter: _Counter, node_path: str,
                  depth: int, max_props: int, force_mandatory: bool = False):
    """Returns (type node, instance, mandatory occurrences, single-valued
    occurrences); the occurrence lists cover only what the instance holds."""
    candidates = _applying_properties(vocab, class_name)
    count = rng.randint(1, min(max_props, len(candidates)))
    chosen = rng.sample(candidates, k=count)
    properties = []
    instance: dict = {"@type": class_name}
    mandatory: list[tuple[str, str]] = []
    single: list[tuple[str, str]] = []
    for i, prop in enumerate(chosen):
        must_be_mandatory = force_mandatory and i == 0
        prop_node, value, multiple, sub_mandatory, sub_single = \
            _ds_property_node(vocab, rng, prop, counter, node_path, depth,
                              max_props, must_be_mandatory)
        properties.append(prop_node)
        if not prop_node["isOptional"] or rng.random() < 0.5:
            instance[prop] = value
            mandatory.extend(sub_mandatory)
            single.extend(sub_single)
            if not prop_node["isOptional"]:
                mandatory.append((node_path, prop))
            if not multiple:
                single.append((node_path, prop))
    return ({"targetTypes": [class_name], "properties": properties},
            instance, mandatory, single)


def _ds_property_node(vocab: VocabularyGraph, rng: random.Random, prop: str,
                      counter: _Counter, node_path: str, depth: int,
                      max_props: int, must_be_mandatory: bool):
    is_optional = False if must_be_mandatory else rng.random() < 0.4
    ranges = sorted(vocab.properties[prop].range_includes)
    pick = rng.choice(ranges)
    value_path = f"{node_path}.{prop}"

    if pick in vocab.datatypes:
        multiple = False if must_be_mandatory else rng.random() < 0.3
        prop_node = {"name": prop, "isOptional": is_optional,
                     "multipleValuesAllowed": multiple, "ranges": [pick]}
        if multiple and rng.random() < 0.5:
            value = [_literal_for(pick, counter.next()),
                     _literal_for(pick, counter.next())]
        else:
            value = _literal_for(pick, counter.next())
        return prop_node, value, multiple, [], []

    if vocab.is_enumeration(pick):
        members = _members(vocab, pick)
        assert members, f"enumeration {pick} has no members in the snapshot"
        prop_node = {"name": prop, "isOptional": is_optional,
                     "multipleValuesAllowed": False, "ranges": [pick]}
        return prop_node, rng.choice(members), False, [], []

    # class range: nested type node while depth remains, bare otherwise
    if depth > 1 and rng.random() < 0.6:
        nested_node, nested_instance, sub_mandatory, sub_single = \
            _ds_type_node(vocab, rng, pick, counter, value_path, depth - 1,
                          max_props=min(max_props, 4))
        prop_node = {"name": prop, "isOptional": is_optional,
                     "multipleValuesAllowed": False,
                     "ranges": [{"type": pick, "node": nested_node}]}
        return prop_node, nested_instance, False, sub_mandatory, sub_single
    prop_node = {"name": prop, "isOptional": is_optional,
                 "multipleValuesAllowed": False, "ranges": [{"type": pick}]}
    value = {"@type": pick, "name": f"sample text {counter.next()}"}
    return prop_node, value, False, [], []


# ---------------------------------------------------------------------------
# mutations over synthesized annotations


def container_at(annotation: dict, node_path: str) -> dict:
    """The JSON object at a generator node path like ``$0.location.geo``."""
    node = annotation
    steps = node_path.split(".")[1:]  # drop the $0 segment
    for prop in steps:
        node = node[prop]
        assert isinstance(node, dict), node_path
    return node


def delete_property(annotation: dict, node_path: str, prop: str) -> None:
    del container_at(annotation, node_path)[prop]


def duplicate_property(annotation: dict, node_path: str, prop: str) -> None:
    container = container_at(annotation, node_path)
    value = container[prop]
    assert not isinstance(value, list)
    container[prop] = [value, value]
