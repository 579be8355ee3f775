"""Shared test utilities: graph fingerprints and quick parse wrappers."""

import json

from sdocheck.annotation import (AnnotationGraph, AnnotationNode, Entity,
                                 Literal, RawBlock, Reference,
                                 parse_annotation)


def parse_jsonld(payload, **kwargs):
    """Parse a JSON-LD block given as dict or str; fail the test on errors."""
    if isinstance(payload, dict):
        payload = json.dumps(payload)
    graph, entries = parse_annotation(RawBlock(payload, 0), **kwargs)
    assert graph is not None, [e.description for e in entries]
    return graph, entries


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
