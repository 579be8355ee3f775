"""Diagnostic model: error codes, severities, report assembly and rendering.

Every finding produced by the parsers, the vocabulary checks, the domain
constraint checks and the content scoring is a :class:`ReportEntry`.  The
code catalog below is the single source of truth for titles, default
severities and finding sources.

Machine report format (the primary output contract, key order fixed):

    {
      "target": "<url or file identifier>",
      "snapshot_id": "<vocabulary snapshot id>",
      "ds_name": "<domain spec name>" | null,
      "summary": {"error": n, "warning": n, "info": n},
      "content_score": {"score": x|null, "checked": n, "matched": n,
                        "unverifiable": n} | null,
      "entries": [
        {"code": "...", "title": "...", "severity": "error|warning|info",
         "path": "...", "description": "...", "source": "..."},
        ...
      ]
    }

Serialization of equal reports is byte-identical, so expected-output tests
can compare serialized bytes directly.
"""

from __future__ import annotations

import enum
import json
from typing import NamedTuple


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 3, "warning": 2, "info": 1}[self.value]


class Source(enum.Enum):
    PARSE = "parse"
    SCHEMA_ORG = "schema-org"
    DOMAIN_SPEC = "domain-spec"
    CONTENT = "content"


class CatalogRow(NamedTuple):
    code: str
    title: str
    severity: Severity
    source: Source
    # elevated severity under strict mode, None if strict makes no difference
    strict_severity: Severity | None = None


_ROWS = [
    CatalogRow("E101", "InvalidSyntax", Severity.ERROR, Source.PARSE),
    CatalogRow("E102", "EmptyAnnotation", Severity.ERROR, Source.PARSE),
    CatalogRow("E103", "UnsupportedConstruct", Severity.WARNING, Source.PARSE),
    CatalogRow("E201", "UnknownType", Severity.ERROR, Source.SCHEMA_ORG),
    CatalogRow("E202", "UnknownProperty", Severity.ERROR, Source.SCHEMA_ORG),
    CatalogRow("E203", "DomainViolation", Severity.WARNING, Source.SCHEMA_ORG,
               strict_severity=Severity.ERROR),
    CatalogRow("E204", "RangeViolation", Severity.WARNING, Source.SCHEMA_ORG,
               strict_severity=Severity.ERROR),
    CatalogRow("E205", "MalformedLiteral", Severity.WARNING, Source.SCHEMA_ORG),
    CatalogRow("E206", "EmptyValue", Severity.WARNING, Source.SCHEMA_ORG),
    CatalogRow("E207", "DuplicateValue", Severity.INFO, Source.SCHEMA_ORG),
    CatalogRow("E208", "SemanticInconsistency", Severity.ERROR, Source.SCHEMA_ORG),
    CatalogRow("E209", "UntypedEntity", Severity.INFO, Source.SCHEMA_ORG),
    CatalogRow("E301", "TargetMismatch", Severity.ERROR, Source.DOMAIN_SPEC),
    CatalogRow("E302", "MissingMandatoryProperty", Severity.ERROR, Source.DOMAIN_SPEC),
    CatalogRow("E303", "CardinalityViolation", Severity.ERROR, Source.DOMAIN_SPEC),
    CatalogRow("E304", "RangeNotPermitted", Severity.ERROR, Source.DOMAIN_SPEC),
    CatalogRow("E305", "NestedNonCompliance", Severity.ERROR, Source.DOMAIN_SPEC),
    CatalogRow("E401", "ValueUnmatched", Severity.WARNING, Source.CONTENT),
    CatalogRow("E402", "UrlMismatch", Severity.WARNING, Source.CONTENT),
    CatalogRow("E403", "DateOrNumberMismatch", Severity.WARNING, Source.CONTENT),
]

CATALOG: dict[str, CatalogRow] = {row.code: row for row in _ROWS}


class ReportEntry(NamedTuple):
    """One finding: code, title, severity, annotation path, description."""

    code: str
    title: str
    severity: Severity
    path: str
    description: str
    source: Source

    def human_line(self) -> str:
        return (f"{self.severity.value.upper()} {self.code} {self.path}: "
                f"{self.title} — {self.description}")


def make_entry(code: str, path: str, description: str) -> ReportEntry:
    """Build an entry from the catalog; unknown codes are a programming error."""
    row = CATALOG[code]
    return ReportEntry(code=code, title=row.title, severity=row.severity,
                       path=path, description=description, source=row.source)


class ScoreSummary(NamedTuple):
    """Aggregate content consistency over the checkable annotation values."""

    score: float | None  # None iff checked == 0
    checked: int
    matched: int
    unverifiable: int


class VerificationReport(NamedTuple):
    target: str
    snapshot_id: str
    ds_name: str | None
    entries: list[ReportEntry]
    content_score: ScoreSummary | None = None

    @property
    def summary(self) -> dict[str, int]:
        counts = {"error": 0, "warning": 0, "info": 0}
        for entry in self.entries:
            counts[entry.severity.value] += 1
        return counts

    def worst_severity(self) -> Severity | None:
        if not self.entries:
            return None
        return max((e.severity for e in self.entries), key=lambda s: s.rank)


def merge_reports(entries: list[ReportEntry], target: str, snapshot_id: str,
                  ds_name: str | None = None,
                  content_score: ScoreSummary | None = None,
                  strict: bool = False) -> VerificationReport:
    """The report of ``entries``, sorted by (path, code), stably: the one
    place that orders findings, and the one that applies ``strict``, which
    raises each entry to its catalog row's ``strict_severity``.

    Duplicate entries are kept: two identical findings are two findings.
    """
    if strict:
        entries = [e._replace(severity=CATALOG[e.code].strict_severity
                              or e.severity) for e in entries]
    return VerificationReport(target=target, snapshot_id=snapshot_id,
                              ds_name=ds_name,
                              entries=sorted(entries,
                                             key=lambda e: (e.path, e.code)),
                              content_score=content_score)


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "target": report.target,
        "snapshot_id": report.snapshot_id,
        "ds_name": report.ds_name,
        "summary": report.summary,
        "content_score": (None if report.content_score is None
                          else report.content_score._asdict()),
        "entries": [
            {
                "code": e.code,
                "title": e.title,
                "severity": e.severity.value,
                "path": e.path,
                "description": e.description,
                "source": e.source.value,
            }
            for e in report.entries
        ],
    }


def serialize_report(report: VerificationReport, format: str = "machine") -> bytes:
    """Render a report; ``machine`` is canonical JSON, ``human`` is line text."""
    if format == "machine":
        text = json.dumps(report_to_dict(report), indent=2, ensure_ascii=False)
        return (text + "\n").encode("utf-8")
    if format == "human":
        lines = [f"target: {report.target}"]
        if report.ds_name:
            lines.append(f"domain specification: {report.ds_name}")
        if report.content_score is not None:
            cs = report.content_score
            shown = "undefined" if cs.score is None else f"{cs.score:.3f}"
            lines.append(f"content score: {shown} "
                         f"(checked={cs.checked} matched={cs.matched} "
                         f"unverifiable={cs.unverifiable})")
        for entry in report.entries:
            lines.append(entry.human_line())
        counts = report.summary
        lines.append(f"summary: {counts['error']} error(s), "
                     f"{counts['warning']} warning(s), {counts['info']} info")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format: {format!r}")

