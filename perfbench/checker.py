"""Checks one machine report against what the corpus generator planted.

The expectations come from :mod:`corpus` and the README contract alone; the
checker imports nothing from the package.  ``check`` returns a list of
problems, empty when the report is correct.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from corpus import SEVERITY, Input

_RANK = {"error": 3, "warning": 2, "info": 1}
_FAIL_RANK = {"error": 3, "warning": 2}


def snapshot_id(vocab_bytes: bytes) -> str:
    return "sha256:" + hashlib.sha256(vocab_bytes).hexdigest()[:16]


def expected_exit(entries: list[dict], fail_level: str) -> int:
    if fail_level == "never" or not entries:
        return 0
    worst = max(_RANK[e["severity"]] for e in entries)
    return 1 if worst >= _FAIL_RANK[fail_level] else 0


def check(report_bytes: bytes, exit_code: int, inp: Input, command: str,
          target: str, snapshot: str, ds_name: str) -> list[str]:
    problems: list[str] = []
    try:
        report = json.loads(report_bytes)
    except ValueError:
        return ["report is not JSON"]
    if not isinstance(report, dict) or list(report) != [
            "target", "snapshot_id", "ds_name", "summary", "content_score",
            "entries"]:
        return ["report keys are not the contract's, in its order"]
    entries = report["entries"]

    if report["target"] != target:
        problems.append(f"target {report['target']!r} != {target!r}")
    if report["snapshot_id"] != snapshot:
        problems.append(f"snapshot_id {report['snapshot_id']} != {snapshot}")
    if report["ds_name"] != ds_name:
        problems.append(f"ds_name {report['ds_name']!r} != {ds_name!r}")

    counts = Counter(e["severity"] for e in entries)
    summary = {level: counts.get(level, 0) for level in ("error", "warning", "info")}
    if report["summary"] != summary:
        problems.append(f"summary {report['summary']} != counted {summary}")
    keys = [(e["path"], e["code"]) for e in entries]
    if keys != sorted(keys):
        problems.append("entries are not sorted by (path, code)")
    for e in entries:
        if SEVERITY.get(e["code"]) != e["severity"]:
            problems.append(f"{e['code']} at {e['path']} has severity "
                            f"{e['severity']}")
    if exit_code != expected_exit(entries, inp.fail_level):
        problems.append(f"exit {exit_code} disagrees with --fail-level "
                        f"{inp.fail_level}")

    if not inp.planted:
        return problems

    # findings: exactly the planted ones, layer by layer
    wanted = Counter(tuple(p) for p in inp.expected
                     if command == "validate" or not p[1].startswith("E4"))
    found = Counter(keys)
    if found != wanted:
        missing = sorted((wanted - found).elements())
        extra = sorted((found - wanted).elements())
        problems.append(f"findings differ from planted: missing "
                        f"{missing[:5]} ({len(missing)}), unexpected "
                        f"{extra[:5]} ({len(extra)})")

    score = report["content_score"]
    if command == "verify":
        if score is not None:
            problems.append("verify report carries a content score")
        return problems
    if not isinstance(score, dict):
        return problems + ["validate report has no content score"]
    hidden = sum(1 for p in inp.expected if p[1].startswith("E4"))
    checked = inp.values - inp.unverifiable
    want = {"checked": checked, "matched": checked - hidden,
            "unverifiable": inp.unverifiable}
    got = {k: score[k] for k in want}
    if got != want:
        problems.append(f"content score counts {got} != {want}")
    # a shown value scores 1.0 and a hidden one 0.0
    mean = (checked - hidden) / checked if checked else None
    if mean is None or score["score"] is None:
        if mean != score["score"]:
            problems.append(f"score {score['score']} != {mean}")
    elif abs(score["score"] - mean) > 1e-9:
        problems.append(f"score {score['score']} != {mean}")
    return problems
