"""Finding baselines and changed-file restriction for the analyzers.

Used by ``repro-ddb check`` (alias ``lint``): CI gates on *new*
findings — fingerprints not accounted for by the checked-in baseline —
so a legacy violation can be grandfathered without masking fresh ones,
and ``--diff`` restricts a local run to files changed relative to git
``HEAD`` so the edit-check loop stays fast on a large tree.

A baseline is a JSON document::

    {"version": 1, "fingerprints": [["RPR001", "src/repro/x.py",
                                     "message..."], ...]}

Fingerprints are ``(rule, normalized path, message)`` — deliberately
line-number-free so unrelated edits above a grandfathered finding do
not resurrect it.  Duplicate fingerprints are budgeted by count: two
identical violations with one baselined still reports one as new.
"""

from __future__ import annotations

import json
import subprocess
from collections import Counter
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .static.callgraph import Finding

#: Path anchors a finding path is normalized to start at, so baselines
#: recorded on one checkout match runs from another.
_ANCHORS = ("src/repro/", "tests/", "benchmarks/")

Fingerprint = Tuple[str, str, str]


def normalize_path(path: object) -> str:
    """Strip the checkout prefix from a finding path when possible."""
    text = Path(str(path)).as_posix()
    for anchor in _ANCHORS:
        if text.startswith(anchor):
            return text
        index = text.find("/" + anchor)
        if index >= 0:
            return text[index + 1:]
    return text


def fingerprint(finding: Finding) -> Fingerprint:
    return (finding.rule, normalize_path(finding.path), finding.message)


def save_baseline(findings: Sequence[Finding], path: Path) -> None:
    document = {
        "version": 1,
        "fingerprints": sorted(
            list(fingerprint(finding)) for finding in findings
        ),
    }
    Path(path).write_text(
        json.dumps(document, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_baseline(path: Path) -> Counter:
    """The fingerprint budget recorded in a baseline file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return Counter(
        tuple(entry) for entry in data.get("fingerprints", ())
        if isinstance(entry, (list, tuple)) and len(entry) == 3
    )


def filter_new(
    findings: Sequence[Finding], baseline: Counter
) -> List[Finding]:
    """Findings whose fingerprints exceed the baseline's budget."""
    budget = Counter(baseline)
    new: List[Finding] = []
    for finding in findings:
        key = fingerprint(finding)
        if budget[key] > 0:
            budget[key] -= 1
        else:
            new.append(finding)
    return new


def _git_lines(args: Sequence[str], cwd: Path) -> List[str]:
    completed = subprocess.run(
        ["git", *args], cwd=str(cwd), capture_output=True,
        text=True, timeout=30, check=True,
    )
    return [line for line in completed.stdout.splitlines() if line]


def changed_files(root: Optional[Path] = None) -> Optional[Set[str]]:
    """Absolute paths changed relative to ``HEAD`` (tracked edits plus
    untracked files), or ``None`` when git is unavailable — callers
    must fall back to a full run, never silently skip."""
    cwd = Path(root) if root is not None else Path.cwd()
    try:
        top = Path(_git_lines(["rev-parse", "--show-toplevel"], cwd)[0])
        names = _git_lines(["diff", "--name-only", "HEAD"], cwd)
        names += _git_lines(
            ["ls-files", "--others", "--exclude-standard"], cwd
        )
    except Exception:
        return None
    return {str((top / name).resolve()) for name in names}


def restrict_to_changed(
    findings: Iterable[Finding], changed: Set[str]
) -> List[Finding]:
    return [
        finding
        for finding in findings
        if str(Path(finding.path).resolve()) in changed
    ]
