"""Driver for ``repro-ddb check`` (alias ``lint``) — the one static
analyzer.

Builds one :class:`~repro.analysis.static.callgraph.CallGraph` over the
installed ``repro`` package (plus any extra paths, e.g. ``tests/`` for
the nightly sweep or a seeded injection fixture) and runs every rule
over it: the convention rules (:mod:`.conventions`, RPR001–RPR006),
complexity reachability (:mod:`.complexity`, RPR101–RPR103) and lock
discipline (:mod:`.races`, RPR201–RPR204).  A file that does not parse
is an RPR000 finding.

A known-good finding is waived inline, on the flagged line or the line
above it, with the rule ids and an optional rationale after ``--``::

    abstraction = SatSolver()  # lint: ok RPR001 -- bare CNF, no db

Dynamic-dispatch conservatism is reported as RPR100 *warnings* —
visible in the JSON artifact, never gating.  Exit status 1 on any new
(non-baselined) finding.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence

from .. import baseline as baseline_mod
from . import complexity, conventions, races
from .callgraph import CallGraph, Finding

#: Inline waiver mark (``# lint: ok RPR001 RPR004 -- rationale``).
WAIVER_MARK = "# lint: ok"

#: Directory of seeded known-bad fixtures — skipped when a *directory*
#: is swept (the nightly ``check tests/`` must stay clean) but analyzed
#: fine when a file inside it is passed explicitly (the fixture tests).
INJECTION_DIR = "static_injections"

#: rule id -> one-line summary (the ``--rules`` catalog).
RULES: Dict[str, str] = {
    "RPR001": "no ad-hoc SatSolver()",
    "RPR002": "Σ₂ᵖ primitive wrapped in accounting",
    "RPR004": "solver loops check deadlines",
    "RPR005": "semantics registered with a table claim",
    "RPR006": "stratification through the cache",
    "RPR100": "dynamic dispatch not statically resolvable (warning)",
    "RPR101": "coNP entry point must not reach a Σ₂ᵖ primitive",
    "RPR102": "coNP semantics modules free of Σ₂ᵖ machinery",
    "RPR103": "no statically nested Σ₂ᵖ dispatch",
    "RPR201": "attribute written both under and outside its guard lock",
    "RPR202": "no non-atomic read-modify-write on guarded/singleton state",
    "RPR203": "no lock-order inversion",
    "RPR204": "no unguarded shared state escaping into worker threads",
}


@dataclass
class Report:
    """One whole-program check run."""

    findings: List[Finding] = field(default_factory=list)
    warnings: List[Finding] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "warnings": [w.as_dict() for w in self.warnings],
            "count": len(self.findings),
            "summary": self.summary,
        }


def default_target() -> Path:
    """The installed ``repro`` package tree (what CI gates on)."""
    return Path(__file__).resolve().parents[2]


def _expand_extra(paths: Sequence[Path]) -> List[Path]:
    expanded: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            expanded.extend(
                sub for sub in sorted(path.rglob("*.py"))
                if INJECTION_DIR not in sub.parts
            )
        else:
            expanded.append(path)
    return expanded


def build_graph(extra_paths: Sequence[Path] = ()) -> CallGraph:
    """The package-wide graph plus extra files and directory sweeps."""
    paths = [Path(path) for path in extra_paths]
    return CallGraph.build(
        package_root=default_target(),
        package_name="repro",
        extra_paths=[path for path in paths if not path.is_dir()],
        swept_paths=_expand_extra([path for path in paths if path.is_dir()]),
    )


def waived_rules(line: str) -> FrozenSet[str]:
    """Rule ids waived by ``# lint: ok RPR001 RPR004 [-- rationale]``."""
    index = line.find(WAIVER_MARK)
    if index < 0:
        return frozenset()
    tail = line[index + len(WAIVER_MARK):].split("--", 1)[0]
    return frozenset(
        token for token in tail.replace(",", " ").split()
        if token.startswith("RPR")
    )


def apply_waivers(
    graph: CallGraph, findings: Sequence[Finding]
) -> List[Finding]:
    lines_by_path = {
        module.path: module.lines for module in graph.modules.values()
    }
    kept: List[Finding] = []
    for finding in findings:
        lines = lines_by_path.get(finding.path, [])
        if not any(
            finding.rule in waived_rules(lines[lineno - 1])
            for lineno in (finding.line, finding.line - 1)
            if 1 <= lineno <= len(lines)
        ):
            kept.append(finding)
    return kept


def check(
    extra_paths: Sequence[Path] = (),
    graph: Optional[CallGraph] = None,
) -> Report:
    """Run every rule; findings are waiver-filtered and sorted."""
    if graph is None:
        graph = build_graph(extra_paths)
    findings = conventions.check_conventions(graph)
    findings += complexity.check_complexity(graph)
    findings += races.check_races(graph)
    findings = graph.errors + apply_waivers(graph, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    warnings = apply_waivers(graph, graph.warnings)
    warnings.sort(key=lambda f: (f.path, f.line))
    return Report(
        findings=findings,
        warnings=warnings,
        summary={
            "complexity": complexity.summarize(graph),
            "races": races.summarize(graph),
        },
    )


def main(args: argparse.Namespace) -> int:
    """``repro-ddb check`` on parsed arguments (the flags are declared
    once, in :func:`repro.cli.build_parser`)."""
    if args.rules:
        for rule_id, summary in sorted(RULES.items()):
            print(f"{rule_id}  {summary}")
        return 0
    report = check(extra_paths=args.paths)
    findings = report.findings
    if args.diff:
        changed = baseline_mod.changed_files()
        if changed is not None:
            findings = baseline_mod.restrict_to_changed(findings, changed)
    if args.write_baseline is not None:
        baseline_mod.save_baseline(findings, args.write_baseline)
        print(
            f"baseline of {len(findings)} finding(s) written to "
            f"{args.write_baseline}"
        )
        return 0
    gated = findings
    if args.baseline is not None:
        gated = baseline_mod.filter_new(
            findings, baseline_mod.load_baseline(args.baseline)
        )
    if args.format == "json":
        document = report.as_dict()
        document["findings"] = [f.as_dict() for f in findings]
        document["count"] = len(findings)
        if args.baseline is not None:
            document["new"] = [f.as_dict() for f in gated]
            document["new_count"] = len(gated)
        print(json.dumps(document, indent=2, ensure_ascii=False))
    else:
        for finding in findings:
            marker = "" if finding in gated else " [baselined]"
            print(finding.render() + marker)
        if args.warnings:
            for warning in report.warnings:
                print(warning.render() + " [warning]")
        print(
            f"{len(findings)} finding(s) ({len(gated)} new), "
            f"{len(report.warnings)} warning(s), "
            f"{len(report.summary['complexity']['sigma2_sites'])} "
            "Σ₂ᵖ site(s) in graph"
        )
    return 1 if gated else 0
