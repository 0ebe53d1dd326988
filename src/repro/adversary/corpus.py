"""The checked-in adversarial regression corpus.

Divergence witnesses that survive delta-debugging are *folded* into a
canonical JSON corpus file that ``tests/test_differential.py`` picks up
automatically: every future run of the differential suite replays each
witness across the full four-engine stack, so a bug class found once by
the hunter stays found forever.

Canonical form (the idempotence contract):

* entries are keyed by :func:`corpus_id` — a SHA-256 over the
  database's canonical dict serialization — and **deduplicated** on it;
* entries are sorted by id; the JSON is dumped with sorted keys, fixed
  indentation and a trailing newline.

Folding the same survivors twice (or re-running the hunter on an
unchanged tree) therefore rewrites the file byte-identically — the
corpus grows monotonically and only when a genuinely new witness
appears (``tests/test_adversary.py`` pins this as a regression test).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..logic.database import DisjunctiveDatabase
from ..logic.serialize import database_from_dict, database_to_dict

#: Repository-relative default location of the checked-in corpus.
DEFAULT_CORPUS_PATH = os.path.join("tests", "data", "adversarial_corpus.json")

#: Format marker for forward-compatible evolution.
CORPUS_VERSION = 1


def corpus_id(db: DisjunctiveDatabase) -> str:
    """The deduplication key: SHA-256 of the canonical serialization."""
    canonical = json.dumps(
        database_to_dict(db), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CorpusEntry:
    """One regression witness.

    Attributes:
        db: the (minimized) witness database.
        kind: divergence kind that produced it (``engine-disagreement``,
            ``certificate-violation``, ...).
        semantics / method: where the divergence was observed.
        origin: the seed line of the hunt case that found it.
        note: free-form human context.
    """

    db: DisjunctiveDatabase
    kind: str = "engine-disagreement"
    semantics: str = ""
    method: str = ""
    origin: str = ""
    note: str = ""

    @property
    def id(self) -> str:
        return corpus_id(self.db)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "semantics": self.semantics,
            "method": self.method,
            "origin": self.origin,
            "note": self.note,
            "db": database_to_dict(self.db),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CorpusEntry":
        return CorpusEntry(
            db=database_from_dict(data["db"]),
            kind=data.get("kind", ""),
            semantics=data.get("semantics", ""),
            method=data.get("method", ""),
            origin=data.get("origin", ""),
            note=data.get("note", ""),
        )


def _render(entries: List[CorpusEntry]) -> str:
    unique: Dict[str, CorpusEntry] = {}
    for entry in entries:
        unique.setdefault(entry.id, entry)
    payload = {
        "version": CORPUS_VERSION,
        "entries": [
            unique[key].as_dict() for key in sorted(unique)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_corpus(path: str) -> List[CorpusEntry]:
    """The corpus entries at ``path`` (``[]`` when the file is absent)."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        data = json.load(handle)
    return [CorpusEntry.from_dict(raw) for raw in data.get("entries", ())]


def fold_survivors(
    path: str, survivors: Iterable[CorpusEntry]
) -> Tuple[int, int]:
    """Fold ``survivors`` into the corpus at ``path``.

    Returns ``(added, total)``.  Already-present witnesses (by
    :func:`corpus_id`) are skipped; when nothing new arrives the file is
    not rewritten at all, so repeated folding leaves both content and
    mtime untouched.
    """
    existing = load_corpus(path)
    known = {entry.id for entry in existing}
    fresh: List[CorpusEntry] = []
    for survivor in survivors:
        if survivor.id not in known:
            known.add(survivor.id)
            fresh.append(survivor)
    combined = existing + fresh
    if fresh or not os.path.exists(path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            handle.write(_render(combined))
    return len(fresh), len(combined)


def corpus_databases(
    path: str,
) -> List[Tuple[str, DisjunctiveDatabase]]:
    """``(id, db)`` pairs for test parametrization (order: sorted ids)."""
    return [
        (entry.id, entry.db)
        for entry in sorted(load_corpus(path), key=lambda e: e.id)
    ]
