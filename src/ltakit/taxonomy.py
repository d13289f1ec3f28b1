"""Verb/noun vocabularies and the text form of (verb, noun) actions.

In memory an action sequence is an L x 2 integer array of (verb id, noun id)
rows; this module is the only place that converts it to and from text.
Labels may contain underscores but never spaces; the single space is the
separator in the textual "verb noun" rendering. Index order is file order
and is never sorted, so downstream tie-breaking stays stable.
"""

from __future__ import annotations

import json

import numpy as np

from ._fileio import atomic_write_text, open_text
from .errors import DataError

VERB_HEADER = "#verbs"
NOUN_HEADER = "#nouns"


class Taxonomy:
    """Ordered verb and noun vocabularies; an id is a label's position in its list."""

    def __init__(self, verbs, nouns):
        self.verbs = list(verbs)
        self.nouns = list(nouns)
        for kind, labels in (("verb", self.verbs), ("noun", self.nouns)):
            if not labels:
                raise DataError(f"taxonomy needs at least one {kind}")
            seen = set()
            for label in labels:
                if not isinstance(label, str) or not label or " " in label:
                    raise DataError(
                        f"bad {kind} label {label!r}: labels are non-empty and contain no spaces"
                    )
                if label in seen:
                    raise DataError(f"duplicate {kind} label {label!r}")
                seen.add(label)
        self._verb_index = {label: i for i, label in enumerate(self.verbs)}
        self._noun_index = {label: i for i, label in enumerate(self.nouns)}

    @property
    def num_verbs(self) -> int:
        return len(self.verbs)

    @property
    def num_nouns(self) -> int:
        return len(self.nouns)

    def check_ids(self, pairs: np.ndarray) -> None:
        """Every (verb id, noun id) row of `pairs` (any leading shape) must index the vocabularies."""
        outside = ((pairs < 0) | (pairs >= (self.num_verbs, self.num_nouns))).any(axis=-1)
        if outside.any():  # a negative id would otherwise index a label list from its end
            verb, noun = pairs[outside][0].tolist()
            raise DataError(
                f"action ({verb}, {noun}) out of range for |V|={self.num_verbs}, |N|={self.num_nouns}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Taxonomy)
            and self.verbs == other.verbs
            and self.nouns == other.nouns
        )

    def __repr__(self) -> str:
        return f"Taxonomy({self.num_verbs} verbs, {self.num_nouns} nouns)"


def load_taxonomy(path) -> Taxonomy:
    """Read a two-section taxonomy file: `#verbs` then `#nouns`, one label per line.

    Blank lines are ignored. Duplicate labels and empty sections are rejected.
    """
    sections = {VERB_HEADER: [], NOUN_HEADER: []}
    opened = set()
    current = None
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line not in sections:
                    raise DataError(f"{path}:{lineno}: unknown section header {line!r}")
                if line in opened:
                    raise DataError(f"{path}:{lineno}: repeated section {line!r}")
                opened.add(line)
                current = line
                continue
            if current is None:
                raise DataError(f"{path}:{lineno}: label {line!r} appears before any section header")
            sections[current].append(line)
    return Taxonomy(sections[VERB_HEADER], sections[NOUN_HEADER])


def save_taxonomy(path, taxonomy: Taxonomy) -> None:
    lines = [VERB_HEADER, *taxonomy.verbs, NOUN_HEADER, *taxonomy.nouns]
    atomic_write_text(path, "\n".join(lines) + "\n")


def parse_action(text: str, taxonomy: Taxonomy) -> tuple[int, int]:
    """Parse "verb_label noun_label" (single space) into (verb id, noun id)."""
    if not isinstance(text, str):
        raise DataError(f"action entries must be strings, got {text!r}")
    parts = text.split(" ")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise DataError(f"malformed action {text!r}: expected 'verb noun' with a single space")
    verb, noun = parts
    if verb not in taxonomy._verb_index:
        raise DataError(f"unknown verb {verb!r}")
    if noun not in taxonomy._noun_index:
        raise DataError(f"unknown noun {noun!r}")
    return taxonomy._verb_index[verb], taxonomy._noun_index[noun]


def format_actions(pairs: np.ndarray, taxonomy: Taxonomy, as_json: bool = False) -> list[str]:
    """Render an L x 2 array of (verb id, noun id) rows as "verb noun" texts, or with `as_json` as the
    JSON strings `json.dumps` writes for them; ids must be in range. Each distinct action is rendered once."""
    taxonomy.check_ids(pairs)
    distinct, inverse = np.unique(pairs[:, 0] * taxonomy.num_nouns + pairs[:, 1], return_inverse=True)
    verbs, nouns = np.divmod(distinct, taxonomy.num_nouns)
    texts = [taxonomy.verbs[v] + " " + taxonomy.nouns[n] for v, n in zip(verbs.tolist(), nouns.tolist())]
    return np.array(list(map(json.dumps, texts)) if as_json else texts, object)[inverse.ravel()].tolist()
