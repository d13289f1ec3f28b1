"""Verb/noun vocabularies and the (verb, noun) action unit.

Labels may contain underscores but never spaces; the single space is the
separator in the textual "verb noun" rendering. Index order is file order
and is never sorted, so downstream tie-breaking stays stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._fileio import atomic_write_text
from .errors import DataError

VERB_HEADER = "#verbs"
NOUN_HEADER = "#nouns"


@dataclass(frozen=True)
class Action:
    """A verb index paired with a noun index."""

    verb: int
    noun: int


class Taxonomy:
    """Ordered verb and noun vocabularies with label/index lookups both ways."""

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

    def verb_index(self, label: str) -> int:
        try:
            return self._verb_index[label]
        except KeyError:
            raise DataError(f"unknown verb {label!r}") from None

    def noun_index(self, label: str) -> int:
        try:
            return self._noun_index[label]
        except KeyError:
            raise DataError(f"unknown noun {label!r}") from None

    def check_action(self, action: Action) -> None:
        if not (0 <= action.verb < self.num_verbs and 0 <= action.noun < self.num_nouns):
            raise DataError(
                f"action ({action.verb}, {action.noun}) out of range for "
                f"|V|={self.num_verbs}, |N|={self.num_nouns}"
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
    with open(path, encoding="utf-8") as fh:
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


def parse_action(text: str, taxonomy: Taxonomy) -> Action:
    """Parse "verb_label noun_label" (single space) into an Action."""
    if not isinstance(text, str):
        raise DataError(f"action entries must be strings, got {text!r}")
    parts = text.split(" ")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise DataError(f"malformed action {text!r}: expected 'verb noun' with a single space")
    return Action(taxonomy.verb_index(parts[0]), taxonomy.noun_index(parts[1]))


def format_action(action: Action, taxonomy: Taxonomy) -> str:
    """Render an Action back to its "verb noun" text form."""
    taxonomy.check_action(action)
    return f"{taxonomy.verbs[action.verb]} {taxonomy.nouns[action.noun]}"
