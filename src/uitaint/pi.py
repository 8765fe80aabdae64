"""Personal-information semantics for GUI elements.

A view is labeled by tokenizing its id name, hint and text against a keyword
lexicon. Signals are tried in that priority order and the first signal with
at least one lexicon match decides the label.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .errors import DuplicateTerm, LexiconSyntaxError
from .lines import config_lines


# Each kind of personal information an input widget can collect, and its
# category, spelled as reports spell them. This order breaks the lexicon's
# ties and orders the summary's pi_by_destination rows and the generator's
# draws.
# first_name and last_name are the two halves of a person's name and are
# folded into a single "name" row by prevalence reporting.
CATEGORY_OF = {
    "email": "identity",
    "first_name": "identity",
    "last_name": "identity",
    "phone": "identity",
    "address": "identity",
    "zip": "identity",
    "ssn": "identity",
    "credit_card": "identity",
    "age": "anthropometric",
    "height": "anthropometric",
    "weight": "anthropometric",
    "gender": "anthropometric",
    "medical_history": "medical",
    "medication": "medical",
    "blood": "medical",
    "mental_health": "medical",
    "smoke_alcohol": "medical",
}
KINDS = tuple(CATEGORY_OF)
KIND_ORDER = {kind: i for i, kind in enumerate(KINDS)}

# Where a sink sends the data it is given, in the order of the summary's
# destination tables and the generator's draws. It sits beside the PI kinds,
# not with the sink registry, so that code reading reports needs neither the
# registry nor the IR.
DESTINATIONS = ("net", "localstore", "log", "fileio")

# The sixteen reportable kinds: name is one entry backed by two halves.
PI_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
    ("name", ("first_name", "last_name")) if kind == "first_name" else (kind, (kind,))
    for kind in KINDS if kind != "last_name"
)


_TOKEN = re.compile(r"[A-Z]+(?![a-z])|[A-Z]?[a-z]+")


def tokenize(s: str) -> list[str]:
    """The ASCII acronyms and words of s, lowercased; anything else splits.

    "weightEditText" -> ["weight", "edit", "text"]
    "XMLHttpRequest" -> ["xml", "http", "request"]
    "fear8name"      -> ["fear", "name"]
    """
    return [t.lower() for t in _TOKEN.findall(s)]


class LexEntry(NamedTuple):
    tokens: tuple[str, ...]
    kind: str


class Lexicon:
    """The entries and the term table that classify looks signals up in;
    two lexicons are equal when their entries are."""

    __slots__ = ("entries", "terms", "longest")

    def __init__(self, entries: tuple[LexEntry, ...]):
        missing = [k for k in KINDS if not any(e.kind == k for e in entries)]
        if missing:
            raise LexiconSyntaxError(f"kinds without terms: {', '.join(missing)}")
        # term tokens -> (-weight, kind order, kind) of the term's best entry,
        # where a term's weight is its length in characters
        terms = {}
        for e in entries:
            rank = (-sum(map(len, e.tokens)), KIND_ORDER[e.kind], e.kind)
            if e.tokens not in terms or rank < terms[e.tokens]:
                terms[e.tokens] = rank
        self.entries = entries
        self.terms = terms
        self.longest = max(map(len, terms))  # tokens of the longest term

    def __eq__(self, other):
        return self.entries == other.entries if isinstance(other, Lexicon) else NotImplemented


@functools.cache
def load_lexicon(path) -> Lexicon:
    """Load `<kind>\\t<term>` lines from path, or the built-in file for None.

    Multi-token terms separate tokens with spaces. Entries are kept in
    (kind order, tokens) order, so the line order of the file is immaterial.
    Memoised by path, like `gui.load_widget_registry`.
    """
    entries = []
    seen = set()
    for where, line in config_lines(path, "lexicon.tsv", LexiconSyntaxError):
        kind_name, sep, term = line.partition("\t")
        if not sep:
            raise LexiconSyntaxError(f"{where}: expected '<kind>\\t<term>'")
        kind = kind_name.strip()
        if kind not in CATEGORY_OF:
            raise LexiconSyntaxError(f"{where}: unknown kind {kind_name!r}")
        tokens = tuple(t.lower() for t in term.split())
        # tokenize() keeps only ASCII letters, so no other term can match
        if not tokens or not all(re.fullmatch("[a-z]+", t) for t in tokens):
            raise LexiconSyntaxError(f"{where}: bad term {term!r}")
        if (kind, tokens) in seen:
            raise DuplicateTerm(f"{where}: duplicate term {term!r} for {kind}")
        seen.add((kind, tokens))
        entries.append(LexEntry(tokens, kind))
    return Lexicon(tuple(sorted(entries, key=lambda e: (KIND_ORDER[e.kind], e.tokens))))


def load_default_lexicon() -> Lexicon:
    return load_lexicon(None)


def classify(view, lexicon: Lexicon) -> str | None:
    """Label one view element, or None if no signal matches the lexicon.

    Signals are tried in priority order id_name > hint > text; the first
    signal with any match decides. A term matches a run of whole tokens.
    Among its matches the longest term wins, ties broken by kind
    declaration order.
    """
    terms = lexicon.terms
    for signal in (view.id_name, view.hint, view.text):
        if not signal:
            continue
        tokens = tokenize(signal)
        hits = [
            terms[run]
            for n in range(1, min(lexicon.longest, len(tokens)) + 1)
            for i in range(len(tokens) - n + 1)
            if (run := tuple(tokens[i : i + n])) in terms
        ]
        if hits:
            return min(hits)[2]
    return None
