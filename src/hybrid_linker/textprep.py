"""Text preprocessing: natural-language tokens and code-term extraction.

Natural text goes through lowercase, alphanumeric splitting, short-token
and stopword removal, then Porter stemming. Diff text is split on
whitespace and filtered down to tokens that look like identifiers; those
are kept verbatim, duplicates and case included.

preprocess_natural and extract_code_terms define the tokens. NaturalWords
and CodeTerms give the same tokens for a batch of texts, working out each
distinct word once; the document builders use them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import compress
from pathlib import Path

from . import HybridLinkerError, porter
from .corpus import Commit, Issue, _locate_decode_error

_SPLIT_PATTERN = re.compile(r"[^a-z0-9]+")
# Maps every byte but a-z and 0-9 to a space. Lowercased text encoded to
# ASCII, each other code point as "?", and translated with it splits on
# whitespace into the runs _SPLIT_PATTERN leaves.
_WORD_BYTES = bytes(
    c if 97 <= c <= 122 or 48 <= c <= 57 else 32 for c in range(256)
)

# An identifier-looking token must fully match at least one of these.
CODE_TERM_PATTERNS: dict[str, re.Pattern] = {
    "c_notation": re.compile(r"[A-Za-z]+[0-9]*_.*"),
    "qualified_name": re.compile(r"[A-Za-z]+[0-9]*[.].+"),
    "camel_case": re.compile(r"[A-Za-z]+.*[A-Z]+.*"),
    "upper_case": re.compile(r"[A-Z0-9]+"),
    "system_variable": re.compile(r"_+[A-Za-z0-9]+.+"),
    "reference_expression": re.compile(r"[a-zA-Z]+[:]{2,}.+"),
}
# One alternation of the patterns above: a token fully matches it exactly
# when it fully matches one of them.
_CODE_TERM = re.compile(
    "|".join(f"(?:{p.pattern})" for p in CODE_TERM_PATTERNS.values())
)


@dataclass(frozen=True)
class TokenStream:
    """An ordered token sequence tagged with how it was produced."""

    tokens: tuple[str, ...]
    kind: str  # "natural" or "code_term"

    def __post_init__(self) -> None:
        if self.kind not in ("natural", "code_term"):
            raise ValueError(f"unknown token stream kind {self.kind!r}")


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list; None loads the list shipped with the package."""
    if path is None:
        return _default_stopwords()
    try:
        return _parse_stopwords(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise HybridLinkerError(_locate_decode_error(path)) from None


def _parse_stopwords(text: str) -> frozenset[str]:
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


@lru_cache(maxsize=1)
def _default_stopwords() -> frozenset[str]:
    text = resources.files("hybrid_linker.data").joinpath("stopwords.txt").read_text(
        encoding="utf-8"
    )
    return _parse_stopwords(text)


def preprocess_natural(text: str, stopwords: frozenset[str] | None = None) -> TokenStream:
    """Tokenize prose: lowercase, split, filter, stem.

    Tokens shorter than two characters are dropped both before and after
    stemming, so every surviving token matches [a-z0-9]{2,}.
    """
    if stopwords is None:
        stopwords = _default_stopwords()
    tokens = []
    for raw in _SPLIT_PATTERN.split(text.lower()):
        if len(raw) < 2 or raw in stopwords:
            continue
        stemmed = porter.stem(raw)
        if len(stemmed) >= 2:
            tokens.append(stemmed)
    return TokenStream(tokens=tuple(tokens), kind="natural")


def extract_code_terms(diff_text: str) -> TokenStream:
    """Pull identifier-looking tokens out of diff text, verbatim and in order."""
    kept = tuple(filter(_CODE_TERM.fullmatch, diff_text.split()))
    return TokenStream(tokens=kept, kind="code_term")


class NaturalWords(dict):
    """preprocess_natural for a batch of texts, each distinct word worked once.

    Maps a lowercase run of [a-z0-9] to its stemmed token, or to "" when
    preprocess_natural drops it (a stopword, or shorter than two characters
    before or after stemming). A word seen before costs one C-level dict
    hit. It holds every word of its batch, so build one per batch.
    """

    __slots__ = ("stopwords",)

    def __init__(self, stopwords: frozenset[str] | None = None) -> None:
        super().__init__()
        self.stopwords = _default_stopwords() if stopwords is None else stopwords

    def __missing__(self, word: str) -> str:
        token = ""
        if len(word) >= 2 and word not in self.stopwords:
            stemmed = porter.stem(word)
            if len(stemmed) >= 2:
                token = stemmed
        self[word] = token
        return token

    def doc(self, text: str) -> TokenStream:
        words = text.lower().encode("ascii", "replace").translate(_WORD_BYTES)
        # A tuple made from a list is allocated at its size. One made from an
        # iterator grows by reallocation and may keep a block a third larger,
        # which raised the resident memory of a process featurizing often.
        tokens = list(filter(None, map(self.__getitem__, words.decode().split())))
        return TokenStream(tokens=tuple(tokens), kind="natural")


class CodeTerms(dict):
    """extract_code_terms for a batch of diffs, each distinct token matched once.

    Maps a whitespace-free token to whether it is a code term. It holds
    every token of its batch, so build one per batch.
    """

    __slots__ = ()

    def __missing__(self, token: str) -> bool:
        kept = self[token] = _CODE_TERM.fullmatch(token) is not None
        return kept

    def doc(self, diff_text: str) -> TokenStream:
        tokens = diff_text.split()
        # A list first, as in NaturalWords.doc.
        kept = list(compress(tokens, map(self.__getitem__, tokens)))
        return TokenStream(tokens=tuple(kept), kind="code_term")


def issue_text(issue: Issue) -> str:
    """Join summary and description with a single space, skipping empties."""
    parts = [part for part in (issue.summary, issue.description) if part]
    return " ".join(parts)


# The document builders. A batch passes its own memo, built once for the
# batch (NaturalWords with the stopwords it uses); without one, each call
# works alone with the default stopwords.


def issue_doc(issue: Issue, words: NaturalWords | None = None) -> TokenStream:
    return (NaturalWords() if words is None else words).doc(issue_text(issue))


def message_doc(commit: Commit, words: NaturalWords | None = None) -> TokenStream:
    return (NaturalWords() if words is None else words).doc(commit.message)


def code_doc(commit: Commit, terms: CodeTerms | None = None) -> TokenStream:
    return (CodeTerms() if terms is None else terms).doc(commit.diff_text)
