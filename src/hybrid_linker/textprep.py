"""Text preprocessing: natural-language tokens and code-term extraction.

Natural text goes through lowercase, alphanumeric splitting, short-token
and stopword removal, then Porter stemming. Diff text is split on
whitespace and filtered down to tokens that look like identifiers; those
are kept verbatim, duplicates and case included.

NaturalWords and CodeTerms define the tokens. Each is the memo of one batch
of texts and works out each distinct word of the batch once; the document
builders take the batch's memo.
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

# Maps every byte but a-z and 0-9 to a space. Lowercased text encoded to
# ASCII, each other code point as "?", and translated with it splits on
# whitespace into the maximal runs of [a-z0-9] in the lowercased text.
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
    """An ordered token sequence: one document."""

    tokens: tuple[str, ...]


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list; None loads the list shipped with the package.

    A UTF-8 byte order mark at the start of the file is skipped.
    """
    if path is None:
        return _default_stopwords()
    try:
        return _parse_stopwords(Path(path).read_text(encoding="utf-8-sig"))
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


class NaturalWords(dict):
    """Tokenizes prose: lowercase, split into runs of [a-z0-9], filter, stem.

    Maps a lowercase run of [a-z0-9] to its stemmed token, or to "" when it
    is dropped: a stopword (None means the packaged list), or shorter than
    two characters before or after stemming. Every token doc returns thus
    matches [a-z0-9]{2,}. A word seen before costs one C-level dict hit. It
    holds every word of its batch, so build one per batch.
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
        return TokenStream(tuple(tokens))


class CodeTerms(dict):
    """Pulls the identifier-looking tokens out of diff text, verbatim and in order.

    A token is a whitespace-free run that fully matches one of
    CODE_TERM_PATTERNS. Maps a token to whether it is a code term. It holds
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
        return TokenStream(tuple(kept))


def issue_text(issue: Issue) -> str:
    """Join summary and description with a single space, skipping empties."""
    parts = [part for part in (issue.summary, issue.description) if part]
    return " ".join(parts)


# The document builders. A batch passes its own memo, built once for the
# batch (NaturalWords with the stopwords it uses).


def issue_doc(issue: Issue, words: NaturalWords) -> TokenStream:
    return words.doc(issue_text(issue))


def message_doc(commit: Commit, words: NaturalWords) -> TokenStream:
    return words.doc(commit.message)


def code_doc(commit: Commit, terms: CodeTerms) -> TokenStream:
    return terms.doc(commit.diff_text)
