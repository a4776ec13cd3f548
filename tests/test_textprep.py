from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_linker.corpus import synthesize_corpus
from hybrid_linker.porter import stem
from hybrid_linker.textprep import (
    CODE_TERM_PATTERNS,
    CodeTerms,
    NaturalWords,
    code_doc,
    extract_code_terms,
    issue_doc,
    issue_text,
    load_stopwords,
    message_doc,
    preprocess_natural,
)
from tests.conftest import make_commit, make_issue

# Hand-traced through the classic algorithm; each pair was checked against
# the published rule steps, not against this implementation.
PORTER_TABLE = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valency", "valenc"),
    ("hesitancy", "hesit"),
    ("digitizer", "digit"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controlling", "control"),
    ("rolling", "roll"),
    ("copying", "copi"),
    ("indicator", "indic"),
    ("value", "valu"),
    ("generalizations", "gener"),
    ("oscillators", "oscil"),
]


def test_porter_frozen_table():
    mismatches = [
        (word, expected, stem(word))
        for word, expected in PORTER_TABLE
        if stem(word) != expected
    ]
    assert mismatches == []


def test_porter_memo_returns_what_the_stemmer_computes():
    words = [word for word, _ in PORTER_TABLE]
    for _ in range(2):  # the second round is answered from the memo
        assert [stem(word) for word in words] == [stem.__wrapped__(w) for w in words]


def test_porter_leaves_short_words_alone():
    for word in ("a", "is", "ti", "x9"):
        assert stem(word) == word


def test_porter_handles_digit_words():
    # Digits count as consonants; purely numeric or mixed tokens survive.
    assert stem("x509") == "x509"
    assert stem("42") == "42"


def test_preprocess_example_sentence():
    assert preprocess_natural("Copying indicator value").tokens == (
        "copi",
        "indic",
        "valu",
    )


def test_preprocess_drops_stopwords_and_short_tokens():
    out = preprocess_natural("the parser is crashing in a loop")
    assert out.tokens == ("parser", "crash", "loop")


def test_preprocess_splits_on_non_alphanumeric():
    out = preprocess_natural("fix/CRASH_in-parser.c")
    assert out.tokens == ("fix", "crash", "parser")


def test_preprocess_refilters_after_stemming():
    # "ies" passes the length gate, stems to a single letter, and must go.
    assert stem("ies") == "i"
    assert preprocess_natural("ies").tokens == ()


def test_preprocess_output_invariants():
    corpus = synthesize_corpus(seed=17, n_issues=40, n_commits=40)
    stopwords = load_stopwords()
    texts = [issue_text(it) for it in corpus.issues]
    texts += [c.message for c in corpus.commits]
    texts.append("A_b-c d/e 42X the THE tHe 0x1F  ,,  ")
    token_shape = re.compile(r"[a-z0-9]{2,}")
    for text in texts:
        tokens = preprocess_natural(text, stopwords).tokens
        for token in tokens:
            assert token_shape.fullmatch(token), token
            assert token not in stopwords
        again = preprocess_natural(" ".join(tokens), stopwords).tokens
        assert len(again) == len(tokens)


def test_code_pattern_examples_match_their_patterns():
    stated = {
        "OPT_INFO": "c_notation",
        "op.addOption": "qualified_name",
        "addToList": "camel_case",
        "XOR": "upper_case",
        "_cmd": "system_variable",
        "std::env": "reference_expression",
    }
    for token, pattern_name in stated.items():
        assert CODE_TERM_PATTERNS[pattern_name].fullmatch(token), token


def test_code_pattern_negatives_rejected():
    for token in ("opt", "add", "xor", "9_x", "::", "_"):
        assert extract_code_terms(token).tokens == (), token


def test_extract_code_terms_verbatim_subset_with_duplicates():
    text = "call Foo.bar then Foo.bar again with XOR and plain words"
    out = extract_code_terms(text).tokens
    assert out == ("Foo.bar", "Foo.bar", "XOR")
    assert set(out) <= set(text.split())


def test_extract_code_terms_no_normalization():
    out = extract_code_terms("OPT_INFO opt_info").tokens
    assert out == ("OPT_INFO", "opt_info")


def test_issue_text_joins_summary_and_description():
    assert issue_text(make_issue(summary="s", description="d")) == "s d"
    assert issue_text(make_issue(summary="s", description="")) == "s"
    assert issue_text(make_issue(summary="", description="")) == ""


def test_doc_builders_and_kinds():
    issue = make_issue(summary="Copying indicator", description="value")
    commit = make_commit(
        message="fixed the copying", diff_text="+ OPT_INFO\n+ plain"
    )
    idoc = issue_doc(issue)
    mdoc = message_doc(commit)
    assert idoc.kind == "natural"
    assert idoc.tokens == ("copi", "indic", "valu")
    assert mdoc.tokens == ("fix", "copi")
    cdoc = code_doc(commit)
    assert cdoc.kind == "code_term"
    assert cdoc.tokens == ("OPT_INFO",)


def test_load_stopwords_packaged_list():
    stopwords = load_stopwords()
    assert isinstance(stopwords, frozenset)
    assert {"the", "is", "and"} <= stopwords
    assert not any(word.startswith("#") for word in stopwords)


def test_load_stopwords_custom_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nfoo\nbar\n\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"foo", "bar"})


CODE_TOKENS = st.text(alphabet="abzABZ019_.:-", min_size=1, max_size=8)


@settings(max_examples=1000)
@given(st.lists(CODE_TOKENS, max_size=6))
def test_code_terms_are_tokens_matching_any_one_pattern(tokens):
    want = tuple(
        token
        for token in tokens
        if any(p.fullmatch(token) for p in CODE_TERM_PATTERNS.values())
    )
    assert extract_code_terms(" ".join(tokens)).tokens == want


# Any code point, lone surrogates included, mixed with ASCII words, so that
# stems, stopwords and short tokens all occur between the separators.
ANY_TEXT = st.lists(
    st.one_of(
        st.characters(codec=None, exclude_categories=()),
        st.sampled_from(["the", "Copying", "indicators", "x509", "a", "IES", " ", "_"]),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=1000)
@given(
    st.lists(ANY_TEXT, max_size=4),
    st.sampled_from([None, frozenset(), frozenset({"copi", "indicators"})]),
)
@example(["\u212aelvin \u0130stanbul \u0663\u0664 \ud800ab\udfff cd"], None)
@example(["KELVIN \u212a\u212a \u0130\u0130 \uff11\uff12 \u0966\u0967 \U0001d7d8"], frozenset())
@example(["\ud83dx"], frozenset())
def test_natural_words_tokenize_as_preprocess_natural(texts, stopwords):
    # One memo over several texts gives each text the tokens a lone call does.
    words = NaturalWords(stopwords)
    for text in texts:
        assert words.doc(text) == preprocess_natural(text, stopwords)


@settings(max_examples=500)
@given(st.lists(ANY_TEXT | st.lists(CODE_TOKENS, max_size=8).map(" ".join), max_size=4))
def test_code_terms_match_extract_code_terms(diffs):
    terms = CodeTerms()
    for diff in diffs:
        assert terms.doc(diff) == extract_code_terms(diff)


def test_doc_builders_with_a_shared_memo_match_lone_calls():
    corpus = synthesize_corpus(seed=5, n_issues=15, n_commits=15)
    stopwords = load_stopwords()
    words, terms = NaturalWords(stopwords), CodeTerms()
    for issue, commit in zip(corpus.issues, corpus.commits):
        assert issue_doc(issue, words) == issue_doc(issue, NaturalWords(stopwords))
        assert message_doc(commit, words) == message_doc(commit, NaturalWords(stopwords))
        assert code_doc(commit, terms) == code_doc(commit)
        assert issue_doc(issue, words).tokens == preprocess_natural(
            issue_text(issue), stopwords
        ).tokens
        assert issue_doc(issue) == preprocess_natural(issue_text(issue))
