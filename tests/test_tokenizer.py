from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fixture_path
from negeval import ParseError, TokenizerConfig, tokenize


def surfaces(text, config=None):
    return [span.text for span in tokenize(text, config)]


def test_punctuation_splits_off():
    assert surfaces("Mary, run!") == ["Mary", ",", "run", "!"]


def test_url_kept_whole():
    assert surfaces("see http://x.y/z now") == ["see", "http://x.y/z", "now"]


def test_url_final_period_stays_outside():
    assert surfaces("see http://x.y/z.") == ["see", "http://x.y/z", "."]


def test_abbreviations_kept_whole():
    assert surfaces("Dr. Smith met Mr. Jones") == ["Dr.", "Smith", "met", "Mr.", "Jones"]


def test_word_internal_characters():
    assert surfaces("IL-2 rose 3.5-fold") == ["IL-2", "rose", "3.5-fold"]
    assert surfaces("don't stop...") == ["don't", "stop", "..."]


def test_mixed_punctuation_runs():
    assert surfaces("(no),") == ["(", "no", ")", ","]


def test_offsets_are_ordered_and_nonoverlapping():
    spans = tokenize("Mary, run to http://a.b now!")
    for first, second in zip(spans, spans[1:]):
        assert first.end <= second.start
    for span in spans:
        assert span.start < span.end


def test_config_from_file():
    config = TokenizerConfig.from_file(fixture_path("tokenizer.rules"))
    assert "e.g." in config.abbreviations
    assert "Mrs." not in config.abbreviations
    assert surfaces("e.g. this", config) == ["e.g.", "this"]


def test_determinism():
    text = "Neither Mr. Holmes nor I, at www.example.org/x, slept."
    assert tokenize(text) == tokenize(text)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
def test_tokens_partition_non_whitespace(text):
    spans = tokenize(text)
    rebuilt = []
    cursor = 0
    for span in spans:
        gap = text[cursor : span.start]
        assert gap.strip() == ""  # only whitespace may be skipped
        rebuilt.append(gap)
        assert text[span.start : span.end] == span.text
        rebuilt.append(span.text)
        cursor = span.end
    tail = text[cursor:]
    assert tail.strip() == ""
    rebuilt.append(tail)
    assert "".join(rebuilt) == text


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x² ٣٤.٥ Ⅻ.", [("x²", 0, 2), ("٣٤.٥", 3, 7), ("Ⅻ", 8, 9), (".", 9, 10)]),
        # a combining mark is no word character
        ("cafe\u0301-bar", [("cafe", 0, 4), ("\u0301", 4, 5), ("-", 5, 6), ("bar", 6, 9)]),
        ("a_b--c IL-2-α.", [("a_b", 0, 3), ("--", 3, 5), ("c", 5, 6), ("IL-2-α", 7, 13), (".", 13, 14)]),
    ],
)
def test_non_ascii_word_runs(text, expected):
    assert [(s.text, s.start, s.end) for s in tokenize(text)] == expected


@pytest.mark.parametrize(
    "internal, expected",
    [("", ["a", "-", "b", "]", "c", "\\", "d"]), ("]\\", ["a", "-", "b]c\\d"])],
)
def test_word_internal_characters_from_the_config(internal, expected):
    assert surfaces("a-b]c\\d", TokenizerConfig(word_internal=internal)) == expected


def test_url_stays_inside_its_chunk():
    config = TokenizerConfig(url_pattern=r"go:.*")
    assert surfaces("go:a b. c", config) == ["go:a", "b", ".", "c"]


def test_rule_lines_end_at_line_feeds_only(tmp_path):
    # "\x0c" ends a line for str.splitlines, but not in any negeval input
    rules = tmp_path / "rules"
    rules.write_bytes("abbrev Dr.\x0cabbrev Mr.\n\x0c\r\nbogus x\n".encode("utf-8"))
    with pytest.raises(ParseError) as err:
        TokenizerConfig.from_file(rules)
    assert str(err.value) == f"{rules}:3: unknown tokenizer rule 'bogus'"
    rules.write_bytes("abbrev Dr.\x0cabbrev Mr.\n\x0c\r\n".encode("utf-8"))
    assert TokenizerConfig.from_file(rules).abbreviations == frozenset({"Dr.\x0cabbrev Mr."})
