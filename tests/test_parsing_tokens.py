"""The scanner's one token reader against the per-token loops it replaced.

``_Reference`` is a copy of the scanner methods that read names, idents,
integers, numbers, quoted strings, whitespace, free-group letter indices
and the lone identity ``e`` one character loop each.  On random text over
ASCII and non-ASCII letters, decimal and non-decimal digits, punctuation
and Unicode whitespace, both must read the same token and stop at the same
offset, or both must raise ``GrammarError``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import parsing
from walklab.parsing import GrammarError, _Scanner

ALPHABET = "abeExXZ_\u00e9\u0436\u4e00" "0123456789\u0663\u00b2\u00bd\u2167" '+-./"' " \t\n\u00a0\u2003"


class _Reference:
    def __init__(self, text: str, pos: int):
        self.text = text
        self.pos = pos

    def error(self, message: str) -> GrammarError:
        return GrammarError(f"{message} at offset {self.pos}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalpha()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (self.text[self.pos].isalpha()
                                          or self.text[self.pos] == "_"):
            self.pos += 1
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                                 or self.text[self.pos] == "_"):
                self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] in "./"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        try:
            return Fraction(self.text[start:self.pos])
        except (ValueError, ZeroDivisionError) as exc:
            raise self.error(f"bad number ({exc})") from None

    def quoted(self) -> str:
        self.skip_ws()
        if self.peek() != '"':
            raise self.error("expected a quoted string")
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            raise self.error("unterminated quoted string")
        out = self.text[self.pos + 1:end]
        self.pos = end + 1
        return out

    def letter_index(self) -> int:
        """``_word``'s read of ``x<i>`` / ``X<i>``: the letter, then digits
        with no whitespace between."""
        if self.peek() not in ("x", "X"):
            raise self.error("expected a letter")
        self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected a letter index")
        return int(self.text[digits:self.pos])

    def lone_e(self) -> bool:
        """``_element``'s look-ahead: an ``e`` that starts no longer name."""
        if self.peek() == "e":
            rest = self.text[self.pos + 1:self.pos + 2]
            if not (rest.isalnum() or rest == "_"):
                self.pos += 1
                return True
        return False


def _letter_index(sc: _Scanner) -> int:
    if sc.peek() not in ("x", "X"):
        raise sc.error("expected a letter")
    return int(sc.take(parsing._LETTER, "a letter index")[1:])


READERS = {
    "skip_ws": lambda sc: sc.take(parsing._SPACE) or None,
    "name": lambda sc: sc.take(parsing._name_char, "a name"),
    "ident": lambda sc: sc.take(parsing._ident_char, "a name"),
    "integer": parsing._integer,
    "number": parsing._number,
    "quoted": lambda sc: sc.take(parsing._QUOTED, "a quoted string")[1:-1],
    "letter_index": _letter_index,
    "lone_e": lambda sc: bool(sc.take(parsing._LONE_E)),
}


def _read(scanner, reader):
    try:
        return reader(scanner), scanner.pos
    except GrammarError:
        return "error", None


@pytest.mark.parametrize("token", sorted(READERS))
@settings(max_examples=100, deadline=None)
@given(text=st.text(alphabet=ALPHABET, max_size=8), start=st.integers(0, 2))
def test_token_reader_matches_per_token_loops(token, text, start):
    start = min(start, len(text))
    sc = _Scanner(text)
    sc.pos = start
    ref = _Reference(text, start)
    assert _read(sc, READERS[token]) == _read(ref, getattr(_Reference, token))



def test_token_reader_matches_on_every_short_text():
    """Every text of up to two characters over the alphabet: each pair a
    random draw may miss, such as ``x`` before a non-ASCII decimal digit."""
    for n in range(3):
        for text in map("".join, itertools.product(ALPHABET, repeat=n)):
            for token, reader in READERS.items():
                ref = _read(_Reference(text, 0), getattr(_Reference, token))
                assert _read(_Scanner(text), reader) == ref, (token, text)
