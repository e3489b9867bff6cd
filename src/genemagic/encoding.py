"""Nucleotide letters, words, and their exact numeral renderings.

The four letters carry fixed codes: two-bit pairs C=00, A=01, T=10, G=11
and single digits C=1, A=2, T=3, G=4.  A word is an uppercase string of
letters ("TTA").

Letter rule: the single-word functions (``parse_word``, ``encode``,
``bit_string``, ``digit_string``, ``translate``, ...) accept lower case
and U as an input alias for T.  Grid cells are stricter: a ``Grid`` (and
so a grid file) holds only upper-case C, A, T and G, checked once when
the grid is built.

Three numeral renderings of a word are supported:

* BIN:   the concatenated bit pairs read as a *base-10* numeral, so
         "TTA" -> "101001" -> 101001 (one hundred one thousand and one).
* DIGIT: the concatenated digits read in base 10, "TTA" -> 332.
* DEC:   the bit string read in base 2, plus one, "TTA" -> 42.  For a
         fixed length n this is a bijection onto 1..4**n.
"""

from __future__ import annotations

import enum
from itertools import product
from typing import NamedTuple

from .errors import ParseError, RangeError, ShapeError

LETTERS = "CATG"

BIT_PAIRS = {"C": "00", "A": "01", "T": "10", "G": "11"}
LETTER_DIGITS = {"C": "1", "A": "2", "T": "3", "G": "4"}

_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_BITS = str.maketrans(BIT_PAIRS)
_DIGITS = str.maketrans(LETTER_DIGITS)
#: One base-4 digit per letter: the bit string read in base 2 is this read in base 4.
_QUATERNARY = str.maketrans("CATG", "0123")
#: XOR of each letter's bit pair: 1 exactly for A (01) and T (10).
_XOR = str.maketrans("CATG", "0110")

#: Longest encodable word: 2n digits of a BIN numeral must stay within
#: exact 64-bit range so renderings are portable as plain integers.
MAX_WORD_LEN = 9


class Notation(enum.Enum):
    """One of the three numeral renderings."""

    BIN = "bin"
    DIGIT = "digit"
    DEC = "dec"


class GrayPair(NamedTuple):
    """Per-word pair of bit strings: first bits and second bits of each letter."""

    top: str
    bottom: str


def parse_word(text: str) -> str:
    """Normalize ``text`` to a word, accepting lowercase and U for T."""
    word = text.strip().upper().replace("U", "T")
    if not word:
        raise ParseError("empty word")
    for pos, letter in enumerate(word):
        if letter not in BIT_PAIRS:
            raise ParseError(
                f"invalid letter {letter!r} at position {pos + 1} in {text.strip()!r}"
            )
    return word


def bit_string(word: str) -> str:
    """Concatenated two-bit codes of the word's letters."""
    return parse_word(word).translate(_BITS)


def digit_string(word: str) -> str:
    return parse_word(word).translate(_DIGITS)


def encode(word: str, notation: Notation) -> int:
    """Exact numeral value of ``word`` under ``notation``."""
    word = parse_word(word)
    _check_length(len(word))
    return _encode_words([word], notation)[0]


def _check_length(word_len: int) -> None:
    if word_len > MAX_WORD_LEN:
        raise RangeError(
            f"word of length {word_len} exceeds the {MAX_WORD_LEN}-letter encoding limit"
        )


def _encode_words(words: list[str], notation: Notation) -> list[int]:
    """Values of words already checked to be upper-case C/A/T/G of encodable length."""
    if notation is Notation.BIN:
        return [int(w.translate(_BITS)) for w in words]
    if notation is Notation.DIGIT:
        return [int(w.translate(_DIGITS)) for w in words]
    return [int(w.translate(_QUATERNARY), 4) + 1 for w in words]


def gray_pair(word: str) -> GrayPair:
    pairs = [BIT_PAIRS[c] for c in parse_word(word)]
    return GrayPair("".join(p[0] for p in pairs), "".join(p[1] for p in pairs))


def xor_reduce(word: str) -> str:
    """Bitwise modulo-2 sum of the word's gray pair.

    The result has a 1 exactly at the positions holding A or T.
    """
    return parse_word(word).translate(_XOR)


def hamming_weight(word: str) -> int:
    """Number of positions where the gray pair differs: the count of A/T letters."""
    return sum(1 for c in parse_word(word) if c in "AT")


def complement(word: str) -> str:
    """Letterwise Watson-Crick complement (A<->T, C<->G); an involution."""
    return parse_word(word).translate(_COMPLEMENT)


def all_words(length: int) -> list[str]:
    """Every word of the given length, in product order over C, A, T, G."""
    return ["".join(p) for p in product(LETTERS, repeat=length)]


_AMINO_1TO3 = {
    "A": "Ala", "R": "Arg", "N": "Asn", "D": "Asp", "C": "Cys",
    "Q": "Gln", "E": "Glu", "G": "Gly", "H": "His", "I": "Ile",
    "L": "Leu", "K": "Lys", "M": "Met", "F": "Phe", "P": "Pro",
    "S": "Ser", "T": "Thr", "W": "Trp", "Y": "Tyr", "V": "Val",
    "*": "Stop",
}

# Standard genetic code, codons in TCAG x TCAG x TCAG order.
_CODON_STRING = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"

GENETIC_CODE: dict[str, str] = {
    a + b + c: _AMINO_1TO3[aa]
    for (a, b, c), aa in zip(product("TCAG", repeat=3), _CODON_STRING)
}


def translate(codon: str) -> str:
    """Amino-acid label ("Gln", "Stop", ...) of a three-letter codon."""
    codon = parse_word(codon)
    if len(codon) != 3:
        raise ShapeError(f"codon must have exactly 3 letters, got {len(codon)}")
    return GENETIC_CODE[codon]
