"""Binary neural codes and their polarized neural ideals.

A codeword on n neurons is a length-n bit vector; internally codewords
are ints with c_i at bit i-1 (c_1 is the leftmost character of the text
form).  The neural ideal of a code has one indicator pseudomonomial
prod_{i in v} x_i * prod_{j not in v} (1 - x_j) per non-codeword v;
the substitution (1 - x_j) -> y_j polarizes it to the degree-n monomial
x^v * y^(full - v).  The ideal is therefore a truth table with bit
full ^ v (that generator's y-bits) set for each non-codeword v, and
`monomials.degree_n_ideal` builds it.
"""

from __future__ import annotations

from collections.abc import Iterable

from .monomials import (
    NeuronCountError,
    PolarizedNeuralIdeal,
    _Frozen,
    _set,
    _check_n,
    _content_lines,
    degree_n_ideal,
)

# The pipeline visits all 2^n words and may build 2^n generators.
MAX_CODE_NEURONS = 16


class LengthMismatchError(ValueError):
    """Codeword length does not match the ambient neuron count."""


class CodeParseError(ValueError):
    """Malformed code file."""


class NeuralCode(_Frozen):
    """A set of binary codewords of common length n (codewords as ints)."""

    def __init__(self, n: int, words: frozenset[int]):
        _check_n(n)
        for w in words:
            if w < 0 or w >> n:
                raise LengthMismatchError(f"codeword {w:#x} does not fit {n} bits")
        _set(self, "n", n)
        _set(self, "words", words)

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "NeuralCode":
        words = set()
        n = None
        for line in lines:
            if not set(line) <= {"0", "1"}:
                raise CodeParseError(f"bad codeword {line!r}")
            if n is None:
                n = len(line)
            elif len(line) != n:
                raise CodeParseError(
                    f"codeword {line!r} has length {len(line)}, expected {n}"
                )
            words.add(word_from_string(line))
        if n is None or n == 0:
            raise CodeParseError("code file contains no codewords")
        return cls(n, frozenset(words))

    def word_strings(self) -> list[str]:
        return sorted(word_to_string(w, self.n) for w in self.words)


def word_from_string(text: str) -> int:
    """`c_1 c_2 ... c_n` with c_1 leftmost."""
    w = 0
    for i, ch in enumerate(text):
        if ch == "1":
            w |= 1 << i
    return w


def word_to_string(word: int, n: int) -> str:
    return "".join("1" if word >> i & 1 else "0" for i in range(n))


def parse_code(text: str) -> NeuralCode:
    """Parse a code file: one binary string per line, `#` comments, blanks ignored."""
    return NeuralCode.from_strings(_content_lines(text))


def code_to_polarized_ideal(code: NeuralCode) -> PolarizedNeuralIdeal:
    """One degree-n generator x^v * y^(full - v) per non-codeword v.

    It is the polarized indicator pseudomonomial of v, so it vanishes on
    the whole code; the ideal has 2^n - |code| generators, and the full
    code yields the zero ideal.  Refuses codes on more than
    MAX_CODE_NEURONS neurons.
    """
    if code.n > MAX_CODE_NEURONS:
        raise NeuronCountError(f"a code on {code.n} neurons exceeds the "
                               f"{MAX_CODE_NEURONS}-neuron limit of the code pipeline")
    full = (1 << code.n) - 1
    table = 0
    for v in range(1 << code.n):
        if v not in code.words:
            table |= 1 << (full ^ v)
    return degree_n_ideal(table, code.n)
