"""Words, Hamming weight and dense index tables for the q-ary n-cube.

The vertex set is the abelian group Z_q^n of words with n digits in
{0, ..., q-1}.  Two words are adjacent when they differ in exactly one
position.  The regions the rest of the package works on are

* sphere  W_r      -- words of weight exactly r,
* ball    B_r      -- words of weight at most r,
* face    G^I(c)   -- words agreeing with c outside the position set I
                      (an |I|-dimensional subcube),
* full-support S^I -- words whose set of nonzero positions is exactly I,

and the package never walks them word by word: it selects them as rank
arrays from the cached tables at the end of this module.  Tuple-level
enumerators live with the test references in ``tests/oracles.py``.

Positions are 1-based throughout the public API.  A word is a plain tuple
of digits; its rank is the value of the digit string read as a base-q
numeral, most significant position first, which doubles as the index into
dense value arrays.

Construction of ``SchemeParams`` refuses instances above a configurable
state cap so a typo in (q, n) fails fast instead of exhausting memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

Word = tuple[int, ...]
IndexSet = tuple[int, ...]

DEFAULT_MAX_STATES = 4096 * 16
MAX_STATES_ENV = "HAMRECON_MAX_STATES"


def max_states() -> int:
    """Current enumeration cap on q^n (env var overrides the default)."""
    raw = os.environ.get(MAX_STATES_ENV)
    if raw is None:
        return DEFAULT_MAX_STATES
    value = int(raw)
    if value < 1:
        raise ValueError(f"{MAX_STATES_ENV} must be positive, got {raw}")
    return value


@dataclass(frozen=True)
class SchemeParams:
    """Alphabet size q >= 3 and dimension n >= 1 of the Hamming space."""

    q: int
    n: int

    def __post_init__(self) -> None:
        if self.q < 3:
            raise ValueError(f"alphabet size must be at least 3, got q={self.q}")
        if self.n < 1:
            raise ValueError(f"dimension must be at least 1, got n={self.n}")
        cap = max_states()
        if self.q**self.n > cap:
            raise ValueError(
                f"q^n = {self.q}^{self.n} exceeds the enumeration cap {cap}"
                f" (set {MAX_STATES_ENV} to raise it)"
            )

    @property
    def size(self) -> int:
        return self.q**self.n


# ---------------------------------------------------------------------------
# words


def check_word(params: SchemeParams, word: Sequence[int]) -> Word:
    w = tuple(int(x) for x in word)
    if len(w) != params.n:
        raise ValueError(f"word length {len(w)} != n = {params.n}")
    for x in w:
        if not 0 <= x < params.q:
            raise ValueError(f"digit {x} outside [0, {params.q})")
    return w


def word_rank(params: SchemeParams, word: Sequence[int]) -> int:
    """Rank of a word: its digit string read as a base-q numeral."""
    r = 0
    for x in word:
        r = r * params.q + int(x)
    return r


def rank_word(params: SchemeParams, rank: int) -> Word:
    if not 0 <= rank < params.size:
        raise ValueError(f"rank {rank} outside [0, {params.size})")
    digits = [0] * params.n
    for pos in range(params.n - 1, -1, -1):
        rank, digits[pos] = divmod(rank, params.q)
    return tuple(digits)


def word_text(word: Sequence[int]) -> str:
    """Text form: digits concatenated, most significant position first."""
    if any(x > 9 for x in word):
        raise ValueError("text form is only defined for single-character digits (q <= 10)")
    return "".join(str(x) for x in word)


def parse_word(params: SchemeParams, text: str) -> Word:
    """Word of a text form: exactly n ASCII digits 0..q-1, as :func:`text_ranks` checks."""
    return rank_word(params, int(text_ranks(params, [text])[0]))


def rank_texts(params: SchemeParams, ranks) -> list[str]:
    """Text forms of the words with the given ranks; :func:`word_text` per rank."""
    digits = digits_table(params.q, params.n)[ranks]
    if digits.size and digits.max() > 9:
        raise ValueError("text form is only defined for single-character digits (q <= 10)")
    codes = (digits + ord("0")).astype(np.uint8)
    return codes.view(f"S{params.n}").ravel().astype(f"U{params.n}").tolist()


def text_ranks(params: SchemeParams, texts: Sequence[str]) -> np.ndarray:
    """Ranks of the words in text form; :func:`parse_word` and :func:`word_rank` per text.

    Only the ASCII digits 0..q-1 are accepted.  A text that is not a string
    raises TypeError; a wrong length or any other character raises
    ValueError naming the first offending text.
    """
    if not texts:
        return np.zeros(0, dtype=np.int64)
    if params.q > 10:
        raise ValueError("text form is only defined for q <= 10")
    n = params.n
    joined = "".join(texts)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    bad = np.flatnonzero(lengths != n)
    if bad.size:
        raise ValueError(f"word {texts[bad[0]]!r} has length {lengths[bad[0]]} != n = {n}")
    # one code point per character, so non-ASCII digits fail the range test too
    codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).reshape(-1, n)
    digits = codes.astype(np.int64) - ord("0")
    bad = np.flatnonzero(((digits < 0) | (digits >= params.q)).any(axis=1))
    if bad.size:
        raise ValueError(
            f"word {texts[bad[0]]!r} has a character outside the digits 0..{params.q - 1}"
        )
    return digits @ (params.q ** np.arange(n - 1, -1, -1, dtype=np.int64))


def weight(a: Sequence[int]) -> int:
    return sum(1 for x in a if x != 0)


def support(a: Sequence[int]) -> IndexSet:
    """1-based positions of the nonzero digits."""
    return tuple(pos for pos, x in enumerate(a, start=1) if x != 0)


# ---------------------------------------------------------------------------
# position sets


def check_positions(positions: Iterable[int], n: int) -> IndexSet:
    """Canonicalize a set of 1-based positions: sorted, distinct, in [1, n]."""
    pos = sorted(int(p) for p in positions)
    for p in pos:
        if not 1 <= p <= n:
            raise ValueError(f"position {p} outside [1, {n}]")
    if len(set(pos)) != len(pos):
        raise ValueError(f"positions contain duplicates: {pos}")
    return tuple(pos)


def complement(positions: Iterable[int], n: int) -> IndexSet:
    inside = set(check_positions(positions, n))
    return tuple(p for p in range(1, n + 1) if p not in inside)


# ---------------------------------------------------------------------------
# dense tables (cached per (q, n); sub-schemes may use q - 1 >= 2 here,
# which is why these are keyed on raw integers instead of SchemeParams)


@lru_cache(maxsize=None)
def digits_table(q: int, n: int) -> np.ndarray:
    """(q^n, n) array whose row r holds the digits of the rank-r word."""
    if q < 2 or n < 1:
        raise ValueError(f"digits_table needs q >= 2, n >= 1, got ({q}, {n})")
    ranks = np.arange(q**n)
    cols = [(ranks // q ** (n - 1 - j)) % q for j in range(n)]
    table = np.stack(cols, axis=1).astype(np.int64)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def weight_table(q: int, n: int) -> np.ndarray:
    """(q^n,) array of Hamming weights indexed by rank."""
    w = (digits_table(q, n) != 0).sum(axis=1)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def weight_ranks(q: int, n: int, w: int) -> np.ndarray:
    """Ranks of all words of weight exactly w, ascending."""
    r = np.nonzero(weight_table(q, n) == w)[0]
    r.setflags(write=False)
    return r


def position_weights(params: SchemeParams, positions: IndexSet) -> np.ndarray:
    """Rank contribution q^(n-p) of each position p in ``positions``."""
    return np.array([params.q ** (params.n - p) for p in positions], dtype=np.int64)
