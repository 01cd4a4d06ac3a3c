"""Injective words over {1..n} and their chain algebra.

A ranking of a subset of items is stored as an injective word: an ordered
sequence of distinct item ids.  Chains are sparse linear combinations of
words with integer or float coefficients; every operation here is a pure
function returning a new value.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Iterator, Mapping

FLOAT_PRUNE_TOL = 1e-12


class Word:
    """An injective word: distinct letters from 1..n, order significant.

    The empty word (size 0) is valid and renders as "-".
    """

    __slots__ = ("letters", "n", "_hash")

    def __init__(self, letters: Iterable[int], n: int):
        letters = tuple(letters)
        if n < 0:
            raise ValueError(f"universe size must be >= 0, got {n}")
        seen = set()
        for a in letters:
            if not isinstance(a, int) or not 1 <= a <= n:
                raise ValueError(f"letter {a!r} outside 1..{n}")
            if a in seen:
                raise ValueError(f"letter {a} repeated in word {letters}")
            seen.add(a)
        self.letters = letters
        self.n = n
        self._hash = hash((letters, n))

    @classmethod
    def _make(cls, letters: tuple[int, ...], n: int) -> "Word":
        """Fast path for trusted callers; skips validation."""
        w = object.__new__(cls)
        w.letters = letters
        w.n = n
        w._hash = hash((letters, n))
        return w

    @classmethod
    def empty(cls, n: int) -> "Word":
        return cls._make((), n)

    @classmethod
    def parse(cls, text: str, n: int) -> "Word":
        """Inverse of str(): "13425" for n <= 9, "1,3,4,2,5" beyond, "-" empty."""
        text = text.strip()
        if text == "-" or text == "":
            return cls.empty(n)
        if "," in text:
            return cls(tuple(int(part) for part in text.split(",")), n)
        if n <= 9:
            return cls(tuple(int(ch) for ch in text), n)
        return cls((int(text),), n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Word") -> bool:
        return self.letters < other.letters

    def __str__(self) -> str:
        if not self.letters:
            return "-"
        if self.n <= 9:
            return "".join(str(a) for a in self.letters)
        return ",".join(str(a) for a in self.letters)

    def __repr__(self) -> str:
        return f"Word({self}, n={self.n})"


def content(w: Word) -> frozenset[int]:
    """The set of letters appearing in w."""
    return frozenset(w.letters)


def restrict(w: Word, items: Iterable[int]) -> Word:
    """The subword of w keeping only the given items, order preserved."""
    keep = set(items)
    return Word._make(tuple(a for a in w.letters if a in keep), w.n)


def insert_at(w: Word, b: int, i: int) -> Word:
    """Insert letter b at 1-based position i (1 <= i <= len(w) + 1)."""
    if b in w.letters:
        raise ValueError(f"letter {b} already in word {w}")
    if not 1 <= i <= len(w) + 1:
        raise ValueError(f"position {i} out of range for word of size {len(w)}")
    if not 1 <= b <= w.n:
        raise ValueError(f"letter {b} outside 1..{w.n}")
    return Word._make(w.letters[: i - 1] + (b,) + w.letters[i - 1 :], w.n)


def epsilon(w: Word, b: int, a: int) -> int:
    """+1 if b immediately follows a in w, -1 if immediately precedes, else 0."""
    letters = w.letters
    if a not in letters or b not in letters:
        return 0
    diff = letters.index(b) - letters.index(a)
    if diff == 1:
        return 1
    if diff == -1:
        return -1
    return 0


def _pruned(coeff) -> bool:
    """True if the coefficient survives canonical pruning."""
    if isinstance(coeff, int):
        return coeff != 0
    return abs(coeff) > FLOAT_PRUNE_TOL


def _accumulate(pairs: Iterable[tuple], out: dict | None = None) -> dict:
    """Sum (key, coefficient) pairs in order into out (a new dict without
    it), dropping a key as soon as its running total prunes to zero: the
    one summation of the chain builders (parse_chain aside, see there)."""
    if out is None:
        out = {}
    for key, c in pairs:
        s = out.get(key, 0) + c
        if _pruned(s):
            out[key] = s
        else:
            out.pop(key, None)
    return out


class Chain:
    """A sparse linear combination of injective words over a fixed universe.

    Zero coefficients are pruned eagerly (exactly for ints, below 1e-12 for
    floats) so equality is structural; NaN and infinite coefficients are
    refused.  Supports +, -, scalar *, and ==.
    """

    __slots__ = ("n", "terms")

    def __init__(self, terms: Mapping[Word, float] | None = None, n: int | None = None):
        if terms is None:
            if n is None:
                raise ValueError("empty chain needs an explicit universe size n")
            self.n = n
            self.terms = {}
            return
        if n is None:
            if not terms:
                raise ValueError("empty chain needs an explicit universe size n")
            n = next(iter(terms)).n
        for w, c in terms.items():
            if w.n != n:
                raise ValueError(f"word {w!r} has universe {w.n}, chain has {n}")
            if c != c or abs(c) == inf:  # no float() call, so big ints stay exact
                raise ValueError(f"coefficient of {w} is not finite: {c!r}")
        self.n = n
        self.terms = {w: c for w, c in terms.items() if _pruned(c)}

    @classmethod
    def _make(cls, terms: dict, n: int) -> "Chain":
        """Trusted constructor: terms already pruned and consistent."""
        x = object.__new__(cls)
        x.terms = terms
        x.n = n
        return x

    @classmethod
    def zero(cls, n: int) -> "Chain":
        return cls._make({}, n)

    @classmethod
    def dirac(cls, w: Word) -> "Chain":
        return cls._make({w: 1}, w.n)

    @classmethod
    def indicator(cls, words: Iterable[Word], n: int) -> "Chain":
        """The chain summing the Dirac of every word in the (de-duplicated) set."""
        return cls._make({w: 1 for w in set(words)}, n)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Word, float]]:
        return iter(self.terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Chain) and self.n == other.n and self.terms == other.terms

    def __call__(self, w: Word) -> float:
        return self.terms.get(w, 0)

    def __add__(self, other: "Chain") -> "Chain":
        if self.n != other.n:
            raise ValueError(f"universe mismatch: {self.n} vs {other.n}")
        return Chain._make(_accumulate(other.terms.items(), dict(self.terms)), self.n)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __neg__(self) -> "Chain":
        return Chain._make({w: -c for w, c in self.terms.items()}, self.n)

    def __mul__(self, scalar) -> "Chain":
        out = {}
        for w, c in self.terms.items():
            s = c * scalar
            if _pruned(s):
                out[w] = s
        return Chain._make(out, self.n)

    __rmul__ = __mul__

    def support(self) -> set[Word]:
        return set(self.terms)

    def total_mass(self) -> float:
        return sum(self.terms.values())

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0)

    def is_integer(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def map_words(self, fn) -> "Chain":
        """Linear extension of a word map fn: Word -> Word."""
        return Chain._make(_accumulate((fn(w), c) for w, c in self.terms.items()), self.n)

    def __str__(self) -> str:
        return format_chain(self)

    def __repr__(self) -> str:
        return f"Chain({format_chain(self)!r}, n={self.n})"


def format_chain(x: Chain) -> str:
    """Signed terms in lexicographic word order, e.g. "+13425 -13452"."""
    if not x.terms:
        return "0"
    parts = []
    for w in sorted(x.terms):
        c = x.terms[w]
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        if isinstance(mag, int) and mag == 1:
            parts.append(f"{sign}{w}")
        else:
            parts.append(f"{sign}{mag}*{w}")
    return " ".join(parts)


def parse_chain(text: str, n: int) -> Chain:
    """Inverse of format_chain for integer and float coefficients.

    Terms are summed first and validated by Chain() after, not through
    _accumulate: "+1e999*12 -1e999*12" sums to NaN, which pruning would
    drop before Chain() could refuse it.
    """
    text = text.strip()
    if text == "0" or not text:
        return Chain.zero(n)
    terms: dict = {}
    for token in text.split():
        sign = 1
        if token[0] == "+":
            token = token[1:]
        elif token[0] == "-":
            sign = -1
            token = token[1:]
        if "*" in token:
            mag_text, word_text = token.split("*", 1)
            mag = float(mag_text) if "." in mag_text or "e" in mag_text else int(mag_text)
        else:
            mag, word_text = 1, token
        w = Word.parse(word_text, n)
        terms[w] = terms.get(w, 0) + sign * mag
    return Chain(terms, n)


def delete(x: Chain, a: int) -> Chain:
    """Erase letter a from every word that contains it; fix the others."""
    return delete_set(x, (a,))


def delete_set(x: Chain, items: Iterable[int]) -> Chain:
    """Compose single-letter deletions; order is irrelevant (they commute)."""
    keep_out = set(items)
    if not keep_out:
        return x

    def drop(w: Word) -> Word:
        return Word._make(tuple(b for b in w.letters if b not in keep_out), w.n)

    return x.map_words(drop)


def concat(x: Chain, y: Chain) -> Chain:
    """Bilinear concatenation: words with overlapping content multiply to 0."""
    if x.n != y.n:
        raise ValueError(f"universe mismatch: {x.n} vs {y.n}")

    def products():
        for w1, c1 in x.terms.items():
            set1 = set(w1.letters)
            for w2, c2 in y.terms.items():
                if set1.isdisjoint(w2.letters):
                    yield Word._make(w1.letters + w2.letters, x.n), c1 * c2

    return Chain._make(_accumulate(products()), x.n)


def diamond(x: Chain, y: Chain) -> Chain:
    """The commutator-style product xy - yx on chains."""
    return concat(x, y) - concat(y, x)


def translate(x: Chain, s) -> Chain:
    """Relabel every word letterwise by the permutation s (canonical action)."""
    if s.n != x.n:
        raise ValueError(f"permutation acts on 1..{s.n}, chain lives on 1..{x.n}")
    images = s.images

    def relabel(w: Word) -> Word:
        return Word._make(tuple(images[a - 1] for a in w.letters), w.n)

    return x.map_words(relabel)
