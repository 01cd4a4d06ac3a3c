"""Marginal operators, ranking extensions, observation designs, projectivity.

The marginal of a function on full rankings onto a subset A is the deletion
of every letter outside A.  A family of per-subset chains is projective when
deleting down from any finer subset reproduces the coarser chain exactly.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations as iter_permutations
from math import factorial
from typing import Iterable, Iterator

from .words import Chain, Word, content, delete_set

REAL_PROJECTIVITY_TOL = 1e-9


def all_words(items: Iterable[int], n: int) -> list[Word]:
    """Every word of content exactly `items`, in lexicographic order."""
    return [Word._make(p, n) for p in iter_permutations(sorted(items))]


def marginal(f: Chain, items: Iterable[int]) -> Chain:
    """Induced chain on rankings of `items`: delete every other letter."""
    items = set(items)
    if not items:
        raise ValueError("marginal needs at least one item")
    return delete_set(f, set(range(1, f.n + 1)) - items)


def extensions(p: Word, target: Iterable[int]) -> set[Word]:
    """All words of content `target` admitting p as a subword."""
    target = set(target)
    missing = target - set(p.letters)
    if set(p.letters) - target:
        raise ValueError(f"content of {p} is not within {sorted(target)}")
    words = [p.letters]
    for b in sorted(missing):
        words = [
            w[:i] + (b,) + w[i:] for w in words for i in range(len(w) + 1)
        ]
    return {Word._make(w, p.n) for w in words}


def contiguous_extensions(p: Word, target: Iterable[int]) -> set[Word]:
    """All words of content `target` admitting p as a contiguous subword."""
    target = set(target)
    missing = sorted(target - set(p.letters))
    if set(p.letters) - target:
        raise ValueError(f"content of {p} is not within {sorted(target)}")
    out = set()
    for split in range(len(missing) + 1):
        for left in iter_permutations(missing, split):
            rest = [b for b in missing if b not in left]
            for right in iter_permutations(rest):
                out.add(Word._make(left + p.letters + tuple(right), p.n))
    return out


def supports_within(items: Iterable[int]) -> Iterator[frozenset[int]]:
    """The supports items holds: the identity's empty one, then every subset
    of two or more items, by size and then lexicographically.  By
    localization, no other wavelet has a nonzero marginal on items.  The
    one walk of a design's closure."""
    items = sorted(items)
    yield frozenset()
    for k in range(2, len(items) + 1):
        yield from map(frozenset, combinations(items, k))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def distinct_subsets(subsets: Iterable[list[int]]) -> list[frozenset[int]]:
    """Subsets as read from input, as sets; one that repeats an item, or
    that holds the same items as an earlier one, raises ValueError rather
    than being merged."""
    out: list[frozenset[int]] = []
    for s in subsets:
        items = frozenset(s)
        if len(items) != len(s):
            raise ValueError(f"subset {s} repeats an item")
        if items in out:
            raise ValueError(f"subset {sorted(items)} is given twice")
        out.append(items)
    return out


class ObservationDesign:
    """A collection of item subsets (each of size >= 2) within 1..n."""

    __slots__ = ("n", "subsets", "_members")

    def __init__(self, subsets: Iterable[Iterable[int]], n: int):
        normalized = []
        for s in subsets:
            s = frozenset(s)
            if len(s) < 2:
                raise ValueError(f"design subset {sorted(s)} smaller than 2")
            if any(not 1 <= a <= n for a in s):
                raise ValueError(f"design subset {sorted(s)} outside 1..{n}")
            normalized.append(s)
        if not normalized:
            raise ValueError("design must contain at least one subset")
        self.n = n
        self._members = frozenset(normalized)
        self.subsets = tuple(sorted(self._members, key=lambda s: (len(s), sorted(s))))

    def __contains__(self, s) -> bool:
        return frozenset(s) in self._members

    def __iter__(self):
        return iter(self.subsets)

    def __len__(self) -> int:
        return len(self.subsets)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ObservationDesign)
            and self.n == other.n
            and self.subsets == other.subsets
        )

    def holders(self) -> dict[frozenset[int], list[int]]:
        """Each support the design holds (supports_within a member), the
        identity's empty one included -> the members that hold it, as
        indices in design order."""
        out: dict[frozenset[int], list[int]] = {}
        for a, items in enumerate(self.subsets):
            for support in supports_within(items):
                out.setdefault(support, []).append(a)
        return out

    def closure(self) -> list[frozenset[int]]:
        """Every subset of size >= 2 of any design member, deterministic order."""
        return sorted(filter(None, self.holders()), key=lambda s: (len(s), sorted(s)))

    @classmethod
    def from_json(cls, payload) -> "ObservationDesign":
        """Only an object {"n": int, "design": [[int, ...], ...]} of
        distinct subsets is read; anything else raises ValueError rather
        than being coerced."""
        if not isinstance(payload, dict) or not {"n", "design"} <= payload.keys():
            raise ValueError('a design is a JSON object with keys "n" and "design"')
        n, subsets = payload["n"], payload["design"]
        if not _is_int(n):
            raise ValueError(f"design n {n!r} is not an integer")
        if not isinstance(subsets, list) or not all(
            isinstance(s, list) and all(_is_int(a) for a in s) for s in subsets
        ):
            raise ValueError("design subsets must be lists of integer items")
        return cls(distinct_subsets(subsets), n)

    @classmethod
    def load(cls, path: str) -> "ObservationDesign":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def to_json(self) -> dict:
        return {"n": self.n, "design": [sorted(s) for s in self.subsets]}


class MarginalFamily:
    """Per-subset chains (f_A) indexed by the subsets of a design."""

    __slots__ = ("design", "per_subset")

    def __init__(self, per_subset: dict[frozenset[int], Chain], design: ObservationDesign):
        self.design = design
        checked = {}
        for s, chain in per_subset.items():
            s = frozenset(s)
            if s not in design:
                raise ValueError(f"subset {sorted(s)} not in design")
            if chain.n != design.n:
                raise ValueError(f"chain universe {chain.n} differs from design {design.n}")
            for w in chain.terms:
                if content(w) != s:
                    raise ValueError(f"word {w} has content outside subset {sorted(s)}")
            checked[s] = chain
        self.per_subset = checked

    def __getitem__(self, s) -> Chain:
        return self.per_subset[frozenset(s)]

    def __iter__(self):
        return iter(sorted(self.per_subset, key=lambda s: (len(s), sorted(s))))

    def __len__(self) -> int:
        return len(self.per_subset)


@dataclass
class PairCheck:
    """One nested pair A within B and its delete-down deviation."""

    inner: frozenset[int]
    outer: frozenset[int]
    violation: float
    exact: bool  # integer pair: held to exact equality

    def passed(self, tolerance: float) -> bool:
        return self.violation <= (0.0 if self.exact else tolerance)


@dataclass
class ProjectivityReport:
    """Outcome of checking every nested pair of a marginal family."""

    tolerance: float
    pairs: list[PairCheck] = field(default_factory=list)

    @property
    def max_violation(self) -> float:
        return max((p.violation for p in self.pairs), default=0.0)

    @property
    def failures(self) -> list[PairCheck]:
        return [p for p in self.pairs if not p.passed(self.tolerance)]

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        lines = [
            f"projectivity: {'PASS' if self.passed else 'FAIL'}"
            f" (max violation {self.max_violation:.3g}, tolerance {self.tolerance:.3g})"
        ]
        for p in self.failures:
            lines.append(
                f"  {sorted(p.inner)} within {sorted(p.outer)}: violation {p.violation:.6g}"
            )
        return "\n".join(lines)


def check_projective(fam: MarginalFamily, tolerance: float = REAL_PROJECTIVITY_TOL) -> ProjectivityReport:
    """Largest deviation of delete-down marginals over all nested pairs A within B.

    Integer-coefficient pairs are held to exact equality regardless of the
    tolerance; real pairs to the given infinity-norm tolerance.
    """
    report = ProjectivityReport(tolerance=tolerance)
    subsets = sorted(fam.per_subset, key=lambda s: (len(s), sorted(s)))
    for a in subsets:
        for b in subsets:
            if a < b:
                diff = delete_set(fam[b], b - a) - fam[a]
                exact = fam[a].is_integer() and fam[b].is_integer()
                report.pairs.append(PairCheck(a, b, float(diff.norm_inf()), exact))
    return report


def exact_marginals(f: Chain, design: ObservationDesign) -> MarginalFamily:
    """The family of true marginals of a single function on full rankings."""
    return MarginalFamily({s: marginal(f, s) for s in design}, design)


def empirical_marginals(
    dataset: Iterable[tuple[Iterable[int], Word]], design: ObservationDesign
) -> MarginalFamily:
    """Per-subset normalized frequency chains from observed rankings.

    Repeated (subset, word) records accumulate counts; normalization is per
    subset.  Records outside the design, content mismatches, and design
    subsets with no observations are all rejected.  Records are tallied
    first and each distinct one is checked once, in first-seen order, so
    the first bad record is the one reported.
    """
    tally = Counter(
        (s if isinstance(s, frozenset) else frozenset(s), w) for s, w in dataset
    )
    counts: dict[frozenset[int], dict[Word, int]] = {s: {} for s in design}
    for (subset, word), count in tally.items():
        bucket = counts.get(subset)
        if bucket is None:
            raise ValueError(f"record subset {sorted(subset)} not in design")
        if content(word) != subset:
            raise ValueError(f"word {word} does not rank subset {sorted(subset)}")
        bucket[word] = count
    per_subset = {}
    for subset, bucket in counts.items():
        total = sum(bucket.values())
        if total == 0:
            raise ValueError(f"no observations for subset {sorted(subset)}")
        per_subset[subset] = Chain({w: c / total for w, c in bucket.items()}, design.n)
    return MarginalFamily(per_subset, design)


def read_rankings_csv(path: str, n: int) -> list[tuple[frozenset[int], Word]]:
    """One ranking per line as comma-separated item ids, best first.

    A line ends at a newline, a CR LF pair or a lone CR, so a quoted field
    does not span lines.  Each distinct line is parsed and validated once,
    in first-seen order, so the first bad line is the one reported, by its
    number; its repeats share its (content, word) pair.  Blank lines are
    skipped.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    parsed = dict.fromkeys(lines)
    for line in parsed:
        row = next(csv.reader((line,)), [])
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            word = Word(tuple(int(tok) for tok in row), n)
        except ValueError as exc:
            raise ValueError(f"line {lines.index(line) + 1}: {exc}") from exc
        parsed[line] = (content(word), word)
    return list(filter(None, map(parsed.__getitem__, lines)))


def uniform_distribution(n: int) -> Chain:
    """The uniform probability distribution on full rankings."""
    weight = 1.0 / factorial(n)
    return Chain(
        {w: weight for w in all_words(range(1, n + 1), n)}, n
    )
