"""Permutations, standard cycle forms, derangements, and Young tableaux.

Composition follows (s*t)(i) = s(t(i)).  Cycle forms are kept in standard
form: each cycle led by its minimum, cycles sorted by increasing minima,
fixed points omitted.  Young tableaux are used at dimension level only.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial
from typing import Iterable, Sequence


class Permutation:
    """A bijection of 1..n stored as the tuple of images (images[i-1] = value at i)."""

    __slots__ = ("images", "n", "_hash")

    def __init__(self, images: Iterable[int], n: int | None = None):
        images = tuple(images)
        if n is None:
            n = len(images)
        if len(images) != n or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a bijection of 1..{n}")
        self.images = images
        self.n = n
        self._hash = hash(images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], n: int) -> "Permutation":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for a in cycle:
                if not 1 <= a <= n:
                    raise ValueError(f"cycle element {a} outside 1..{n}")
                if a in seen:
                    raise ValueError(f"element {a} appears in two cycles")
                seen.add(a)
            for i, a in enumerate(cycle):
                images[a - 1] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def support(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.images, start=1) if v != i)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def cycle_form(self) -> "CycleForm":
        return standard_cycle_form(self)

    def __str__(self) -> str:
        return str(self.cycle_form())

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


class CycleForm:
    """Disjoint cycles in standard form; the empty form is the identity ("id")."""

    __slots__ = ("cycles", "_hash")

    def __init__(self, cycles: Sequence[Sequence[int]]):
        normalized = []
        for cycle in cycles:
            cycle = tuple(cycle)
            if len(cycle) < 2:
                raise ValueError(f"cycle {cycle} shorter than 2")
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"cycle {cycle} repeats an element")
            pos = cycle.index(min(cycle))
            normalized.append(cycle[pos:] + cycle[:pos])
        normalized.sort(key=lambda c: c[0])
        supports = [a for c in normalized for a in c]
        if len(set(supports)) != len(supports):
            raise ValueError("cycles are not disjoint")
        self.cycles = tuple(normalized)
        self._hash = hash(self.cycles)

    @classmethod
    def _make(cls, cycles: tuple[tuple[int, ...], ...]) -> "CycleForm":
        """Fast path for cycles already in standard form; skips validation."""
        form = object.__new__(cls)
        form.cycles = cycles
        form._hash = hash(cycles)
        return form

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleForm) and self.cycles == other.cycles

    def __hash__(self) -> int:
        return self._hash

    def support(self) -> frozenset[int]:
        return frozenset(a for c in self.cycles for a in c)

    def length(self) -> int:
        return sum(len(c) for c in self.cycles)

    def cycle_count(self) -> int:
        return len(self.cycles)

    def to_permutation(self, n: int) -> Permutation:
        return Permutation.from_cycles(self.cycles, n)

    def __str__(self) -> str:
        if not self.cycles:
            return "id"
        return "".join("(" + " ".join(str(a) for a in c) + ")" for c in self.cycles)

    def __repr__(self) -> str:
        return f"CycleForm({self})"

    @classmethod
    def parse(cls, text: str) -> "CycleForm":
        text = text.strip()
        if text == "id" or text == "":
            return cls(())
        if not text.startswith("(") or not text.endswith(")"):
            raise ValueError(f"malformed cycle form {text!r}")
        cycles = []
        for part in text[1:-1].split(")("):
            cycles.append(tuple(int(tok) for tok in part.split()))
        return cls(cycles)


def standard_cycle_form(t: Permutation) -> CycleForm:
    """Unique standard cycle form of t; fixed points omitted, identity -> "id"."""
    remaining = set(range(1, t.n + 1))
    cycles = []
    while remaining:
        start = min(remaining)
        cycle = [start]
        remaining.discard(start)
        cur = t(start)
        while cur != start:
            cycle.append(cur)
            remaining.discard(cur)
            cur = t(cur)
        if len(cycle) >= 2:
            cycles.append(tuple(cycle))
    return CycleForm(cycles)


@cache
def derangement_number(k: int) -> int:
    """Number of fixed-point-free permutations of a k-element set."""
    if k < 0:
        raise ValueError(f"negative size {k}")
    if k == 0:
        return 1
    if k == 1:
        return 0
    return (k - 1) * (derangement_number(k - 1) + derangement_number(k - 2))


def derangement_forms(items: Iterable[int]) -> list[CycleForm]:
    """Standard cycle forms of every permutation whose support is exactly items.

    Built cycle by cycle, in lexicographic order of their text: each cycle
    opens with the least unused item, and extending it (" ") sorts before
    closing it (")").  That order is numeric only for one-digit items, so
    larger labels are sorted by text afterwards.  The empty set yields the
    identity form alone.
    """
    items = tuple(sorted(set(items)))
    if not items:
        return [CycleForm(())]
    out: list[CycleForm] = []

    def grow(done: tuple, cycle: tuple, rest: tuple) -> None:
        for i, a in enumerate(rest):
            grow(done, cycle + (a,), rest[:i] + rest[i + 1 :])
        if len(cycle) < 2 or len(rest) == 1:
            return
        if rest:
            grow(done + (cycle,), rest[:1], rest[1:])
        else:
            out.append(CycleForm._make(done + (cycle,)))

    if len(items) >= 2:
        grow((), items[:1], items[1:])
    if items[-1] > 9:
        out.sort(key=str)
    return out


def derangements(items: Iterable[int], n: int | None = None) -> list[Permutation]:
    """All permutations of S_n whose support is exactly the given set.

    Ordered lexicographically by standard-cycle-form string.  The ambient n
    defaults to max(items); the empty set yields [identity].
    """
    items = sorted(set(items))
    if n is None:
        n = max(items) if items else 1
    if items and (items[0] < 1 or items[-1] > n):
        raise ValueError(f"items {items} outside 1..{n}")
    return [form.to_permutation(n) for form in derangement_forms(items)]


class YoungTableau:
    """A Young diagram of some partition shape filled row-wise with 1..n."""

    __slots__ = ("rows", "shape", "n")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(r) for r in rows)
        shape = tuple(len(r) for r in rows)
        if not shape or any(
            shape[i] < shape[i + 1] for i in range(len(shape) - 1)
        ) or shape[-1] == 0:
            raise ValueError(f"{shape} is not a partition shape")
        n = sum(shape)
        if sorted(a for r in rows for a in r) != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")
        self.rows = rows
        self.shape = shape
        self.n = n

    def is_standard(self) -> bool:
        for r in self.rows:
            if any(r[j] >= r[j + 1] for j in range(len(r) - 1)):
                return False
        for i in range(len(self.rows) - 1):
            upper, lower = self.rows[i], self.rows[i + 1]
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, YoungTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __str__(self) -> str:
        return "\n".join("|" + "|".join(str(a) for a in r) + "|" for r in self.rows)

    def __repr__(self) -> str:
        return f"YoungTableau({[list(r) for r in self.rows]})"


def enumerate_syt(n: int) -> list[YoungTableau]:
    """All standard Young tableaux of size n (bounded at n = 10)."""
    if not 1 <= n <= 10:
        raise ValueError(f"n must be in 1..10, got {n}")
    tableaux: list[list[list[int]]] = [[[1]]]
    for value in range(2, n + 1):
        grown = []
        for t in tableaux:
            for i in range(len(t) + 1):
                row_len = len(t[i]) if i < len(t) else 0
                above_len = len(t[i - 1]) if i > 0 else None
                if above_len is not None and row_len >= above_len:
                    continue
                new = [list(r) for r in t]
                if i == len(new):
                    new.append([value])
                else:
                    new[i].append(value)
                grown.append(new)
        tableaux = grown
    return [YoungTableau(t) for t in tableaux]


def eig(q: YoungTableau) -> int:
    """Scale statistic of a standard tableau via its maximal initial hook.

    Reads the longest prefix 1..l along row 1, then the run l+1, l+2, ...
    continuing down column 1; returns l for an even run, l - 1 for odd.
    """
    if not q.is_standard():
        raise ValueError("tableau is not standard")
    first_row = q.rows[0]
    l = 0
    while l < len(first_row) and first_row[l] == l + 1:
        l += 1
    m = 0
    while 1 + m < len(q.rows) and q.rows[1 + m][0] == l + m + 1:
        m += 1
    return l if m % 2 == 0 else l - 1


def hook_dim(shape: Sequence[int]) -> int:
    """Number of standard Young tableaux of the given partition shape."""
    shape = tuple(shape)
    if not shape or any(
        shape[i] < shape[i + 1] for i in range(len(shape) - 1)
    ) or shape[-1] <= 0:
        raise ValueError(f"{shape} is not a partition")
    n = sum(shape)
    cols = [0] * shape[0]
    for row_len in shape:
        for j in range(row_len):
            cols[j] += 1
    hooks = 1
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            hooks *= (row_len - j) + (cols[j] - i) - 1
    return factorial(n) // hooks


def eig_class_dimensions(n: int) -> dict[int, int]:
    """Total irreducible dimension carried by each eig value over SYT_n."""
    sums: dict[int, int] = {}
    for q in enumerate_syt(n):
        e = eig(q)
        sums[e] = sums.get(e, 0) + hook_dim(q.shape)
    return sums


def scale_dimension(n: int, k: int) -> int:
    """Dimension of the scale-k detail space: C(n,k) times the derangement count."""
    return comb(n, k) * derangement_number(k)
