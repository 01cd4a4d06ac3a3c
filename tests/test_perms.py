"""Cycle forms, derangement enumeration, and tableau dimension machinery."""

from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmra import (
    CycleForm,
    Permutation,
    YoungTableau,
    derangement_number,
    derangements,
    eig,
    enumerate_syt,
    hook_dim,
    standard_cycle_form,
)
from rankmra.perms import eig_class_dimensions, scale_dimension


def test_standard_cycle_form_examples():
    t = Permutation.from_cycles([(4, 1, 3), (2, 5)], 5)
    assert str(standard_cycle_form(t)) == "(1 3 4)(2 5)"
    assert str(standard_cycle_form(Permutation.identity(4))) == "id"
    swap = Permutation.from_cycles([(3, 4)], 4)
    assert str(standard_cycle_form(swap)) == "(3 4)"


def test_cycle_form_normalization_and_parse():
    assert str(CycleForm([(3, 4, 1), (5, 2)])) == "(1 3 4)(2 5)"
    assert CycleForm.parse("(1 3 4)(2 5)") == CycleForm([(1, 3, 4), (2, 5)])
    assert CycleForm.parse("id") == CycleForm(())
    with pytest.raises(ValueError):
        CycleForm([(1,)])
    with pytest.raises(ValueError):
        CycleForm([(1, 2), (2, 3)])


def test_cycle_form_round_trip_exhaustive():
    for n in (1, 2, 3, 4, 5, 6):
        for images in permutations(range(1, n + 1)):
            t = Permutation(images)
            form = standard_cycle_form(t)
            assert form.to_permutation(n) == t
            assert standard_cycle_form(form.to_permutation(n)) == form


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_cycle_form_text_round_trip_property(images):
    form = standard_cycle_form(Permutation(images))
    assert CycleForm.parse(str(form)) == form


def test_composition_convention():
    # (s*t)(i) = s(t(i))
    s = Permutation((2, 1, 3))
    t = Permutation((1, 3, 2))
    assert (s * t).images == (2, 3, 1)
    assert (t * s).images == (3, 1, 2)
    assert s * s.inverse() == Permutation.identity(3)


def test_derangements_examples():
    assert [str(t.cycle_form()) for t in derangements({1, 2})] == ["(1 2)"]
    assert [str(t.cycle_form()) for t in derangements({1, 2, 3})] == ["(1 2 3)", "(1 3 2)"]
    assert len(derangements({1, 2, 3, 4})) == 9
    assert derangements(set(), 3) == [Permutation.identity(3)]
    assert derangements({5}, 5) == []


def test_derangements_against_brute_force():
    for k in range(2, 8):
        brute = sum(
            1
            for images in permutations(range(1, k + 1))
            if all(v != i for i, v in enumerate(images, start=1))
        )
        assert len(derangements(range(1, k + 1))) == brute == derangement_number(k)


def _filter_and_sort_derangements(items, n):
    """Reference definition: filter all permutations of items for fixed
    points, then sort by standard-cycle-form text."""
    items = sorted(items)
    if not items:
        return [Permutation.identity(n)]
    out = []
    for images in permutations(items):
        if all(v != a for a, v in zip(items, images)):
            full = list(range(1, n + 1))
            for a, v in zip(items, images):
                full[a - 1] = v
            out.append(Permutation(tuple(full)))
    out.sort(key=lambda t: str(standard_cycle_form(t)))
    return out


def test_derangements_match_filter_and_sort_definition():
    n = 7
    for mask in range(1 << n):
        items = [a for a in range(1, n + 1) if mask >> (a - 1) & 1]
        assert derangements(items, n) == _filter_and_sort_derangements(items, n), items
    # two-digit labels: text order is no longer numeric order
    for items in ([3, 9, 10, 12], [1, 2, 10, 11, 20], [8, 9, 10]):
        assert derangements(items, 20) == _filter_and_sort_derangements(items, 20), items


def test_derangement_recurrence_and_binomial_identity():
    assert derangement_number(2) == 1
    for k in range(2, 12):
        assert derangement_number(k) == (k - 1) * (
            derangement_number(k - 1) + derangement_number(k - 2)
        )
    for n in range(1, 9):
        assert sum(comb(n, k) * derangement_number(n - k) for k in range(n + 1)) == factorial(n)


def test_derangements_support_and_order():
    ds = derangements({2, 4, 5}, 6)
    assert [str(t.cycle_form()) for t in ds] == ["(2 4 5)", "(2 5 4)"]
    for t in ds:
        assert t.support() == {2, 4, 5}
        assert t.n == 6


def _brute_force_syt(n: int) -> set[tuple[tuple[int, ...], ...]]:
    shapes: list[tuple[int, ...]] = []

    def partitions(total, maximum, prefix):
        if total == 0:
            shapes.append(tuple(prefix))
            return
        for part in range(min(total, maximum), 0, -1):
            partitions(total - part, part, prefix + [part])

    partitions(n, n, [])
    found = set()
    for shape in shapes:
        for filling in permutations(range(1, n + 1)):
            rows, pos = [], 0
            for length in shape:
                rows.append(tuple(filling[pos : pos + length]))
                pos += length
            if YoungTableau(rows).is_standard():
                found.add(tuple(rows))
    return found


def test_enumerate_syt_counts_and_oracle():
    assert len(enumerate_syt(1)) == 1
    assert len(enumerate_syt(3)) == 4
    four = enumerate_syt(4)
    assert len(four) == 10
    by_shape: dict[tuple[int, ...], int] = {}
    for q in four:
        by_shape[q.shape] = by_shape.get(q.shape, 0) + 1
    assert by_shape == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}
    for n in (2, 3, 4, 5):
        assert {q.rows for q in enumerate_syt(n)} == _brute_force_syt(n)
    with pytest.raises(ValueError):
        enumerate_syt(11)


def test_eig_examples():
    for n in (1, 2, 3, 4, 5):
        assert eig(YoungTableau([tuple(range(1, n + 1))])) == n
    column = YoungTableau([(1,), (2,), (3,), (4,)])
    assert eig(column) == 0
    sums = {}
    for q in enumerate_syt(4):
        sums[eig(q)] = sums.get(eig(q), 0) + hook_dim(q.shape)
    assert sums == {0: 9, 1: 8, 2: 6, 4: 1}
    with pytest.raises(ValueError):
        eig(YoungTableau([(2, 1), (3, 4)]))


def test_hook_dim_examples():
    assert hook_dim((3, 1)) == 3
    assert hook_dim((2, 2)) == 2
    for n in (1, 3, 6):
        assert hook_dim((n,)) == 1
    with pytest.raises(ValueError):
        hook_dim((1, 2))


def test_hook_dim_matches_enumeration():
    for n in range(1, 8):
        counts: dict[tuple[int, ...], int] = {}
        for q in enumerate_syt(n):
            counts[q.shape] = counts.get(q.shape, 0) + 1
        for shape, count in counts.items():
            assert hook_dim(shape) == count


def test_eig_class_dimension_sums():
    for n in range(2, 9):
        sums = eig_class_dimensions(n)
        assert sums.get(n, 0) == 1
        assert sums.get(n - 1, 0) == 0
        for k in range(2, n + 1):
            assert sums.get(n - k, 0) == scale_dimension(n, k)


def _cycles_with_support(items, n):
    return [t for t in derangements(items, n) if t.cycle_form().cycle_count() == 1]


def test_cycle_insertion_bijection():
    # growing a cycle support by one element, via right-multiplication by a
    # transposition, reaches every larger cycle exactly once
    for n, items in ((4, {1, 2}), (4, {1, 2, 3}), (5, {1, 2, 3, 4}), (5, {2, 3, 5})):
        for b in set(range(1, n + 1)) - items:
            grown = set()
            for gamma in _cycles_with_support(items, n):
                for a in items:
                    t = gamma * Permutation.from_cycles([(a, b)], n)
                    assert t.cycle_form().cycle_count() == 1
                    grown.add(t)
            assert grown == set(_cycles_with_support(items | {b}, n))
            count = len(_cycles_with_support(items | {b}, n))
            assert count == len(items) * len(_cycles_with_support(items, n))
