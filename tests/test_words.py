"""Word and chain algebra: construction, products, deletions, translations."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmra import (
    Chain,
    Permutation,
    Word,
    concat,
    content,
    contiguous_extensions,
    delete,
    delete_set,
    diamond,
    embed_into,
    epsilon,
    extensions,
    format_chain,
    insert_at,
    naive_embed,
    parse_chain,
    restrict,
    translate,
)
from rankmra.words import _pruned


def w(text: str, n: int) -> Word:
    return Word.parse(text, n)


def all_gamma(n: int) -> list[Word]:
    """Every injective word over 1..n, the empty word included."""
    out = [Word.empty(n)]
    items = list(range(1, n + 1))
    for k in range(1, n + 1):
        for p in permutations(items, k):
            out.append(Word(p, n))
    return out


def test_content_examples():
    assert content(w("13425", 5)) == {1, 2, 3, 4, 5}
    assert content(Word.empty(5)) == frozenset()
    assert content(w("21", 2)) == {1, 2}


def test_word_validation():
    with pytest.raises(ValueError):
        Word((1, 1), 3)
    with pytest.raises(ValueError):
        Word((0,), 3)
    with pytest.raises(ValueError):
        Word((4,), 3)


def test_word_text_round_trip():
    assert str(w("13425", 5)) == "13425"
    assert str(Word.empty(4)) == "-"
    big = Word((1, 3, 11), 12)
    assert str(big) == "1,3,11"
    assert Word.parse("1,3,11", 12) == big


def test_restrict_examples():
    assert restrict(w("2134", 4), {1, 3}) == w("13", 4)
    assert restrict(w("41352", 5), {2, 5}) == w("52", 5)
    assert restrict(w("123", 3), {1, 2, 3}) == w("123", 3)
    assert restrict(w("123", 3), {7}) == Word.empty(3)


def test_delete_examples():
    assert delete(Chain.dirac(w("132", 3)), 3) == Chain.dirac(w("12", 3))
    assert delete(Chain.dirac(w("132", 5)), 5) == Chain.dirac(w("132", 5))
    eight = parse_chain(
        "+13425 -13452 -14325 +14352 -34125 +34152 +43125 -43152", 5
    )
    assert delete(eight, 4) == Chain.zero(5)


def test_delete_set_collapses_to_empty_word():
    x = parse_chain("+2*12 +3*21", 2)
    collapsed = delete_set(x, {1, 2})
    assert collapsed == Chain({Word.empty(2): 5}, 2)


def test_insert_at_examples():
    assert insert_at(w("13", 3), 2, 1) == w("213", 3)
    assert insert_at(w("13", 3), 2, 3) == w("132", 3)
    grown = {insert_at(w("12", 3), 3, i) for i in (1, 2, 3)}
    assert grown == {w("312", 3), w("132", 3), w("123", 3)}
    with pytest.raises(ValueError):
        insert_at(w("12", 3), 1, 1)
    with pytest.raises(ValueError):
        insert_at(w("12", 3), 3, 4)


def test_concat_examples():
    assert concat(Chain.dirac(w("13", 5)), Chain.dirac(w("25", 5))) == Chain.dirac(w("1325", 5))
    assert concat(Chain.dirac(w("12", 3)), Chain.dirac(w("23", 3))) == Chain.zero(3)
    left = parse_chain("+134 -143 -341 +431", 5)
    right = parse_chain("+25 -52", 5)
    assert format_chain(concat(left, right)) == (
        "+13425 -13452 -14325 +14352 -34125 +34152 +43125 -43152"
    )


def test_diamond_examples():
    two, five = Chain.dirac(w("2", 5)), Chain.dirac(w("5", 5))
    assert format_chain(diamond(two, five)) == "+25 -52"
    three, four = Chain.dirac(w("3", 5)), Chain.dirac(w("4", 5))
    assert format_chain(diamond(three, four)) == "+34 -43"
    assert diamond(Chain.dirac(w("12", 2)), Chain.dirac(w("21", 2))) == Chain.zero(2)


def test_translate_examples():
    swap = Permutation((2, 1, 3))
    assert translate(Chain.dirac(w("132", 3)), swap) == Chain.dirac(w("231", 3))
    x = parse_chain("+12 -21 +3*123", 3)
    assert translate(x, Permutation.identity(3)) == x


def test_epsilon_examples():
    assert epsilon(w("1342", 4), 4, 3) == 1
    assert epsilon(w("1432", 4), 4, 3) == -1
    assert epsilon(w("1324", 4), 4, 3) == 0
    assert epsilon(w("12", 4), 4, 3) == 0


def test_deletions_commute_exhaustive_small():
    for n in (2, 3, 4, 5):
        words = all_gamma(n)
        for word in words:
            x = Chain.dirac(word)
            for a1 in range(1, n + 1):
                for a2 in range(1, n + 1):
                    if a1 == a2:
                        continue
                    assert delete(delete(x, a1), a2) == delete(delete(x, a2), a1)


def test_concat_commutes_with_deletion_exhaustive():
    words4 = all_gamma(4)
    for omega in words4:
        left = Chain.dirac(omega)
        for pi in words4:
            x = Chain.dirac(pi)
            for a in range(1, 5):
                if a in omega.letters:
                    continue
                assert delete(concat(left, x), a) == concat(left, delete(x, a))
                assert delete(concat(x, left), a) == concat(delete(x, a), left)


def test_translation_deletion_intertwine_randomized():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        items = list(range(1, n + 1))
        word = Word(tuple(rng.sample(items, rng.randint(0, n))), n)
        x = Chain({word: rng.choice([1, -1, 2])}, n)
        images = items[:]
        rng.shuffle(images)
        s = Permutation(tuple(images))
        a = rng.randint(1, n)
        assert translate(delete(x, a), s) == delete(translate(x, s), s(a))


def test_projective_system_law_randomized():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(3, 6)
        items = list(range(1, n + 1))
        c = set(rng.sample(items, rng.randint(2, n)))
        b = set(rng.sample(sorted(c), rng.randint(1, len(c))))
        a = set(rng.sample(sorted(b), rng.randint(0, len(b))))
        word = Word(tuple(rng.sample(items, n)), n)
        x = Chain.dirac(word)
        lhs = delete_set(delete_set(x, c - b), b - a)
        assert lhs == delete_set(x, c - a)


def test_concat_associative_diamond_antisymmetric():
    rng = random.Random(3)
    for _ in range(100):
        n = 6
        items = list(range(1, n + 1))
        rng.shuffle(items)
        x = Chain.dirac(Word(tuple(items[:2]), n))
        y = Chain.dirac(Word(tuple(items[2:4]), n))
        z = Chain.dirac(Word(tuple(items[4:6]), n))
        assert concat(concat(x, y), z) == concat(x, concat(y, z))
        assert diamond(x, y) == -diamond(y, x)


def test_chain_pruning_and_equality():
    a = w("12", 2)
    assert Chain({a: 0}, 2) == Chain.zero(2)
    assert Chain({a: 1e-13}, 2) == Chain.zero(2)
    assert Chain({a: 1}) == Chain({a: 1.0})
    x = Chain({a: 1}) - Chain({a: 1})
    assert not x
    assert Chain({a: 2}).norm_inf() == 2
    assert Chain({a: 2, w("21", 2): -3}).total_mass() == -1


def test_chain_rejects_non_finite_coefficients():
    a, b = w("12", 2), w("21", 2)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            Chain({a: 1.0, b: bad}, 2)
    assert Chain({a: 10**400}, 2)(a) == 10**400  # an int too big for a float


def test_chain_text_round_trip():
    x = parse_chain("+2*12 -21", 2)
    assert format_chain(x) == "+2*12 -21"
    assert parse_chain(format_chain(x), 2) == x
    assert format_chain(Chain.zero(3)) == "0"
    y = Chain({w("12", 2): 0.5})
    assert parse_chain(format_chain(y), 2) == y


@st.composite
def injective_words(draw, n: int):
    """A word of 0..n distinct letters from 1..n, in any order."""
    letters = draw(st.permutations(range(1, n + 1)))
    return Word(letters[: draw(st.integers(0, n))], n)


@st.composite
def sparse_chains(draw):
    """Up to six words of one universe (one-digit and comma-separated
    alike), with nonzero small-int or finite float coefficients."""
    n = draw(st.integers(1, 12))
    coefficient = st.one_of(
        st.integers(-5, 5).filter(bool),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    terms = draw(st.dictionaries(injective_words(n), coefficient, max_size=6))
    return Chain(terms, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 15).flatmap(injective_words))
def test_word_text_round_trip_property(word):
    assert Word.parse(str(word), word.n) == word


@settings(max_examples=200, deadline=None)
@given(sparse_chains())
def test_chain_text_round_trip_property(x):
    assert parse_chain(format_chain(x), x.n) == x


def _running_sum(pairs, out=None) -> dict:
    """The pruning loop each chain builder carried inline before they
    shared one: a running total that prunes to zero drops its key."""
    out = {} if out is None else out
    for key, c in pairs:
        s = out.get(key, 0) + c
        if _pruned(s):
            out[key] = s
        else:
            out.pop(key, None)
    return out


PRUNE_N = 4
# ints, +-1, floats on both sides of the 1e-12 pruning tolerance, and
# ordinary floats; pairs of chains also share negated terms, so that sums
# cancel exactly
near_tolerance = st.sampled_from([1e-12, -1e-12, 6e-13, -6e-13, 1.5e-12, -1.5e-12, 2.5e-12])
prune_coefficients = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([1, -1]),
    near_tolerance,
    st.floats(-2, 2, allow_nan=False),
)


@st.composite
def chain_pairs(draw):
    """Two chains on 1..PRUNE_N whose terms overlap, cancel or nearly do."""
    words = injective_words(PRUNE_N)
    x = draw(st.dictionaries(words, prune_coefficients, max_size=6))
    y = draw(st.dictionaries(words, prune_coefficients, max_size=6))
    for w in draw(st.lists(st.sampled_from(sorted(x)), max_size=3)) if x else ():
        y[w] = -x[w]
    return Chain(x, PRUNE_N), Chain(y, PRUNE_N)


@settings(max_examples=300, deadline=None)
@given(chain_pairs(), st.permutations(range(1, PRUNE_N + 1)), st.sets(st.integers(1, PRUNE_N)))
def test_chain_builders_prune_running_totals(pair, images, items):
    x, y = pair
    n, full = PRUNE_N, frozenset(range(1, PRUNE_N + 1))

    def reference(pairs, out=None):
        return Chain._make(_running_sum(pairs, out), n)

    assert x + y == reference(y.terms.items(), dict(x.terms))
    assert x - y == reference(((w, -c) for w, c in y.terms.items()), dict(x.terms))
    dropped = [(Word([b for b in w.letters if b not in items], n), c) for w, c in x.terms.items()]
    assert delete_set(x, items) == reference(dropped)
    relabelled = [(Word([images[a - 1] for a in w.letters], n), c) for w, c in x.terms.items()]
    assert translate(x, Permutation(images)) == reference(relabelled)
    products = [
        (Word(w1.letters + w2.letters, n), c1 * c2)
        for w1, c1 in x.terms.items()
        for w2, c2 in y.terms.items()
        if set(w1.letters).isdisjoint(w2.letters)
    ]
    assert concat(x, y) == reference(products)
    assert embed_into(x, full) == reference(
        (v, c) for w, c in x.terms.items() for v in contiguous_extensions(w, full)
    )
    assert naive_embed(x) == reference(
        (v, c) for w, c in x.terms.items() for v in extensions(w, full)
    )


def test_parse_chain_refuses_a_sum_that_is_not_finite():
    # parse_chain sums its terms before Chain() validates them, so a NaN
    # total is refused rather than pruned away
    for text in ("+nan*12", "+1e999*12 -1e999*12"):
        with pytest.raises(ValueError):
            parse_chain(text, 2)
