"""Wavelet chain generation, embeddings, fast coefficients, marginals."""

import random
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankmra import (
    Chain,
    CycleForm,
    Permutation,
    Word,
    chain_coefficient_fast,
    contiguous_extensions,
    delete,
    derangements,
    embed,
    embed_into,
    extensions,
    marginal,
    marginal_wavelet,
    naive_embed,
    translate,
    wavelet,
    wavelet_chain,
)
from rankmra import wavelets as wavelets_module
from rankmra.marginals import all_words
from rankmra.perms import derangement_forms, derangement_number, standard_cycle_form
from rankmra.wavelets import MAX_N, _cycle_chain, level_chains, level_matrix
from rankmra.words import concat, format_chain, parse_chain


def w(text: str, n: int) -> Word:
    return Word.parse(text, n)


def form(text: str) -> CycleForm:
    return CycleForm.parse(text)


def subsets_of(n: int, sizes) -> list[frozenset[int]]:
    items = list(range(1, n + 1))
    out = []
    for mask in range(1, 1 << n):
        s = frozenset(items[i] for i in range(n) if mask >> i & 1)
        if len(s) in sizes:
            out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_wavelet_chain_examples():
    assert format_chain(wavelet_chain(form("(1 2)"), 2)) == "+12 -21"
    assert format_chain(wavelet_chain(form("(1 2 3)"), 3)) == "+123 -132 -231 +321"
    assert format_chain(wavelet_chain(form("(1 3 4)(2 5)"), 5)) == (
        "+13425 -13452 -14325 +14352 -34125 +34152 +43125 -43152"
    )
    with pytest.raises(ValueError):
        wavelet_chain(form("id"), 3)


def star_elimination_chain(tau: CycleForm, n: int) -> Chain:
    """The paper's generator: star elimination per cycle, then concatenation."""
    x = _cycle_chain(tau.cycles[0], n)
    for cycle in tau.cycles[1:]:
        x = concat(x, _cycle_chain(cycle, n))
    return x


def assert_matches_star_elimination(tau: CycleForm, n: int) -> None:
    x = wavelet_chain(tau, n)
    expected = star_elimination_chain(tau, n)
    assert x == expected, str(tau)
    assert list(x.terms) == sorted(expected.terms), str(tau)


def test_closed_form_matches_star_elimination_exhaustive():
    # every derangement at n <= 6, and every one-cycle chain on {1..7}
    for n in range(2, 7):
        for subset in subsets_of(n, range(2, n + 1)):
            for tau in derangement_forms(subset):
                assert_matches_star_elimination(tau, n)
    for tau in derangement_forms(range(1, 8)):
        if tau.cycle_count() == 1:
            assert_matches_star_elimination(tau, 7)


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(1, 9)))
def test_closed_form_matches_star_elimination_random_n8(images):
    tau = standard_cycle_form(Permutation(images))
    assume(tau.cycles)
    assert_matches_star_elimination(tau, 8)


def level_terms(k: int):
    """level_chains(k) form by form: each form with its chain's words, as
    tuples, and their signs."""
    for forms, words, signs in level_chains(k):
        start = 0
        for tau in forms:
            stop = start + (1 << (k - tau.cycle_count()))
            yield tau, list(map(tuple, words[start:stop].tolist())), signs[start:stop].tolist()
            start = stop
        assert start == len(words) == len(signs)


def star_elimination_terms(tau: CycleForm, k: int) -> tuple[list, list]:
    """The oracle chain of tau on 1..k: its words, as tuples, in
    lexicographic order, and their signs."""
    expected = star_elimination_chain(tau, k)
    words = sorted(expected.terms)
    return [w.letters for w in words], [expected.terms[w] for w in words]


def test_level_chains_match_star_elimination():
    # every derangement form of 1..k for k <= 7, in derangement_forms order
    for k in range(2, 8):
        got = list(level_terms(k))
        assert [tau for tau, _, _ in got] == derangement_forms(range(1, k + 1))
        for tau, words, signs in got:
            assert (words, signs) == star_elimination_terms(tau, k), str(tau)


def test_level_chains_match_star_elimination_on_every_cycle_type_at_k8():
    types = set()
    for i, (tau, words, signs) in enumerate(level_terms(8)):
        cycle_type = tuple(map(len, tau.cycles))
        if cycle_type not in types or i % 97 == 0:
            types.add(cycle_type)
            assert (words, signs) == star_elimination_terms(tau, 8), str(tau)
    # the cycle lengths in standard order: the 13 compositions of 8 into
    # parts of at least 2
    assert len(types) == 13


def test_level_matrix_columns_are_the_oracle_chains():
    # each column: the lexicographic ranks of the oracle chain's words among
    # the rankings of 1..k, and their signs
    for k in range(2, 7):
        column, indptr, rows, signs = level_matrix(k)
        assert (rows.dtype, signs.dtype) == (np.int32, np.int8)
        assert not any(a.flags.writeable for a in (indptr, rows, signs))
        forms = derangement_forms(range(1, k + 1))
        assert list(column) == [tau.cycles for tau in forms]
        assert list(column.values()) == list(range(len(forms)))
        assert indptr[0] == 0 and indptr[-1] == len(rows) == len(signs)
        rank = {p: i for i, p in enumerate(permutations(range(1, k + 1)))}
        for j, tau in enumerate(forms):
            words, expected = star_elimination_terms(tau, k)
            assert rows[indptr[j] : indptr[j + 1]].tolist() == [rank[w] for w in words], str(tau)
            assert signs[indptr[j] : indptr[j + 1]].tolist() == expected, str(tau)


@pytest.mark.parametrize("k", [-1, 0, 1, MAX_N + 1])
def test_chain_levels_outside_2_to_max_n_are_refused_before_any_form(k, monkeypatch):
    def listed(items):
        raise AssertionError(f"derangement forms of {list(items)} were listed")

    monkeypatch.setattr(wavelets_module, "derangement_forms", listed)
    with pytest.raises(ValueError, match="MAX_N"):
        level_chains(k)
    with pytest.raises(ValueError, match="MAX_N"):
        level_matrix(k)


def test_wavelet_chain_refuses_a_support_of_more_than_max_n_items():
    cycle = tuple(range(1, MAX_N + 2))
    with pytest.raises(ValueError, match="MAX_N"):
        wavelet_chain(CycleForm((cycle,)), MAX_N + 1)
    with pytest.raises(ValueError, match="MAX_N"):
        wavelet_chain(CycleForm(((1, 2), tuple(range(3, MAX_N + 2)))), MAX_N + 1)


def test_level_chains_do_not_depend_on_the_chunk(monkeypatch):
    def flat(k):
        forms, words, signs = zip(*level_chains(k))
        return sum(forms, []), np.concatenate(words), np.concatenate(signs)

    whole = flat(6)
    monkeypatch.setattr(wavelets_module, "_LEVEL_CHUNK", 1)
    single = flat(6)
    assert len(whole[0]) == 265
    assert single[0] == whole[0]
    assert np.array_equal(single[1], whole[1]) and np.array_equal(single[2], whole[2])


def test_wavelet_chain_rejects_support_outside_universe():
    with pytest.raises(ValueError, match="exceeds universe"):
        wavelet_chain(form("(5 6)"), 4)
    with pytest.raises(ValueError, match="exceeds universe"):
        wavelet_chain(form("(0 1)"), 4)
    with pytest.raises(ValueError, match="exceeds universe"):
        wavelet(form("(2 5)"), 4)


def test_wavelet_chain_is_annihilated_by_deletions():
    # exhaustive over every admissible support within 1..5, and a spot
    # check on supports living inside a larger universe
    for subset in subsets_of(5, (2, 3, 4, 5)):
        for tau in derangements(subset, 5):
            x = wavelet_chain(tau)
            for a in subset:
                assert delete(x, a) == Chain.zero(5)
    for subset in [frozenset({2, 3, 4, 5, 6}), frozenset({1, 3, 6})]:
        for tau in derangements(subset, 6):
            x = wavelet_chain(tau)
            for a in subset:
                assert delete(x, a) == Chain.zero(6)


def test_wavelet_chain_support_and_values():
    for subset in subsets_of(5, (2, 3, 4, 5)):
        for tau in derangements(subset, 5):
            fm = tau.cycle_form()
            x = wavelet_chain(tau)
            assert set(x.terms.values()) <= {-1, 1}
            assert len(x) == 2 ** (fm.length() - fm.cycle_count())


def _deletion_matrix(subset: frozenset[int], n: int) -> np.ndarray:
    """All single-letter deletion operators on L(Gamma(subset)), stacked."""
    source = all_words(subset, n)
    blocks = []
    for a in sorted(subset):
        target = all_words(subset - {a}, n)
        index = {word: i for i, word in enumerate(target)}
        block = np.zeros((len(target), len(source)))
        for j, word in enumerate(source):
            dropped = Word(tuple(b for b in word.letters if b != a), n)
            block[index[dropped], j] = 1
        blocks.append(block)
    return np.vstack(blocks)


def test_wavelet_chains_span_deletion_null_space():
    for k in (2, 3, 4, 5):
        subset = frozenset(range(1, k + 1))
        mat = _deletion_matrix(subset, k)
        spectrum = np.linalg.svd(mat, compute_uv=False)
        null_dim = sum(1 for s in spectrum if s <= 1e-8) + max(
            0, mat.shape[1] - len(spectrum)
        )
        d_k = derangement_number(k)
        assert null_dim == d_k
        source = all_words(subset, k)
        index = {word: i for i, word in enumerate(source)}
        basis_vectors = []
        for tau in derangements(subset, k):
            vec = np.zeros(len(source))
            for word, c in wavelet_chain(tau).terms.items():
                vec[index[word]] = c
            assert np.max(np.abs(mat @ vec)) <= 1e-8
            basis_vectors.append(vec)
        stacked = np.array(basis_vectors).T
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == d_k


def test_embed_examples():
    x12 = wavelet_chain(form("(1 2)"), 4)
    psi12 = embed(x12)
    assert psi12 == wavelet(form("(1 2)"), 4)
    assert len(psi12) == 12
    sigma = w("3142", 4)
    assert embed(Chain.dirac(sigma)) == Chain.dirac(sigma)
    for n, text in ((4, "13"), (5, "431")):
        one = Chain.dirac(w(text, n))
        assert len(embed(one)) == factorial(n - len(text) + 1)


def test_embed_into_examples():
    assert embed_into(Chain.dirac(w("12", 3)), {1, 2, 3}) == parse_chain("+312 +123", 3)
    x = parse_chain("+132 -312", 3)
    assert embed_into(x, {1, 2, 3}) == x
    x12 = wavelet_chain(form("(1 2)"), 3)
    assert embed_into(x12, {1, 2, 3}) == parse_chain("+312 +123 -321 -213", 3)
    with pytest.raises(ValueError):
        embed_into(Chain.dirac(w("14", 4)), {1, 2})


def test_naive_embed_examples():
    x12 = wavelet_chain(form("(1 2)"), 3)
    assert marginal(naive_embed(x12), {1, 3}) == parse_chain("+13 -31", 3)
    assert marginal(embed(x12), {1, 3}) == Chain.zero(3)
    pi = w("12", 4)
    m = marginal(naive_embed(Chain.dirac(pi)), {1, 2})
    assert m == Chain({pi: factorial(4) // factorial(2)}, 4)
    sigma = w("2431", 4)
    assert naive_embed(Chain.dirac(sigma)) == Chain.dirac(sigma)


def test_wavelet_examples():
    assert format_chain(wavelet(form("(1 2)(3 4)"), 4)) == "+1234 -1243 -2134 +2143"
    assert format_chain(wavelet(form("(1 2 3 4)"), 4)) == (
        "+1234 -1243 -1342 +1432 -2341 +2431 +3421 -4321"
    )
    psi0 = wavelet(form("id"), 3)
    assert psi0 == Chain.indicator(all_words({1, 2, 3}, 3), 3)
    with pytest.raises(ValueError):
        wavelet(form("(1 2)"), 9)


def test_wavelet_value_support_law_exhaustive():
    for n in (3, 4, 5):
        for images in permutations(range(1, n + 1)):
            tau = Permutation(images)
            if tau.is_identity():
                continue
            fm = tau.cycle_form()
            k, r = fm.length(), fm.cycle_count()
            psi = wavelet(tau)
            assert set(psi.terms.values()) <= {-1, 1}
            assert len(psi) == 2 ** (k - r) * factorial(n - k + 1)


def test_chain_coefficient_fast_epsilon_identity():
    # the paper's displayed product for the cycle sending 1->3->4->2->1
    from rankmra import epsilon, restrict

    gamma = form("(1 3 4 2)")
    for p in permutations(range(1, 5)):
        word = Word(p, 4)
        direct = chain_coefficient_fast(gamma, word)
        product = (
            epsilon(word, 4, 3)
            * epsilon(restrict(word, {1, 2, 3}), 3, 1)
            * epsilon(restrict(word, {1, 2}), 2, 1)
        )
        assert direct == product == wavelet_chain(gamma, 4)(word)


def test_chain_coefficient_fast_block_examples():
    tau = form("(1 3 4)(2 5)")
    assert chain_coefficient_fast(tau, w("24351", 5)) == 0
    blocks = chain_coefficient_fast(tau, w("41352", 5))
    assert blocks == chain_coefficient_fast(form("(1 3 4)"), w("413", 5)) * (
        chain_coefficient_fast(form("(2 5)"), w("52", 5))
    )
    with pytest.raises(ValueError):
        chain_coefficient_fast(tau, w("1234", 4))
    with pytest.raises(ValueError):
        chain_coefficient_fast(form("id"), w("12", 2))


def test_chain_coefficient_fast_agrees_with_generator():
    for subset in [frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({2, 4, 5}),
                   frozenset({1, 2, 3, 4}), frozenset({1, 3, 4, 6})]:
        n = max(subset)
        for tau in derangements(subset, n):
            x = wavelet_chain(tau)
            for word in all_words(subset, n):
                assert chain_coefficient_fast(tau, word) == x(word)


def test_localization_exhaustive_n4():
    subsets = subsets_of(4, (2, 3, 4))
    for images in permutations(range(1, 5)):
        tau = Permutation(images)
        if tau.is_identity():
            continue
        psi = wavelet(tau)
        support = tau.support()
        for b_set in subsets:
            got = marginal(psi, b_set)
            if not support <= b_set:
                assert got == Chain.zero(4)
            else:
                assert got == marginal_wavelet(tau, b_set, 4)
        # non-degeneracy on the own support
        expected = wavelet_chain(tau) * factorial(4 - len(support) + 1)
        assert marginal(psi, support) == expected


def test_marginal_wavelet_examples():
    for n, subset in ((4, {1, 2}), (5, {2, 3, 5})):
        m = marginal_wavelet(form("id"), subset, n)
        value = factorial(n) // factorial(len(subset))
        for word in all_words(subset, n):
            assert m(word) == value
    assert marginal_wavelet(form("(1 2)(3 4)"), {1, 3}, 4) == Chain.zero(4)
    got = marginal_wavelet(form("(1 2)"), {1, 2}, 4)
    assert got == parse_chain("+6*12 -6*21", 4)


def test_translation_covariance_example_and_randomized():
    sigma0 = Permutation((3, 4, 1, 2))  # order-preserving on {1, 2}
    lhs = translate(wavelet(form("(1 2)"), 4), sigma0)
    assert lhs == wavelet(form("(3 4)"), 4)

    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(3, 6)
        size = rng.randint(2, n)
        support = sorted(rng.sample(range(1, n + 1), size))
        tau = rng.choice(derangements(support, n))
        image = sorted(rng.sample(range(1, n + 1), size))
        rest_src = [a for a in range(1, n + 1) if a not in support]
        rest_dst = [a for a in range(1, n + 1) if a not in image]
        rng.shuffle(rest_dst)
        images = [0] * n
        for a, b in zip(support, image):
            images[a - 1] = b
        for a, b in zip(rest_src, rest_dst):
            images[a - 1] = b
        sigma0 = Permutation(tuple(images))
        conjugate = sigma0 * tau * sigma0.inverse()
        assert translate(wavelet(tau), sigma0) == wavelet(conjugate)
