"""Wavelet chains and wavelet functions for incomplete rankings.

The paper generates a wavelet chain x_tau per cycle by star elimination
(insert a star between consecutive cycle letters, repeatedly replace the
star with the largest right-hand neighbor by a diamond product) and
concatenates the cycles.  That generator is kept as `_cycle_chain`, the
oracle the closed form is tested against.  Chains are built from the
closed form, which runs each cycle's sign ladder backwards: `level_chains`
runs it on arrays for every derangement form of 1..k at once, a chunk of
forms at a time, and `basis` relabels each level onto every k-subset.  By
translation covariance the chain of any form on a k-subset is a column of
X_k, relabelled; `level_matrix` holds X_k, built once per process from
`level_chains`, and every other chain read (`wavelet_chain`, the levels
and marginals of `mra`) slices it.  Embedding a chain by contiguous
extensions yields the wavelet function psi_tau on full rankings.  The
embeddings here (`wavelet`, `embed`, `embed_into`, `marginal_wavelet`) are
the Word-level definitions the tests hold the ranking index of `mra` to;
every production path reads that index instead.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Iterator

import numpy as np

from .marginals import all_words, contiguous_extensions, extensions
from .perms import CycleForm, Permutation, derangement_forms, standard_cycle_form
from .words import Chain, Word, _accumulate, content, diamond

# Scale policy of the package, imported by every module that needs it.
MAX_N = 8  # the largest n whose full rankings are ever listed
LARGE_N = 7  # the first n behind allow_large / --allow-large-n
MAX_DENSE_ENTRIES = factorial(LARGE_N) ** 2  # the dense basis matrix and the reduced design system

_chain_cache: dict[tuple[int, tuple], Chain] = {}


def _cycle_chain(cycle: tuple[int, ...], n: int) -> Chain:
    """Star elimination on one cycle: merge adjacent spans by diamond,
    taking stars in decreasing order of the letter to their right."""
    spans = {i: (i, Chain.dirac(Word._make((a,), n))) for i, a in enumerate(cycle)}
    end_to_start = {i: i for i in range(len(cycle))}
    for pos in sorted(range(1, len(cycle)), key=lambda i: cycle[i], reverse=True):
        left_start = end_to_start[pos - 1]
        left_end, left_chain = spans.pop(left_start)
        right_end, right_chain = spans.pop(pos)
        merged = diamond(left_chain, right_chain)
        spans[left_start] = (right_end, merged)
        end_to_start[right_end] = left_start
    (_, (_, chain)), = spans.items()
    return chain


_LEVEL_CHUNK = 512  # forms per batch of level_chains, which bounds what it holds


def _cycle_blocks(cycles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-cycle chains of a batch of cycles, each a row that holds
    1..l: each cycle's sign ladder run backwards on letter positions, each
    peeled maximum going back right (+) or left (-) of its predecessor.
    Returns the words (cycles, 2^(l-1), l) int8, in lexicographic order
    per cycle, and their signs (cycles, 2^(l-1)) int8."""
    count, l = cycles.shape
    rows = np.arange(count)
    after = np.roll(cycles, -1, axis=1)
    succ = np.zeros((count, l + 1), np.int8)
    pred = np.zeros((count, l + 1), np.int8)
    succ[rows[:, None], cycles] = after
    pred[rows[:, None], after] = cycles
    # the sign ladder: peel l, l-1, ..., 2, each from beside its predecessor
    before = np.zeros((count, l + 1), np.int8)
    for top in range(l, 1, -1):
        b, a = pred[:, top], succ[:, top]
        before[:, top] = b
        succ[rows, b] = a
        pred[rows, a] = b
    # run backwards: pos[c, w, i] is where letter i + 1 stands in word w,
    # meaningful for the letters placed so far
    pos = np.zeros((count, 1, l), np.int8)
    signs = np.ones((count, 1), np.int8)
    for top in range(2, l + 1):
        at = pos[rows, :, before[:, top] - 1][..., None]
        right = pos + (pos > at)
        right[..., top - 1] = at[..., 0] + 1
        left = pos + (pos >= at)
        left[..., top - 1] = at[..., 0]
        pos = np.stack((right, left), axis=2).reshape(count, -1, l)
        signs = np.stack((signs, -signs), axis=2).reshape(count, -1)
    # each word, padded to 8 letters (l <= MAX_N), reads as one big-endian
    # integer, whose order is the words' lexicographic order
    words = np.zeros((pos.shape[0] * pos.shape[1], 8), np.int8)
    terms = np.arange(len(words))
    for i in range(l):
        words[terms, pos[..., i].ravel()] = i + 1
    key = words.view(">u8").reshape(count, -1)
    order = np.argsort(key, axis=1)
    words = np.take_along_axis(key, order, axis=1).view(np.int8).reshape(count, -1, 8)
    return words[..., :l], np.take_along_axis(signs, order, axis=1)


def _codes(cycles: np.ndarray) -> np.ndarray:
    """Each row of letters 1..l as one base-(l + 1) number, increasing in
    the rows' lexicographic order."""
    l = cycles.shape[-1]
    return cycles @ (l + 1) ** np.arange(l - 1, -1, -1)


@lru_cache(maxsize=None)
def _pattern_blocks(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one-cycle chains of every standard cycle of 1..l, cycles in
    lexicographic order: their _codes, then _cycle_blocks of them."""
    cycles = np.array([(1, *rest) for rest in permutations(range(2, l + 1))], np.int8)
    return (_codes(cycles), *_cycle_blocks(cycles))


def _product_blocks(cycles: np.ndarray, lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The chains of forms of one cycle type, each a row of its cycles
    written one after another: the broadcast product of each cycle's
    pattern block, relabelled onto the cycle's letters.  Returns words
    (forms, terms, k) and signs (forms, terms), as _cycle_blocks."""
    count, k = cycles.shape
    rows = np.arange(count)[:, None, None]
    words = np.empty((count, *(1 << (l - 1) for l in lengths), k), np.int8)
    signs = np.ones(words.shape[:-1], np.int8)
    start = 0
    for i, l in enumerate(lengths):
        cycle = cycles[:, start : start + l]
        codes, block, sign = _pattern_blocks(l)
        # a cycle's pattern ranks its letters among themselves
        pattern = np.argsort(np.argsort(cycle, axis=1), axis=1) + 1
        which = np.searchsorted(codes, _codes(pattern))
        shape = [count] + [1] * len(lengths)
        shape[i + 1] = -1
        letters = np.sort(cycle, axis=1)[rows, block[which] - 1]
        words[..., start : start + l] = letters.reshape(*shape, l)
        signs *= sign[which].reshape(shape)
        start += l
    return words.reshape(count, -1, k), signs.reshape(count, -1)


def level_chains(k: int) -> Iterator[tuple[list[CycleForm], np.ndarray, np.ndarray]]:
    """The chains of the derangement forms of 1..k, as arrays, a chunk of
    forms at a time in derangement_forms order: (forms, words, signs).
    words (terms, k) int8 holds the chains' words one chain after
    another, each chain's 2^(k - cycles) words in lexicographic order, and
    signs (terms,) int8 their coefficients.  The one closed-form chain
    generator; k outside 2..MAX_N is refused before any form is listed."""
    if not 2 <= k <= MAX_N:
        raise ValueError(f"chains are built for supports of 2..MAX_N = {MAX_N} items, not {k}")
    return _level_chunks(k)


def _level_chunks(k: int) -> Iterator[tuple[list[CycleForm], np.ndarray, np.ndarray]]:
    forms = derangement_forms(range(1, k + 1))
    for start in range(0, len(forms), _LEVEL_CHUNK):
        chunk = forms[start : start + _LEVEL_CHUNK]
        types: dict[tuple[int, ...], list[int]] = {}
        for i, form in enumerate(chunk):
            types.setdefault(tuple(map(len, form.cycles)), []).append(i)
        counts = np.array([1 << (k - len(form.cycles)) for form in chunk])
        offsets = np.cumsum(counts) - counts
        words = np.empty((int(counts.sum()), k), np.int8)
        signs = np.empty(len(words), np.int8)
        for lengths, members in types.items():
            cycles = np.array([sum(chunk[i].cycles, ()) for i in members], np.int8)
            if len(lengths) == 1:
                block, sign = _cycle_blocks(cycles)
            else:
                block, sign = _product_blocks(cycles, lengths)
            at = offsets[members][:, None] + np.arange(block.shape[1])
            words[at] = block
            signs[at] = sign
        yield chunk, words, signs


@lru_cache(maxsize=None)
def _rankings(k: int) -> np.ndarray:
    """The rankings of 1..k in lexicographic order, (k!, k) int8."""
    return np.array(list(permutations(range(1, k + 1))), np.int8)


@lru_cache(maxsize=None)
def level_matrix(k: int) -> tuple[dict[tuple, int], np.ndarray, np.ndarray, np.ndarray]:
    """X_k, the chains of the derangement forms of 1..k, in compressed
    columns: (column, indptr, rows, signs).  column maps each form's
    cycles to its column, in derangement_forms order; the rows of column j
    are rows[indptr[j]:indptr[j + 1]] (int32), each word's lexicographic
    rank among the rankings of 1..k, in increasing order, and signs
    (int8) their coefficients.  Built in one pass over level_chains(k),
    once per process; the arrays are read-only."""
    chains = level_chains(k)
    codes = _codes(_rankings(k))
    cycles, rows, signs = [], [], []
    for forms, words, sign in chains:
        cycles.extend(form.cycles for form in forms)
        rows.append(np.searchsorted(codes, _codes(words)).astype(np.int32))
        signs.append(sign)
    indptr = np.concatenate(([0], np.cumsum([1 << (k - len(c)) for c in cycles])))
    table = indptr, np.concatenate(rows), np.concatenate(signs)
    for a in table:  # shared by every reader in the process
        a.flags.writeable = False
    return {c: j for j, c in enumerate(cycles)}, *table


def _all_left_word(cycle: tuple[int, ...]) -> list[int]:
    """The word of cycle's chain in which every peeled maximum stands just
    left of its predecessor: the sign ladder run backwards on the - branch
    throughout, so its coefficient is (-1)^(len(cycle) - 1)."""
    word = [min(cycle)]
    for top, before in reversed(_sign_ladder(cycle)):
        word.insert(word.index(before), top)
    return word


@lru_cache(maxsize=None)
def pivot_rows(k: int) -> np.ndarray:
    """The all-left word of each derangement form of 1..k, in X_k's column
    order: its cycles' _all_left_words written one after another in
    standard order, as the lexicographic rank of that word among the
    rankings of 1..k (X_k's row).  Read-only; built once per process."""
    column = level_matrix(k)[0]
    words = np.array([[a for cycle in cycles for a in _all_left_word(cycle)] for cycles in column], np.int8)
    rows = np.searchsorted(_codes(_rankings(k)), _codes(words))
    rows.flags.writeable = False
    return rows


def _relabel(form: CycleForm, items) -> tuple[tuple[int, ...], ...]:
    """form's cycles relabelled onto 1..len(items), items (which hold its
    support) in the order of their labels, so that they stay standard:
    its key among the forms of 1..len(items)."""
    label = {b: i for i, b in enumerate(sorted(items), 1)}
    return tuple(tuple(label[b] for b in cycle) for cycle in form.cycles)


def _form_column(form: CycleForm) -> tuple[np.ndarray, np.ndarray]:
    """form's column of level_matrix(k), k its support size, relabelled onto
    1..k (_relabel): rows, signs."""
    support = form.support()
    column, indptr, rows, signs = level_matrix(len(support))
    j = column[_relabel(form, support)]
    return rows[indptr[j] : indptr[j + 1]], signs[indptr[j] : indptr[j + 1]]


def _check_support(form: CycleForm, n: int) -> None:
    support = form.support()
    if support and not (min(support) >= 1 and max(support) <= n):
        raise ValueError(f"support {sorted(support)} exceeds universe 1..{n}")


def wavelet_chain(t: Permutation | CycleForm, n: int | None = None) -> Chain:
    """The wavelet chain x_t of t (in standard cycle form) on words of 1..n;
    its coefficients are +-1 on words ranking supp(t).

    The identity is rejected: it indexes the constant function, not a
    chain.  So is a support outside 1..n, or of more than MAX_N items.
    """
    form = t if isinstance(t, CycleForm) else standard_cycle_form(t)
    if n is None:
        n = t.n if isinstance(t, Permutation) else max(form.support(), default=0)
    if not form.cycles:
        raise ValueError("the identity permutation has no wavelet chain")
    _check_support(form, n)
    key = (n, form.cycles)
    cached = _chain_cache.get(key)
    if cached is None:
        rows, signs = _form_column(form)
        support = np.array(sorted(form.support()))
        words = support[_rankings(len(support))[rows] - 1].tolist()
        terms = {Word._make(tuple(w), n): s for w, s in zip(words, signs.tolist())}
        cached = _chain_cache[key] = Chain._make(terms, n)
    return cached


def _embed(x: Chain, items: frozenset[int]) -> Chain:
    """Sum of c times the indicator of the contiguous extensions of w into
    the rankings of items, over the terms c*w of x, built in one dict."""
    pairs = ((v, c) for w, c in x.terms.items() for v in contiguous_extensions(w, items))
    return Chain._make(_accumulate(pairs), x.n)


def embed(x: Chain) -> Chain:
    """Send each word to the sum of full rankings containing it contiguously."""
    return _embed(x, frozenset(range(1, x.n + 1)))


def embed_into(x: Chain, items) -> Chain:
    """Contiguous-extension embedding into the rankings of a subset."""
    items = frozenset(items)
    for w in x.terms:
        if not content(w) <= items:
            raise ValueError(f"word {w} has content outside {sorted(items)}")
    return _embed(x, items)


def naive_embed(x: Chain) -> Chain:
    """Negative control: extend by subwords (all insertions), not contiguously."""
    full = frozenset(range(1, x.n + 1))
    pairs = ((v, c) for w, c in x.terms.items() for v in extensions(w, full))
    return Chain._make(_accumulate(pairs), x.n)


def wavelet(t: Permutation | CycleForm, n: int | None = None) -> Chain:
    """The basis function psi_t on full rankings of 1..n, values in {-1, 0, 1}.

    The identity yields the all-ones function; any other t embeds its
    wavelet chain.  Bounded at n = 8: beyond that the full ranking space
    is never materialized.
    """
    form = t if isinstance(t, CycleForm) else standard_cycle_form(t)
    if n is None:
        if not isinstance(t, Permutation):
            raise ValueError("universe size n required with a bare cycle form")
        n = t.n
    if n > MAX_N:
        raise ValueError(f"full rankings are materialized only for n <= {MAX_N}")
    _check_support(form, n)
    if not form.cycles:
        return Chain.indicator(all_words(range(1, n + 1), n), n)
    return embed(wavelet_chain(form, n))


@lru_cache(maxsize=4096)
def _sign_ladder(cycle: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Word-independent peel sequence of a cycle: (largest item, its cycle
    predecessor) pairs, contracting the largest item after each step."""
    succ = {a: cycle[(i + 1) % len(cycle)] for i, a in enumerate(cycle)}
    pred = {b: a for a, b in succ.items()}
    ladder = []
    remaining = sorted(cycle, reverse=True)
    for top in remaining[:-1]:
        before = pred[top]
        ladder.append((top, before))
        after = succ[top]
        succ[before] = after
        pred[after] = before
        del succ[top], pred[top]
    return tuple(ladder)


def _one_cycle_coefficient(cycle: tuple[int, ...], letters: tuple[int, ...]) -> int:
    """Coefficient of a word in a one-cycle chain: the product of adjacency
    signs of (peeled maximum, its predecessor) in successive restrictions."""
    current = list(letters)
    value = 1
    for top, before in _sign_ladder(cycle):
        pos_top = current.index(top)
        diff = pos_top - current.index(before)
        if diff == -1:
            value = -value
        elif diff != 1:
            return 0
        current.pop(pos_top)
    return value


def chain_coefficient_fast(t: Permutation | CycleForm, w: Word) -> int:
    """Value of the wavelet chain of t at w, without running the generator.

    The word is split into contiguous blocks matching the cycle lengths in
    standard form; the value is the product of one-cycle sign products, or
    zero as soon as a block's content differs from its cycle's support.
    """
    form = t if isinstance(t, CycleForm) else standard_cycle_form(t)
    if not form.cycles:
        raise ValueError("the identity permutation has no wavelet chain")
    if content(w) != form.support():
        raise ValueError(
            f"word content {sorted(content(w))} differs from support {sorted(form.support())}"
        )
    value = 1
    offset = 0
    for cycle in form.cycles:
        block = w.letters[offset : offset + len(cycle)]
        offset += len(cycle)
        if set(block) != set(cycle):
            return 0
        value *= _one_cycle_coefficient(cycle, block)
        if value == 0:
            return 0
    return value


def marginal_wavelet(t: Permutation | CycleForm, items, n: int | None = None) -> Chain:
    """Closed-form marginal of psi_tau on the rankings of a subset.

    Constant n!/|A|! for the identity; a scaled contiguous embedding of the
    wavelet chain when the support lies inside A; zero otherwise.
    """
    if n is None:
        if not isinstance(t, Permutation):
            raise ValueError("universe size n required with a bare cycle form")
        n = t.n
    items = frozenset(items)
    if len(items) < 2:
        raise ValueError("marginals of wavelets are taken on subsets of size >= 2")
    form = t if isinstance(t, CycleForm) else standard_cycle_form(t)
    if not form.cycles:
        value = factorial(n) // factorial(len(items))
        return Chain.indicator(all_words(items, n), n) * value
    support = form.support()
    if not support <= items:
        return Chain.zero(n)
    k = len(support)
    scale = factorial(n - k + 1) // factorial(len(items) - k + 1)
    return embed_into(wavelet_chain(form, n), items) * scale
