"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Expected values are frozen from the published combinatorics (with two
corrected signs whose printed variants provably violate the deletion law;
the correction is re-derived here by independent oracles, not assumed).
"""

import random
import time
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

from rankmra import (
    Chain,
    CoefficientVector,
    CycleForm,
    ObservationDesign,
    Permutation,
    Word,
    chain_coefficient_fast,
    check_projective,
    contiguous_extensions,
    decompose,
    decompose_marginals,
    delete,
    derangements,
    dezoom,
    exact_marginals,
    marginal,
    marginal_wavelet,
    synthesize,
    translate,
    uniform_distribution,
    wavelet,
    wavelet_chain,
)
from rankmra.cli import main
from rankmra.marginals import all_words
from rankmra.mra import design_keys
from rankmra.perms import derangement_number, eig_class_dimensions
from rankmra.words import format_chain, parse_chain
from rankmra import wavelets as wavelets_module

GOLDEN = Path(__file__).parent / "golden" / "s4_basis.txt"


def conclude(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, failures[:10]


def subsets_of(n: int, min_size: int = 2) -> list[frozenset[int]]:
    items = list(range(1, n + 1))
    out = []
    for mask in range(1, 1 << n):
        s = frozenset(items[i] for i in range(n) if mask >> i & 1)
        if len(s) >= min_size:
            out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


# the n = 4 figure: scale-4 wavelets written out in full, scale-2 and
# scale-3 wavelets as signed lists of contiguously-embedded words.
# ψ_(1243) and ψ_(1342) carry the corrected signs (see PRINTED_TYPOS).
FULL_ROWS = {
    "(1 2 3 4)": "+1234 -1243 -1342 +1432 -2341 +2431 +3421 -4321",
    "(1 2 4 3)": "+1243 -1324 +1342 -1423 -2431 +3241 -3421 +4231",
    "(1 2)(3 4)": "+1234 -1243 -2134 +2143",
    "(1 3 2 4)": "+1324 -1342 -2413 +2431 -3124 +3142 +4213 -4231",
    "(1 3 4 2)": "+1342 -1432 -2134 +2143 +2341 -2431 -3412 +4312",
    "(1 3)(2 4)": "+1324 -1342 -3124 +3142",
    "(1 4 2 3)": "+1423 -1432 -2314 +2341 +3214 -3241 -4123 +4132",
    "(1 4 3 2)": "+1432 -2143 +2314 -2341 +2413 -3142 +3412 -4132",
    "(1 4)(2 3)": "+1423 -1432 -4123 +4132",
}
PRINTED_TYPOS = {
    "(1 2 4 3)": "+1243 -1324 +1342 +1423 -2431 +3241 -3421 +4231",
    "(1 3 4 2)": "+1342 -1432 -2134 +2143 +2341 -2431 +3412 -4312",
}
BRACKET_ROWS = {
    "(1 2)": "+12 -21", "(1 3)": "+13 -31", "(1 4)": "+14 -41",
    "(2 3)": "+23 -32", "(2 4)": "+24 -42", "(3 4)": "+34 -43",
    "(1 2 3)": "+123 -132 -231 +321",
    "(1 3 2)": "+132 -213 +231 -312",
    "(1 2 4)": "+124 -142 -241 +421",
    "(1 4 2)": "+142 -214 +241 -412",
    "(1 3 4)": "+134 -143 -341 +431",
    "(1 4 3)": "+143 -314 +341 -413",
    "(2 3 4)": "+234 -243 -342 +432",
    "(2 4 3)": "+243 -324 +342 -423",
}


def expand_brackets(expr: str, n: int) -> Chain:
    """[pi] rows expanded by direct contiguous-extension enumeration."""
    out = Chain.zero(n)
    full = frozenset(range(1, n + 1))
    for token in expr.split():
        sign = 1 if token[0] == "+" else -1
        word = Word.parse(token[1:], n)
        out = out + sign * Chain.indicator(contiguous_extensions(word, full), n)
    return out


def test_criterion_01_golden_basis(tmp_path, capsys):
    failures = []
    wavelets_module._chain_cache.clear()
    out_path = tmp_path / "basis.txt"
    start = time.perf_counter()
    code = main(["basis", "--n", "4", "--expand", "--output", str(out_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    if code != 0:
        failures.append(f"exit code {code}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")

    emitted = {}
    for line in out_path.read_text().splitlines():
        key, _, chain_text = line.partition(": ")
        emitted[key] = chain_text
    if len(emitted) != 24:
        failures.append(f"{len(emitted)} wavelets emitted")

    # identity row: every full ranking with coefficient +1
    id_expected = format_chain(Chain.indicator(all_words(range(1, 5), 4), 4))
    if emitted.get("id") != id_expected:
        failures.append("id row wrong")
    for key, row in FULL_ROWS.items():
        if emitted.get(key) != row:
            failures.append(f"{key}: {emitted.get(key)} != {row}")
    for key, expr in BRACKET_ROWS.items():
        expected = format_chain(expand_brackets(expr, 4))
        if emitted.get(key) != expected:
            failures.append(f"{key}: {emitted.get(key)} != {expected}")

    # the two published rows we correct are provably defective: some single
    # deletion fails to annihilate them, which every wavelet chain must satisfy
    for key, printed in PRINTED_TYPOS.items():
        chain = parse_chain(printed, 4)
        if all(delete(chain, a) == Chain.zero(4) for a in range(1, 5)):
            failures.append(f"printed row {key} is not defective after all")
    if out_path.read_text() != GOLDEN.read_text():
        failures.append("output differs from frozen golden file")
    conclude(1, "golden basis n=4", failures)


def test_criterion_02_worked_chain():
    failures = []
    tau = CycleForm.parse("(1 3 4)(2 5)")
    timings = []
    for _ in range(3):
        wavelets_module._chain_cache.clear()
        start = time.perf_counter()
        x = wavelet_chain(tau, 5)
        erased = delete(x, 4)
        timings.append(time.perf_counter() - start)
    expected = "+13425 -13452 -14325 +14352 -34125 +34152 +43125 -43152"
    if format_chain(x) != expected:
        failures.append(f"expansion {format_chain(x)}")
    if erased != Chain.zero(5):
        failures.append(f"deleting 4 left {erased}")
    if min(timings) >= 1e-3:
        failures.append(f"runtime {min(timings) * 1e3:.3f}ms >= 1ms")
    conclude(2, "worked chain (134)(25)", failures)


def test_criterion_03_dimension_identities(basis_for):
    failures = []
    for n in range(2, 9):
        total = 1 + sum(
            comb(n, k) * derangement_number(k) for k in range(2, n + 1)
        )
        if total != factorial(n):
            failures.append(f"n={n}: {total} != {factorial(n)}")
    start = time.perf_counter()
    for n in range(2, 7):
        basis = basis_for(n)
        rank = int(np.linalg.matrix_rank(basis.matrix(), tol=1e-8))
        if rank != factorial(n):
            failures.append(f"n={n}: rank {rank}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"rank checks took {elapsed:.1f}s >= 60s")
    conclude(3, "dimension identities", failures)


def test_criterion_04_null_space_oracle():
    failures = []
    expected_dims = {2: 1, 3: 2, 4: 9, 5: 44}
    for k, d_k in expected_dims.items():
        subset = frozenset(range(1, k + 1))
        source = all_words(subset, k)
        index = {word: i for i, word in enumerate(source)}
        blocks = []
        for a in sorted(subset):
            target = all_words(subset - {a}, k)
            t_index = {word: i for i, word in enumerate(target)}
            block = np.zeros((len(target), len(source)))
            for j, word in enumerate(source):
                dropped = Word(tuple(b for b in word.letters if b != a), k)
                block[t_index[dropped], j] = 1
            blocks.append(block)
        stacked = np.vstack(blocks)
        singular = np.linalg.svd(stacked, compute_uv=False)
        null_dim = int(np.sum(singular <= 1e-8)) + max(0, stacked.shape[1] - len(singular))
        if null_dim != d_k:
            failures.append(f"k={k}: null dim {null_dim} != {d_k}")
        vectors = []
        for tau in derangements(subset, k):
            vec = np.zeros(len(source))
            for word, c in wavelet_chain(tau).terms.items():
                vec[index[word]] = c
            residual = float(np.max(np.abs(stacked @ vec)))
            if residual > 1e-8:
                failures.append(f"k={k} {tau}: residual {residual:.2e}")
            vectors.append(vec)
        rank = int(np.linalg.matrix_rank(np.array(vectors).T, tol=1e-8))
        if rank != d_k:
            failures.append(f"k={k}: span rank {rank} != {d_k}")
    conclude(4, "null-space oracle", failures)


def test_criterion_05_localization_n5():
    failures = []
    start = time.perf_counter()
    n = 5
    targets = subsets_of(n)
    for images in permutations(range(1, n + 1)):
        tau = Permutation(images)
        if tau.is_identity():
            continue
        psi = wavelet(tau)
        support = tau.support()
        for b_set in targets:
            got = marginal(psi, b_set)
            if not support <= b_set:
                if got != Chain.zero(n):
                    failures.append(f"{tau} on {sorted(b_set)} not zero")
            else:
                if got != marginal_wavelet(tau, b_set, n):
                    failures.append(f"{tau} on {sorted(b_set)} != closed form")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    conclude(5, "localization exhaustive n=5", failures)


def test_criterion_06_fast_formula_equivalence():
    failures = []
    # the published two-block worked example
    tau = CycleForm.parse("(1 3 4)(2 5)")
    if chain_coefficient_fast(tau, Word.parse("24351", 5)) != 0:
        failures.append("24351 should vanish on block mismatch")
    lhs = chain_coefficient_fast(tau, Word.parse("41352", 5))
    rhs = chain_coefficient_fast(CycleForm.parse("(1 3 4)"), Word.parse("413", 5)) * (
        chain_coefficient_fast(CycleForm.parse("(2 5)"), Word.parse("52", 5))
    )
    if lhs != rhs:
        failures.append("two-block factorization broken")
    # every non-identity permutation of S_6, every ranking of its support
    n = 6
    for subset in subsets_of(n):
        for tau in derangements(subset, n):
            x = wavelet_chain(tau)
            for word in all_words(subset, n):
                if chain_coefficient_fast(tau, word) != x(word):
                    failures.append(f"{tau} at {word}")
    conclude(6, "fast-formula equivalence l<=6", failures)


def test_criterion_07_design_example(basis_for):
    failures = []
    n = 4
    design = ObservationDesign([[1, 3], [2, 4], [3, 4], [1, 2, 3], [1, 3, 4]], n)
    keys = design_keys(design)
    expected_keys = [
        "id", "(1 2)", "(1 3)", "(1 4)", "(2 3)", "(2 4)", "(3 4)",
        "(1 2 3)", "(1 3 2)", "(1 3 4)", "(1 4 3)",
    ]
    if keys != expected_keys:
        failures.append(f"keys {keys}")
    if len(keys) != 11:
        failures.append(f"dimension {len(keys)} != 11")
    rng = random.Random(123)
    planted = CoefficientVector({k: rng.uniform(-1, 1) for k in keys}, n, "design")
    f = synthesize(planted, basis_for(n))
    fam = exact_marginals(f, design)
    recovered = decompose_marginals(fam)
    worst = max(abs(recovered.get(k) - planted.get(k)) for k in keys)
    if worst > 1e-8:
        failures.append(f"recovery error {worst:.2e}")
    conclude(7, "design example n=4", failures)


def test_criterion_08_round_trip(basis_for):
    failures = []
    rng = random.Random(99)
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        basis = basis_for(n)
        words = all_words(range(1, n + 1), n)
        for _ in range(50):
            f = Chain({w: rng.gauss(0, 1) for w in words}, n)
            c = decompose(f, basis)
            back = synthesize(c, basis)
            err = (back - f).norm_inf()
            if err > 1e-8:
                failures.append(f"n={n}: synth(decomp) error {err:.2e}")
            c2 = decompose(back, basis)
            gap = max(abs(c.get(k) - c2.get(k)) for k in basis.keys)
            if gap > 1e-8:
                failures.append(f"n={n}: decomp(synth) error {gap:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    conclude(8, "round-trip identities", failures)


def _order_preserving_extension(rng, support, image, n):
    images = [0] * n
    for a, b in zip(sorted(support), sorted(image)):
        images[a - 1] = b
    rest_src = [a for a in range(1, n + 1) if a not in support]
    rest_dst = [b for b in range(1, n + 1) if b not in image]
    rng.shuffle(rest_dst)
    for a, b in zip(rest_src, rest_dst):
        images[a - 1] = b
    return Permutation(tuple(images))


def test_criterion_09_structure_properties(basis_for):
    failures = []
    rng = random.Random(2024)
    trials = 200

    for _ in range(trials):  # translation covariance
        n = rng.randint(3, 6)
        size = rng.randint(2, n)
        support = rng.sample(range(1, n + 1), size)
        tau = rng.choice(derangements(support, n))
        image = rng.sample(range(1, n + 1), size)
        sigma0 = _order_preserving_extension(rng, support, image, n)
        conjugate = sigma0 * tau * sigma0.inverse()
        if translate(wavelet(tau), sigma0) != wavelet(conjugate):
            failures.append(f"translation covariance: {tau} by {sigma0}")

    for _ in range(trials):  # displacement: translated wavelets stay in W_B
        n = rng.randint(3, 6)
        k = rng.randint(2, n)
        src = rng.sample(range(1, n + 1), k)
        dst = sorted(rng.sample(range(1, n + 1), k))
        shuffled_dst = dst[:]
        rng.shuffle(shuffled_dst)
        images = [0] * n
        for a, b in zip(sorted(src), shuffled_dst):
            images[a - 1] = b
        rest_src = [a for a in range(1, n + 1) if a not in src]
        rest_dst = [b for b in range(1, n + 1) if b not in dst]
        rng.shuffle(rest_dst)
        for a, b in zip(rest_src, rest_dst):
            images[a - 1] = b
        sigma0 = Permutation(tuple(images))
        tau = rng.choice(derangements(src, n))
        basis = basis_for(n)
        moved = basis.chain_to_vector(translate(wavelet(tau), sigma0))
        cols = np.array(
            [basis.chain_to_vector(wavelet(t)) for t in derangements(dst, n)]
        ).T
        sol, *_ = np.linalg.lstsq(cols, moved, rcond=None)
        residual = float(np.max(np.abs(cols @ sol - moved)))
        if residual > 1e-10:
            failures.append(f"displacement residual {residual:.2e}")

    for _ in range(trials):  # value set and support size
        n = rng.randint(3, 6)
        size = rng.randint(2, n)
        support = rng.sample(range(1, n + 1), size)
        tau = rng.choice(derangements(support, n))
        form = tau.cycle_form()
        psi = wavelet(tau)
        k, r = form.length(), form.cycle_count()
        if not set(psi.terms.values()) <= {-1, 1}:
            failures.append(f"values of {tau}")
        if len(psi) != 2 ** (k - r) * factorial(n - k + 1):
            failures.append(f"support size of {tau}")

    for _ in range(trials):  # dezoom idempotence and nesting
        n = rng.randint(3, 6)
        basis = basis_for(n)
        f = Chain({w: rng.gauss(0, 1) for w in basis.words}, n)
        scales = sorted(rng.sample([0] + list(range(2, n + 1)), 2))
        low, high = scales
        once = dezoom(f, high, basis)
        if (dezoom(once, high, basis) - once).norm_inf() > 1e-8:
            failures.append(f"idempotence at n={n} k={high}")
        nested = dezoom(once, low, basis)
        if (nested - dezoom(f, low, basis)).norm_inf() > 1e-8:
            failures.append(f"nesting at n={n} {low}<={high}")

    for _ in range(trials):  # projectivity of exact marginals
        n = rng.randint(3, 6)
        f = Chain(
            {w: rng.gauss(0, 1) for w in all_words(range(1, n + 1), n)}, n
        )
        pool = subsets_of(n)
        design = ObservationDesign(
            [sorted(s) for s in rng.sample(pool, min(len(pool), rng.randint(2, 5)))], n
        )
        report = check_projective(exact_marginals(f, design), 1e-9)
        if not report.passed:
            failures.append(f"projectivity violation {report.max_violation:.2e}")

    conclude(9, "structure properties randomized", failures)


def test_criterion_10_eig_concordance():
    failures = []
    for n in range(2, 9):
        sums = eig_class_dimensions(n)
        if sums.get(n, 0) != 1:
            failures.append(f"n={n}: constant class {sums.get(n, 0)}")
        if sums.get(n - 1, 0) != 0:
            failures.append(f"n={n}: impossible scale-1 class populated")
        for k in range(2, n + 1):
            expected = comb(n, k) * derangement_number(k)
            if sums.get(n - k, 0) != expected:
                failures.append(f"n={n} k={k}: {sums.get(n - k, 0)} != {expected}")
    table4 = eig_class_dimensions(4)
    if (table4.get(0), table4.get(1), table4.get(2), table4.get(4)) != (9, 8, 6, 1):
        failures.append(f"n=4 table {table4}")
    conclude(10, "eig/dimension concordance", failures)
