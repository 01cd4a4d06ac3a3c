"""Basis assembly, analysis/synthesis, marginal-domain decomposition, dezoom."""

import json
import random
import time
from itertools import combinations
from math import factorial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmra import (
    Chain,
    CoefficientVector,
    CycleForm,
    MarginalFamily,
    ObservationDesign,
    ProjectivityError,
    Word,
    build_basis,
    decompose,
    decompose_marginals,
    derangements,
    dezoom,
    empirical_marginals,
    exact_marginals,
    marginal,
    marginal_residual,
    marginal_wavelet,
    synthesize,
    translate,
    uniform_distribution,
    verify_dimensions,
    wavelet,
)
from rankmra import marginals as marginals_module
from rankmra import mra as mra_module
from rankmra import wavelets as wavelets_module
from rankmra.marginals import all_words
from rankmra.mra import (
    SolverError,
    _chain_column,
    _marginal_system,
    _solve_design,
    basis_keys,
    check_marginal_system,
    design_forms,
    design_keys,
    synthesize_marginals,
)
from rankmra.perms import Permutation
from rankmra.words import parse_chain

PAPER_DESIGN = [[1, 3], [2, 4], [3, 4], [1, 2, 3], [1, 3, 4]]


def random_chain(n: int, rng: random.Random) -> Chain:
    return Chain({w: rng.gauss(0, 1) for w in all_words(range(1, n + 1), n)}, n)


def test_build_basis_counts(basis_for):
    assert len(basis_for(2)) == 2
    four = basis_for(4)
    assert len(four) == 24
    sizes = {}
    for tau in four.forms:
        k = len(tau.support())
        sizes[k] = sizes.get(k, 0) + 1
    assert sizes == {0: 1, 2: 6, 3: 8, 4: 9}
    assert len(basis_for(5)) == 120
    with pytest.raises(ValueError):
        build_basis(1)
    with pytest.raises(ValueError):
        build_basis(9)


def test_basis_order_deterministic(basis_for):
    four = basis_for(4)
    assert four.keys[:8] == [
        "id", "(1 2)", "(1 3)", "(1 4)", "(2 3)", "(2 4)", "(3 4)", "(1 2 3)",
    ]
    assert four.keys[-9:] == [
        "(1 2 3 4)", "(1 2 4 3)", "(1 2)(3 4)", "(1 3 2 4)", "(1 3 4 2)",
        "(1 3)(2 4)", "(1 4 2 3)", "(1 4 3 2)", "(1 4)(2 3)",
    ]
    assert basis_keys(4) == four.keys


def test_decompose_uniform_and_basis_elements(basis_for):
    for n in (3, 4):
        basis = basis_for(n)
        c = decompose(uniform_distribution(n), basis)
        assert c.get("id") == pytest.approx(1 / factorial(n))
        others = [v for k, v in c.coeffs.items() if k != "id"]
        assert max((abs(v) for v in others), default=0) < 1e-12

        c12 = decompose(wavelet(CycleForm.parse("(1 2)"), n), basis)
        assert c12.get("(1 2)") == pytest.approx(1)
        assert sum(abs(v) for k, v in c12.coeffs.items() if k != "(1 2)") < 1e-10


def test_decompose_round_trip_diracs(basis_for):
    rng = random.Random(2)
    basis = basis_for(5)
    words = all_words(range(1, 6), 5)
    for _ in range(50):
        sigma = rng.choice(words)
        f = Chain.dirac(sigma)
        c = decompose(f, basis)
        g = synthesize(c, basis)
        assert (g - f).norm_inf() < 1e-8


def test_decompose_large_n_guard(basis_for):
    basis = basis_for(4)
    f = uniform_distribution(4)
    assert decompose(f, basis, allow_large=True).get("id") == pytest.approx(1 / 24)
    # the guard itself needs n >= 7, construction of which is exercised in
    # the CLI tests through the --allow-large-n flag


def test_basis_matrix_equals_embedded_wavelets(basis_for):
    # oracle: the Word-embedded wavelet functions, one column each
    for n in range(2, 7):
        basis = basis_for(n)
        oracle = np.column_stack(
            [basis.chain_to_vector(wavelet(form, n)) for form in basis.forms]
        )
        assert np.array_equal(basis.matrix(), oracle)


def test_full_analysis_refused_at_n8():
    start = time.perf_counter()
    basis = build_basis(8)
    assert time.perf_counter() - start < 1.0
    assert len(basis) == factorial(8)
    with pytest.raises(ValueError, match="40320 rows and at least 40320 columns"):
        basis.matrix()
    f = Chain.dirac(Word(tuple(range(1, 9)), 8))
    with pytest.raises(ValueError, match="40320 rows"):
        decompose(f, basis, allow_large=True)
    # without allow_large, n = 7 is refused before its matrix is built
    seven = build_basis(7)
    with pytest.raises(ValueError, match="allow_large"):
        decompose(uniform_distribution(7), seven)
    assert seven._matrix is None


def _against_dense_oracle(basis, f: Chain, c: np.ndarray) -> None:
    """The engine's decompose, synthesize and dezoom of f against a dense
    solve with, and products by, the basis matrix; c is its coefficients."""
    mat = basis.matrix()
    vec = basis.chain_to_vector(f)
    oracle = np.linalg.solve(mat, vec)
    assert np.max(np.abs(c - oracle)) <= 1e-10 * np.max(np.abs(oracle))
    scale = np.max(np.abs(mat @ oracle))
    oracle_c = CoefficientVector(dict(zip(basis.keys, oracle)), basis.n)
    synthesized = basis.chain_to_vector(synthesize(oracle_c, basis))
    assert np.max(np.abs(synthesized - mat @ oracle)) <= 1e-12 * scale
    for k in range(2, basis.n + 1):
        kept = np.where(basis.scales > k, 0.0, oracle)
        zoomed = basis.chain_to_vector(dezoom(f, k, basis, allow_large=True))
        assert np.max(np.abs(zoomed - mat @ kept)) <= 1e-10 * np.max(np.abs(vec))


def test_subset_triangular_engine_matches_dense_oracle(basis_for):
    rng = random.Random(21)
    for n in range(3, 7):
        basis = basis_for(n)
        for f in (random_chain(n, rng), Chain.dirac(rng.choice(basis.words))):
            c = decompose(f, basis)
            _against_dense_oracle(basis, f, np.array([c.get(key) for key in basis.keys]))


def test_decompose_synthesizes_each_level_once(basis_for, monkeypatch):
    # the level pass subtracts every level, the top one too, and what it
    # leaves is the residual gated: no second synthesis of the coefficients
    basis = basis_for(5)
    calls = []
    level_synthesize = mra_module._Level.synthesize
    monkeypatch.setattr(
        mra_module._Level, "synthesize",
        lambda self, block: calls.append(self) or level_synthesize(self, block),
    )
    decompose(random_chain(5, random.Random(5)), basis)
    assert calls == basis.lu().levels and len(calls) == 4


def test_full_analysis_at_n7_builds_no_dense_matrix():
    basis = build_basis(7)
    basis.lu()
    f = random_chain(7, random.Random(7))
    c = decompose(f, basis, allow_large=True)
    synthesize(c, basis)
    dezoom(f, 3, basis, allow_large=True)
    assert basis._matrix is None
    _against_dense_oracle(basis, f, np.array([c.get(key) for key in basis.keys]))


def test_synthesize_examples(basis_for):
    basis = basis_for(3)
    ones = synthesize(CoefficientVector({"id": 1.0}, 3), basis)
    assert ones == Chain({w: 1.0 for w in all_words(range(1, 4), 3)}, 3)
    combo = synthesize(CoefficientVector({"(1 2)": 1.0, "(1 3)": -1.0}, 3), basis)
    direct = wavelet(CycleForm.parse("(1 2)"), 3) - wavelet(CycleForm.parse("(1 3)"), 3)
    assert (combo - direct).norm_inf() < 1e-12
    # "(2 1)" parses to the form of "(1 2)" but is not the basis's key text
    with pytest.raises(KeyError):
        synthesize(CoefficientVector({"(2 1)": 1.0}, 3), basis)
    # a key outside the universe cannot even be built
    with pytest.raises(ValueError, match="outside 1..3"):
        CoefficientVector({"(1 2 3 4)": 1.0}, 3)


def test_round_trip_random(basis_for):
    rng = random.Random(4)
    for n in (3, 4, 5):
        basis = basis_for(n)
        for _ in range(5):
            f = random_chain(n, rng)
            c = decompose(f, basis)
            assert (synthesize(c, basis) - f).norm_inf() < 1e-8
            c2 = decompose(synthesize(c, basis), basis)
            diff = max(abs(c.get(k) - c2.get(k)) for k in basis.keys)
            assert diff < 1e-8


def test_design_keys_paper_example():
    design = ObservationDesign(PAPER_DESIGN, 4)
    keys = design_keys(design)
    assert keys == [
        "id", "(1 2)", "(1 3)", "(1 4)", "(2 3)", "(2 4)", "(3 4)",
        "(1 2 3)", "(1 3 2)", "(1 3 4)", "(1 4 3)",
    ]
    assert len(keys) == 11


def test_decompose_marginals_recovers_planted(basis_for):
    rng = random.Random(8)
    n = 4
    basis = basis_for(n)
    design = ObservationDesign(PAPER_DESIGN, n)
    keys = design_keys(design)
    planted = CoefficientVector(
        {k: round(rng.uniform(-2, 2), 6) for k in keys}, n, "design"
    )
    f = synthesize(planted, basis)
    fam = exact_marginals(f, design)
    recovered = decompose_marginals(fam)
    assert recovered.scope == "design"
    assert set(recovered.coeffs) <= set(keys)
    for k in keys:
        assert abs(recovered.get(k) - planted.get(k)) < 1e-8
    assert marginal_residual(fam, recovered) < 1e-8


def test_decompose_marginals_uniform(basis_for):
    n = 4
    design = ObservationDesign([[1, 2], [2, 3, 4]], n)
    fam = exact_marginals(uniform_distribution(n), design)
    c = decompose_marginals(fam)
    assert c.get("id") == pytest.approx(1 / factorial(n))
    assert all(abs(v) < 1e-10 for k, v in c.coeffs.items() if k != "id")


def test_decompose_marginals_rejects_nonprojective():
    design = ObservationDesign([[1, 2], [1, 2, 3]], 3)
    fam = MarginalFamily(
        {
            frozenset({1, 2}): Chain.dirac(Word.parse("12", 3)),
            frozenset({1, 2, 3}): Chain.dirac(Word.parse("321", 3)),
        },
        design,
    )
    with pytest.raises(ProjectivityError):
        decompose_marginals(fam)


def test_decompose_marginals_scales_past_full_basis_cap():
    # the marginal-domain path never touches the full ranking space, so it
    # works at universe sizes where the n! basis cannot be materialized
    from rankmra import marginal_wavelet

    n = 12
    design = ObservationDesign([[1, 2], [11, 12], [1, 2, 3]], n)
    keys = design_keys(design)
    assert keys == ["id", "(1 2)", "(1 3)", "(2 3)", "(11 12)", "(1 2 3)", "(1 3 2)"]
    planted = {
        "id": 1.0 / factorial(n),
        "(1 2)": 3e-9,
        "(11 12)": -2e-9,
        "(1 2 3)": 1e-9,
    }
    per_subset = {}
    for subset in design:
        chain = Chain.zero(n)
        for key, value in planted.items():
            chain = chain + value * marginal_wavelet(CycleForm.parse(key), subset, n)
        per_subset[subset] = chain
    fam = MarginalFamily(per_subset, design)
    recovered = decompose_marginals(fam, projectivity_tol=1e-6)
    for key in keys:
        assert abs(recovered.get(key) - planted.get(key, 0.0)) < 1e-12


def test_kernel_of_design_marginals(basis_for):
    # components outside the design closure are invisible to the design
    rng = random.Random(14)
    for n in (4, 5):
        basis = basis_for(n)
        design = ObservationDesign([[1, 2], [1, 2, 3]], n)
        closure = set(map(frozenset, design.closure()))
        outside = [
            key
            for key in basis.keys
            if key != "id" and frozenset(CycleForm.parse(key).support()) not in closure
        ]
        coeffs = {k: rng.gauss(0, 1) for k in rng.sample(outside, 5)}
        f = synthesize(CoefficientVector(coeffs, n), basis)
        for subset in design:
            assert marginal(f, subset).norm_inf() < 1e-9


def test_dezoom_properties(basis_for):
    rng = random.Random(21)
    for n in (4, 5):
        basis = basis_for(n)
        f = random_chain(n, rng)
        # scale 0: the average
        flat = dezoom(f, 0, basis)
        mean = f.total_mass() / factorial(n)
        assert all(abs(v - mean) < 1e-12 for _, v in flat)
        # full scale: identity
        assert (dezoom(f, n, basis) - f).norm_inf() < 1e-8
        for k in (2, 3):
            once = dezoom(f, k, basis)
            assert (dezoom(once, k, basis) - once).norm_inf() < 1e-8
        # nesting
        assert (dezoom(dezoom(f, 3, basis), 2, basis) - dezoom(f, 2, basis)).norm_inf() < 1e-8
        # an element assembled inside the scale space is fixed
        keys = [k for k in basis.keys if len(CycleForm.parse(k).support()) <= 3]
        c = CoefficientVector({k: rng.gauss(0, 1) for k in keys}, n)
        g = synthesize(c, basis)
        assert (dezoom(g, 3, basis) - g).norm_inf() < 1e-8
        with pytest.raises(ValueError):
            dezoom(f, 1, basis)


def test_dezoom_equals_its_definition(basis_for):
    """dezoom(f, k) is decompose, then the keys of support size <= k, then
    synthesize, exactly."""
    rng = random.Random(14)
    for n in range(3, 7):
        basis = basis_for(n)
        f = random_chain(n, rng)
        c = decompose(f, basis)
        for k in range(2, n + 1):
            kept = {
                key: value
                for key, value in c.coeffs.items()
                if len(CycleForm.parse(key).support()) <= k
            }
            assert dezoom(f, k, basis) == synthesize(CoefficientVector(kept, n), basis)


def test_row_assembly_leaves_chain_cache_empty():
    """Matrix rows come from the closed form, not from cached wavelet chains."""
    wavelets_module._chain_cache.clear()
    build_basis(5).matrix()
    design = ObservationDesign([[1, 2, 3], [2, 3, 4, 5]], 5)
    fam = exact_marginals(random_chain(5, random.Random(3)), design)
    c = decompose_marginals(fam)
    marginal_residual(fam, c)
    synthesize_marginals(c, [[1, 2], [1, 4, 5]])
    assert wavelets_module._chain_cache == {}


def test_dezoom_translation_invariance(basis_for):
    rng = random.Random(28)
    for n in (4, 5):
        basis = basis_for(n)
        for _ in range(10):
            f = random_chain(n, rng)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            sigma0 = Permutation(tuple(images))
            k = rng.choice(list(range(2, n)))
            lhs = translate(dezoom(f, k, basis), sigma0)
            rhs = dezoom(translate(f, sigma0), k, basis)
            assert (lhs - rhs).norm_inf() < 1e-8


def test_displacement_solve(basis_for):
    rng = random.Random(35)
    for _ in range(20):
        n = rng.randint(4, 5)
        basis = basis_for(n)
        k = rng.randint(2, n - 1)
        src = sorted(rng.sample(range(1, n + 1), k))
        dst = sorted(rng.sample(range(1, n + 1), k))
        images = [0] * n
        perm_dst = dst[:]
        rng.shuffle(perm_dst)
        for a, b in zip(src, perm_dst):
            images[a - 1] = b
        rest_src = [a for a in range(1, n + 1) if a not in src]
        rest_dst = [b for b in range(1, n + 1) if b not in dst]
        rng.shuffle(rest_dst)
        for a, b in zip(rest_src, rest_dst):
            images[a - 1] = b
        sigma0 = Permutation(tuple(images))
        tau = rng.choice(derangements(src, n))
        moved = translate(wavelet(tau), sigma0)
        cols = np.array(
            [basis.chain_to_vector(wavelet(t)) for t in derangements(dst, n)]
        ).T
        rhs = basis.chain_to_vector(moved)
        _, residual, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        misfit = float(residual[0]) if len(residual) else float(
            np.max(np.abs(cols @ np.linalg.lstsq(cols, rhs, rcond=None)[0] - rhs))
        )
        assert misfit < 1e-16


def test_all_detail_wavelets_sum_to_zero(basis_for):
    for n in (3, 4, 5):
        for form in basis_for(n).forms[1:]:  # all but the constant
            assert wavelet(form, n).total_mass() == 0


def test_verify_dimensions_n4():
    report = verify_dimensions(4)
    assert report.passed
    assert report.total_elements == 24
    assert report.rank == 24
    assert (2, 6, 6) in report.scale_counts
    assert (3, 8, 8) in report.scale_counts
    assert (4, 9, 9) in report.scale_counts
    assert (0, 1, 1) in report.eig_sums
    assert (2, 6, 6) in report.eig_sums
    assert (3, 8, 8) in report.eig_sums
    assert (4, 9, 9) in report.eig_sums
    text = str(report)
    assert "24 = 24" in text


def test_coefficient_vector_json_round_trip(tmp_path):
    c = CoefficientVector({"id": 0.25, "(1 2)": -0.5, "(1 2 3)": 1.0}, 4)
    payload = c.to_json()
    assert [e["tau"] for e in payload["coefficients"]] == ["id", "(1 2)", "(1 2 3)"]
    again = CoefficientVector.from_json(json.loads(json.dumps(payload)))
    assert again.coeffs == c.coeffs and again.n == 4 and again.scope == "full"
    path = tmp_path / "coeffs.json"
    c.save(str(path))
    assert CoefficientVector.load(str(path)).coeffs == c.coeffs
    with pytest.raises(ValueError):
        CoefficientVector({"(1 2": 1.0}, 4)


def test_coefficient_vector_rejects_meaningless_values():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            CoefficientVector({"id": 0.1, "(1 2)": bad}, 4)
    with pytest.raises(ValueError, match="outside 1..4"):
        CoefficientVector({"(5 6)": 1.0}, 4)
    payload = {
        "n": 4,
        "coefficients": [{"tau": "(1 2)", "value": 1.0}, {"tau": "(1 2)", "value": 2.0}],
    }
    with pytest.raises(ValueError, match="duplicate"):
        CoefficientVector.from_json(payload)
    # two texts of one cycle form are one key
    payload["coefficients"][1]["tau"] = "(2 1)"
    with pytest.raises(ValueError, match="duplicate"):
        CoefficientVector.from_json(payload)


def _chain_sum_marginal(c: CoefficientVector, subset) -> Chain:
    """The definition synthesize_marginals must reproduce exactly."""
    out = Chain.zero(c.n)
    for key, value in c.coeffs.items():
        out = out + value * marginal_wavelet(CycleForm.parse(key), subset, c.n)
    return out


def test_synthesize_marginals_equals_chain_sum():
    rng = random.Random(17)
    for n in (4, 5, 6):
        keys = basis_keys(n)
        for _ in range(3):
            # some coefficients tiny, so that pruning is exercised too
            coeffs = {
                key: rng.gauss(0, 1) * (1e-13 if rng.random() < 0.2 else 1.0)
                for key in rng.sample(keys, len(keys) // 2)
            }
            c = CoefficientVector(coeffs, n)
            subsets = [
                frozenset(rng.sample(range(1, n + 1), size)) for size in range(2, n + 1)
            ]
            got = synthesize_marginals(c, subsets)
            assert list(got) == subsets
            for subset in subsets:
                assert got[subset] == _chain_sum_marginal(c, subset)
    # subsets of the universe of size >= 2 only, as for marginal_wavelet
    for bad in ([1], [0, 1], [3, 5]):
        with pytest.raises(ValueError, match="size >= 2 within 1..4"):
            synthesize_marginals(CoefficientVector({"id": 1.0}, 4), [bad])


def test_synthesize_marginals_refuses_subset_beyond_max_n():
    # the 11! rankings of the subset are never listed
    c = CoefficientVector({"id": 1.0 / factorial(11)}, 11)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="11 items"):
        synthesize_marginals(c, [range(1, 12)])
    assert time.perf_counter() - start < 1.0


def test_decompose_marginals_matches_svd_oracle():
    # a noisy empirical family at n = 6, solved by QR, against the SVD
    # least squares on a matrix built from marginal_wavelet
    rng = random.Random(6)
    n = 6
    design = ObservationDesign([[1, 2, 3, 4], [3, 4, 5, 6], [1, 5, 6], [2, 6]], n)
    weights = [rng.lognormvariate(0, 1) for _ in range(n)]
    records = []
    for _ in range(4000):
        subset = rng.choice(design.subsets)
        items, letters = sorted(subset), []
        while items:
            pick = rng.choices(items, [weights[a - 1] for a in items])[0]
            items.remove(pick)
            letters.append(pick)
        records.append((subset, Word(tuple(letters), n)))
    fam = empirical_marginals(records, design)
    got = decompose_marginals(fam, projectivity_tol=1.0)

    keys = design_keys(design)
    rows = [(s, w) for s in design for w in all_words(s, n)]
    row_pos = {pair: i for i, pair in enumerate(rows)}
    mat = np.zeros((len(rows), len(keys)))
    for j, key in enumerate(keys):
        for s in design:
            for w, value in marginal_wavelet(CycleForm.parse(key), s, n).terms.items():
                mat[row_pos[(s, w)], j] = value
    rhs = np.array([fam[s](w) for s, w in rows])
    oracle, _, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    assert rank == len(keys)
    assert list(got.coeffs) == keys
    diff = max(abs(got.get(key) - value) for key, value in zip(keys, oracle))
    assert diff <= 1e-12 * float(np.max(np.abs(oracle)))


def _refused_before_any_block(design, match, monkeypatch):
    """check_marginal_system refuses design, and so does decompose_marginals,
    before any block of the system is assembled."""
    with pytest.raises(ValueError, match=match):
        check_marginal_system(design)
    fam = MarginalFamily(
        {s: Chain.dirac(Word(tuple(sorted(s)), design.n)) for s in design}, design
    )
    monkeypatch.setattr(
        mra_module, "_marginal_system",
        lambda design, forms: pytest.fail(f"assembled {len(forms)} columns of {design.to_json()}"),
    )
    with pytest.raises(ValueError, match=match):
        decompose_marginals(fam)
    monkeypatch.undo()


def test_check_marginal_system_guard(monkeypatch):
    n = 8
    subsets = [[1, 3, 5, 6, 7, 8], [3, 4, 5, 6, 7, 8], [1, 2, 7, 8], [1, 3, 5], [2, 4, 6, 8]]
    design = ObservationDesign(subsets, n)
    forms = design_forms(design)
    held = [sum(form.support() <= s for s in design) for form in forms]
    shared = [h for h in held if h > 1]
    # the blocks' R factors, then the reduced rows and columns (with b)
    assert check_marginal_system(design) == (2 * 720**2 + 24**2 + 6**2 + 24**2, 272, 134)
    assert (sum(shared), 1 + len(shared)) == (272, 134)
    # ... which are the rows and columns _solve_design stacks on the shared forms
    stacked = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(
        np.linalg, "lstsq", lambda a, b, rcond: stacked.append(a.shape) or lstsq(a, b, rcond=rcond)
    )
    _solve_design(design, forms, np.random.default_rng(0).normal(size=2 * 720 + 24 + 6 + 24))
    assert stacked == [(272, 133)]
    monkeypatch.undo()
    # the whole n = 7 space fills the block bound exactly, and shares nothing
    seven = ObservationDesign([range(1, 8)], n)
    assert check_marginal_system(seven) == (5040**2, 0, 1)
    # one more pair tips the blocks over, counted from the subset sizes
    over = ObservationDesign([range(1, 8), [1, 8]], n)
    _refused_before_any_block(over, "5042 rows .* hold 25401604 entries", monkeypatch)
    # every 6-subset of 1..8: 28 blocks of 720^2 fit, but their shared
    # forms leave a reduced system of 12 740 x 3 236 (41 226 640 entries)
    sixes = ObservationDesign(combinations(range(1, 9), 6), n)
    _refused_before_any_block(sixes, "12740 rows and 3236 columns", monkeypatch)
    # a 30-item subset is refused from its size alone: its closure
    # (2^30 subsets) is never walked
    monkeypatch.setattr(
        marginals_module, "supports_within",
        lambda items: pytest.fail(f"walked the closure of {len(items)} items"),
    )
    big = ObservationDesign([range(1, 31)], 30)
    with pytest.raises(ValueError, match="R factors"):
        check_marginal_system(big)


def test_decompose_marginals_recovers_coefficients_on_thirty_items():
    # 50 five-item subsets of 1..30: a 6000 x 5678 system whose columns
    # are mostly private to one subset; the blocks hold 50 * 120^2 entries
    rng = random.Random(1)
    subsets = set()
    while len(subsets) < 50:
        subsets.add(frozenset(rng.sample(range(1, 31), 5)))
    n = 30
    design = ObservationDesign(subsets, n)
    keys = design_keys(design)
    assert len(keys) == 5678
    assert check_marginal_system(design) == (50 * 120**2, 536, 215)

    def scale(key):  # the marginal of psi_key on a five-item subset holding it
        k = len(CycleForm.parse(key).support())
        return factorial(n) // factorial(5) if k == 0 else factorial(n - k + 1) // factorial(6 - k)

    truth = CoefficientVector({key: rng.uniform(-1, 1) / scale(key) for key in keys}, n, "design")
    fam = MarginalFamily(synthesize_marginals(truth, design), design)
    got = decompose_marginals(fam)
    assert list(got.coeffs) == keys
    assert max(abs(got.get(key) - truth.get(key)) * scale(key) for key in keys) <= 1e-12


def test_synthesize_refuses_coefficients_of_another_n(basis_for):
    c = CoefficientVector({"id": 1 / 6, "(1 2)": 0.1}, 3)
    with pytest.raises(ValueError, match="n = 3"):
        synthesize(c, basis_for(4))


def test_dezoom_refuses_chain_of_another_n(basis_for):
    f = uniform_distribution(3)
    for k in (0, 2):
        with pytest.raises(ValueError, match="n = 3"):
            dezoom(f, k, basis_for(4))


def test_decompose_refuses_chain_of_another_n(basis_for):
    # a chain with no terms has no word to betray its n
    with pytest.raises(ValueError, match="n = 3"):
        decompose(Chain.zero(3), basis_for(4))


def test_marginal_of_an_eight_item_support_reads_one_chain():
    # one key whose support has 8 items needs its own chain, not all of X_8
    c = CoefficientVector({"id": 1 / factorial(8), "(1 2 3 4 5 6 7 8)": 1e-6}, 8)
    _chain_column.cache_clear()
    got = synthesize_marginals(c, [range(1, 9)])
    # the one column read is the 8-cycle's: reading it again is a hit
    _chain_column(((1, 2, 3, 4, 5, 6, 7, 8),))
    info = _chain_column.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert got[frozenset(range(1, 9))] == _chain_sum_marginal(c, range(1, 9))


def test_marginals_with_labels_above_9():
    # derangement_forms of labels above 9 is in text order, not numeric
    n = 12
    design = ObservationDesign([[8, 9, 10], [9, 10, 11, 12], [3, 12]], n)
    forms = design_forms(design)
    rows = [(s, w) for s in design for w in all_words(s, n)]
    row_pos = {pair: i for i, pair in enumerate(rows)}
    oracle = np.zeros((len(rows), len(forms)))
    for j, form in enumerate(forms):
        for s in design:
            for w, value in marginal_wavelet(form, s, n).terms.items():
                oracle[row_pos[(s, w)], j] = value
    assert np.array_equal(_marginal_system(design, forms), oracle)

    rng = random.Random(12)
    keys = [str(form) for form in forms]
    c = CoefficientVector({key: rng.gauss(0, 1) for key in rng.sample(keys, 20)}, n)
    subsets = list(design) + [frozenset([8, 9, 10, 11, 12]), frozenset([3, 10, 12])]
    got = synthesize_marginals(c, subsets)
    for subset in subsets:
        assert got[subset] == _chain_sum_marginal(c, subset)


# the benchmark's seven-subset design at n = 8 (1450 observable forms)
BENCH_TEMPLATE = [[1, 2, 3, 4, 5, 6], [3, 4, 5, 6, 7, 8], [1, 2, 7, 8], [1, 3, 5], [2, 4, 6, 8], [1, 8], [2, 7]]


def _relabelled(subsets, n, seed):
    labels = list(range(1, n + 1))
    random.Random(seed).shuffle(labels)
    return ObservationDesign([[labels[a - 1] for a in s] for s in subsets], n)


def _shared_forms(design):
    return [str(f) for f in design_forms(design) if sum(f.support() <= s for s in design) > 1]


def _assert_matches_gelsy(design, seed):
    forms = design_forms(design)
    mat = _marginal_system(design, forms)
    rhs = np.random.default_rng(seed).normal(size=len(mat))
    oracle, _, rank, _ = scipy.linalg.lstsq(
        mat, rhs, cond=np.finfo(float).eps * max(mat.shape), lapack_driver="gelsy"
    )
    assert rank == len(forms)
    got = _solve_design(design, forms, rhs)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_design_solve_matches_gelsy_on_the_bench_design(seed):
    design = _relabelled(BENCH_TEMPLATE, 8, seed)
    assert len(design_forms(design)) == 1450 and len(_shared_forms(design)) == 41
    _assert_matches_gelsy(design, seed)


def test_design_solve_matches_gelsy_on_edge_structures():
    nested = ObservationDesign([[1, 2], [1, 2, 3], [1, 2, 3, 4]], 5)
    # the 3! forms of [1, 2, 3] are all held by [1, 2, 3, 4] too, so
    # neither [1, 2] nor [1, 2, 3] has a private column
    assert len(_shared_forms(nested)) == factorial(3)
    one = ObservationDesign([[2, 3, 4, 5]], 5)
    assert _shared_forms(one) == []
    pairs = ObservationDesign([[1, 2], [3, 4], [5, 6]], 6)
    assert _shared_forms(pairs) == ["id"]
    for seed, design in enumerate((nested, one, pairs)):
        _assert_matches_gelsy(design, seed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.sets(st.integers(1, n), min_size=2), min_size=1, max_size=4),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_design_solve_matches_gelsy_on_random_designs(drawn, seed):
    n, subsets = drawn
    _assert_matches_gelsy(ObservationDesign(subsets, n), seed)


@pytest.mark.parametrize("key", ["(1 2)", "(2 3)"])  # private to [1, 2, 3]; shared
def test_decompose_marginals_reports_a_rank_shortfall(key, monkeypatch):
    design = ObservationDesign([[1, 2, 3], [2, 3, 4]], 4)
    assert ("(2 3)" in _shared_forms(design)) and ("(1 2)" not in _shared_forms(design))
    fam = exact_marginals(uniform_distribution(4), design)
    system = mra_module._marginal_system

    def zeroed(design, forms):
        mat = system(design, forms)
        mat[:, [str(f) == key for f in forms]] = 0
        return mat

    monkeypatch.setattr(mra_module, "_marginal_system", zeroed)
    with pytest.raises(SolverError, match=r"rank 9 below dimension 10 for design \[\[1, 2, 3\], \[2, 3, 4\]\]"):
        decompose_marginals(fam)


def test_design_path_reads_each_chain_once(monkeypatch):
    # each relabelled form's chain is computed once, however many design
    # subsets hold its support and whether it is assembled or synthesized
    n = 8
    design = ObservationDesign(BENCH_TEMPLATE, n)
    fam = MarginalFamily(
        {s: Chain({w: 1 / factorial(len(s)) for w in all_words(s, n)}, n) for s in design},
        design,
    )
    calls = []
    chain_terms = mra_module.chain_terms
    monkeypatch.setattr(
        mra_module, "chain_terms", lambda *args: calls.append(args) or chain_terms(*args)
    )
    _chain_column.cache_clear()
    c = decompose_marginals(fam)
    assert marginal_residual(fam, c) < 1e-12
    assert len(calls) <= sum(len(derangements(range(1, k + 1), k)) for k in range(2, 7)) == 321


def test_full_analysis_refuses_a_non_finite_level_solve(basis_for, monkeypatch):
    # the level solves skip scipy's finiteness scan; the residual gate judges
    monkeypatch.setattr(
        mra_module._Level, "solve", lambda self, rest: np.full((self.forms, self.subsets), np.nan)
    )
    with pytest.raises(SolverError, match="residual nan"):
        decompose(random_chain(4, random.Random(4)), basis_for(4))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", ["all", "one"])
def test_full_analysis_refuses_an_infinite_level_solve(bad, basis_for, monkeypatch):
    # decompose keeps its coefficients unchecked: an infinite one, even
    # alone, leaves a non-finite residual, which the gate refuses
    solve = mra_module._Level.solve

    def infinite(self, rest):
        block = solve(self, rest)
        if bad == "all":
            block[:] = np.inf
        elif self.subsets == 1:  # the top level's last coefficient
            block[-1, 0] = np.inf
        return block

    monkeypatch.setattr(mra_module._Level, "solve", infinite)
    with pytest.raises(SolverError, match="residual"):
        decompose(random_chain(4, random.Random(4)), basis_for(4))


def test_round_trip_parses_no_key(monkeypatch):
    # decompose keys its coefficients with the basis's own keys, and
    # synthesize and dezoom read them by those keys: no key is parsed
    basis = build_basis(5)
    basis.lu()

    def refuse(*args):
        raise AssertionError(f"parsed the key {args[-1]!r}")

    mra_module._parse_key.cache_clear()
    monkeypatch.setattr(mra_module, "_parse_key", refuse)
    monkeypatch.setattr(CycleForm, "parse", classmethod(refuse))
    f = random_chain(5, random.Random(15))
    g = synthesize(decompose(f, basis), basis)
    assert (g - f).norm_inf() < 1e-9
    assert (dezoom(f, 5, basis) - f).norm_inf() < 1e-9


def test_decompose_keeps_the_engine_floats_in_basis_order(basis_for):
    rng = random.Random(16)
    for n in range(3, 7):
        basis = basis_for(n)
        f = random_chain(n, rng)
        c = decompose(f, basis)
        engine = mra_module._analyze(f, basis, False)
        assert list(c.coeffs) == basis.keys
        assert list(c.coeffs.values()) == [float(x) for x in engine]
        assert {type(v) for v in c.coeffs.values()} == {float}
        assert (c.n, c.scope) == (n, "full")
        assert c == CoefficientVector(dict(c.coeffs), n)  # what validation accepts
    # the first key that is not the basis's key text is named
    coeffs = CoefficientVector({"id": 1.0, "(1 2)": 0.5, "(2 1)": 1.0, "(3 1)": 2.0}, 3)
    with pytest.raises(KeyError) as raised:
        synthesize(coeffs, basis_for(3))
    assert raised.value.args == ("coefficient key '(2 1)' not in basis",)


def test_chain_to_vector_refuses_a_word_that_is_not_a_full_ranking(basis_for):
    basis = basis_for(4)
    f = Chain({Word((1, 2, 3, 4), 4): 1.0, Word((2, 1), 4): 2.0, Word((3,), 4): 1.0}, 4)
    with pytest.raises(ValueError, match=r"^word 21 is not a full ranking of 1\.\.4$"):
        basis.chain_to_vector(f)


_TINY = 1e-12
EDGE_VALUES = [
    _TINY, -_TINY, np.nextafter(_TINY, 1.0), np.nextafter(_TINY, 0.0),
    -np.nextafter(_TINY, 1.0), -np.nextafter(_TINY, 0.0), 0.0, -0.0,
    5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=24, max_size=24,
    ),
    st.integers(0, 23),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_vector_to_chain_prunes_as_chain_does(values, where, bad):
    basis = build_basis(4)
    got = basis.vector_to_chain(np.array(values))
    want = Chain({w: float(v) for w, v in zip(basis.words, values)}, 4)
    assert list(got.terms.items()) == list(want.terms.items())
    assert {type(v) for v in got.terms.values()} <= {float}
    kept = [v if abs(v) > _TINY else 0.0 for v in values]
    assert basis.chain_to_vector(want).tolist() == kept
    values[where] = bad
    with pytest.raises(ValueError, match="not finite"):
        basis.vector_to_chain(np.array(values))
