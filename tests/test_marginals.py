"""Marginal operators, extension sets, projectivity, empirical estimation."""

import random
import time
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmra import (
    Chain,
    MarginalFamily,
    ObservationDesign,
    Word,
    check_projective,
    contiguous_extensions,
    empirical_marginals,
    exact_marginals,
    extensions,
    marginal,
    restrict,
    uniform_distribution,
)
from rankmra.marginals import all_words, read_rankings_csv, supports_within


def w(text: str, n: int) -> Word:
    return Word.parse(text, n)


def random_chain(n: int, rng: random.Random) -> Chain:
    return Chain({word: rng.gauss(0, 1) for word in all_words(range(1, n + 1), n)}, n)


def test_marginal_examples():
    assert marginal(Chain.dirac(w("2134", 4)), {1, 3}) == Chain.dirac(w("13", 4))
    for n in (3, 4):
        u = uniform_distribution(n)
        for a_size in (2, n - 1):
            m = marginal(u, set(range(1, a_size + 1)))
            for word in all_words(range(1, a_size + 1), n):
                assert m(word) == pytest.approx(1 / factorial(a_size))
    with pytest.raises(ValueError):
        marginal(uniform_distribution(3), set())


def test_marginal_preserves_mass():
    rng = random.Random(11)
    for n in (3, 4, 5):
        f = random_chain(n, rng)
        for items in ({1, 2}, set(range(1, n))):
            assert marginal(f, items).total_mass() == pytest.approx(f.total_mass())


def test_extensions_examples():
    assert extensions(w("12", 3), {1, 2, 3}) == {w("312", 3), w("132", 3), w("123", 3)}
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(3, 6)
        b_set = set(rng.sample(range(1, n + 1), rng.randint(2, n)))
        a_set = set(rng.sample(sorted(b_set), rng.randint(1, len(b_set))))
        p = Word(tuple(rng.sample(sorted(a_set), len(a_set))), n)
        exts = extensions(p, b_set)
        assert len(exts) == factorial(len(b_set)) // factorial(len(a_set))
        assert all(restrict(s, a_set) == p for s in exts)
    full = w("231", 3)
    assert extensions(full, {1, 2, 3}) == {full}
    with pytest.raises(ValueError):
        extensions(w("14", 4), {1, 2})


def test_contiguous_extensions_examples():
    got = contiguous_extensions(w("143", 5), set(range(1, 6)))
    assert got == {
        w("25143", 5), w("52143", 5), w("21435", 5),
        w("51432", 5), w("14325", 5), w("14352", 5),
    }
    assert contiguous_extensions(w("12", 3), {1, 2, 3}) == {w("312", 3), w("123", 3)}
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(3, 6)
        b_set = set(rng.sample(range(1, n + 1), rng.randint(2, n)))
        a_set = set(rng.sample(sorted(b_set), rng.randint(1, len(b_set))))
        p = Word(tuple(rng.sample(sorted(a_set), len(a_set))), n)
        cont = contiguous_extensions(p, b_set)
        assert len(cont) == factorial(len(b_set) - len(p) + 1)
        assert cont <= extensions(p, b_set)


def test_extensions_partition_property():
    # fibers over the coarse rankings partition the fine rankings
    cases = [(b_size, a_size) for b_size in range(2, 7) for a_size in range(1, b_size)]
    for b_size, a_size in cases:
        b_set = set(range(1, b_size + 1))
        a_set = set(range(1, a_size + 1))
        fibers = [extensions(p, b_set) for p in all_words(a_set, b_size)]
        union: set[Word] = set()
        for fiber in fibers:
            assert len(fiber) == factorial(b_size) // factorial(a_size)
            assert not (union & fiber)
            union |= fiber
        assert union == set(all_words(b_set, b_size))
    # an irregular subset pair as well
    fibers = [extensions(p, {2, 3, 5, 6}) for p in all_words({3, 6}, 6)]
    union = set().union(*fibers)
    assert union == set(all_words({2, 3, 5, 6}, 6))
    assert sum(len(f) for f in fibers) == len(union)


def test_refinement_randomized():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(3, 6)
        f = random_chain(n, rng)
        b_set = set(rng.sample(range(1, n + 1), rng.randint(2, n)))
        a_set = set(rng.sample(sorted(b_set), rng.randint(1, len(b_set))))
        fine = marginal(f, b_set)
        coarse = marginal(f, a_set)
        from rankmra import delete_set

        assert (delete_set(fine, b_set - a_set) - coarse).norm_inf() < 1e-12


def _contiguous_subword(inner: Word, outer: Word) -> bool:
    k = len(inner)
    return any(outer.letters[i : i + k] == inner.letters for i in range(len(outer) - k + 1))


def _subword(inner: Word, outer: Word) -> bool:
    it = iter(outer.letters)
    return all(a in it for a in inner.letters)


def test_intersection_cardinality_lemma_exhaustive():
    # |S_n[pi] ∩ S_n(pi')| has a closed form driven by the common-content
    # subword of pi sitting contiguously inside pi'
    for n in (3, 4, 5):
        full = list(all_words(range(1, n + 1), n))
        nonempty = [
            Word(p, n)
            for k in range(1, n + 1)
            for p in permutations(range(1, n + 1), k)
        ]
        bracket = {
            pi: {s for s in full if _contiguous_subword(pi, s)} for pi in nonempty
        }
        paren = {pi: {s for s in full if _subword(pi, s)} for pi in nonempty}
        for pi in nonempty:
            c_pi = set(pi.letters)
            for pi2 in nonempty:
                common = c_pi & set(pi2.letters)
                if not common:
                    continue  # the filling argument needs an anchor inside pi2
                pi0 = restrict(pi, common)
                k, l, m = len(pi), len(pi2), len(common)
                got = len(bracket[pi] & paren[pi2])
                if _contiguous_subword(pi0, pi2):
                    expected = factorial(n - k + 1) // factorial(l - m + 1)
                else:
                    expected = 0
                assert got == expected, (str(pi), str(pi2), got, expected)


def test_observation_design():
    design = ObservationDesign([[1, 3], [2, 4], [3, 4], [1, 2, 3], [1, 3, 4]], 4)
    assert len(design) == 5
    assert {1, 3} in design
    assert {1, 2} not in design
    closure = design.closure()
    assert frozenset({1, 2}) in closure
    assert [sorted(s) for s in closure[-2:]] == [[1, 2, 3], [1, 3, 4]]
    assert len([s for s in closure if len(s) == 2]) == 6
    with pytest.raises(ValueError):
        ObservationDesign([[1]], 4)
    with pytest.raises(ValueError):
        ObservationDesign([[1, 9]], 4)
    assert ObservationDesign.from_json(design.to_json()) == design


def test_design_holders_walk_each_member_once():
    assert [sorted(s) for s in supports_within([3, 1, 2])] == [
        [], [1, 2], [1, 3], [2, 3], [1, 2, 3]
    ]
    design = ObservationDesign([[1, 2, 3], [2, 3, 4], [1, 4]], 4)
    holders = design.holders()
    assert holders[frozenset()] == [0, 1, 2]  # the identity, held by all
    assert holders[frozenset({2, 3})] == [1, 2]  # members in design order
    assert holders[frozenset({1, 2, 3})] == [1]
    assert frozenset({1, 3, 4}) not in holders
    # every support of size >= 2 held by a member, brute-forced
    brute = {
        frozenset(c) for s in design for k in range(2, len(s) + 1)
        for c in combinations(sorted(s), k)
    }
    assert set(design.closure()) == brute == set(holders) - {frozenset()}


def test_design_membership_does_not_rebuild_the_design():
    # 3 000 draws of three items from 1..60: a lookup that rebuilt a set of
    # the members took about 0.1 ms each, so a family over them cost O(S^2)
    rng = random.Random(0)
    subsets = {frozenset(rng.sample(range(1, 61), 3)) for _ in range(3000)}
    design = ObservationDesign(subsets, 60)
    probes = [rng.choice(design.subsets) for _ in range(10000)]
    probes += [frozenset(rng.sample(range(1, 61), 3)) for _ in range(10000)]
    start = time.perf_counter()
    found = sum(s in design for s in probes)
    assert time.perf_counter() - start < 0.5
    assert found == 10000 + sum(s in subsets for s in probes[10000:])


def test_check_projective_exact_family():
    rng = random.Random(31)
    design = ObservationDesign([[1, 2], [1, 2, 3], [2, 3, 4], [3, 4]], 4)
    fam = exact_marginals(random_chain(4, rng), design)
    report = check_projective(fam)
    assert report.passed
    assert report.max_violation < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.sets(st.integers(1, n), min_size=2), min_size=1, max_size=5),
        )
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_exact_marginals_are_projective(drawn, seed, integer):
    # the full set joins the design, so every other subset nests in it
    n, subsets = drawn
    design = ObservationDesign(subsets + [range(1, n + 1)], n)
    rng = random.Random(seed)
    if integer:
        f = Chain({w: rng.randint(-5, 5) for w in all_words(range(1, n + 1), n)}, n)
    else:
        f = random_chain(n, rng)
    report = check_projective(exact_marginals(f, design))
    assert report.passed, str(report)
    assert len(report.pairs) >= len(design) - 1
    if integer:
        assert all(p.exact and p.violation == 0 for p in report.pairs)


def test_check_projective_detects_violation():
    design = ObservationDesign([[1, 2], [1, 2, 3]], 3)
    fam = MarginalFamily(
        {
            frozenset({1, 2}): Chain.dirac(w("12", 3)),
            frozenset({1, 2, 3}): Chain.dirac(w("321", 3)),
        },
        design,
    )
    report = check_projective(fam)
    assert not report.passed
    # deleting 3 from 321 gives 21, not 12: the difference chain is +21 -12,
    # whose sup norm is 1 (its total variation is 2)
    assert report.max_violation == 1
    (failure,) = report.failures
    assert (sorted(failure.inner), sorted(failure.outer)) == ([1, 2], [1, 2, 3])


def test_empirical_marginals_examples():
    design = ObservationDesign([[1, 3]], 3)
    fam = empirical_marginals(
        [({1, 3}, w("13", 3)), ({1, 3}, w("31", 3))], design
    )
    assert fam[{1, 3}](w("13", 3)) == pytest.approx(0.5)
    assert fam[{1, 3}](w("31", 3)) == pytest.approx(0.5)

    with pytest.raises(ValueError, match="not in design"):
        empirical_marginals([({1, 2}, w("12", 3))], design)
    with pytest.raises(ValueError, match="no observations"):
        empirical_marginals([], design)
    with pytest.raises(ValueError):
        empirical_marginals([({1, 3}, w("12", 3))], design)


def test_empirical_from_common_sample_is_projective():
    rng = random.Random(41)
    n = 4
    design = ObservationDesign([[1, 2], [1, 2, 3], [1, 2, 3, 4]], n)
    records = []
    for _ in range(300):
        letters = list(range(1, n + 1))
        rng.shuffle(letters)
        sigma = Word(tuple(letters), n)
        for subset in design:
            records.append((subset, restrict(sigma, subset)))
    fam = empirical_marginals(records, design)
    report = check_projective(fam)
    assert report.passed
    assert report.max_violation < 1e-12


def test_empirical_monte_carlo_uniform_pair():
    rng = random.Random(0)
    design = ObservationDesign([[1, 2]], 4)
    records = []
    for _ in range(1000):
        letters = list(range(1, 5))
        rng.shuffle(letters)
        records.append((frozenset({1, 2}), restrict(Word(tuple(letters), 4), {1, 2})))
    fam = empirical_marginals(records, design)
    assert abs(fam[{1, 2}](w("12", 4)) - 0.5) < 0.05
    assert abs(fam[{1, 2}](w("21", 4)) - 0.5) < 0.05


def test_read_rankings_csv_reports_first_bad_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2,3\n" * 1000 + "1,2,2\n" + "1,2,3\n" + "1,2,2\n")
    with pytest.raises(ValueError, match="^line 1001: letter 2 repeated"):
        read_rankings_csv(str(path), 3)
    path.write_text("2,1\n" * 1000 + "\n" + "1,9\n")
    with pytest.raises(ValueError, match="^line 1002: letter 9 outside 1..4"):
        read_rankings_csv(str(path), 4)


def test_read_rankings_csv_numbers_lines_whatever_their_ends(tmp_path):
    # each distinct line is validated once, but a bad one is reported at
    # its first line, counted alike for \n, \r\n and \r ends
    path = tmp_path / "data.csv"
    rows = ["1,2,3", "", "3,1,2", "1,2,3", "2,2,1", "3,1,2", "2,2,1"]
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(end.join(rows).encode() + end.encode())
        with pytest.raises(ValueError, match="^line 5: letter 2 repeated"):
            read_rankings_csv(str(path), 3)
        path.write_bytes(end.join(rows[:4]).encode())
        records = read_rankings_csv(str(path), 3)
        assert [str(word) for _, word in records] == ["123", "312", "123"]
        assert records[0] is records[2]  # a repeated line shares its record


def test_memoized_reader_and_tally_match_per_record_definition(tmp_path):
    rng = random.Random(12)
    n = 5
    design = ObservationDesign([[1, 2], [2, 3, 4], [1, 3, 5], [1, 2, 3, 4, 5]], n)
    lines = []
    for _ in range(3000):
        subset = list(rng.choice(design.subsets))
        rng.shuffle(subset)
        lines.append(",".join(map(str, subset)))
    lines.insert(50, "")
    lines.insert(900, " 4, 3,2")  # another text of the word "4,3,2"
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")

    records = read_rankings_csv(str(path), n)
    fam = empirical_marginals(records, design)

    # the per-record definition: every line validated, counted one by one
    counts = {s: {} for s in design}
    for line in lines:
        if not line:
            continue
        word = Word(tuple(int(tok) for tok in line.split(",")), n)
        bucket = counts[frozenset(word.letters)]
        bucket[word] = bucket.get(word, 0) + 1
    assert [r[1] for r in records] == [
        Word(tuple(int(tok) for tok in line.split(",")), n) for line in lines if line
    ]
    assert all(s == frozenset(word.letters) for s, word in records)
    for s, bucket in counts.items():
        total = sum(bucket.values())
        assert fam[s] == Chain({word: c / total for word, c in bucket.items()}, n)
        assert list(fam[s].terms) == list(bucket)  # first-seen order kept


def test_empirical_marginals_reports_first_bad_record():
    design = ObservationDesign([[1, 2], [2, 3]], 3)
    good = ({1, 2}, w("12", 3))
    records = [good] * 5 + [({1, 3}, w("13", 3))] + [({2, 3}, w("12", 3))]
    with pytest.raises(ValueError, match=r"record subset \[1, 3\] not in design"):
        empirical_marginals(records, design)
    records = [good] * 5 + [({2, 3}, w("12", 3))] + [({1, 3}, w("13", 3))]
    with pytest.raises(ValueError, match="word 12 does not rank subset"):
        empirical_marginals(records, design)
