"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmra import (
    Chain,
    CoefficientVector,
    CycleForm,
    ObservationDesign,
    WaveletBasis,
    Word,
    build_basis,
    decompose,
    format_chain,
    restrict,
    synthesize,
    wavelet,
    wavelet_chain,
)
from rankmra import mra as mra_module
from rankmra import wavelets as wavelets_module
from rankmra.cli import main
from rankmra.mra import check_marginal_system

GOLDEN = Path(__file__).parent / "golden" / "s4_basis.txt"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_design(tmp_path, design, n, name="design.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "design": design}))
    return str(path)


def test_basis_matches_golden(tmp_path, capsys):
    out_path = tmp_path / "basis.txt"
    code, _, _ = run(capsys, "basis", "--n", "4", "--expand", "--output", str(out_path))
    assert code == 0
    assert out_path.read_text() == GOLDEN.read_text()


def test_basis_chain_mode(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == factorial(3) - 1
    assert lines[0] == "(1 2): +12 -21"
    assert lines[-1] == "(1 3 2): +132 -213 +231 -312"


def test_basis_guards(capsys):
    code, _, err = run(capsys, "basis", "--n", "1")
    assert code == 2
    assert "n must be >= 2" in err
    code, _, _ = run(capsys, "basis", "--n", "9")
    assert code == 2
    code, _, err = run(capsys, "basis", "--n", "8", "--expand")
    assert code == 2
    assert "--allow-large-n" in err
    # chains-only output at n = 8 stays cheap and allowed
    code, out, _ = run(capsys, "basis", "--n", "8")
    assert code == 0
    assert len(out.splitlines()) == factorial(8) - 1


def test_basis_chains_stream_without_chain_cache(tmp_path, capsys):
    wavelets_module._chain_cache.clear()
    code, out, _ = run(capsys, "basis", "--n", "6")
    assert code == 0
    assert wavelets_module._chain_cache == {}
    out_path = tmp_path / "basis.txt"
    assert run(capsys, "basis", "--n", "6", "--output", str(out_path))[0] == 0
    assert out_path.read_bytes() == out.encode("utf-8")
    lines = out.splitlines()
    assert len(lines) == factorial(6) - 1
    for line in lines:
        key, _, text = line.partition(": ")
        assert text == format_chain(wavelet_chain(CycleForm.parse(key), 6))


def test_basis_expand_equals_embedded_wavelets(capsys):
    for n in range(2, 7):
        code, out, _ = run(capsys, "basis", "--n", str(n), "--expand")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == factorial(n)
        for line, form in zip(lines, build_basis(n).forms):
            assert line == f"{form}: {format_chain(wavelet(form, n))}"


def test_basis_expand_reads_the_ranking_index(monkeypatch):
    # every wavelet comes from the ranking index: none is embedded through
    # Words, and none of the 5 039 chains is kept
    wavelets_module._chain_cache.clear()
    monkeypatch.setattr(wavelets_module, "embed", lambda x: pytest.fail(f"embedded {x}"))
    argv = ["basis", "--n", "7", "--expand", "--allow-large-n", "--output", os.devnull]
    assert main(argv) == 0
    assert wavelets_module._chain_cache == {}


def test_basis_unwritable_output(capsys):
    code, _, err = run(capsys, "basis", "--n", "3", "--output", "/nonexistent/dir/x.txt")
    assert code == 3


def test_verify_pass_and_totals(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4")
    assert code == 0
    assert "24 = 24" in out
    assert "all checks passed" in out
    assert "invariant deletion-annihilation: PASS" in out
    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 0
    assert "120 = 120" in out


def test_verify_bounds(capsys):
    assert run(capsys, "verify", "--n", "1")[0] == 2
    assert run(capsys, "verify", "--n", "7")[0] == 2


def test_verify_builds_the_basis_matrix_once(capsys, monkeypatch):
    calls = []
    system = mra_module._marginal_system
    monkeypatch.setattr(
        mra_module, "_marginal_system", lambda *args: calls.append(args) or system(*args)
    )
    code, out, _ = run(capsys, "verify", "--n", "4")
    assert code == 0 and "all checks passed" in out
    assert len(calls) == 1


def test_verify_corruption_hook(capsys, monkeypatch):
    matrix = WaveletBasis.matrix

    def corrupted(self):
        mat = matrix(self).copy()
        mat[0, 1] += 2
        return mat

    monkeypatch.setattr(WaveletBasis, "matrix", corrupted)
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 1
    assert "FAIL" in out
    # one report holds every failure, the invariants' too
    assert "all checks passed" not in out
    assert "FAILURES:\n    invariant value-support-law failed on 1 wavelets" in out


def test_sample_deterministic(tmp_path, capsys):
    design = write_design(tmp_path, [[1, 2]], 4)
    code, out1, _ = run(capsys, "sample", "--design", design, "--count", "4", "--seed", "0")
    assert code == 0
    code, out2, _ = run(capsys, "sample", "--design", design, "--count", "4", "--seed", "0")
    assert out1 == out2
    rows = [row for row in csv.reader(out1.splitlines())]
    assert len(rows) == 4
    assert all(sorted(int(v) for v in row) == [1, 2] for row in rows)
    code, out3, _ = run(capsys, "sample", "--design", design, "--count", "4", "--seed", "1")
    assert code == 0


def test_sample_rejects_count_below_one(tmp_path, capsys):
    design = write_design(tmp_path, [[1, 2]], 4)
    for count in ("0", "-5"):
        code, out, err = run(capsys, "sample", "--design", design, "--count", count)
        assert code == 2, count
        assert err.startswith("rankmra: ") and out == ""


def test_sample_rejects_negative_density(tmp_path, capsys):
    coeffs = CoefficientVector({"id": 1.0 / 24, "(1 2)": 5.0}, 4)
    path = tmp_path / "bad.json"
    coeffs.save(str(path))
    design = write_design(tmp_path, [[1, 2]], 4)
    code, _, err = run(capsys, "sample", "--design", design, "--input", str(path), "--count", "2")
    assert code == 2
    assert "negative" in err


def test_sample_accepts_a_scaled_up_density(tmp_path, capsys):
    # a count function on S_6 synthesizes back with round-off that scales
    # with its values (about -2e-11 at s = 1e3, -2e-08 at s = 1e6), which
    # is not a negative mass
    basis = build_basis(6)
    design = write_design(tmp_path, [[1, 2, 3]], 6)
    path = tmp_path / "counts.json"
    for s in (1.0, 1e3, 1e6):
        rng = random.Random(0)
        f = Chain({w: rng.choice((0, 1, 2, 3)) * s for w in basis.words}, 6)
        decompose(f, basis).save(str(path))
        code, out, err = run(capsys, "sample", "--design", design, "--input", str(path), "--count", "5")
        assert code == 0, (s, err)
        assert len(out.splitlines()) == 5


def test_sample_from_degenerate_density(tmp_path, capsys):
    # a density concentrated on one ranking always emits its restrictions
    basis = build_basis(3)
    sigma = Word.parse("231", 3)
    c = decompose(Chain.dirac(sigma), basis)
    path = tmp_path / "point.json"
    c.save(str(path))
    design = write_design(tmp_path, [[1, 2], [2, 3]], 3)
    code, out, _ = run(capsys, "sample", "--design", design, "--input", str(path), "--count", "6")
    assert code == 0
    for row in csv.reader(out.splitlines()):
        word = Word(tuple(int(v) for v in row), 3)
        assert word == restrict(sigma, set(word.letters))


def test_decompose_rejects_unknown_subset(tmp_path, capsys):
    design = write_design(tmp_path, [[1, 2]], 3)
    data = tmp_path / "data.csv"
    data.write_text("1,2\n1,3\n")
    code, _, err = run(capsys, "decompose", "--input", str(data), "--design", design)
    assert code == 2
    assert "not in design" in err


def test_decompose_exact_fixture(tmp_path, capsys):
    # exact marginals of a planted function, fed through the CSV surface as
    # integer-weight repetitions is impossible; instead sample heavily from
    # a known density and require loose recovery, then check the exact path
    # through the library in test_mra.  Here: uniform data, id coefficient.
    rng = random.Random(0)
    design_subsets = [[1, 2], [1, 2, 3]]
    design = write_design(tmp_path, design_subsets, 3)
    lines = []
    for _ in range(3000):
        letters = list(range(1, 4))
        rng.shuffle(letters)
        sigma = Word(tuple(letters), 3)
        subset = design_subsets[rng.randrange(2)]
        lines.append(",".join(str(a) for a in restrict(sigma, set(subset)).letters))
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "coeffs.json"
    code, _, err = run(
        capsys, "decompose", "--input", str(data), "--design", design,
        "--output", str(out_path),
    )
    assert code == 0, err
    got = CoefficientVector.load(str(out_path))
    assert got.scope == "design"
    assert abs(got.get("id") - 1 / 6) < 0.05
    for key, value in got.coeffs.items():
        if key != "id":
            assert abs(value) < 0.05


def test_decompose_exact_integer_fixture(tmp_path, capsys):
    # a density with dyadic-rational masses yields a dataset whose empirical
    # marginals are exactly the true marginals, so recovery is exact
    from rankmra import marginal
    from rankmra.marginals import all_words

    n = 3
    psi123 = wavelet(CycleForm.parse("(1 2 3)"), n)
    multiplicity = {w: 2 + psi123(w) for w in all_words(range(1, n + 1), n)}
    lines = []
    for w, m in multiplicity.items():
        lines.extend([",".join(map(str, w.letters))] * m)
    pair_mass = {}
    for w, m in multiplicity.items():
        key = tuple(a for a in w.letters if a in (1, 2))
        pair_mass[key] = pair_mass.get(key, 0) + m
    for letters, m in pair_mass.items():
        lines.extend([",".join(map(str, letters))] * m)
    data = tmp_path / "exact.csv"
    data.write_text("\n".join(lines) + "\n")
    design = write_design(tmp_path, [[1, 2], [1, 2, 3]], n)
    out_path = tmp_path / "coeffs.json"
    code, _, err = run(
        capsys, "decompose", "--input", str(data), "--design", design,
        "--output", str(out_path), "--tolerance", "1e-9",
    )
    assert code == 0, err
    got = CoefficientVector.load(str(out_path))
    assert abs(got.get("id") - 1 / 6) < 1e-8
    assert abs(got.get("(1 2 3)") - 1 / 12) < 1e-8
    assert abs(got.get("(1 3 2)")) < 1e-8
    assert abs(got.get("(1 2)")) < 1e-8


def test_decompose_projectivity_gate(tmp_path, capsys):
    # two subsets observed from wildly different sources violate eq-star
    design = write_design(tmp_path, [[1, 2], [1, 2, 3]], 3)
    lines = ["1,2"] * 50 + ["3,2,1"] * 50
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "decompose", "--input", str(data), "--design", design)
    assert code == 4
    assert "FAIL" in err


def test_marginal_wavelet_values(tmp_path, capsys):
    coeffs = CoefficientVector({"id": 1.0}, 4)
    path = tmp_path / "psi0.json"
    coeffs.save(str(path))
    code, out, _ = run(capsys, "marginal", "--n", "4", "--input", str(path), "--subset", "1,2")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["word"] for r in rows] == ["12", "21"]
    assert all(float(r["value"]) == 12.0 for r in rows)

    coeffs = CoefficientVector({"(1 2)(3 4)": 1.0}, 4)
    path2 = tmp_path / "w1234.json"
    coeffs.save(str(path2))
    code, out, _ = run(capsys, "marginal", "--n", "4", "--input", str(path2), "--subset", "1,3")
    rows = list(csv.DictReader(out.splitlines()))
    assert all(float(r["value"]) == 0.0 for r in rows)


def test_marginal_uniform(capsys):
    code, out, _ = run(capsys, "marginal", "--n", "4", "--uniform", "--subset", "1,2,3")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 6
    for r in rows:
        assert float(r["value"]) == pytest.approx(1 / 6)


def test_marginal_from_design_file(tmp_path, capsys):
    design = write_design(tmp_path, [[1, 2], [3, 4]], 4)
    code, out, _ = run(capsys, "marginal", "--uniform", "--design", design)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert {r["subset"] for r in rows} == {"12", "34"}


def test_marginal_requires_source(capsys):
    code, _, err = run(capsys, "marginal", "--n", "4", "--subset", "1,2")
    assert code == 2


def test_marginal_takes_one_source_and_one_target(tmp_path, capsys):
    design = write_design(tmp_path, [[1, 2], [3, 4]], 4)
    coeffs = tmp_path / "c.json"
    CoefficientVector({"id": 1 / 24}, 4).save(str(coeffs))
    data = tmp_path / "data.csv"
    data.write_text("1,2\n3,4\n")
    target = ("--n", "4", "--subset", "1,2", "--subset", "3,4")
    conflicts = [
        ("--input", str(coeffs), "--uniform", *target),
        ("--input", str(coeffs), "--dataset", str(data), *target),
        ("--uniform", "--dataset", str(data), *target),
        ("--uniform", "--design", design, "--n", "4"),
        ("--uniform", "--design", design, "--subset", "1,2"),
        ("--uniform", "--design", design, "--n", "7", "--subset", "5,6"),
    ]
    for argv in conflicts:
        code, out, err = run(capsys, "marginal", *argv)
        assert code == 2, argv
        assert err.startswith("rankmra: ") and out == ""
    # each source alone, with either target, still runs
    for source in (("--input", str(coeffs)), ("--uniform",), ("--dataset", str(data))):
        assert run(capsys, "marginal", *source, *target)[0] == 0, source
        assert run(capsys, "marginal", *source, "--design", design)[0] == 0, source


def test_synth_round_trip(tmp_path, capsys):
    basis = build_basis(3)
    c = CoefficientVector({"id": 0.5, "(1 2 3)": -1.0}, 3)
    path = tmp_path / "c.json"
    c.save(str(path))
    code, out, _ = run(capsys, "synth", "--input", str(path))
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    expected = synthesize(c, basis)
    assert len(rows) == 6
    for r in rows:
        w = Word.parse(r["word"], 3)
        assert float(r["value"]) == pytest.approx(expected(w))


def test_synth_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(capsys, "synth", "--input", str(path))[0] == 2
    # well-formed JSON of the wrong shape
    for text in ("[1]", '{"n": 3, "coefficients": [5]}', '{"n": [3], "coefficients": []}'):
        path.write_text(text)
        assert run(capsys, "synth", "--input", str(path))[0] == 2, text
    missing = tmp_path / "missing.json"
    assert run(capsys, "synth", "--input", str(missing))[0] == 3


def test_identical_runs_byte_identical(tmp_path, capsys):
    design = write_design(tmp_path, [[1, 2], [1, 3]], 3)
    args = ("sample", "--design", design, "--count", "25", "--seed", "7")
    assert run(capsys, *args)[1] == run(capsys, *args)[1]
    argsb = ("basis", "--n", "4", "--expand")
    assert run(capsys, *argsb)[1] == run(capsys, *argsb)[1]


def test_sample_monte_carlo_uniform_pair(tmp_path, capsys):
    design = write_design(tmp_path, [[1, 2]], 4)
    code, out, _ = run(
        capsys, "sample", "--design", design, "--count", "100000", "--seed", "0"
    )
    assert code == 0
    hits = sum(1 for row in csv.reader(out.splitlines()) if row == ["1", "2"])
    assert 0.49 <= hits / 100000 <= 0.51


def test_thread_cap_env_var(tmp_path, capsys, monkeypatch):
    baseline = run(capsys, "basis", "--n", "3", "--expand")[1]
    monkeypatch.setenv("RANKMRA_THREADS", "4")
    assert run(capsys, "basis", "--n", "3", "--expand")[1] == baseline
    monkeypatch.setenv("RANKMRA_THREADS", "junk")
    assert run(capsys, "basis", "--n", "3", "--expand")[1] == baseline


def _coefficient_commands(tmp_path, payload_text: str, n: int):
    """marginal, synth and sample runs reading one coefficient file."""
    path = tmp_path / "coeffs.json"
    path.write_text(payload_text)
    design = write_design(tmp_path, [[1, 2], [2, 3]], n)
    return [
        ("marginal", "--n", str(n), "--input", str(path), "--subset", "1,2"),
        ("synth", "--input", str(path)),
        ("sample", "--design", design, "--input", str(path), "--count", "5"),
    ]


def test_coefficient_file_with_nan_exits_2(tmp_path, capsys):
    text = '{"n": 4, "coefficients": [{"tau": "id", "value": NaN}]}'
    for argv in _coefficient_commands(tmp_path, text, 4):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "not finite" in err and out == ""


def test_coefficient_file_with_non_integer_n_exits_2(tmp_path, capsys):
    for n in (3.7, "3", True, None):
        text = json.dumps({"n": n, "coefficients": [{"tau": "id", "value": 1 / 6}]})
        for argv in _coefficient_commands(tmp_path, text, 3):
            code, out, err = run(capsys, *argv)
            assert code == 2, (n, argv)
            assert "not an integer" in err and out == ""


def test_coefficient_file_with_key_outside_universe_exits_2(tmp_path, capsys):
    text = json.dumps({"n": 4, "coefficients": [
        {"tau": "id", "value": 1 / 24}, {"tau": "(5 6)", "value": 0.01},
    ]})
    for argv in _coefficient_commands(tmp_path, text, 4):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "outside 1..4" in err and out == ""


def test_coefficient_file_with_duplicate_key_exits_2(tmp_path, capsys):
    text = json.dumps({"n": 4, "coefficients": [
        {"tau": "id", "value": 1 / 24},
        {"tau": "(1 2)", "value": 0.01},
        {"tau": "(1 2)", "value": 0.02},
    ]})
    for argv in _coefficient_commands(tmp_path, text, 4):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "duplicate" in err and out == ""


def test_coefficient_file_with_non_string_key_exits_2(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"n": 3, "coefficients": [{"tau": 5, "value": 1.0}]}))
    code, out, err = run(capsys, "synth", "--input", str(path))
    assert code == 2
    assert "not a string" in err and out == ""


def test_coefficient_file_with_non_numeric_value_exits_2(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"n": 3, "coefficients": [{"tau": "id", "value": [1]}]}))
    code, out, err = run(capsys, "synth", "--input", str(path))
    assert code == 2
    assert "not a number" in err and out == ""


def test_coefficient_file_with_noncanonical_key_exits_2(tmp_path, capsys):
    # "(2 1)" names the form of "(1 2)" but is not its text
    text = json.dumps({"n": 4, "coefficients": [
        {"tau": "id", "value": 1 / 24}, {"tau": "(2 1)", "value": 0.01},
    ]})
    for argv in _coefficient_commands(tmp_path, text, 4):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "standard cycle form" in err and out == ""


CANONICAL_KEYS = ["id", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)"]
OTHER_KEYS = ["(2 1)", "(3 1)", "(2 3 1)", "(3 2 1)", " (1 2)", "(1 2)(3 4)", "(1 4)", "(1 2", "", "x"]


WELL_FORMED = st.dictionaries(
    st.sampled_from(CANONICAL_KEYS), st.floats(allow_nan=False, allow_infinity=False), max_size=4
).map(lambda coeffs: [{"tau": k, "value": v} for k, v in coeffs.items()])
ANY_ENTRY = st.fixed_dictionaries({
    "tau": st.one_of(
        st.sampled_from(CANONICAL_KEYS), st.sampled_from(OTHER_KEYS), st.integers(), st.none()
    ),
    "value": st.one_of(
        st.floats(), st.integers(), st.text(max_size=4), st.lists(st.floats(), max_size=2)
    ),
})


@settings(max_examples=150, deadline=None)
@given(WELL_FORMED, st.lists(ANY_ENTRY, max_size=2))
def test_synth_exit_code_contract(well_formed, arbitrary):
    # any coefficient file either synthesizes (0) or is refused with a message (2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coeffs.json"
        path.write_text(json.dumps({"n": 3, "coefficients": well_formed + arbitrary}))
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["synth", "--input", str(path), "--output", str(Path(tmp) / "out.csv")])
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("rankmra: ")


def test_full_analysis_at_n8_exits_2(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"n": 8, "coefficients": [{"tau": "id", "value": 1 / 40320}]}))
    design = write_design(tmp_path, [[1, 2]], 8)
    for argv in (
        ("synth", "--input", str(path), "--allow-large-n"),
        ("sample", "--design", design, "--input", str(path), "--allow-large-n"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "40320 rows" in err and "Traceback" not in err and out == ""


def test_decompose_refuses_oversized_design(tmp_path, capsys):
    # 7! + 2 rows by at least 7! columns: over the dense n = 7 matrix
    design = write_design(tmp_path, [list(range(1, 8)), [1, 8]], 8)
    data = tmp_path / "data.csv"
    data.write_text("1,2,3,4,5,6,7\n8,1\n")
    code, out, err = run(capsys, "decompose", "--input", str(data), "--design", design)
    assert code == 2
    assert "5042 rows" in err and "Traceback" not in err
    assert out == ""


def test_decompose_accepts_a_design_over_fifty_items(tmp_path, capsys):
    # 200 five-item subsets of 1..50: the whole system would be 24 000 x
    # 22 548, but the blocks hold 200 * 120^2 entries and the columns they
    # share leave a reduced system of 2 262 x 811
    rng = random.Random(0)
    subsets = set()
    while len(subsets) < 200:
        subsets.add(frozenset(rng.sample(range(1, 51), 5)))
    design = write_design(tmp_path, [sorted(s) for s in subsets], 50)
    assert check_marginal_system(ObservationDesign(subsets, 50)) == (200 * 120**2, 2262, 811)
    data = tmp_path / "data.csv"
    assert run(capsys, "sample", "--design", design, "--count", "4000", "--output", str(data))[0] == 0
    code, out, err = run(capsys, "decompose", "--input", str(data), "--design", design)
    assert code == 0, err
    assert "projectivity: PASS" in err and "fit residual" in err
    assert len(json.loads(out)["coefficients"]) == 22548


def test_decompose_rejects_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys):
    # at the parent, nan passed a one-subset design and failed an exact
    # two-subset one (exit 4), as -1 did
    pairs = ["1,2", "2,1"]
    exact = pairs + [",".join(map(str, p)) for p in permutations(range(1, 4))]
    for subsets, rows in (([[1, 2]], pairs), ([[1, 2], [1, 2, 3]], exact)):
        design = write_design(tmp_path, subsets, 3)
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        decompose = ("decompose", "--input", str(data), "--design", design)
        assert run(capsys, *decompose, "--tolerance", "0")[0] == 0
        for tolerance in ("nan", "-1", "inf", "-inf"):
            code, out, err = run(capsys, *decompose, f"--tolerance={tolerance}")
            assert code == 2, (subsets, tolerance)
            assert err.startswith("rankmra: --tolerance") and out == ""


def test_design_whose_scale_overflows_a_float_exits_2(tmp_path, capsys):
    # 180!/2! is past the float range; 170!/2! is the last n! / 2! inside it
    data = tmp_path / "data.csv"
    data.write_text("1,2\n2,1\n")
    for n, expected in ((180, 2), (171, 2), (170, 0)):
        design = write_design(tmp_path, [[1, 2]], n)
        for argv in (
            ("decompose", "--input", str(data), "--design", design),
            ("marginal", "--uniform", "--design", design),
            ("marginal", "--n", str(n), "--uniform", "--subset", "1,2"),
            ("sample", "--design", design, "--count", "3"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == expected, (n, argv)
            if expected:
                assert f"rankmra: n = {n} is too large" in err and out == ""
    with pytest.raises(ValueError, match="does not fit in a float"):
        check_marginal_system(ObservationDesign([[1, 2]], 180))


BAD_DESIGN_PAYLOADS = [
    [1],
    {"n": 4, "design": [5]},
    {"n": "4", "design": [[1, 2]]},
    {"n": 4.5, "design": [[1, 2]]},
    {"n": 4},
    # repeated items, and subsets that repeat once their items are sets
    {"n": 3, "design": [[1, 1, 2], [1, 2]]},
    {"n": 3, "design": [[1, 2], [2, 1]]},
]


def test_design_file_of_wrong_shape_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("1,2\n2,1\n")
    path = tmp_path / "design.json"
    for payload in BAD_DESIGN_PAYLOADS:
        path.write_text(json.dumps(payload))
        for argv in (
            ("decompose", "--input", str(data), "--design", str(path)),
            ("marginal", "--uniform", "--design", str(path)),
            ("sample", "--design", str(path), "--count", "5"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, (payload, argv)
            assert err.startswith("rankmra: ") and "Traceback" not in err and out == ""


def test_marginal_refuses_repeated_items_and_subsets(capsys):
    # 1,1,2 is not read as {1, 2}, nor 2,1 merged into an earlier 1,2
    for subsets, message in (
        (["1,1,2"], "[1, 1, 2] repeats an item"),
        (["1,2", "2,1"], "[1, 2] is given twice"),
    ):
        argv = ["marginal", "--n", "3", "--uniform"] + [f"--subset={s}" for s in subsets]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"rankmra: subset {message}\n")


@pytest.mark.parametrize("text", ["1,a", "1,,2", "1.5,2"])
def test_marginal_names_a_subset_that_is_not_integers(text, capsys):
    code, out, err = run(capsys, "marginal", "--n", "3", "--uniform", f"--subset={text}")
    message = f"rankmra: --subset {text!r} is not a comma-separated list of integers\n"
    assert (code, out, err) == (2, "", message)


DESIGN_N = st.one_of(
    st.integers(2, 6), st.text(max_size=2), st.floats(), st.none(), st.booleans()
)
DESIGN_ITEM = st.one_of(
    st.integers(-1, 7), st.text(max_size=2), st.lists(st.integers(1, 3), max_size=2)
)
DESIGN_SUBSET = st.one_of(
    st.lists(DESIGN_ITEM, max_size=5), st.sampled_from([[1, 2], [1, 2, 3]]), DESIGN_ITEM
)
DESIGN_PAYLOAD = st.one_of(
    st.fixed_dictionaries(
        {}, optional={"n": DESIGN_N, "design": st.lists(DESIGN_SUBSET, max_size=4)}
    ),
    st.lists(st.integers(1, 4), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(DESIGN_PAYLOAD)
def test_design_exit_code_contract(payload):
    # any design file is either used (0, or 4/5 from the analysis) or refused with a message (2)
    with tempfile.TemporaryDirectory() as tmp:
        design = Path(tmp) / "design.json"
        design.write_text(json.dumps(payload))
        data = Path(tmp) / "data.csv"
        data.write_text("1,2\n2,1\n1,2\n1,2,3\n3,2,1\n1,2,3\n")
        output = str(Path(tmp) / "out")
        for argv, codes in (
            (["marginal", "--uniform", "--design", str(design)], {0, 2}),
            (["sample", "--design", str(design), "--count", "5"], {0, 2}),
            (["decompose", "--input", str(data), "--design", str(design)], {0, 2, 4, 5}),
        ):
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(argv + ["--output", output])
            assert code in codes, (argv[0], payload)
            if code == 2:
                assert err.getvalue().startswith("rankmra: ")


def test_marginal_refuses_subset_beyond_max_n(tmp_path, capsys):
    # 11! rankings would be listed; the refusal comes before any of them
    items = list(range(1, 12))
    design = write_design(tmp_path, [items], 11)
    for argv in (
        ("marginal", "--uniform", "--design", design),
        ("marginal", "--n", "11", "--uniform", "--subset", ",".join(map(str, items))),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2, argv
        assert "11 items" in err and "Traceback" not in err and out == ""


def test_coefficients_beyond_max_n_exit_2_without_flag_advice(tmp_path, capsys):
    # --allow-large-n cannot help at n = 9, so the message does not offer it
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"n": 9, "coefficients": [{"tau": "id", "value": 1e-6}]}))
    design = write_design(tmp_path, [[1, 2]], 9)
    for argv in (
        ("synth", "--input", str(path)),
        ("synth", "--input", str(path), "--allow-large-n"),
        ("sample", "--design", design, "--input", str(path)),
        ("sample", "--design", design, "--input", str(path), "--allow-large-n"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "n must be in 2..8" in err and "--allow-large-n" not in err and out == ""


def test_commands_reject_options_they_do_not_read(tmp_path, capsys):
    design = write_design(tmp_path, [[1, 2]], 3)
    data = tmp_path / "data.csv"
    data.write_text("1,2\n2,1\n")
    coeffs = tmp_path / "coeffs.json"
    CoefficientVector({"id": 1 / 6}, 3).save(str(coeffs))
    decompose = ("decompose", "--input", str(data), "--design", design)
    assert run(capsys, *decompose)[0] == 0
    for argv in (
        decompose + ("--n", "5"),
        decompose + ("--seed", "1"),
        ("verify", "--n", "3", "--tolerance", "0.1"),
        ("basis", "--n", "3", "--seed", "1"),
        ("marginal", "--n", "3", "--uniform", "--subset", "1,2", "--allow-large-n"),
        ("synth", "--input", str(coeffs), "--seed", "1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        _, err = capsys.readouterr()
        assert "unrecognized arguments" in err


def test_marginal_uniform_refuses_n_whose_factorial_overflows(tmp_path, capsys):
    # 171!/4! fits in a float, but the uniform coefficient 1/171! needs 171!
    for n, expected in ((171, 2), (170, 0)):
        design = write_design(tmp_path, [[1, 2, 3, 4]], n)
        code, out, err = run(capsys, "marginal", "--uniform", "--design", design)
        assert code == expected, n
        if expected:
            assert err.startswith(f"rankmra: n = {n} is too large for --uniform") and out == ""
        else:
            rows = list(csv.DictReader(out.splitlines()))
            assert len(rows) == 24
            assert all(float(r["value"]) == pytest.approx(1 / 24) for r in rows)


def test_decompose_refuses_oversized_design_before_reading_data(tmp_path, capsys):
    design = write_design(tmp_path, [list(range(1, 9))], 8)
    data = tmp_path / "data.csv"
    data.write_text("1,2,3,4,5,6,7,8\n8,7,6,5,4,3,2,1\n")
    for path in (data, tmp_path / "missing.csv"):
        code, out, err = run(capsys, "decompose", "--input", str(path), "--design", design)
        assert code == 2, path
        assert "40320 rows" in err and "projectivity:" not in err and out == ""


TINY_ROWS = ["1,2", "2,1"] + [",".join(map(str, p)) for p in permutations(range(1, 4))]
CORRUPT_TOKEN = st.one_of(
    st.integers(max_value=0).map(str),  # letters outside 1..3
    st.integers(min_value=4).map(str),
    st.text(alphabet="abx.+-_ e", min_size=1),  # no digit, so never an integer
    st.just(""),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(TINY_ROWS) - 1), st.data())
def test_decompose_exit_code_contract_for_ranking_csvs(line, data):
    # one corrupted row of a valid CSV is refused at its line, and nothing
    # is written; a repeated letter is drawn from the row itself
    row = TINY_ROWS[line].split(",")
    at = data.draw(st.integers(0, len(row) - 1))
    repeated = st.sampled_from([tok for i, tok in enumerate(row) if i != at])
    row[at] = data.draw(st.one_of(CORRUPT_TOKEN, repeated))
    rows = TINY_ROWS[:line] + [",".join(row)] + TINY_ROWS[line + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        design = write_design(Path(tmp), [[1, 2], [1, 2, 3]], 3)
        path = Path(tmp) / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["decompose", "--input", str(path), "--design", design])
    assert code == 2, rows
    assert err.getvalue().startswith(f"rankmra: line {line + 1}: "), err.getvalue()
    assert out.getvalue() == ""


def test_decompose_refuses_a_record_outside_the_design_and_a_missing_csv(tmp_path, capsys):
    design, data = _tiny_design_dataset(tmp_path)
    outside = tmp_path / "outside.csv"
    outside.write_text(Path(data).read_text() + "1,3\n")
    code, out, err = run(capsys, "decompose", "--input", str(outside), "--design", design)
    assert (code, out) == (2, "") and err == "rankmra: record subset [1, 3] not in design\n"
    code, out, err = run(capsys, "decompose", "--input", str(tmp_path / "missing.csv"), "--design", design)
    assert (code, out) == (3, "") and err.startswith("rankmra: ") and "Traceback" not in err


SCIPY_GATE = """
import os
import sys

import rankmra.cli

design, data, coeffs = sys.argv[1:]
quiet = ["--output", os.devnull]
for argv in (
    ["basis", "--n", "4"],
    ["basis", "--n", "4", "--expand"],
    ["verify", "--n", "4"],
    ["marginal", "--n", "4", "--uniform", "--subset", "1,2,3"],
    ["decompose", "--input", data, "--design", design],
):
    assert rankmra.cli.main(argv + quiet) == 0, argv
    assert "scipy.linalg" not in sys.modules, argv
assert rankmra.cli.main(["synth", "--input", coeffs] + quiet) == 0
assert "scipy.linalg" in sys.modules  # full analysis still factors with it
print("ok")
"""


def _tiny_design_dataset(tmp_path) -> tuple[str, str]:
    design = write_design(tmp_path, [[1, 2], [1, 2, 3]], 3)
    data = tmp_path / "data.csv"
    data.write_text("\n".join(TINY_ROWS) + "\n")
    return design, str(data)


def test_commands_that_never_factor_leave_scipy_unloaded(tmp_path):
    # a fresh interpreter: scipy.linalg costs about 0.2 s of start-up, which
    # only full analysis (synth, sample --input) needs
    design, data = _tiny_design_dataset(tmp_path)
    coeffs = tmp_path / "coeffs.json"
    CoefficientVector({"id": 1 / 24, "(1 2)": 0.01}, 4).save(str(coeffs))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_GATE, design, data, str(coeffs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_decompose_assembles_one_design_subset_at_a_time(tmp_path, capsys, monkeypatch):
    # the block-angular solve never builds the whole design system
    design, data = _tiny_design_dataset(tmp_path)
    sizes = []
    system = mra_module._marginal_system
    monkeypatch.setattr(
        mra_module, "_marginal_system",
        lambda design, forms: sizes.append(len(design)) or system(design, forms),
    )
    code, _, err = run(capsys, "decompose", "--input", data, "--design", design)
    assert code == 0, err
    assert sizes == [1, 1]
