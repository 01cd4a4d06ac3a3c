"""Command-line surface: basis emission, marginals, decomposition,
verification, dataset sampling, and synthesis.

Each command takes exactly the options it reads, and its output is
deterministic given them.  Data goes to --output (or stdout); diagnostics
go to stderr.  Commands raise, and main maps the errors to exit codes:
0 success, 1 failed verification, 2 malformed input or guard violation
(ValueError, or an option the command does not take), 3 I/O failure
(OSError), 4 projectivity violation, 5 unexplained solver residual.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import io
import json
import random
import sys
from contextlib import nullcontext
from functools import cache
from itertools import accumulate
from math import factorial, isfinite
from typing import Iterable, Iterator

from .marginals import (
    ObservationDesign,
    all_words,
    check_projective,
    distinct_subsets,
    empirical_marginals,
    read_rankings_csv,
)
from .mra import (
    RESIDUAL_REL_TOL,
    CoefficientVector,
    ProjectivityError,
    SolverError,
    basis_forms,
    build_basis,
    check_listable,
    check_marginal_system,
    check_scale,
    decompose_marginals,
    _marginal_terms,
    marginal_residual,
    synthesize,
    synthesize_marginals,
    verify_dimensions,
)
from .wavelets import LARGE_N, MAX_N, chain_terms, cycle_terms
from .words import Word, restrict

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PROJECTIVITY = 4
EXIT_RESIDUAL = 5

DEFAULT_EMPIRICAL_TOL = 0.1


def _fail(code: int, message: str) -> int:
    print(f"rankmra: {message}", file=sys.stderr)
    return code


def _write_lines(output: str | None, lines: Iterable[str]) -> int:
    """Write lines to --output, or to stdout without it, as they come."""
    try:
        out = nullcontext(sys.stdout) if output is None else open(output, "w", encoding="utf-8")
        with out as fh:
            for line in lines:
                fh.write(line)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {output or 'stdout'}: {exc}")
    return EXIT_OK


def _write_rows(output: str | None, rows: Iterable[list]) -> int:
    """Write CSV rows to --output, or to stdout, all formatted before the
    file is opened, so that a failure on the way leaves no partial file."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return _write_lines(output, (buf.getvalue(),))


def _load_design(path: str) -> ObservationDesign:
    try:
        return ObservationDesign.load(path)
    except OSError as exc:
        raise OSError(f"cannot read design {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed design JSON: {exc}") from exc


def _load_coefficients(path: str) -> CoefficientVector:
    try:
        return CoefficientVector.load(path)
    except OSError as exc:
        raise OSError(f"cannot read coefficients {path}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed coefficient JSON: {exc}") from exc


def _basis_lines(n: int, expand: bool) -> Iterator[str]:
    """The output of `basis`: one wavelet function, or wavelet chain, a line."""
    if expand:
        # psi_tau is its marginal on the full set, where the scale is 1 and
        # the identity's rows are all +; each word's text is formatted once
        basis = build_basis(n)
        universe = frozenset(range(1, n + 1))
        text = [str(w) for w in basis.words]
        signed = {1: ["+" + t for t in text], -1: ["-" + t for t in text]}
        for key, form in zip(basis.keys, basis.forms):
            rows, signs, _ = _marginal_terms(form, universe, n)
            terms = " ".join([signed[s][row] for row, s in zip(rows.tolist(), signs.tolist())])
            yield f"{key}: {terms}\n"
        return
    # the blocks of multi-cycle forms recur across forms, so they are kept;
    # one-cycle forms skip the cache, which would otherwise hold every cycle
    # up to length n
    shared = cache(cycle_terms)
    # letters are encoded as chr(1..n), clear of " ", "+" and "-"; as
    # n <= MAX_N < 10, a word's text is its digits
    digits = {a: str(a) for a in range(1, n + 1)}
    for form in basis_forms(n):
        if len(form.cycles) == 1:
            terms = cycle_terms(form.cycles[0])
        else:
            terms = chain_terms(form.cycles, shared)
        line = " ".join([("+" if s > 0 else "-") + word for word, s in terms])
        yield f"{form}: {line.translate(digits)}\n"


def cmd_basis(args: argparse.Namespace) -> int:
    n = args.n
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}")
    if args.expand and n >= LARGE_N and not args.allow_large_n:
        raise ValueError(f"expanding all wavelets at n = {n} is expensive; pass --allow-large-n")
    return _write_lines(args.output, _basis_lines(n, args.expand))


def _subset_items(text: str) -> list[int]:
    """The items of one --subset value, such as 1,3."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--subset {text!r} is not a comma-separated list of integers") from None


def cmd_marginal(args: argparse.Namespace) -> int:
    sources = (args.input is not None) + args.uniform + (args.dataset is not None)
    if sources != 1:
        raise ValueError("give exactly one of --input, --uniform, --dataset")
    if args.design is not None:
        if args.n is not None or args.subset:
            raise ValueError("give --design or --n with --subset, not both")
        design = _load_design(args.design)
        n = design.n
        subsets = list(design)
    else:
        if args.n is None:
            raise ValueError("either --design or --n with --subset is required")
        n = args.n
        subsets = distinct_subsets(_subset_items(text) for text in args.subset)
        if not subsets:
            raise ValueError("no target subsets given")
    for s in subsets:
        if len(s) < 2 or any(not 1 <= a <= n for a in s):
            raise ValueError(f"bad subset {sorted(s)}")
        check_listable(s)
        check_scale(s, n)

    if args.dataset is not None:
        records = read_rankings_csv(args.dataset, n)
        design = ObservationDesign([sorted(s) for s in subsets], n)
        fam = empirical_marginals(records, design)
        chains = {s: fam[s] for s in subsets}
    else:
        if args.uniform:
            try:
                coeffs = CoefficientVector({"id": 1.0 / factorial(n)}, n)
            except OverflowError:
                raise ValueError(f"n = {n} is too large for --uniform: {n}! overflows") from None
        else:
            coeffs = _load_coefficients(args.input)
            if coeffs.n != n:
                raise ValueError(f"coefficients are for n={coeffs.n}, not {n}")
        chains = synthesize_marginals(coeffs, subsets)

    def rows():
        yield ["subset", "word", "value"]
        for s in sorted(chains, key=lambda s: (len(s), sorted(s))):
            chain = chains[s]
            label = str(Word(tuple(sorted(s)), n))
            for w in all_words(s, n):
                yield [label, str(w), repr(float(chain(w)))]

    return _write_rows(args.output, rows())


def cmd_decompose(args: argparse.Namespace) -> int:
    tolerance = args.tolerance
    if not (isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"--tolerance must be a finite number >= 0, got {tolerance!r}")
    design = _load_design(args.design)
    check_marginal_system(design)
    records = read_rankings_csv(args.input, design.n)
    fam = empirical_marginals(records, design)
    report = check_projective(fam, tolerance)
    print(report, file=sys.stderr)
    if not report.passed:
        return EXIT_PROJECTIVITY
    coeffs = decompose_marginals(fam, projectivity_tol=tolerance)
    residual = marginal_residual(fam, coeffs)
    print(f"fit residual (sup norm): {residual:.6g}", file=sys.stderr)
    if residual > tolerance:
        raise SolverError(f"residual {residual:.6g} exceeds tolerance {tolerance:.6g}")
    return _write_lines(args.output, (json.dumps(coeffs.to_json(), indent=2) + "\n",))


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    if not 2 <= n < LARGE_N:
        raise ValueError(f"verify needs 2 <= n <= {LARGE_N - 1}")
    report = verify_dimensions(n)
    code = _write_lines(args.output, (str(report) + "\n",))
    return EXIT_FAIL if code == EXIT_OK and not report.passed else code


def _synthesized(path: str, n: int | None, allow_large_n: bool) -> tuple[list[Word], list[float]]:
    """The full rankings, in lexicographic order, and the values on them of
    the coefficients at path, which must be for n when n is given."""
    coeffs = _load_coefficients(path)
    if n is not None and coeffs.n != n:
        raise ValueError(f"coefficients are for n={coeffs.n}, not {n}")
    if not 2 <= coeffs.n <= MAX_N:
        raise ValueError(f"n must be in 2..{MAX_N}")
    if coeffs.n >= LARGE_N and not allow_large_n:
        raise ValueError(f"synthesizing at n = {coeffs.n} needs --allow-large-n")
    basis = build_basis(coeffs.n)
    chain = synthesize(coeffs, basis)
    return basis.words, [float(chain(w)) for w in basis.words]


def _density_from_coefficients(args: argparse.Namespace, n: int) -> tuple[list[Word], list[float]] | None:
    """The full rankings and their synthesized probabilities, or None for uniform."""
    if args.input is None:
        return None
    words, values = _synthesized(args.input, n, args.allow_large_n)
    # a zero mass synthesizes to within round-off of the largest value,
    # which can fall below 0
    if min(values) < -RESIDUAL_REL_TOL * max(map(abs, values)):
        raise ValueError(f"coefficients synthesize to a negative mass ({min(values):.3g})")
    total = sum(values)
    if total <= 0:
        raise ValueError("coefficients synthesize to zero total mass")
    return words, [max(v, 0.0) / total for v in values]


def cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    design = _load_design(args.design)
    n = design.n
    check_scale(min(design, key=len), n)
    density = _density_from_coefficients(args, n)
    if density is not None:
        words, probabilities = density
        cumulative = list(accumulate(probabilities))

    rng = random.Random(args.seed)
    subsets = [tuple(sorted(s)) for s in design]

    def rows():
        for _ in range(args.count):
            subset = subsets[rng.randrange(len(subsets))]
            if density is None:
                letters = list(range(1, n + 1))
                rng.shuffle(letters)
                sigma = Word(tuple(letters), n)
            else:
                sigma = words[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]
            yield list(restrict(sigma, subset).letters)

    return _write_rows(args.output, rows())


def cmd_synth(args: argparse.Namespace) -> int:
    words, values = _synthesized(args.input, args.n, args.allow_large_n)
    rows = ([str(w), repr(v)] for w, v in zip(words, values))
    return _write_rows(args.output, [["word", "value"], *rows])


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with exactly the options it reads."""
    parser = argparse.ArgumentParser(
        prog="rankmra",
        description="Multiresolution analysis of incomplete rankings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        return p

    large_n = f"allow the costly work of n >= {LARGE_N}"

    p = command("basis", cmd_basis, "emit wavelet chains (or expanded wavelets)")
    p.add_argument("--n", type=int, required=True, help="universe size")
    p.add_argument("--expand", action="store_true", help="emit full wavelet functions")
    p.add_argument("--allow-large-n", action="store_true", help=large_n)

    p = command("marginal", cmd_marginal, "marginals of a function or dataset")
    p.add_argument("--n", type=int, default=None, help="universe size (with --subset)")
    p.add_argument("--input", default=None, help="coefficient JSON")
    p.add_argument("--uniform", action="store_true", help="use the uniform distribution")
    p.add_argument("--dataset", default=None, help="ranking CSV")
    p.add_argument("--design", default=None, help="design JSON")
    p.add_argument("--subset", action="append", default=[], help="subset like 1,3 (repeatable)")

    p = command("decompose", cmd_decompose, "wavelet coefficients from a ranking dataset")
    p.add_argument("--input", required=True, help="ranking CSV")
    p.add_argument("--design", required=True, help="design JSON")
    p.add_argument("--tolerance", type=float, default=DEFAULT_EMPIRICAL_TOL,
                   help="projectivity and residual tolerance")

    p = command("verify", cmd_verify, "dimension and invariant verification")
    p.add_argument("--n", type=int, required=True, help="universe size")

    p = command("sample", cmd_sample, "draw an incomplete-ranking dataset")
    p.add_argument("--design", required=True, help="design JSON")
    p.add_argument("--count", type=int, default=100, help="number of records")
    p.add_argument("--input", default=None, help="coefficient JSON density (default uniform)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--allow-large-n", action="store_true", help=large_n)

    p = command("synth", cmd_synth, "evaluate a coefficient JSON on full rankings")
    p.add_argument("--input", required=True, help="coefficient JSON")
    p.add_argument("--n", type=int, default=None, help="expected universe size")
    p.add_argument("--allow-large-n", action="store_true", help=large_n)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place where errors become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ProjectivityError as exc:  # a ValueError, so it goes first
        return _fail(EXIT_PROJECTIVITY, str(exc))
    except SolverError as exc:
        return _fail(EXIT_RESIDUAL, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
