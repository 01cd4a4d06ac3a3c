"""Command-line surface: basis emission, marginals, decomposition,
verification, dataset sampling, and synthesis.

All commands are deterministic given their flags and seed.  Data goes to
--output (or stdout); diagnostics go to stderr.  Exit codes: 0 success,
1 failed verification, 2 malformed input or guard violation, 3 I/O
failure, 4 projectivity violation, 5 unexplained solver residual.
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
from dataclasses import dataclass
from functools import cache
from math import factorial
from typing import Iterable, Iterator

from .marginals import (
    ObservationDesign,
    all_words,
    check_projective,
    empirical_marginals,
    read_rankings_csv,
)
from .perms import CycleForm
from .mra import (
    CoefficientVector,
    ProjectivityError,
    SolverError,
    basis_forms,
    build_basis,
    decompose_marginals,
    marginal_residual,
    synthesize,
    synthesize_marginals,
    verify_dimensions,
)
from .wavelets import (
    LARGE_N,
    MAX_N,
    WaveletFunction,
    chain_terms,
    cycle_terms,
    wavelet,
    wavelet_chain,
)
from .words import Chain, Word, delete, format_chain, restrict

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PROJECTIVITY = 4
EXIT_RESIDUAL = 5

DEFAULT_EMPIRICAL_TOL = 0.1


@dataclass
class RunConfig:
    command: str
    n: int | None = None
    input: str | None = None
    output: str | None = None
    design: str | None = None
    dataset: str | None = None
    subsets: tuple[str, ...] = ()
    seed: int = 0
    count: int = 100
    tolerance: float | None = None
    expand: bool = False
    allow_large_n: bool = False
    uniform: bool = False
    inject_corruption: bool = False


def _fail(code: int, message: str) -> int:
    print(f"rankmra: {message}", file=sys.stderr)
    return code


def _write_lines(config: RunConfig, lines: Iterable[str]) -> int:
    """Write lines to --output, or to stdout without it, as they come."""
    try:
        if config.output is None:
            out = nullcontext(sys.stdout)
        else:
            out = open(config.output, "w", encoding="utf-8")
        with out as fh:
            for line in lines:
                fh.write(line)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {config.output or 'stdout'}: {exc}")
    return EXIT_OK


def _write_text(config: RunConfig, text: str) -> int:
    return _write_lines(config, (text,))


def _load_design(config: RunConfig) -> ObservationDesign:
    if config.design is None:
        raise ValueError("a --design file is required")
    try:
        with open(config.design, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read design {config.design}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed design JSON: {exc}") from exc
    return ObservationDesign.from_json(payload)


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
        yield f"id: {format_chain(wavelet(CycleForm(()), n).chain)}\n"
        for form in basis_forms(n):
            yield f"{form}: {format_chain(wavelet(form, n).chain)}\n"
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


def cmd_basis(config: RunConfig) -> int:
    n = config.n
    if n is None or n < 2:
        return _fail(EXIT_USAGE, "n must be >= 2")
    if n > MAX_N:
        return _fail(EXIT_USAGE, f"n must be <= {MAX_N}")
    if config.expand and n >= LARGE_N and not config.allow_large_n:
        return _fail(
            EXIT_USAGE,
            f"expanding all wavelets at n = {n} is expensive; pass --allow-large-n",
        )
    return _write_lines(config, _basis_lines(n, config.expand))


def cmd_marginal(config: RunConfig) -> int:
    try:
        if config.design is not None:
            design = _load_design(config)
            n = design.n
            subsets = list(design)
        else:
            if config.n is None:
                return _fail(EXIT_USAGE, "either --design or --n with --subset is required")
            n = config.n
            subsets = [
                frozenset(int(tok) for tok in text.split(",")) for text in config.subsets
            ]
            if not subsets:
                return _fail(EXIT_USAGE, "no target subsets given")
            for s in subsets:
                if len(s) < 2 or any(not 1 <= a <= n for a in s):
                    return _fail(EXIT_USAGE, f"bad subset {sorted(s)}")
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    try:
        if config.dataset is not None:
            records = read_rankings_csv(config.dataset, n)
            design = ObservationDesign([sorted(s) for s in subsets], n)
            fam = empirical_marginals(records, design)
            chains = {s: fam[s] for s in subsets}
        else:
            if config.uniform:
                coeffs = CoefficientVector({"id": 1.0 / factorial(n)}, n)
            elif config.input is not None:
                coeffs = _load_coefficients(config.input)
                if coeffs.n != n:
                    return _fail(EXIT_USAGE, f"coefficients are for n={coeffs.n}, not {n}")
            else:
                return _fail(EXIT_USAGE, "need --input, --uniform, or --dataset")
            chains = synthesize_marginals(coeffs, subsets)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["subset", "word", "value"])
    for s in sorted(chains, key=lambda s: (len(s), sorted(s))):
        chain = chains[s]
        label = str(Word(tuple(sorted(s)), n))
        for w in all_words(s, n):
            writer.writerow([label, str(w), repr(float(chain(w)))])
    return _write_text(config, buf.getvalue())


def cmd_decompose(config: RunConfig) -> int:
    tolerance = config.tolerance if config.tolerance is not None else DEFAULT_EMPIRICAL_TOL
    try:
        design = _load_design(config)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    if config.input is None:
        return _fail(EXIT_USAGE, "a dataset --input file is required")
    try:
        records = read_rankings_csv(config.input, design.n)
        fam = empirical_marginals(records, design)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    report = check_projective(fam, tolerance)
    print(report, file=sys.stderr)
    if not report.passed:
        return EXIT_PROJECTIVITY
    try:
        coeffs = decompose_marginals(fam, projectivity_tol=tolerance)
    except ProjectivityError:
        return EXIT_PROJECTIVITY
    except SolverError as exc:
        return _fail(EXIT_RESIDUAL, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    residual = marginal_residual(fam, coeffs)
    print(f"fit residual (sup norm): {residual:.6g}", file=sys.stderr)
    if residual > tolerance:
        return _fail(EXIT_RESIDUAL, f"residual {residual:.6g} exceeds tolerance {tolerance:.6g}")
    return _write_text(config, json.dumps(coeffs.to_json(), indent=2) + "\n")


def cmd_verify(config: RunConfig) -> int:
    n = config.n
    if n is None or not 2 <= n < LARGE_N:
        return _fail(EXIT_USAGE, f"verify needs 2 <= n <= {LARGE_N - 1}")
    report = verify_dimensions(n)

    failures = list(report.failures)
    checks = {"deletion-annihilation": 0, "value-support-law": 0, "zero-sum": 0}
    for i, (_, psi) in enumerate(build_basis(n)):
        form = psi.tau
        if not form.cycles:
            continue
        if config.inject_corruption and i == 1:
            # test hook: break one coefficient in a copied chain (never the cache)
            terms = dict(psi.chain.terms)
            terms[next(iter(terms))] += 2
            psi = WaveletFunction(psi.tau, Chain(terms, n))
        support = form.support()
        x = wavelet_chain(form, n).chain
        for a in support:
            if delete(x, a):
                checks["deletion-annihilation"] += 1
        k, r = form.length(), form.cycle_count()
        values_ok = all(c in (-1, 1) for c in psi.chain.terms.values())
        size_ok = len(psi.chain) == 2 ** (k - r) * factorial(n - k + 1)
        if not (values_ok and size_ok):
            checks["value-support-law"] += 1
        if psi.chain.total_mass() != 0:
            checks["zero-sum"] += 1

    lines = report.lines()
    for name, bad in sorted(checks.items()):
        status = "PASS" if bad == 0 else f"FAIL ({bad} wavelets)"
        lines.append(f"  invariant {name}: {status}")
        if bad:
            failures.append(f"invariant {name} failed on {bad} wavelets")
    text = "\n".join(lines) + "\n"
    code = _write_text(config, text)
    if code != EXIT_OK:
        return code
    return EXIT_OK if not failures else EXIT_FAIL


def _density_from_coefficients(config: RunConfig, n: int) -> list[float] | None:
    """Synthesized word probabilities in lexicographic order, or None for uniform."""
    if config.input is None:
        return None
    coeffs = _load_coefficients(config.input)
    if coeffs.n != n:
        raise ValueError(f"coefficients are for n={coeffs.n}, not {n}")
    if n >= LARGE_N and not config.allow_large_n:
        raise ValueError(f"synthesizing at n = {n} needs --allow-large-n")
    basis = build_basis(n)
    chain = synthesize(coeffs, basis)
    values = [float(chain(w)) for w in basis.words]
    if min(values) < -1e-12:
        raise ValueError(f"coefficients synthesize to a negative mass ({min(values):.3g})")
    total = sum(values)
    if total <= 0:
        raise ValueError("coefficients synthesize to zero total mass")
    return [max(v, 0.0) / total for v in values]


def cmd_sample(config: RunConfig) -> int:
    try:
        design = _load_design(config)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    n = design.n
    try:
        density = _density_from_coefficients(config, n)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    rng = random.Random(config.seed)
    subsets = [tuple(sorted(s)) for s in design]
    words = all_words(range(1, n + 1), n) if density is not None else None
    cumulative: list[float] = []
    if density is not None:
        acc = 0.0
        for p in density:
            acc += p
            cumulative.append(acc)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for _ in range(config.count):
        subset = subsets[rng.randrange(len(subsets))]
        if density is None:
            letters = list(range(1, n + 1))
            rng.shuffle(letters)
            sigma = Word(tuple(letters), n)
        else:
            sigma = words[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]
        writer.writerow(list(restrict(sigma, subset).letters))
    return _write_text(config, buf.getvalue())


def cmd_synth(config: RunConfig) -> int:
    if config.input is None:
        return _fail(EXIT_USAGE, "a coefficient --input file is required")
    try:
        coeffs = _load_coefficients(config.input)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    n = coeffs.n
    if config.n is not None and config.n != n:
        return _fail(EXIT_USAGE, f"coefficients are for n={n}, not {config.n}")
    if n >= LARGE_N and not config.allow_large_n:
        return _fail(EXIT_USAGE, f"synthesizing at n = {n} needs --allow-large-n")
    if not 2 <= n <= MAX_N:
        return _fail(EXIT_USAGE, f"n must be in 2..{MAX_N}")
    basis = build_basis(n)
    try:
        chain = synthesize(coeffs, basis)
    except (KeyError, ValueError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["word", "value"])
    for w in basis.words:
        writer.writerow([str(w), repr(float(chain(w)))])
    return _write_text(config, buf.getvalue())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmra",
        description="Multiresolution analysis of incomplete rankings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=True):
        if needs_n:
            p.add_argument("--n", type=int, default=None, help="universe size")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--allow-large-n", action="store_true")

    p = sub.add_parser("basis", help="emit wavelet chains (or expanded wavelets)")
    common(p)
    p.add_argument("--expand", action="store_true", help="emit full wavelet functions")

    p = sub.add_parser("marginal", help="marginals of a function or dataset")
    common(p)
    p.add_argument("--input", default=None, help="coefficient JSON")
    p.add_argument("--uniform", action="store_true", help="use the uniform distribution")
    p.add_argument("--dataset", default=None, help="ranking CSV")
    p.add_argument("--design", default=None, help="design JSON")
    p.add_argument("--subset", action="append", default=[], help="subset like 1,3 (repeatable)")

    p = sub.add_parser("decompose", help="wavelet coefficients from a ranking dataset")
    common(p)
    p.add_argument("--input", required=True, help="ranking CSV")
    p.add_argument("--design", required=True, help="design JSON")

    p = sub.add_parser("verify", help="dimension and invariant verification")
    common(p)
    p.add_argument("--inject-corruption", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("sample", help="draw an incomplete-ranking dataset")
    common(p)
    p.add_argument("--design", required=True, help="design JSON")
    p.add_argument("--count", type=int, default=100, help="number of records")
    p.add_argument("--input", default=None, help="coefficient JSON density (default uniform)")

    p = sub.add_parser("synth", help="evaluate a coefficient JSON on full rankings")
    common(p)
    p.add_argument("--input", required=True, help="coefficient JSON")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        input=getattr(args, "input", None),
        output=args.output,
        design=getattr(args, "design", None),
        dataset=getattr(args, "dataset", None),
        subsets=tuple(getattr(args, "subset", [])),
        seed=args.seed,
        count=getattr(args, "count", 100),
        tolerance=args.tolerance,
        expand=getattr(args, "expand", False),
        allow_large_n=args.allow_large_n,
        uniform=getattr(args, "uniform", False),
        inject_corruption=getattr(args, "inject_corruption", False),
    )


COMMANDS = {
    "basis": cmd_basis,
    "marginal": cmd_marginal,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "sample": cmd_sample,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    return COMMANDS[config.command](config)


if __name__ == "__main__":
    sys.exit(main())
