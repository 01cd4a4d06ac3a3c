"""Full multiresolution machinery: basis assembly, analysis, synthesis.

Analysis is a dense linear solve against the (non-orthogonal) basis matrix;
marginal-domain analysis assembles its system from closed-form wavelet
marginals only, so it never materializes the full ranking space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Iterator

import numpy as np
import scipy.linalg

from .marginals import (
    MarginalFamily,
    ObservationDesign,
    all_words,
    check_projective,
    ProjectivityReport,
    REAL_PROJECTIVITY_TOL,
)
from .perms import (
    CycleForm,
    Permutation,
    derangement_forms,
    derangements,
    eig_class_dimensions,
    scale_dimension,
)
from .wavelets import WaveletFunction, marginal_wavelet, wavelet
from .words import Chain, Word

DEFAULT_SOLVE_N = 6
MAX_BASIS_N = 8
RESIDUAL_REL_TOL = 1e-9


class ProjectivityError(ValueError):
    """Raised when analysis is attempted on a non-projective family."""

    def __init__(self, report: ProjectivityReport):
        super().__init__(str(report))
        self.report = report


class SolverError(RuntimeError):
    """Raised when a linear solve leaves an unexplained residual."""


def basis_sort_key(key: str) -> tuple:
    """Order coefficient keys by (support size, support, cycle-form string)."""
    form = CycleForm.parse(key)
    return (len(form.support()), tuple(sorted(form.support())), key)


def _subsets_by_size(n: int) -> list[frozenset[int]]:
    items = list(range(1, n + 1))
    out = []
    for mask in range(1, 1 << n):
        sub = frozenset(items[i] for i in range(n) if mask >> i & 1)
        if len(sub) >= 2:
            out.append(sub)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def basis_forms(n: int) -> Iterator[CycleForm]:
    """Cycle forms of the non-identity basis wavelets, in basis order."""
    for subset in _subsets_by_size(n):
        yield from derangement_forms(subset)


def basis_keys(n: int) -> list[str]:
    """Cycle-form keys of the full wavelet basis, in basis order."""
    return ["id"] + [str(form) for form in basis_forms(n)]


class WaveletBasis:
    """All n! wavelet functions of L(S_n), in deterministic order."""

    def __init__(self, n: int, elements: list[tuple[Permutation, WaveletFunction]]):
        self.n = n
        self.elements = elements
        self.keys = [str(psi.tau) for _, psi in elements]
        self._index = {key: i for i, key in enumerate(self.keys)}
        self._words = all_words(range(1, n + 1), n)
        self._word_pos = {w: i for i, w in enumerate(self._words)}
        self._matrix: np.ndarray | None = None
        self._lu = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, key: str) -> int:
        return self._index[key]

    @property
    def words(self) -> list[Word]:
        """Full rankings in lexicographic order (the row index of matrices)."""
        return self._words

    def chain_to_vector(self, f: Chain) -> np.ndarray:
        vec = np.zeros(len(self._words))
        for w, c in f.terms.items():
            pos = self._word_pos.get(w)
            if pos is None:
                raise ValueError(f"word {w} is not a full ranking of 1..{self.n}")
            vec[pos] = c
        return vec

    def vector_to_chain(self, vec: np.ndarray) -> Chain:
        return Chain({w: float(v) for w, v in zip(self._words, vec)}, self.n)

    def matrix(self) -> np.ndarray:
        """Columns are the wavelet functions over lexicographic full rankings."""
        if self._matrix is None:
            mat = np.zeros((len(self._words), len(self.elements)))
            for j, (_, psi) in enumerate(self.elements):
                for w, c in psi.chain.terms.items():
                    mat[self._word_pos[w], j] = c
            self._matrix = mat
        return self._matrix

    def lu(self):
        if self._lu is None:
            self._lu = scipy.linalg.lu_factor(self.matrix())
        return self._lu


def build_basis(n: int) -> WaveletBasis:
    """Materialize the wavelet basis of L(S_n) (2 <= n <= 8)."""
    if not 2 <= n <= MAX_BASIS_N:
        raise ValueError(f"n must be in 2..{MAX_BASIS_N}, got {n}")
    elements = [(Permutation.identity(n), wavelet(Permutation.identity(n)))]
    for form in basis_forms(n):
        elements.append((form.to_permutation(n), wavelet(form, n)))
    return WaveletBasis(n, elements)


@dataclass
class CoefficientVector:
    """Expansion coefficients keyed by standard-cycle-form strings."""

    coeffs: dict[str, float]
    n: int
    scope: str = "full"  # "full" or "design"

    def __post_init__(self):
        for key in self.coeffs:
            CycleForm.parse(key)  # validates
        if self.scope not in ("full", "design"):
            raise ValueError(f"unknown scope {self.scope!r}")

    def get(self, key: str) -> float:
        return self.coeffs.get(key, 0.0)

    def sorted_items(self) -> list[tuple[str, float]]:
        return sorted(self.coeffs.items(), key=lambda kv: basis_sort_key(kv[0]))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "scope": self.scope,
            "coefficients": [
                {"tau": key, "value": value} for key, value in self.sorted_items()
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CoefficientVector":
        coeffs = {entry["tau"]: float(entry["value"]) for entry in payload["coefficients"]}
        return cls(coeffs, int(payload["n"]), payload.get("scope", "full"))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CoefficientVector":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def decompose(f: Chain, basis: WaveletBasis, allow_large: bool = False) -> CoefficientVector:
    """Solve for the unique expansion of f in the wavelet basis.

    Dense LU with partial pivoting; the residual must not exceed
    1e-9 times the sup norm of f.  Full solves above n = 6 sit behind
    allow_large (they factor an n! by n! matrix).
    """
    if basis.n > DEFAULT_SOLVE_N and not allow_large:
        raise ValueError(
            f"full decomposition at n = {basis.n} needs allow_large=True"
        )
    vec = basis.chain_to_vector(f)
    coeffs = scipy.linalg.lu_solve(basis.lu(), vec)
    residual = float(np.max(np.abs(basis.matrix() @ coeffs - vec)))
    bound = RESIDUAL_REL_TOL * float(np.max(np.abs(vec)))
    if residual > bound:
        raise SolverError(
            f"solve residual {residual:.3g} exceeds {bound:.3g}; "
            "the basis matrix may be ill-conditioned"
        )
    return CoefficientVector(
        {key: float(c) for key, c in zip(basis.keys, coeffs)}, basis.n, "full"
    )


def synthesize(c: CoefficientVector, basis: WaveletBasis) -> Chain:
    """The chain with the given wavelet coefficients."""
    vec = np.zeros(len(basis))
    for key, value in c.coeffs.items():
        if key not in basis._index:
            raise KeyError(f"coefficient key {key!r} not in basis")
        vec[basis.index_of(key)] = value
    return basis.vector_to_chain(basis.matrix() @ vec)


def design_keys(design: ObservationDesign) -> list[str]:
    """Coefficient keys observable under a design: id plus every derangement
    of every subset in the design closure, in basis order."""
    keys = ["id"]
    for subset in design.closure():
        keys.extend(str(form) for form in derangement_forms(subset))
    return keys


def _marginal_system(design: ObservationDesign, keys: list[str]) -> tuple[np.ndarray, list[tuple[frozenset, Word]]]:
    rows: list[tuple[frozenset, Word]] = []
    for subset in design:
        rows.extend((subset, w) for w in all_words(subset, design.n))
    mat = np.zeros((len(rows), len(keys)))
    row_pos = {pair: i for i, pair in enumerate(rows)}
    for j, key in enumerate(keys):
        form = CycleForm.parse(key)
        for subset in design:
            col_chain = marginal_wavelet(form, subset, design.n)
            for w, value in col_chain.terms.items():
                mat[row_pos[(subset, w)], j] = value
    return mat, rows


def decompose_marginals(
    fam: MarginalFamily,
    basis: WaveletBasis | None = None,
    projectivity_tol: float = REAL_PROJECTIVITY_TOL,
) -> CoefficientVector:
    """Expand an observed marginal family over the design-observable wavelets.

    The family must be projective at the given tolerance.  The system is
    assembled from closed-form wavelet marginals (never from full-ranking
    vectors) and solved by least squares; a rank-deficient system for a
    valid design is an internal error and raises with diagnostics.
    """
    report = check_projective(fam, projectivity_tol)
    if not report.passed:
        raise ProjectivityError(report)
    design = fam.design
    keys = design_keys(design)
    if basis is not None:
        missing = [key for key in keys if key not in basis._index]
        if missing:
            raise ValueError(f"basis lacks keys {missing}")
    mat, rows = _marginal_system(design, keys)
    rhs = np.zeros(len(rows))
    for i, (subset, w) in enumerate(rows):
        rhs[i] = fam[subset](w)
    coeffs, _, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    if rank < len(keys):
        raise SolverError(
            f"marginal system rank {rank} below dimension {len(keys)} "
            f"for design {[sorted(s) for s in design]}"
        )
    return CoefficientVector(
        {key: float(c) for key, c in zip(keys, coeffs)}, design.n, "design"
    )


def marginal_residual(fam: MarginalFamily, c: CoefficientVector) -> float:
    """Sup-norm misfit between a family and the marginals of a synthesis."""
    worst = 0.0
    for subset in fam:
        predicted = Chain.zero(fam.design.n)
        for key, value in c.coeffs.items():
            predicted = predicted + value * marginal_wavelet(
                CycleForm.parse(key), subset, fam.design.n
            )
        worst = max(worst, float((predicted - fam[subset]).norm_inf()))
    return worst


def dezoom(f: Chain, k: int, basis: WaveletBasis, allow_large: bool = False) -> Chain:
    """Project onto the scale-k approximation space.

    Scale 0 averages; scale k keeps exactly the wavelet components indexed
    by supports of size at most k, which is the unique element of the
    scale-k space sharing all size-k marginals with f.
    """
    if k == 0:
        mean = f.total_mass() / factorial(basis.n)
        ones = Chain.indicator(basis.words, basis.n)
        return ones * mean
    if not 2 <= k <= basis.n:
        raise ValueError(f"scale must be 0 or in 2..{basis.n}, got {k}")
    c = decompose(f, basis, allow_large=allow_large)
    kept = {
        key: value
        for key, value in c.coeffs.items()
        if len(CycleForm.parse(key).support()) <= k
    }
    return synthesize(CoefficientVector(kept, basis.n, "full"), basis)


@dataclass
class DimensionReport:
    """Counts, ranks, and tableau dimension sums for one universe size."""

    n: int
    scale_counts: list[tuple[int, int, int]] = field(default_factory=list)  # k, found, expected
    total_elements: int = 0
    rank: int | None = None
    eig_sums: list[tuple[int, int, int]] = field(default_factory=list)  # k, found, expected
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [f"dimension report for n = {self.n}"]
        out.append("  V0: 1 = 1")
        for k, found, expected in self.scale_counts:
            tag = "ok" if found == expected else "MISMATCH"
            out.append(f"  scale {k}: {found} = {expected} wavelets ({tag})")
        out.append(f"  total: {self.total_elements} = {factorial(self.n)}")
        if self.rank is not None:
            out.append(f"  basis matrix rank: {self.rank} (expect {factorial(self.n)})")
        for k, found, expected in self.eig_sums:
            label = "V0" if k == 0 else f"W{k}"
            tag = "ok" if found == expected else "MISMATCH"
            out.append(f"  tableau dims {label}: {found} = {expected} ({tag})")
        out.append("  " + ("all checks passed" if self.passed else "FAILURES:"))
        out.extend(f"    {msg}" for msg in self.failures)
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def verify_dimensions(n: int, rank_limit: int = DEFAULT_SOLVE_N) -> DimensionReport:
    """Check wavelet counts, basis rank (n <= rank_limit), and tableau sums."""
    if not 2 <= n <= MAX_BASIS_N:
        raise ValueError(f"n must be in 2..{MAX_BASIS_N}, got {n}")
    report = DimensionReport(n=n)
    total = 1
    for k in range(2, n + 1):
        per_subset = len(derangements(range(1, k + 1), n))
        found = per_subset * comb(n, k)
        expected = scale_dimension(n, k)
        report.scale_counts.append((k, found, expected))
        if found != expected:
            report.failures.append(
                f"scale {k}: counted {found} wavelets, expected {expected}"
            )
        total += found
    report.total_elements = total
    if total != factorial(n):
        report.failures.append(f"total {total} differs from {factorial(n)}")

    if n <= rank_limit:
        basis = build_basis(n)
        if len(basis) != factorial(n):
            report.failures.append(
                f"basis has {len(basis)} elements, expected {factorial(n)}"
            )
        report.rank = int(np.linalg.matrix_rank(basis.matrix(), tol=1e-8))
        if report.rank != factorial(n):
            report.failures.append(
                f"basis matrix rank {report.rank} below {factorial(n)}"
            )

    sums = eig_class_dimensions(n)
    for k in [0] + list(range(2, n + 1)):
        expected = 1 if k == 0 else scale_dimension(n, k)
        found = sums.get(n - k, 0)
        report.eig_sums.append((k, found, expected))
        if found != expected:
            report.failures.append(
                f"tableau dimension sum for scale {k}: {found}, expected {expected}"
            )
    if sums.get(n - 1, 0) != 0:
        report.failures.append("tableaux found at the impossible scale 1")
    return report
