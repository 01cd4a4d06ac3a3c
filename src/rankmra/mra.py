"""Full multiresolution machinery: basis assembly, analysis, synthesis.

Full analysis is subset-triangular, from two properties of the wavelets.
By localization, the marginal of psi_tau on a subset A is 0 unless
supp tau lies in A; so once the constant and the supports of fewer than
k items are subtracted, the marginal of what is left on a k-subset A is
(n - k + 1)! X_A c_A, X_A being the +-1 chain matrix of A's derangements.
By translation covariance X_A is X_k, the matrix of 1..k, relabelled.
So any D_k rows of X_k on which it is invertible determine c_A.  The
engine reads the all-left words (wavelets.pivot_rows), one per
derangement form, on which X_k is T_k: ordered by dependency depth, T_k
is lower triangular with +-1 on its diagonal, so every level solves the
coefficients of all C(n, k) subsets of its size at once by substitution,
a depth at a time (76 steps at k = 7, 160 at k = 8), with no Gram matrix
and no factorization.  That T_k is triangular is checked for k <= 8, not
proven (Reiner and Webb's derangement basis of the top homology of the
complex of injective words suggests why), so each level's build checks
it and raises SolverError if it fails; and the residual of every
analysis is checked against the 1e-9 gate.  Analysis and synthesis both
run at n = 8, behind allow_large.  The dense basis matrix is built only
as a test oracle and for `verify`.

One ranking index per (m, k), _level_index, serves the engine, the dense
basis matrix, the design solve and marginal synthesis.  A marginal of
psi_tau is X_k's column of tau (`wavelets.level_matrix`) read at the
ranks of the rankings in which supp tau stands together.

Marginal-domain analysis never assembles its system, nor the full
ranking space.  By localization the system is block-angular: the rows of
a design subset A touch only the forms whose support lies in A, and few
of those are held by another subset too (41 of 1450 columns on a
seven-subset design at n = 8).  By translation covariance A's block is
B_m, the marginal system of {1..m} at n = m (m = |A|), with its columns
relabelled and scaled; so one batched analysis at n = m gives every
m-subset's coefficients as if it stood alone.  By localization, B_m^-1's
row of a form of k items is B_k^-1's row of it relabelled, read at the
ranks on its support, over (m - k + 1)!: the analyses at n = k of the k!
unit vectors (k <= 6) give A's rows on the shared columns, whence a few
rows there (R^-T of a thin QR), solved by an SVD least squares, and one
more analysis the private coefficients.  That is the least-squares
solution of the whole system, and no step forms normal equations: the
system is not well conditioned (about 7e4 on the design above), and
squaring that to about 5e9 would come too close to the 1e-9 agreement the
coefficients are held to.  Only numpy is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, groupby, permutations
from math import comb, factorial, isfinite
from typing import Iterator

import numpy as np

from .marginals import (
    MarginalFamily,
    ObservationDesign,
    _is_int,
    all_words,
    supports_within,
    check_projective,
    ProjectivityReport,
    REAL_PROJECTIVITY_TOL,
)
from .perms import (
    CycleForm,
    derangement_forms,
    derangement_number,
    derangements,
    eig_class_dimensions,
    scale_dimension,
)
from .wavelets import (
    LARGE_N,
    MAX_DENSE_ENTRIES,
    MAX_N,
    _form_column,
    _relabel,
    level_matrix,
    pivot_rows,
    wavelet_chain,
)
from .words import FLOAT_PRUNE_TOL, Chain, Word, _pruned, delete

RESIDUAL_REL_TOL = 1e-9
# what a fresh process pays to import rankmra and build the levels of full
# analysis, from n = LARGE_N on: wall time and peak RSS, measured on a
# 2-core x86-64 VM (Python 3.11, numpy 2.4), five runs each: 0.39-0.54 s
# and 43 MB at n = 7, 1.6-2.2 s and 168 MB at n = 8
ANALYSIS_COST = {7: "0.5 s and 43 MB", 8: "2.2 s and 168 MB"}


class ProjectivityError(ValueError):
    """Raised when analysis is attempted on a non-projective family."""

    def __init__(self, report: ProjectivityReport):
        super().__init__(str(report))
        self.report = report


class SolverError(RuntimeError):
    """Raised when a linear solve leaves an unexplained residual."""


@lru_cache(maxsize=1 << 16)
def _parse_key(key: str) -> CycleForm:
    """The cycle form of a coefficient key, parsed once per key."""
    return CycleForm.parse(key)


def _form_sort_key(form: CycleForm, key: str) -> tuple:
    """Order coefficient keys by (support size, support, cycle-form string)."""
    support = form.support()
    return (len(support), tuple(sorted(support)), key)


def basis_forms(n: int) -> Iterator[CycleForm]:
    """Cycle forms of the non-identity basis wavelets, in basis order."""
    for subset in ObservationDesign([range(1, n + 1)], n).closure():
        yield from derangement_forms(subset)


def basis_keys(n: int) -> list[str]:
    """Cycle-form keys of the full wavelet basis, in basis order."""
    return ["id"] + [str(form) for form in basis_forms(n)]


class WaveletBasis:
    """All n! wavelet functions of L(S_n), in deterministic order."""

    def __init__(self, n: int, forms: list[CycleForm]):
        self.n = n
        self.forms = forms
        self.keys = [str(form) for form in forms]
        self._index = {key: i for i, key in enumerate(self.keys)}
        self.scales = np.array([form.length() for form in forms])  # support sizes
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.forms)

    @cached_property
    def words(self) -> list[Word]:
        """Full rankings in lexicographic order (the row index of matrices)."""
        return all_words(range(1, self.n + 1), self.n)

    @cached_property
    def _row(self) -> dict[tuple[int, ...], int]:
        return {w.letters: i for i, w in enumerate(self.words)}

    def chain_to_vector(self, f: Chain) -> np.ndarray:
        if f.n != self.n:
            raise ValueError(f"f is a chain for n = {f.n}, the basis for n = {self.n}")
        rows = [self._row.get(w.letters, -1) for w in f.terms]
        if -1 in rows:
            w = list(f.terms)[rows.index(-1)]
            raise ValueError(f"word {w} is not a full ranking of 1..{self.n}")
        vec = np.zeros(len(self.words))
        vec[rows] = list(f.terms.values())
        return vec

    def vector_to_chain(self, vec: np.ndarray) -> Chain:
        """The chain of a float vector on the lexicographic full rankings,
        pruned and refused as Chain() would, in row order."""
        vec = np.asarray(vec, dtype=float)
        bad = np.flatnonzero(~np.isfinite(vec))
        if len(bad):
            raise ValueError(
                f"coefficient of {self.words[bad[0]]} is not finite: {float(vec[bad[0]])!r}"
            )
        rows = np.flatnonzero(np.abs(vec) > FLOAT_PRUNE_TOL)
        words = self.words
        return Chain._make(
            {words[i]: v for i, v in zip(rows.tolist(), vec[rows].tolist())}, self.n
        )

    def matrix(self) -> np.ndarray:
        """Columns are the wavelet functions over lexicographic full rankings:
        the marginal system of the one-subset design {1..n}."""
        if self._matrix is None:
            if len(self) ** 2 > MAX_DENSE_ENTRIES:
                raise ValueError(f"the basis matrix has {len(self)} rows and at least {len(self)} columns, "
                                 f"more than the {MAX_DENSE_ENTRIES} entries it has at n = {LARGE_N}")
            self._matrix = _marginal_system(ObservationDesign([range(1, self.n + 1)], self.n), self.forms)
        return self._matrix

    @cached_property
    def levels(self) -> list[_Level]:
        """The subset-triangular engine: one _Level per support size
        k = 2..n, each with its span, and no pivot tables until a solve
        asks."""
        levels, start = [_Level(self.n, k) for k in range(2, self.n + 1)], 1
        for level in levels:
            level.span = slice(start, start + level.forms * level.subsets)
            start = level.span.stop
        return levels

    def lu(self) -> WaveletBasis:
        """Build now what full analysis reads: every level's pivot tables
        (the name is older than the engine).  It never builds matrix()."""
        for level in self.levels:
            level._pivots
        return self


def build_basis(n: int) -> WaveletBasis:
    """The wavelet basis of L(S_n) (2 <= n <= MAX_N); nothing is expanded
    until it is used."""
    if not 2 <= n <= MAX_N:
        raise ValueError(f"n must be in 2..{MAX_N}, got {n}")
    return WaveletBasis(n, [CycleForm(())] + list(basis_forms(n)))


@dataclass
class CoefficientVector:
    """Expansion coefficients keyed by standard-cycle-form strings.

    Every key and value is validated on construction.  _make skips that
    for coefficients the library itself solved: decompose calls it with
    the basis keys and the floats its residual gate has passed, and
    decompose_marginals with the design keys, finite floats and the cycle
    form of each key, so that sorting and marginal synthesis parse none.
    """

    coeffs: dict[str, float]
    n: int
    scope: str = "full"  # "full" or "design"

    def __post_init__(self):
        for key, value in self.coeffs.items():
            support = _parse_key(key).support()  # validates the key
            if support and not (min(support) >= 1 and max(support) <= self.n):
                raise ValueError(
                    f"coefficient key {key!r} has support outside 1..{self.n}"
                )
            if not isfinite(value):
                raise ValueError(f"coefficient {key!r} is not finite: {value!r}")
        if self.scope not in ("full", "design"):
            raise ValueError(f"unknown scope {self.scope!r}")

    _forms = None  # key -> CycleForm, when _make was given them

    @classmethod
    def _make(
        cls, coeffs: dict[str, float], n: int, scope: str, forms: dict[str, CycleForm] | None = None
    ) -> "CoefficientVector":
        """Trusted constructor: keys are basis keys, values finite floats,
        and forms, if given, maps keys to their cycle forms."""
        c = object.__new__(cls)
        c.coeffs, c.n, c.scope, c._forms = coeffs, n, scope, forms
        return c

    def _form(self, key: str) -> CycleForm:
        """The cycle form of a key: the one given to _make, else parsed."""
        form = None if self._forms is None else self._forms.get(key)
        return _parse_key(key) if form is None else form

    def get(self, key: str) -> float:
        return self.coeffs.get(key, 0.0)

    def sorted_items(self) -> list[tuple[str, float]]:
        return sorted(self.coeffs.items(), key=lambda kv: _form_sort_key(self._form(kv[0]), kv[0]))

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
        """Keys must be standard cycle forms as text and values JSON numbers;
        anything else raises ValueError rather than being coerced."""
        coeffs = {}
        seen = set()
        for entry in payload["coefficients"]:
            key, value = entry["tau"], entry["value"]
            if not isinstance(key, str):
                raise ValueError(f"coefficient key {key!r} is not a string")
            form = _parse_key(key)
            if form in seen:
                raise ValueError(f"duplicate coefficient key {key!r}")
            seen.add(form)
            if str(form) != key:
                raise ValueError(
                    f"coefficient key {key!r} is not in standard cycle form; "
                    f"write {str(form)!r}"
                )
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"coefficient {key!r} is not a number: {value!r}")
            try:
                coeffs[key] = float(value)
            except OverflowError:
                raise ValueError(f"coefficient {key!r} is not finite") from None
        n = payload["n"]
        if not _is_int(n):
            raise ValueError(f"coefficient n {n!r} is not an integer")
        return cls(coeffs, n, payload.get("scope", "full"))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CoefficientVector":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _placements(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the k-subsets of 1..m stand in its rankings, subsets in
    combinations order and rankings in lexicographic order.  rank[s, a]
    (uint16, as k! <= 8! < 2**16): the lexicographic rank, among the k!
    words of its letters, of ranking s restricted to subset a.
    contiguous[s, a]: subset a stands together in ranking s."""
    # place[i, s, a]: where the i-th smallest letter of subset a stands in
    # ranking s.  rank adds, letter by letter, (smaller letters after it)
    # * (letters after it)!, counted pair by pair, so that temporaries
    # stay (rankings x subsets)-sized uint8 and uint16: every term is
    # below k!
    positions = np.argsort(np.array(list(permutations(range(m)))), axis=1).astype(np.int8)
    place = np.ascontiguousarray(np.moveaxis(positions[:, np.array(list(combinations(range(m), k)))], -1, 0))
    fact = np.array([factorial(i) for i in range(k)], dtype=np.uint16)
    rank = np.zeros(place.shape[1:], dtype=np.uint16)
    for i in range(k):
        smaller, after = np.zeros((2, *rank.shape), dtype=np.uint8)
        for j in range(k):
            if j != i:
                later = place[j] > place[i]
                after += later
                if j < i:
                    smaller += later
        rank += smaller * fact[after]
    return rank, place.max(axis=0) - place.min(axis=0) == k - 1


@lru_cache(maxsize=None)
def _level_index(m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[tuple[int, ...], int]]:
    """_placements(m, k), once per process, read-only: (rank, ranking,
    restricted, subset).  ranking[a]: the rankings in which subset a
    stands together, the only places where its wavelets are nonzero, and
    restricted[a] their ranks on a; a row each, as every k-subset stands
    together in (m - k + 1)! k! rankings.  subset: each k-subset -> a."""
    rank, contiguous = _placements(m, k)
    held, ranking = np.nonzero(contiguous.T)  # subset-major
    rows = rank.shape[1], -1
    table = rank, ranking.reshape(rows), rank[ranking, held].reshape(rows)
    for a in table:  # shared by every reader in the process
        a.flags.writeable = False
    return *table, {s: a for a, s in enumerate(combinations(range(m), k))}


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenation of arange(a, b) over the pairs of starts, stops,
    and where each range begins in it."""
    counts = stops - starts
    begins = np.cumsum(counts) - counts
    return np.repeat(starts - begins, counts) + np.arange(counts.sum()), begins


@lru_cache(maxsize=None)
def _pivot_plan(k: int) -> tuple[np.ndarray, list[tuple]]:
    """T_k, X_k on its pivot rows (wavelets.pivot_rows), as substitution
    steps: (rows, steps).  Each step solves the forms at one dependency
    depth, as (forms, diagonal, columns, signs, starts): form i of forms
    reads the off-diagonal entries starts[i]:starts[i + 1] of T_k's row,
    at columns (solved at a smaller depth) with signs, and its diagonal
    entry.  The steps order T_k lower triangular; that is checked, not
    proven, so distinct pivot rows, a +-1 diagonal and a dependency order
    that reaches every column are checked here, and SolverError raised
    if one fails.  Built once per process; depth 76 at k = 7, 160 at 8."""
    column, indptr, x_rows, x_signs = level_matrix(k)
    size, rows = len(column), pivot_rows(k)
    if len(np.unique(rows)) != size:
        raise SolverError(f"the all-left words of the {size} derangements of 1..{k} are not distinct")
    form_of_row = np.full(factorial(k), -1)
    form_of_row[rows] = np.arange(size)
    i = form_of_row[x_rows]  # T_k's row of each entry of X_k, or -1
    j = np.repeat(np.arange(size), np.diff(indptr))
    on = i >= 0
    i, j, signs = i[on], j[on], x_signs[on].astype(float)
    on = i == j
    diagonal = np.zeros(size)
    diagonal[i[on]] = signs[on]
    if not (np.abs(diagonal) == 1).all():
        raise SolverError(f"T_{k}, X_{k} on its pivot rows, has a diagonal entry other than +-1")
    i, j, signs = i[~on], j[~on], signs[~on]
    # Kahn's order, a depth at a time: a form is solved once every column
    # its row reads off the diagonal is
    pending = np.bincount(i, minlength=size)
    by_column = np.argsort(j, kind="stable")
    readers, column_start = i[by_column], np.searchsorted(j[by_column], np.arange(size + 1))
    by_row = np.argsort(i, kind="stable")
    j, signs, row_start = j[by_row], signs[by_row], np.searchsorted(i[by_row], np.arange(size + 1))
    steps, solved = [], 0
    forms = np.flatnonzero(pending == 0)
    while len(forms):
        entries, starts = _ranges(row_start[forms], row_start[forms + 1])
        steps.append((forms, diagonal[forms, None], j[entries], signs[entries, None], starts))
        solved += len(forms)
        hit = readers[_ranges(column_start[forms], column_start[forms + 1])[0]]
        pending -= np.bincount(hit, minlength=size)
        forms = np.unique(hit[pending[hit] == 0])
    if solved != size:
        raise SolverError(f"T_{k} is not triangular: a dependency order reaches {solved} of its {size} columns")
    return rows, steps


class _Level:
    """The wavelets whose support has k items, for every k-subset at once,
    and for a batch of functions on leading axes, each bit for bit as alone.

    X_k is read from level_matrix(k) alone, a column per form of
    derangement_forms(1..k); forms counts them.  ranking, slot: from
    _level_index(n, k), the rankings in which subset a stands together,
    and a * k! plus their rank on a (int32).  span: the
    level's coefficients in basis order, subset by subset, set by
    WaveletBasis.levels.  Synthesis reads these; solve also reads _pivots.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k, self.scale = n, k, factorial(n - k + 1)
        self.forms = len(level_matrix(k)[0])
        rank, ranking, restricted, _ = _level_index(n, k)
        self.size, self.subsets = rank.shape
        self.ranking = ranking.ravel()
        self.slot = (restricted + np.arange(self.subsets, dtype=np.int32)[:, None] * factorial(k)).ravel()

    @cached_property
    def _pivots(self) -> tuple[np.ndarray, list[tuple]]:
        """gather, steps.  gather[a, i] lists the n!/k! full rankings
        (int32) whose rank on subset a is form i's pivot row: their sum is
        subset a's marginal there.  steps are _pivot_plan(k)'s."""
        rank = _level_index(self.n, self.k)[0]
        rows, steps = _pivot_plan(self.k)
        by_rank = np.argsort(rank.T, axis=1, kind="stable").reshape(self.subsets, factorial(self.k), -1)
        return by_rank[:, rows].astype(np.int32), steps

    def solve(self, rest: np.ndarray) -> np.ndarray:
        """Coefficients (forms x subsets) whose marginals on the k-subsets
        are those of rest, from the marginals on the pivot rows alone:
        c = T_k^-1 m[pivots] / scale, by substitution a depth at a time.
        Each marginal's mean, that of rest times n!/k!, is subtracted
        first: span X_k is orthogonal to the constant, so this takes off
        round-off only, and a constant rest solves to exact zeros."""
        gather, steps = self._pivots
        sums = np.take(rest, gather, axis=-1).sum(axis=-1)  # contiguous: the same bits in any batch
        marginals = sums.reshape(-1, self.forms).T  # a column per subset of each batch member
        marginals -= np.repeat(_mean(rest) * (rest.shape[-1] // factorial(self.k)), self.subsets)
        marginals /= self.scale
        block = np.empty_like(marginals)
        for forms, diagonal, columns, signs, starts in steps:
            rhs = marginals[forms]
            if len(columns):
                rhs -= np.add.reduceat(signs * block[columns], starts, axis=0)
            block[forms] = diagonal * rhs
        return np.moveaxis(block.reshape(self.forms, *rest.shape[:-1], self.subsets), 0, -2)

    def synthesize(self, block: np.ndarray) -> np.ndarray:
        """The function on the full rankings of the coefficients in block.
        X_k block, subset by subset, straight from level_matrix(k): each
        entry, weighted by its form's coefficient, is summed into its row
        in X_k's column order, the order a CSR product sums it in; each
        batch member into rows of its own."""
        _, indptr, rows, signs = level_matrix(self.k)
        weights = np.repeat(np.swapaxes(block, -1, -2), np.diff(indptr), axis=-1)
        weights *= signs
        subsets = weights.size // len(rows)  # over the whole batch
        if subsets > 1:
            rows = rows + np.arange(subsets).reshape(*weights.shape[:-1], 1) * factorial(self.k)
        values = np.bincount(rows.ravel(), weights=weights.ravel(), minlength=subsets * factorial(self.k))
        values = np.take(values.reshape(-1, self.subsets * factorial(self.k)), self.slot, axis=-1)
        ranking = (self.ranking + np.arange(len(values))[:, None] * self.size).ravel()
        values = np.bincount(ranking, weights=values.ravel(), minlength=len(values) * self.size)
        return values.reshape(*block.shape[:-2], self.size)


def _mean(vec: np.ndarray) -> np.ndarray:
    """The mean of vec's last axis.  Where the sum of a finite vec overflows,
    the mean of vec scaled by a power of two past sup|vec|, which is exact."""
    with np.errstate(over="ignore"):
        total = vec.sum(axis=-1)
    if np.isinf(total).any() and np.isfinite(vec).all():
        _, exponent = np.frexp(np.abs(vec).max(axis=-1, keepdims=True))
        return np.ldexp(np.ldexp(vec, -exponent).sum(axis=-1) / vec.shape[-1], exponent[..., 0])
    return total / vec.shape[-1]


def _analysis(vec: np.ndarray, basis: WaveletBasis) -> np.ndarray:
    """The coefficients in basis order of vec, or of each function of a batch
    on leading axes: the mean, then each level, subtracted as it is solved.
    What they leave of one past 1e-9 times its sup norm raises SolverError.
    Batches of 2^16 values bound the level temporaries (720 unit vectors at
    n = 6: 18 MB, 90 MB in one batch, about 0.25 s either way)."""
    if vec.ndim > 1 and vec.size > 2**16:
        per = max(1, 2**16 * len(vec) // vec.size)
        return np.concatenate([_analysis(vec[i : i + per], basis) for i in range(0, len(vec), per)])
    basis.lu()
    coeffs = np.empty(vec.shape)
    coeffs[..., 0] = _mean(vec)
    rest = vec - coeffs[..., :1]
    for level in basis.levels:
        block = level.solve(rest)
        coeffs[..., level.span] = np.swapaxes(block, -1, -2).reshape(*vec.shape[:-1], -1)
        rest -= level.synthesize(block)
    residual = np.max(np.abs(rest), axis=-1, keepdims=True)
    bound = RESIDUAL_REL_TOL * np.max(np.abs(vec), axis=-1, keepdims=True)
    if (failed := ~(residual <= bound)).any():
        residual, bound = residual[failed][0], bound[failed][0]
        cause = "a level block may be ill-conditioned"
        if not np.isfinite(residual):
            cause = "a level left non-finite values, as when f is too large for the level solves"
        raise SolverError(f"solve residual {residual:.3g} exceeds {bound:.3g}; {cause}")
    return coeffs


def _analyze(f: Chain, basis: WaveletBasis, allow_large: bool) -> np.ndarray:
    """The coefficients of f in basis order, as decompose solves for them."""
    if basis.n >= LARGE_N and not allow_large:
        raise ValueError(
            f"full decomposition at n = {basis.n} needs allow_large=True: a process "
            f"that builds its levels takes about {ANALYSIS_COST[basis.n]} of peak RSS"
        )
    return _analysis(basis.chain_to_vector(f), basis)


def _evaluate(coeffs: np.ndarray, basis: WaveletBasis) -> Chain:
    """The chain with the given coefficients in basis order."""
    values = np.full(len(basis), coeffs[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for level in basis.levels:
            block = coeffs[level.span].reshape(level.subsets, level.forms).T
            if block.any():  # dezoom zeroes the levels above its scale
                values += level.synthesize(block)
    if not np.isfinite(values).all():
        raise ValueError("the coefficients synthesize to values beyond the float range")
    return basis.vector_to_chain(values)


def decompose(f: Chain, basis: WaveletBasis, allow_large: bool = False) -> CoefficientVector:
    """Solve for the unique expansion of f in the wavelet basis.

    Subset-triangular: the constant is the mean of f; then, support size
    by support size, the marginals of what is left on every k-subset are
    read on X_k's pivot rows and solved by substitution in T_k (see the
    module docstring), and that level's contribution is subtracted, the
    top level's too.  What the levels leave of f must not exceed 1e-9
    times the sup norm of f.  Full solves from n = LARGE_N on sit behind
    allow_large, which names their cost (ANALYSIS_COST).
    """
    coeffs = _analyze(f, basis, allow_large)
    # the residual gate has refused a non-finite coefficient: it would make
    # what the levels leave of f non-finite too
    return CoefficientVector._make(dict(zip(basis.keys, coeffs.tolist())), basis.n, "full")


def synthesize(c: CoefficientVector, basis: WaveletBasis) -> Chain:
    """The chain with the given wavelet coefficients; no pivot table is
    built."""
    if c.n != basis.n:
        raise ValueError(f"coefficients are for n = {c.n}, the basis for n = {basis.n}")
    rows = [basis._index.get(key, -1) for key in c.coeffs]
    if -1 in rows:
        key = list(c.coeffs)[rows.index(-1)]
        raise KeyError(f"coefficient key {key!r} not in basis")
    vec = np.zeros(len(basis))
    vec[rows] = list(c.coeffs.values())
    return _evaluate(vec, basis)


def design_forms(design: ObservationDesign) -> list[CycleForm]:
    """Cycle forms observable under a design: the identity plus every
    derangement of every subset in the design closure, in basis order."""
    forms = [CycleForm(())]
    for subset in design.closure():
        forms.extend(derangement_forms(subset))
    return forms


def design_keys(design: ObservationDesign) -> list[str]:
    """Coefficient keys of design_forms."""
    return [str(form) for form in design_forms(design)]


def check_marginal_system(design: ObservationDesign) -> tuple[int, int]:
    """The rows and columns of _solve_design's reduced system on the shared
    columns of a design, counted before any level is built.

    A subset of m items is solved by the levels of n = m, so one of more
    than LARGE_N items is refused, from the subset sizes alone and first,
    as listing a subset's closure takes 2^m steps.  Each support S held
    by h > 1 subsets brings D_|S| shared columns and h * D_|S| reduced
    rows (D_k derangements of k items, D_0 = 1 for the identity), and the
    right-hand side one more column; a count over MAX_DENSE_ENTRIES raises
    ValueError, as does a scale that overflows a float (check_scale).
    """
    check_scale(min(design, key=len), design.n)
    if len(largest := max(design, key=len)) > LARGE_N:
        raise ValueError(f"design subset {sorted(largest)} has {len(largest)} items ({factorial(len(largest))} rows); "
                         f"subsets of more than {LARGE_N} items need the levels of n = {LARGE_N + 1} or more, "
                         f"about {ANALYSIS_COST[LARGE_N + 1]} of peak RSS, and are refused")
    shared = [(len(s), len(held)) for s, held in design.holders().items() if len(held) > 1]
    rows = sum(held * derangement_number(k) for k, held in shared)
    cols = 1 + sum(derangement_number(k) for k, _ in shared)
    if rows * cols > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"the reduced system on the columns that design subsets share has {rows} rows "
            f"and {cols} columns, more than the {MAX_DENSE_ENTRIES} entries of the dense "
            f"basis matrix at n = {LARGE_N}"
        )
    return rows, cols


def check_scale(items: frozenset[int], n: int) -> None:
    """Refuse a subset whose marginal scale n!/|A|! does not fit in a float.

    That scale, the marginal of the constant wavelet, is the largest a
    wavelet has on the subset.  Coefficients keep their convention (they
    scale as 1/n!), so such an n is refused, not rescaled.
    """
    try:
        float(factorial(n) // factorial(len(items)))
    except OverflowError:
        raise ValueError(
            f"n = {n} is too large for subset {sorted(items)}: its marginal "
            f"scale {n}!/{len(items)}! does not fit in a float"
        ) from None


def check_listable(items: frozenset[int]) -> None:
    """Refuse a subset of more than MAX_N items before its rankings are listed."""
    if len(items) > MAX_N:
        raise ValueError(
            f"subset {sorted(items)} has {len(items)} items; rankings are "
            f"listed for at most {MAX_N}"
        )


@lru_cache(maxsize=None)
def _marginal_scale(n: int, m: int, k: int) -> int:
    """The integer scale of a wavelet's marginal on an m-subset holding its
    support of k items (k = 0 for the identity): n!/m!, or (n - k + 1)!
    over (m - k + 1)!."""
    if k == 0:
        return factorial(n) // factorial(m)
    return factorial(n - k + 1) // factorial(m - k + 1)


def _placement(support: frozenset[int], items: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
    """The rankings of items (lexicographic rows) in which support, of two
    or more of them, stands together, and the rank of support's order
    there among its own rankings: what the marginal of every wavelet on
    support reads."""
    letters = tuple(i for i, b in enumerate(sorted(items)) if b in support)
    _, ranking, restricted, subset = _level_index(len(items), len(support))
    return ranking[subset[letters]], restricted[subset[letters]]


def _marginal_terms(form: CycleForm, items: frozenset[int], n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The closed-form marginal of psi_form on the rankings of items, which
    hold its support, as marginal_wavelet gives it: rows (lexicographic),
    their signs, and the integer scale of them all.  Other than the
    constant, the rows are those where the support stands together."""
    m = len(items)
    scale = _marginal_scale(n, m, form.length())
    if not form.cycles:
        rows = np.arange(factorial(m))
        return rows, np.ones_like(rows), scale
    placed, ranks = _placement(form.support(), items)
    rows, signs = _form_column(form)
    x = np.zeros(factorial(form.length()), dtype=np.int32)
    x[rows] = signs
    sign = x[ranks]
    return placed[sign != 0], sign[sign != 0], scale


def synthesize_marginals(c: CoefficientVector, subsets) -> dict[frozenset[int], Chain]:
    """Marginals on each subset of the function with coefficients c.

    Sums the closed-form wavelet marginals key by key in coefficient order,
    with Chain's pruning rule, so each result equals the Chain sum of
    value * marginal_wavelet(key, subset) over the coefficients: a dense
    running total per ranking, reset to 0 whenever it prunes.  Float
    coefficients sum in a float array, any other (a Python int) exactly,
    as the Chain sum does.  The coefficients are grouped by support once;
    each subset visits only the supports within it (a wavelet's marginal
    elsewhere is 0) and places each of them once.  Every subset is
    checked, and one of more than MAX_N items or whose scale does not fit
    in a float refused, before any ranking is listed.
    """
    subsets = [frozenset(subset) for subset in subsets]
    for items in subsets:
        if len(items) < 2 or not all(1 <= a <= c.n for a in items):
            raise ValueError(
                f"marginals are taken on subsets of size >= 2 within 1..{c.n}, "
                f"not {sorted(items)}"
            )
        check_listable(items)
        check_scale(items, c.n)
    forms, values = [c._form(key) for key in c.coeffs], list(c.coeffs.values())
    dtype = float if all(isinstance(value, float) for value in values) else object
    supports = [form.support() for form in forms]
    by_support: dict[frozenset[int], list[int]] = {}
    for i, support in enumerate(supports):
        by_support.setdefault(support, []).append(i)
    columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # each form's column of X_k
    out = {}
    for items in subsets:
        acc = np.zeros(factorial(len(items)), dtype)
        by_rank = {}  # each support's rankings where it stands together, by its rank there
        # the coefficients whose support lies in items, in coefficient order
        for i in sorted(i for s in supports_within(items) for i in by_support.get(s, ())):
            support = supports[i]
            term = _marginal_scale(c.n, len(items), len(support)) * values[i]
            if not _pruned(term):  # its terms are +-term, so they prune together
                continue
            if support:
                if support not in by_rank:
                    placed, ranks = _placement(support, items)
                    by_rank[support] = placed[np.argsort(ranks)].reshape(factorial(len(support)), -1)
                if i not in columns:
                    columns[i] = _form_column(forms[i])
                ranks, signs = columns[i]
                rows = by_rank[support][ranks]
                signs = np.repeat(signs.astype(dtype), rows.shape[1])
                rows = rows.ravel()
            else:
                rows, signs = slice(None), 1
            total = acc[rows] + signs * term
            acc[rows] = np.where(np.abs(total) > FLOAT_PRUNE_TOL, total, 0)
        words, kept = all_words(items, c.n), np.flatnonzero(acc)
        out[items] = Chain._make(
            {words[row]: v for row, v in zip(kept.tolist(), acc[kept].tolist())}, c.n
        )
    return out


def _marginal_system(design: ObservationDesign, forms: list[CycleForm]) -> np.ndarray:
    """The matrix of closed-form wavelet marginals: one column per form,
    one row per ranking of each design subset, subsets in design order."""
    mat = np.zeros((sum(factorial(len(items)) for items in design), len(forms)))
    for j, form in enumerate(forms):
        support, offset = form.support(), 0
        for items in design:
            if support <= items:
                rows, signs, scale = _marginal_terms(form, items, design.n)
                mat[offset + rows, j] = signs * float(scale)
            offset += factorial(len(items))
    return mat


def _inverse_rows(forms: list[CycleForm], items: frozenset[int], tops: dict[int, np.ndarray]) -> np.ndarray:
    """The rows of B_m^-1 (m = |items|) of forms held by items: by
    localization, tops[k]'s row (B_k^-1 on X_k's forms) of the form
    relabelled onto 1..k, read at the ranks on its support, over (m - k + 1)!."""
    m, letters = len(items), sorted(items)
    rows = np.full((len(forms), factorial(m)), 1 / factorial(m))  # the identity's row
    for i, form in enumerate(forms):
        if form.cycles:
            support = form.support()
            rank, _, _, subset = _level_index(m, len(support))
            top = tops[len(support)][level_matrix(len(support))[0][_relabel(form, support)]]
            at = subset[tuple(x for x, b in enumerate(letters) if b in support)]
            rows[i] = top[rank[:, at]] / factorial(m - len(support) + 1)
    return rows


def _solve_design(design: ObservationDesign, forms: list[CycleForm], rhs: np.ndarray) -> np.ndarray:
    """The least-squares solution of _marginal_system(design, forms) against
    rhs (rows in design order), solved a subset size at a time by the
    levels of n = m, with no block assembled and no inverse of one formed.

    Design subset A (m items) has the block M_A = B_m[:, at] D: at maps A's
    forms, relabelled onto 1..m by cycle form, to the columns of B_m, and D
    holds their marginal scales.  So M_A^-1 is D^-1 times the rows at of
    B_m^-1, and D z_A, A's coefficients as if it stood alone, is the
    analysis of b_A.  With the columns A shares with another subset at s,
    A's least misfit is |R^-T (s - z_S)|, where W_S^T = QR and W_S, M_A^-1's
    rows there, is read from the top-level rows of B_k^-1 (_inverse_rows);
    A's private coefficients that reach it are D_P^-1 times the analysis
    of b_A - Q R^-T (D_S z_S - D_S s).  The stacked rows R^-T (s - z_S) are
    solved by SVD least squares, whose cutoff is eps * max(shape) of the
    whole system, relative to their largest singular value.  The rank is
    the number of private columns plus the reduced rank, and a rank below
    the number of forms raises SolverError.
    """
    cond = np.finfo(float).eps * max(len(rhs), len(forms))
    supports = [form.support() for form in forms]
    holders = design.holders()
    columns: dict[frozenset[int], list[int]] = {items: [] for items in design}  # basis order
    for j, support in enumerate(supports):
        for a in holders[support]:
            columns[design.subsets[a]].append(j)
    shared = [j for j, support in enumerate(supports) if len(holders[support]) > 1]
    reduced_column = {j: i for i, j in enumerate(shared)}
    sizes = {len(supports[j]) for j in shared} - {0}
    bases = {m: build_basis(m) for m in sizes | {len(items) for items in design}}
    tops = {k: _analysis(np.eye(factorial(k)), bases[k])[:, bases[k].levels[-1].span].T for k in sizes}
    rank, reduced, solved, offset = 0, [], [], 0
    for m, group in groupby(design, key=len):  # the design is in size order
        group, basis = list(group), bases[m]
        b = rhs[offset : offset + len(group) * factorial(m)].reshape(len(group), -1).copy()
        offset += b.size
        position = {form.cycles: j for j, form in enumerate(basis.forms)}
        parts = []
        for items, z in zip(group, _analysis(b, basis)):
            private = [j for j in columns[items] if j not in reduced_column]
            mine = [j for j in columns[items] if j in reduced_column]
            at = np.array([position[_relabel(forms[j], items)] for j in private + mine])
            scale = np.array([float(_marginal_scale(design.n, m, len(supports[j]))) for j in private + mine])
            p, z = len(private), z[at]
            rank += p
            # W_S^T is Q R times D_S^-1, so A's reduced rows are R^-T (D_S s
            # - D_S z_S); with no shared column, Q and R are empty
            q, r = np.linalg.qr(_inverse_rows([forms[j] for j in mine], items, tops).T)
            rows = np.linalg.inv(r).T
            part = np.zeros((len(mine), len(shared) + 1))  # last column: right-hand side
            part[:, [reduced_column[j] for j in mine] + [-1]] = np.column_stack((rows * scale[p:], rows @ z[p:]))
            reduced.append(part)
            parts.append((private, at[:p], scale[:p], mine, q, rows, z[p:], scale[p:]))
        solved.append((basis, b, parts))
    coeffs = np.empty(len(forms))
    if shared:
        stacked = np.vstack(reduced)
        coeffs[shared], _, reduced_rank, _ = np.linalg.lstsq(stacked[:, :-1], stacked[:, -1], rcond=cond)
        rank += int(reduced_rank)
    if rank < len(forms):
        raise SolverError(
            f"marginal system rank {rank} below dimension {len(forms)} "
            f"for design {[sorted(s) for s in design]}"
        )
    for basis, b, parts in solved:
        for row, (*_, mine, q, rows, z, scale) in zip(b, parts):
            row -= q @ (rows @ (z - scale * coeffs[mine]))
        for z, (private, at, scale, *_) in zip(_analysis(b, basis), parts):
            coeffs[private] = z[at] / scale
    return coeffs


def decompose_marginals(
    fam: MarginalFamily, projectivity_tol: float = REAL_PROJECTIVITY_TOL
) -> CoefficientVector:
    """Expand an observed marginal family over the design-observable wavelets.

    What the solve holds is sized first (check_marginal_system), and the
    family must be projective at the given tolerance.  The system is never
    assembled: the levels of n = m analyse all m-subsets' blocks at once,
    the few rows left on the columns that subsets share, read through the
    small inverses' rows by localization, are solved by SVD least squares,
    and one more analysis gives the private coefficients (_solve_design).
    No step squares the system's condition number (about 7e4 on the bench
    design at n = 8), so the error stays near cond * eps.  A rank-deficient
    system for a valid design raises SolverError with the rank and design.
    """
    check_marginal_system(fam.design)
    report = check_projective(fam, projectivity_tol)
    if not report.passed:
        raise ProjectivityError(report)
    return _decompose_checked(fam)


def _decompose_checked(fam: MarginalFamily) -> CoefficientVector:
    """decompose_marginals once its caller has sized the system and checked
    the family's projectivity."""
    design = fam.design
    forms = design_forms(design)
    rhs = []
    for items in design:  # each subset's rankings in lexicographic order
        observed = {w.letters: value for w, value in fam[items].terms.items()}
        rhs.extend(observed.get(p, 0.0) for p in permutations(sorted(items)))
    coeffs = _solve_design(design, forms, np.array(rhs, dtype=float))
    if not np.isfinite(coeffs).all():
        raise SolverError(f"the marginal system of design {[sorted(s) for s in design]} "
                          "solves to a coefficient that is not finite")
    keys = [str(form) for form in forms]
    return CoefficientVector._make(
        dict(zip(keys, coeffs.tolist())), design.n, "design", dict(zip(keys, forms))
    )


def marginal_residual(fam: MarginalFamily, c: CoefficientVector) -> float:
    """Sup-norm misfit between a family and the marginals of a synthesis.

    The predicted marginals come from synthesize_marginals, not from the
    solved system, so an assembly fault shows here.
    """
    predicted = synthesize_marginals(c, fam)
    return max(
        (float((predicted[s] - fam[s]).norm_inf()) for s in fam), default=0.0
    )


def dezoom(f: Chain, k: int, basis: WaveletBasis, allow_large: bool = False) -> Chain:
    """Project onto the scale-k approximation space.

    Scale 0 averages; scale k keeps exactly the wavelet components indexed
    by supports of size at most k, which is the unique element of the
    scale-k space sharing all size-k marginals with f.
    """
    if f.n != basis.n:
        raise ValueError(f"f is a chain for n = {f.n}, the basis for n = {basis.n}")
    if k == 0:
        mean = f.total_mass() / factorial(basis.n)
        ones = Chain.indicator(basis.words, basis.n)
        return ones * mean
    if not 2 <= k <= basis.n:
        raise ValueError(f"scale must be 0 or in 2..{basis.n}, got {k}")
    coeffs = _analyze(f, basis, allow_large)
    coeffs[basis.scales > k] = 0
    return _evaluate(coeffs, basis)


@dataclass
class DimensionReport:
    """Counts, ranks, and tableau dimension sums for one universe size."""

    n: int
    scale_counts: list[tuple[int, int, int]] = field(default_factory=list)  # k, found, expected
    total_elements: int = 0
    rank: int | None = None
    eig_sums: list[tuple[int, int, int]] = field(default_factory=list)  # k, found, expected
    failures: list[str] = field(default_factory=list)
    invariants: list[tuple[str, int]] = field(default_factory=list)  # name, wavelets failing

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
        for name, bad in self.invariants:
            out.append(f"  invariant {name}: " + ("PASS" if bad == 0 else f"FAIL ({bad} wavelets)"))
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def verify_dimensions(n: int) -> DimensionReport:
    """Check wavelet counts, tableau sums and, for n < LARGE_N, the basis
    rank and three invariants of the wavelets, in one report."""
    if not 2 <= n <= MAX_N:
        raise ValueError(f"n must be in 2..{MAX_N}, got {n}")
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

    if n < LARGE_N:
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
        checks = {"deletion-annihilation": 0, "value-support-law": 0, "zero-sum": 0}
        # the columns checked are those of the matrix whose rank was taken
        for form, psi in zip(basis.forms[1:], basis.matrix().T[1:]):
            x = wavelet_chain(form, n)
            for a in form.support():
                if delete(x, a):
                    checks["deletion-annihilation"] += 1
            k, r = form.length(), form.cycle_count()
            values = psi[psi != 0]
            values_ok = bool((abs(values) == 1).all())
            size_ok = len(values) == 2 ** (k - r) * factorial(n - k + 1)
            if not (values_ok and size_ok):
                checks["value-support-law"] += 1
            if psi.sum() != 0:
                checks["zero-sum"] += 1
        report.invariants = sorted(checks.items())
        report.failures.extend(
            f"invariant {name} failed on {bad} wavelets" for name, bad in report.invariants if bad
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
