"""Full multiresolution machinery: basis assembly, analysis, synthesis.

Full analysis is subset-triangular, from two properties of the wavelets.
By localization, the marginal of psi_tau on a subset A is 0 unless
supp tau lies in A; so once the constant and the supports of fewer than
k items are subtracted, the marginal of what is left on a k-subset A is
(n - k + 1)! X_A c_A, X_A being the +-1 chain matrix of A's derangements.
By translation covariance, X_A is X_k, the matrix of 1..k, relabelled.
So one Cholesky factor of G_k = X_k^T X_k per support size k solves the
coefficients of all C(n, k) subsets of that size at once.  The normal
equations are safe here: cond(X_7) = 233, so cond(G_7) is about 5e4,
and the residual of every solve is still checked against the 1e-9 gate.
The dense basis matrix is built only as a test oracle and for `verify`.

One ranking index serves the engine, the dense basis matrix, the design
system and marginal synthesis: X_k column by column, each read once into
a bounded cache (_chain_column), and for the rankings of 1..m the rank of
their restriction to each k-subset and whether that subset stands
together in them.  A marginal of psi_tau is X_k's column of tau read at
those ranks, where supp tau is contiguous.

Marginal-domain analysis assembles its system from closed-form wavelet
marginals only, so it never materializes the full ranking space.  By
localization the system is block-angular: the rows of a design subset A
touch only the forms whose support lies in A, and few of those are held by
another subset too (41 of 1450 columns on a seven-subset design at n = 8).
So it is solved one subset at a time: a Householder QR of A's block,
private columns first, reduces it to a triangle for A's private
coefficients and a few rows on the shared ones; the stacked rows are
solved by an SVD least squares, and each triangle back-substitutes.  The
result is the least-squares solution of the whole system, and no step
forms normal equations: the system is not well conditioned (about 7e4 on
the design above), and squaring that to about 5e9 would come too close to
the 1e-9 agreement the coefficients are held to.  QR and SVD keep the
error near cond * eps.  Only numpy is needed; scipy is imported by full
analysis alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, permutations
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
from .wavelets import LARGE_N, MAX_DENSE_ENTRIES, MAX_N, chain_terms, wavelet_chain
from .words import FLOAT_PRUNE_TOL, Chain, Word, _accumulate, _pruned, delete

RESIDUAL_REL_TOL = 1e-9


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


def basis_sort_key(key: str) -> tuple:
    """Order coefficient keys by (support size, support, cycle-form string)."""
    support = _parse_key(key).support()
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
        self._engine: _SubsetTriangular | None = None

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
            design = ObservationDesign([range(1, self.n + 1)], self.n)
            check_marginal_system(design)
            self._matrix = _marginal_system(design, self.forms)
        return self._matrix

    def lu(self) -> _SubsetTriangular:
        """Factor now: the subset-triangular engine that full analysis and
        synthesis use, built once per basis (one Cholesky factor per support
        size; the name is older than the engine).  It never builds matrix().
        At n = 8 the top block is refused, as its Gram matrix would exceed
        MAX_DENSE_ENTRIES."""
        if self._engine is None:
            self._engine = _SubsetTriangular(self.n)
        return self._engine


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
    for coefficients the library itself solved: decompose alone calls it,
    with the basis keys and the floats its residual gate has passed.
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

    @classmethod
    def _make(cls, coeffs: dict[str, float], n: int, scope: str) -> "CoefficientVector":
        """Trusted constructor: keys are basis keys, values finite floats."""
        c = object.__new__(cls)
        c.coeffs, c.n, c.scope = coeffs, n, scope
        return c

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


@lru_cache(maxsize=None)
def _word_rows(k: int) -> dict[str, int]:
    """The lexicographic row of each word of 1..k, encoded as in chain_terms."""
    return {"".join(map(chr, p)): i for i, p in enumerate(permutations(range(1, k + 1)))}


def _placements(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ranking index of the k-subsets of 1..m, subsets in combinations
    order and rankings in lexicographic order.  rank[s, a]: the
    lexicographic rank, among the k! words of its letters, of ranking s
    restricted to subset a.  contiguous[s, a]: subset a stands together
    in ranking s, the only places where its wavelets are nonzero."""
    # place[s, a, i]: where the i-th smallest letter of subset a stands in
    # ranking s.  Letter by letter, so that temporaries stay place-sized,
    # rank adds (smaller letters after it) * (letters after it)!
    positions = np.argsort(np.array(list(permutations(range(m)))), axis=1)
    place = positions.astype(np.int8)[:, np.array(list(combinations(range(m), k)))]
    fact = np.array([factorial(i) for i in range(k)], dtype=np.int32)
    rank = 0
    for i in range(k):
        after = place > place[..., i, None]  # after[..., j]: j comes after i
        lehmer = after[..., :i].sum(axis=-1, dtype=np.int32)
        rank = rank + lehmer * fact[after.sum(axis=-1, dtype=np.int8)]
    return rank, place.max(axis=-1) - place.min(axis=-1) == k - 1


class _Level:
    """The wavelets whose support has k items, for every k-subset at once.

    x: X_k, sparse, its columns the _chain_column of each form of
    derangement_forms(1..k).  factor: the Cholesky factor of
    X_k^T X_k, and cho_solve scipy's solver for it.  span: the level's
    coefficients in basis order, subset by subset, set by
    _SubsetTriangular.  From _placements(n, k):
    marginal_slot, for each full ranking (row-major) and k-subset a, a * k!
    plus the rank of the ranking's restriction to a; ranking, slot: the
    pairs in which the subset is contiguous, where its wavelets are nonzero.
    """

    def __init__(self, n: int, k: int):
        import scipy.linalg  # only full analysis pays for scipy's import
        import scipy.sparse

        self.scale = factorial(n - k + 1)
        forms = derangement_forms(range(1, k + 1))
        rows, signs = zip(*(_chain_column(form.cycles) for form in forms))
        self.forms = len(forms)
        cols = np.repeat(np.arange(self.forms, dtype=np.int32), [len(r) for r in rows])
        self.x = scipy.sparse.csr_array(
            (np.concatenate(signs).astype(float), (np.concatenate(rows).astype(np.int32), cols)),
            shape=(factorial(k), self.forms),
        )
        self.factor = scipy.linalg.cho_factor((self.x.T @ self.x).toarray())
        self.cho_solve = scipy.linalg.cho_solve
        rank, contiguous = _placements(n, k)
        self.size, self.subsets = rank.shape
        slot = rank + np.arange(self.subsets) * factorial(k)
        self.marginal_slot = slot.ravel()
        self.ranking, subset = np.nonzero(contiguous)
        self.slot = slot[self.ranking, subset]

    def solve(self, rest: np.ndarray) -> np.ndarray:
        """Coefficients (forms x subsets) whose marginals on the k-subsets
        are those of rest."""
        marginals = np.bincount(
            self.marginal_slot,
            weights=np.repeat(rest, self.subsets),
            minlength=self.subsets * self.x.shape[0],
        )
        rhs = self.x.T @ marginals.reshape(self.subsets, -1).T
        # the factor was checked once by cho_factor; a non-finite result
        # still fails the residual gate of _analyze
        return self.cho_solve(self.factor, rhs / self.scale, check_finite=False)

    def synthesize(self, block: np.ndarray) -> np.ndarray:
        """The function on the full rankings of the coefficients in block."""
        values = (self.x @ block).T.ravel()
        return np.bincount(self.ranking, weights=values[self.slot], minlength=self.size)


class _SubsetTriangular:
    """Full analysis and synthesis in basis order, level by level: the
    constant, then one _Level per support size k = 2..n."""

    def __init__(self, n: int):
        top = derangement_number(n)
        if top * top > MAX_DENSE_ENTRIES:
            raise ValueError(
                f"full analysis at n = {n} solves a top block of {factorial(n)} rows "
                f"and {top} columns, whose Gram matrix would exceed the "
                f"{MAX_DENSE_ENTRIES} entries of the dense basis matrix at n = {LARGE_N}"
            )
        self.size = factorial(n)
        self.levels = [_Level(n, k) for k in range(2, n + 1)]
        start = 1
        for level in self.levels:
            level.span = slice(start, start + level.forms * level.subsets)
            start = level.span.stop

    def analyze(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of f (on the lexicographic full rankings), and
        what their synthesis leaves of f: each level is subtracted as it is
        solved, the top one too."""
        coeffs = np.empty(self.size)
        coeffs[0] = f.sum() / self.size
        rest = f - coeffs[0]
        for level in self.levels:
            block = level.solve(rest)
            coeffs[level.span] = block.T.ravel()
            rest -= level.synthesize(block)
        return coeffs, rest

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """The function, on the lexicographic full rankings, of coeffs."""
        values = np.full(self.size, coeffs[0])
        for level in self.levels:
            block = coeffs[level.span].reshape(level.subsets, level.forms).T
            if block.any():  # dezoom zeroes the levels above its scale
                values += level.synthesize(block)
        return values


def _analyze(f: Chain, basis: WaveletBasis, allow_large: bool) -> np.ndarray:
    """The coefficients of f in basis order, as decompose solves for them."""
    if basis.n >= LARGE_N and not allow_large:
        raise ValueError(
            f"full decomposition at n = {basis.n} needs allow_large=True"
        )
    vec = basis.chain_to_vector(f)
    coeffs, rest = basis.lu().analyze(vec)
    residual = float(np.max(np.abs(rest)))
    bound = RESIDUAL_REL_TOL * float(np.max(np.abs(vec)))
    if not residual <= bound:
        raise SolverError(
            f"solve residual {residual:.3g} exceeds {bound:.3g}; "
            "a level block may be ill-conditioned"
        )
    return coeffs


def _evaluate(coeffs: np.ndarray, basis: WaveletBasis) -> Chain:
    """The chain with the given coefficients in basis order."""
    engine = basis.lu()
    with np.errstate(over="ignore", invalid="ignore"):
        values = engine.synthesize(coeffs)
    if not np.isfinite(values).all():
        raise ValueError("the coefficients synthesize to values beyond the float range")
    return basis.vector_to_chain(values)


def decompose(f: Chain, basis: WaveletBasis, allow_large: bool = False) -> CoefficientVector:
    """Solve for the unique expansion of f in the wavelet basis.

    Subset-triangular: the constant is the mean of f; then, support size
    by support size, the marginals of what is left on every k-subset are
    solved against one Cholesky factor of G_k = X_k^T X_k (cond(X_7) = 233,
    so cond(G_7) is about 5e4), and that level's contribution is
    subtracted, the top level's too.  What the levels leave of f must not
    exceed 1e-9 times the sup norm of f.  Full solves from n = LARGE_N on
    sit behind allow_large; at n = 8 the Gram matrix of the top block
    would exceed MAX_DENSE_ENTRIES and is refused before it is built.
    """
    coeffs = _analyze(f, basis, allow_large)
    # the residual gate has refused a non-finite coefficient: it would make
    # what the levels leave of f non-finite too
    return CoefficientVector._make(dict(zip(basis.keys, coeffs.tolist())), basis.n, "full")


def synthesize(c: CoefficientVector, basis: WaveletBasis) -> Chain:
    """The chain with the given wavelet coefficients."""
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


def check_marginal_system(design: ObservationDesign) -> tuple[int, int, int]:
    """What _solve_design holds for a design, counted before it is built:
    the entries of the design blocks' R factors, then the rows and columns
    of the reduced system on the shared columns.

    Design subset A's block is |A|! x |A|!, counted from the sizes alone
    and first, as listing A's closure takes 2^|A| steps.  Each support S
    held by h > 1 subsets brings D_|S| shared columns and h * D_|S| reduced
    rows (D_k derangements of k items, D_0 = 1 for the identity), and the
    right-hand side one more column.  Either count over MAX_DENSE_ENTRIES
    raises ValueError, as does a scale that overflows a float (check_scale).
    """
    check_scale(min(design, key=len), design.n)
    over = f"more than the {MAX_DENSE_ENTRIES} entries of the dense basis matrix at n = {LARGE_N}"
    sizes = [factorial(len(s)) for s in design]
    entries = sum(size * size for size in sizes)
    if entries > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"the marginal system has {sum(sizes)} rows and at least {max(sizes)} columns, "
            f"and the R factors of its design blocks hold {entries} entries, {over}"
        )
    shared = [(len(s), len(held)) for s, held in design.holders().items() if len(held) > 1]
    rows = sum(held * derangement_number(k) for k, held in shared)
    cols = 1 + sum(derangement_number(k) for k, _ in shared)
    if rows * cols > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"the reduced system on the columns that design subsets share has {rows} rows "
            f"and {cols} columns, {over}"
        )
    return entries, rows, cols


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
def _contiguous_ranks(m: int, k: int) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
    """_placements(m, k) by subset: each k-subset of range(m) -> the
    rankings in which it stands together, and their restrictions' ranks."""
    rank, contiguous = _placements(m, k)
    return {
        subset: (np.flatnonzero(contiguous[:, a]), rank[contiguous[:, a], a])
        for a, subset in enumerate(combinations(range(m), k))
    }


@lru_cache(maxsize=1 << 12)
def _chain_column(cycles: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """X_k's column of a standard cycle form of a derangement of 1..k: the
    rows (lexicographic words of 1..k) of its nonzero entries and their
    signs.  Bounded, as X_8 alone has 14 833 columns."""
    row_of = _word_rows(sum(map(len, cycles)))
    terms = chain_terms(cycles)
    rows = np.fromiter((row_of[w] for w, _ in terms), dtype=np.intp, count=len(terms))
    return rows, np.fromiter((s for _, s in terms), dtype=np.int32, count=len(terms))


def _marginal_terms(form: CycleForm, items: frozenset[int], n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The closed-form marginal of psi_form on the rankings of items, which
    hold its support, as marginal_wavelet gives it: rows (lexicographic),
    their signs, and the integer scale of them all.  Other than the
    constant, the rows are those where the support stands together."""
    m = len(items)
    if not form.cycles:
        rows = np.arange(factorial(m))
        return rows, np.ones_like(rows), factorial(n) // factorial(m)
    support = form.support()
    k = len(support)
    scale = factorial(n - k + 1) // factorial(m - k + 1)
    letters = tuple(i for i, b in enumerate(sorted(items)) if b in support)
    placed, ranks = _contiguous_ranks(m, k)[letters]
    # relabelled onto 1..k in the order of its labels, the form stays standard
    label = {b: i for i, b in enumerate(sorted(support), 1)}
    rows, signs = _chain_column(tuple(tuple(label[b] for b in cycle) for cycle in form.cycles))
    x = np.zeros(factorial(k), dtype=np.int32)
    x[rows] = signs
    sign = x[ranks]
    return placed[sign != 0], sign[sign != 0], scale


def synthesize_marginals(c: CoefficientVector, subsets) -> dict[frozenset[int], Chain]:
    """Marginals on each subset of the function with coefficients c.

    Sums the closed-form wavelet marginals key by key in coefficient order,
    with Chain's pruning rule, so each result equals the Chain sum of
    value * marginal_wavelet(key, subset) over the coefficients.  The
    coefficients are grouped by support once, and each subset visits only
    the supports within it (a wavelet's marginal elsewhere is 0).  Every
    subset is checked, and one of more than MAX_N items or whose scale
    does not fit in a float refused, before any ranking is listed.
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
    forms, values = [_parse_key(key) for key in c.coeffs], list(c.coeffs.values())
    by_support: dict[frozenset[int], list[int]] = {}
    for i, form in enumerate(forms):
        by_support.setdefault(form.support(), []).append(i)
    out = {}
    for items in subsets:
        acc: dict[int, float] = {}
        # the coefficients whose support lies in items, in coefficient order
        for i in sorted(i for s in supports_within(items) for i in by_support.get(s, ())):
            rows, signs, scale = _marginal_terms(forms[i], items, c.n)
            term = scale * values[i]
            if _pruned(term):  # its terms are +-term, so they prune together
                _accumulate(zip(rows.tolist(), [sign * term for sign in signs.tolist()]), acc)
        words = all_words(items, c.n)
        out[items] = Chain._make({words[row]: v for row, v in acc.items()}, c.n)
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


def _solve_design(design: ObservationDesign, forms: list[CycleForm], rhs: np.ndarray) -> np.ndarray:
    """The least-squares solution of _marginal_system(design, forms) against
    rhs (rows in design order), solved one design subset at a time.

    Design subset A's rows touch only the forms whose support lies in A: its
    private columns, held by A alone, and shared ones, held by another
    subset too.  A QR factor R of A's block [private | shared | b_A] splits
    A's misfit into its first p_A rows (p_A private columns), a triangle
    that back-substitutes A's private coefficients once the shared ones are
    known, and the rows below, A's part of the reduced problem on the shared
    columns.  The stacked reduced rows are solved by SVD least squares.
    The cutoff is eps * max(shape) of the whole system, relative to the
    largest singular value of the reduced rows and to the largest diagonal
    entry of each R; the rank is the reduced rank plus the private diagonal
    entries above it, and a rank below the number of forms raises.
    """
    cond = np.finfo(float).eps * max(len(rhs), len(forms))
    supports = [form.support() for form in forms]
    holders = design.holders()
    columns: list[list[int]] = [[] for _ in design]  # each subset's forms, basis order
    for j, support in enumerate(supports):
        for a in holders[support]:
            columns[a].append(j)
    shared = [j for j, support in enumerate(supports) if len(holders[support]) > 1]
    reduced_column = {j: i for i, j in enumerate(shared)}
    rank, reduced, triangles, offset = 0, [], [], 0
    for items, held in zip(design, columns):
        private = [j for j in held if j not in reduced_column]
        mine = [j for j in held if j in reduced_column]
        block = _marginal_system(ObservationDesign([items], design.n), [forms[j] for j in private + mine])
        size = len(block)
        r = np.linalg.qr(np.column_stack([block, rhs[offset:offset + size]]), mode="r")
        offset += size
        p = len(private)
        diagonal = np.abs(np.diagonal(r)[: block.shape[1]])
        rank += int(np.count_nonzero(diagonal[:p] > cond * diagonal.max()))
        part = np.zeros((len(r) - p, len(shared) + 1))  # last column: right-hand side
        part[:, [reduced_column[j] for j in mine] + [-1]] = r[p:, p:]
        reduced.append(part)
        triangles.append((private, mine, r[:p]))
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
    for private, mine, r in triangles:
        if private:  # R is upper triangular, so this LU does not pivot
            p = len(private)
            coeffs[private] = np.linalg.solve(r[:, :p], r[:, -1] - r[:, p:-1] @ coeffs[mine])
    return coeffs


def decompose_marginals(
    fam: MarginalFamily, projectivity_tol: float = REAL_PROJECTIVITY_TOL
) -> CoefficientVector:
    """Expand an observed marginal family over the design-observable wavelets.

    What the solve holds is sized first (check_marginal_system), and
    the family must be projective at the given tolerance.  The system is
    assembled from closed-form wavelet marginals (never from full-ranking
    vectors), one design subset's block at a time, and solved by least
    squares through a QR of each block and an SVD of the few rows left on
    the columns that subsets share (_solve_design).  Neither step squares
    the system's condition number (about 7e4 on the bench design at
    n = 8), so the error stays near cond * eps.  A rank-deficient system
    for a valid design is an internal error and raises SolverError with
    the rank and the design.
    """
    design = fam.design
    check_marginal_system(design)
    report = check_projective(fam, projectivity_tol)
    if not report.passed:
        raise ProjectivityError(report)
    forms = design_forms(design)
    rhs = np.array([fam[s](w) for s in design for w in all_words(s, design.n)], dtype=float)
    coeffs = _solve_design(design, forms, rhs)
    return CoefficientVector(
        {str(form): float(c) for form, c in zip(forms, coeffs)}, design.n, "design"
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
