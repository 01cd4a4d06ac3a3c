"""Seeded input generator for the rankmra benchmark (standard library only).

Every input is a pure function of the benchmark seed and a job index: the
same arguments always give the same bytes, whatever the platform or the
hash seed, because each stream is a ``random.Random`` keyed by a string.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# Plackett-Luce dataset for design_decompose_n8.
DESIGN_N = 8
DESIGN_RECORDS = 100_000
# Two overlapping 6-subsets plus nested and disjoint smaller subsets; the
# closure has 1450 observable coefficients.  Each seed relabels the items.
DESIGN_TEMPLATE = (
    (1, 2, 3, 4, 5, 6),
    (3, 4, 5, 6, 7, 8),
    (1, 2, 7, 8),
    (1, 3, 5),
    (2, 4, 6, 8),
    (1, 8),
    (2, 7),
)
WEIGHT_SIGMA = 1.0  # item weights are lognormal(0, sigma)

# Random functions on S_7 for full_analysis_n7.
FULL_N = 7
FUNCTIONS_PER_CHILD = 32
DEZOOM_SCALE = 3

PARAMETERS = {
    "design_n": DESIGN_N,
    "design_records": DESIGN_RECORDS,
    "design_template": [list(s) for s in DESIGN_TEMPLATE],
    "weight_sigma": WEIGHT_SIGMA,
    "full_n": FULL_N,
    "functions_per_child": FUNCTIONS_PER_CHILD,
    "dezoom_scale": DEZOOM_SCALE,
    "function_values": "uniform(0, 1) per full ranking",
}


def _rng(seed: int, purpose: str, job: int) -> random.Random:
    return random.Random(f"rankmra-bench/{seed}/{purpose}/{job}")


def design_subsets(seed: int) -> list[list[int]]:
    """The design template with its items relabeled by a seeded permutation."""
    labels = list(range(1, DESIGN_N + 1))
    _rng(seed, "design", 0).shuffle(labels)
    return [sorted(labels[a - 1] for a in s) for s in DESIGN_TEMPLATE]


def design_json(seed: int) -> str:
    return json.dumps({"n": DESIGN_N, "design": design_subsets(seed)}) + "\n"


def closure_key_count(subsets: list[list[int]]) -> int:
    """Observable coefficients of a design: the identity plus, for every
    subset of size >= 2 of a design member, its derangement count."""
    closure = {
        frozenset(c)
        for s in subsets
        for k in range(2, len(s) + 1)
        for c in itertools.combinations(s, k)
    }
    derangements = [1, 0]
    for k in range(2, DESIGN_N + 1):
        derangements.append((k - 1) * (derangements[-1] + derangements[-2]))
    return 1 + sum(derangements[len(c)] for c in closure)


def rankings_csv(seed: int, job: int) -> str:
    """Plackett-Luce rankings: a uniform design subset per record, ranked by
    independent exponential races with seeded item weights."""
    rng = _rng(seed, "rankings", job)
    weights = [rng.lognormvariate(0.0, WEIGHT_SIGMA) for _ in range(DESIGN_N)]
    subsets = design_subsets(seed)
    lines = []
    for _ in range(DESIGN_RECORDS):
        subset = subsets[rng.randrange(len(subsets))]
        race = sorted((rng.expovariate(weights[a - 1]), a) for a in subset)
        lines.append(",".join(str(a) for _, a in race))
    return "\n".join(lines) + "\n"


def functions_json(seed: int, job: int) -> str:
    """FUNCTIONS_PER_CHILD seeded functions on S_7, values listed in
    lexicographic order of the full rankings, each with a seeded size-3
    subset on which dezooming must keep the marginal."""
    rng = _rng(seed, "functions", job)
    size = 1
    for k in range(2, FULL_N + 1):
        size *= k
    items = list(range(1, FULL_N + 1))
    cases = []
    for _ in range(FUNCTIONS_PER_CHILD):
        values = [rng.random() for _ in range(size)]
        subset = sorted(rng.sample(items, DEZOOM_SCALE))
        cases.append({"values": values, "subset": subset})
    return json.dumps({"n": FULL_N, "scale": DEZOOM_SCALE, "cases": cases}) + "\n"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path
