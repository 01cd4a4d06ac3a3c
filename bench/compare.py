"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py bench/results/parent.jsonl bench/results/change.jsonl

Each file holds the JSON lines bench/run.py appends (see its --results).
For every workload and metric present on both sides it prints the median
and quartiles of each side and a verdict for the second against the first:

- worse: the median moved the wrong way by more than the metric's bound;
- better: the change won at least nine tenths of the runs paired by seed
  (ties count for neither) and its median beats the first side's by more
  than the first side's own quartile spread, over at least ten pairs;
- unresolved: either side's quartile spread exceeds the bound and not
  every run of the change beats every run of the first side, or the
  medians differ by more than the spread over fewer than ten pairs;
- unchanged: none of these.

Per-layer metrics have no bound; they read worse by the mirror of the
better rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(
    base: dict[int, float], change: dict[int, float], better: str, bound: float | None
) -> str:
    """Verdict on change against base; each maps a run's seed to its value."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) > 0 is worse
    b, c = list(base.values()), list(change.values())
    q1, mb, q3 = quartiles(b)
    mc = statistics.median(c)
    common = sorted(base.keys() & change.keys())
    if common:
        pairs = [(base[s], change[s]) for s in common]
    else:
        pairs = list(zip(sorted(b), sorted(c)))
    wins = sum(sign * (new - old) < 0 for old, new in pairs)
    losses = sum(sign * (new - old) > 0 for old, new in pairs)
    if bound is not None:
        if spread(b) > bound or spread(c) > bound:
            every = all(sign * (new - old) < 0 for old in b for new in c)
            return "better" if every else "unresolved"
        if sign * (mc - mb) > bound * abs(mb):
            return "worse"
    gain = sign * (mb - mc) > q3 - q1
    loss = bound is None and sign * (mc - mb) > q3 - q1
    if (gain or loss) and len(pairs) < MIN_PAIRS:
        return "unresolved"
    if gain and wins >= 0.9 * len(pairs):
        return "better"
    if loss and losses >= 0.9 * len(pairs):
        return "worse"
    return "unchanged"


def load_runs(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}; a repeated seed keeps its median."""
    seen: dict[tuple[str, str], dict[int, list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            # end-to-end figures come from untraced runs only
            values = dict(run["layers"]) if run.get("trace") else dict(run["metrics"])
            values["error_rate"] = run["error_rate"]
            for metric, value in values.items():
                by_seed = seen.setdefault((run["workload"], metric), {})
                by_seed.setdefault(run["seed"], []).append(value)
    return {
        key: {seed: statistics.median(vals) for seed, vals in by_seed.items()}
        for key, by_seed in seen.items()
    }


def rows(base_path: Path, change_path: Path, spec: dict) -> list[list[str]]:
    base, change = load_runs(base_path), load_runs(change_path)
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]]
    metrics.append(({"name": "error_rate", "unit": "share", "better": "lower"}, 0.0))
    workloads = [w["name"] for w in spec["workloads"]]
    out = []
    for workload in workloads:
        for metric, bound in metrics:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            b, c = base[key], change[key]
            if metric["name"] == "error_rate":
                # a failed operation is a regression whatever the spread
                mb, mc = statistics.fmean(b.values()), statistics.fmean(c.values())
                v = "worse" if mc > mb else "better" if mc < mb else "unchanged"
            else:
                v = verdict(b, c, metric["better"], bound)
            bq, cq = quartiles(list(b.values())), quartiles(list(c.values()))
            out.append([
                workload, metric["name"], metric["unit"],
                f"{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] n={len(b)}",
                f"{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(c)}",
                "-" if bound is None else f"{bound:g}",
                v,
            ])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("base", type=Path, help="runs of the parent (JSON lines)")
    parser.add_argument("change", type=Path, help="runs of the change (JSON lines)")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    header = ["workload", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
              "bound", "verdict"]
    table = [header] + rows(args.base, args.change, spec)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
