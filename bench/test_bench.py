"""Tests of the benchmark's own arithmetic: generator determinism, self
times from spans, and the compare verdicts.  Standard library only."""

import json
import random
import sys
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_generator_same_seed_same_bytes(monkeypatch):
    monkeypatch.setattr(gen, "DESIGN_RECORDS", 500)
    monkeypatch.setattr(gen, "FUNCTIONS_PER_CHILD", 2)
    for make in (lambda s: gen.rankings_csv(s, 3), gen.design_json,
                 lambda s: gen.functions_json(s, 1)):
        assert make(7) == make(7)
        assert make(7) != make(8)
    # the stream does not depend on the global random state
    random.seed(1)
    first = gen.rankings_csv(7, 0)
    random.seed(2)
    assert gen.rankings_csv(7, 0) == first
    assert gen.rankings_csv(7, 0) != gen.rankings_csv(7, 1)


def test_generated_inputs_are_well_formed(monkeypatch):
    monkeypatch.setattr(gen, "DESIGN_RECORDS", 300)
    monkeypatch.setattr(gen, "FUNCTIONS_PER_CHILD", 1)
    for seed in range(5):
        design = gen.design_subsets(seed)
        assert sorted(map(len, design)) == sorted(map(len, gen.DESIGN_TEMPLATE))
        assert gen.closure_key_count(design) == 1450
        allowed = {tuple(s) for s in design}
        for line in gen.rankings_csv(seed, 0).splitlines():
            letters = tuple(int(tok) for tok in line.split(","))
            assert tuple(sorted(letters)) in allowed
    payload = json.loads(gen.functions_json(0, 0))
    (case,) = payload["cases"]
    assert len(case["values"]) == 5040
    assert len(case["subset"]) == gen.DEZOOM_SCALE


def _spans(rows):
    """rows: (name, parent index, start, end)"""
    names = sorted({r[0] for r in rows})
    return (
        names,
        array("i", [names.index(r[0]) for r in rows]),
        array("i", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
        array("d", [r[3] for r in rows]),
    )


def test_self_time_subtracts_direct_children_only():
    rows = [
        ("a.root", -1, 0.0, 10.0),
        ("b.child", 0, 1.0, 4.0),
        ("c.grandchild", 1, 2.0, 3.0),
        ("b.child", 0, 5.0, 6.0),
    ]
    out = spans.self_times(*_spans(rows))
    assert out["a.root"] == (1, 10.0 - 3.0 - 1.0)
    assert out["b.child"] == (2, (3.0 - 1.0) + 1.0)
    assert out["c.grandchild"] == (1, 1.0)
    modules = spans.module_self_times(out)
    assert sum(modules.values()) == 10.0  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    rows = [
        ("a.root", -1, 0.0, 10.0),
        ("b.x", 0, 1.0, 5.0),
        ("b.y", 0, 3.0, 7.0),  # overlaps b.x
        ("b.z", 0, 9.0, 12.0),  # runs past its parent: clipped to 9..10
    ]
    out = spans.self_times(*_spans(rows))
    assert out["a.root"] == (1, 10.0 - 6.0 - 1.0)


def test_recorder_spans_round_trip(tmp_path):
    rec = spans.Recorder()

    def inner(x):
        return x + 1

    inner = rec.wrap("b.inner", inner)

    def outer(x):
        return inner(x) * 2

    outer = rec.wrap("a.outer", outer)
    assert outer(1) == 4
    rec.write(tmp_path / "s.bin")
    names, name_idx, parent, start, end, counters = spans.read(tmp_path / "s.bin")
    assert [names[i] for i in name_idx] == ["a.outer", "b.inner"]
    assert list(parent) == [-1, 0]
    assert start[0] <= start[1] <= end[1] <= end[0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    values = [float(i) for i in range(1, 101)]
    value, pct, count = run.tail(values)
    assert (value, pct, count) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def _seeded(values):
    return dict(enumerate(values))


def test_verdicts():
    steady = _seeded([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    faster = _seeded([v * 0.8 for v in steady.values()])
    slower = _seeded([v * 1.2 for v in steady.values()])
    slightly = _seeded([v * 1.02 for v in steady.values()])
    noisy = _seeded([60, 140, 70, 130, 100, 90, 150, 50, 110, 95])
    assert compare.verdict(steady, faster, "lower", 0.1) == "better"
    assert compare.verdict(steady, slower, "lower", 0.1) == "worse"
    assert compare.verdict(steady, slightly, "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    # higher-is-better metrics mirror the rule
    assert compare.verdict(steady, slower, "higher", 0.1) == "better"
    assert compare.verdict(steady, faster, "higher", 0.1) == "worse"
    # noisy but every run of the change beats every run of the base
    far = _seeded([v / 10 for v in noisy.values()])
    assert compare.verdict(noisy, far, "lower", 0.1) == "better"
    # unbounded per-layer metrics: worse by the mirror of the gain rule
    assert compare.verdict(steady, slower, "lower", None) == "worse"
    assert compare.verdict(steady, slightly, "lower", None) == "unchanged"
    # too few pairs to claim a gain or, without a bound, a loss
    assert compare.verdict({0: 100}, {0: 80}, "lower", 0.1) == "unresolved"
    assert compare.verdict({0: 100}, {0: 120}, "lower", None) == "unresolved"
    assert compare.verdict({0: 100}, {0: 120}, "lower", 0.1) == "worse"
    assert compare.verdict({0: 7}, {0: 7}, "lower", None) == "unchanged"


def test_compare_rows(tmp_path):
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }
    for name, scale, failed in (("a", 1.0, 0), ("b", 2.0, 1)):
        with open(tmp_path / name, "w") as fh:
            for seed in range(5):
                fh.write(json.dumps({
                    "workload": "w", "seed": seed, "trace": 0, "error_rate": failed / 10,
                    "metrics": {"wall_s": scale * (10 + seed % 2)},
                }) + "\n")
                # a traced run's end-to-end figures are not compared
                fh.write(json.dumps({
                    "workload": "w", "seed": seed, "trace": 1, "error_rate": 0.0,
                    "metrics": {"wall_s": 100.0}, "layers": {},
                }) + "\n")
    table = compare.rows(tmp_path / "a", tmp_path / "b", spec)
    assert [(r[1], r[-1]) for r in table] == [("wall_s", "worse"), ("error_rate", "worse")]
