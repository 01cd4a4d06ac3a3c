"""Span recorder for traced benchmark children, and self-time arithmetic.

The recorder rebinds functions of the rankmra modules from outside: each
wrapped call appends one span (name, start, end, parent) to in-memory
arrays, which are written once when the child ends.  Nothing under src/
knows about it.  Self time, the part of a span its children do not
cover, is derived from the spans afterwards by ``self_times``.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import time
from array import array
from pathlib import Path

now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)

# span name -> (module, attribute path) of the function it times.  A dotted
# attribute path names a method; every other path is rebound in each rankmra
# module that holds the same function object under that name.
TARGETS = {
    "cli.main": ("rankmra.cli", "main"),
    "words.concat": ("rankmra.words", "concat"),
    "words.format_chain": ("rankmra.words", "format_chain"),
    "words.word_validate": ("rankmra.words", "Word.__init__"),
    "perms.derangements": ("rankmra.perms", "derangements"),
    "perms.cycleform_parse": ("rankmra.perms", "CycleForm.parse"),
    "wavelets.wavelet_chain": ("rankmra.wavelets", "wavelet_chain"),
    "wavelets.embed": ("rankmra.wavelets", "embed"),
    "wavelets.marginal_wavelet": ("rankmra.wavelets", "marginal_wavelet"),
    "marginals.read_csv": ("rankmra.marginals", "read_rankings_csv"),
    "marginals.count": ("rankmra.marginals", "empirical_marginals"),
    "marginals.projectivity": ("rankmra.marginals", "check_projective"),
    "mra.build_basis": ("rankmra.mra", "build_basis"),
    "mra.basis_matrix": ("rankmra.mra", "WaveletBasis.matrix"),
    "mra.decompose": ("rankmra.mra", "decompose"),
    "mra.synthesize": ("rankmra.mra", "synthesize"),
    "mra.dezoom": ("rankmra.mra", "dezoom"),
    "mra.decompose_marginals": ("rankmra.mra", "decompose_marginals"),
    "mra.marginal_residual": ("rankmra.mra", "marginal_residual"),
    "mra.lu_factor": ("scipy.linalg", "lu_factor"),
    "mra.lu_solve": ("scipy.linalg", "lu_solve"),
    "mra.lstsq": ("numpy.linalg", "lstsq"),
}

# Counters fed by a wrapped call's result: (counter, span, size of the
# result, how sizes combine).
RESULT_COUNTERS = (
    ("marginals.records", "marginals.read_csv", len, operator.add),
    ("marginals.projectivity.pairs", "marginals.projectivity",
     lambda r: len(r.pairs), operator.add),
    ("mra.keys", "mra.decompose", lambda r: len(r.coeffs), max),
    ("mra.keys", "mra.decompose_marginals", lambda r: len(r.coeffs), max),
)


class Recorder:
    """In-memory spans of one process; single-threaded by construction."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span that was timed by hand, under the current span."""
        self.name_idx.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn, on_result=None):
        name_id = self.name_id(name)
        name_idx, parent, start, end, stack = (
            self.name_idx, self.parent, self.start, self.end, self._stack,
        )

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(start)
            name_idx.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def install(self) -> None:
        """Rebind every target in the already imported modules."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "rankmra"]
        hooks = self._result_hooks()
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules.get(module_name)
            if owner is None:  # the library session never imports the CLI
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, hooks.get(name))))
                else:
                    setattr(cls, attr, self.wrap(name, raw, hooks.get(name)))
                continue
            original = getattr(owner, path)
            timed = self.wrap(name, original, hooks.get(name))
            setattr(owner, path, timed)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, timed)

    def _result_hooks(self) -> dict:
        by_span: dict[str, list] = {}
        for counter, span, size, combine in RESULT_COUNTERS:
            self.counters[counter] = 0
            by_span.setdefault(span, []).append((counter, size, combine))
        counters = self.counters

        def hook(entries):
            def update(result):
                for counter, size, combine in entries:
                    counters[counter] = combine(counters[counter], size(result))
            return update

        return {span: hook(entries) for span, entries in by_span.items()}

    def span_cost(self, calls: int = 50_000) -> float:
        """Seconds that wrapping adds to one call, measured on a no-op."""

        def noop():
            return None

        timed = Recorder().wrap("probe", noop)
        t0 = now()
        for _ in range(calls):
            noop()
        t1 = now()
        for _ in range(calls):
            timed()
        t2 = now()
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def write(self, path: Path) -> None:
        """Spans as four native arrays in one file, with a JSON header."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "counters": self.counters,
        }
        Path(str(path) + ".json").write_text(json.dumps(header), encoding="utf-8")
        with open(path, "wb") as fh:
            for arr in (self.name_idx, self.parent, self.start, self.end):
                arr.tofile(fh)


def read(path: Path) -> tuple[list[str], array, array, array, array, dict]:
    header = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    count = header["count"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return (header["names"], *arrays, header["counters"])


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(names, name_idx, parent, start, end) -> dict[str, tuple[int, float]]:
    """Calls and self seconds per span name.

    A span's self time is its duration minus the length of the union of its
    direct children's intervals, each clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            s = max(start[i], start[p])
            e = min(end[i], end[p])
            if e > s:
                children.setdefault(p, []).append((s, e))
    out: dict[str, tuple[int, float]] = {}
    for i, k in enumerate(name_idx):
        own = end[i] - start[i]
        kids = children.get(i)
        if kids:
            own -= kids[0][1] - kids[0][0] if len(kids) == 1 else _covered(kids)
        calls, total = out.get(names[k], (0, 0.0))
        out[names[k]] = (calls + 1, total + own)
    return out


def module_self_times(per_span: dict[str, tuple[int, float]]) -> dict[str, float]:
    """Self seconds summed by the module prefix of each span name."""
    out: dict[str, float] = {}
    for name, (_, seconds) in per_span.items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + seconds
    return out
