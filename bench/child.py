"""One benchmark child process: a CLI invocation, a library session, or an
environment probe.  Run by bench/run.py with src/ on PYTHONPATH.

    child.py cli  --report R [--spans S] [--setup-only] -- <rankmra argv>
    child.py lib  --report R [--spans S] [--setup-only] --functions F
    child.py env  --report R

``cli`` imports rankmra.cli and calls main(argv), as the installed
``rankmra`` console script does.  ``lib`` builds the n = 7 basis and its LU
factors, then times decompose -> synthesize -> dezoom round trips on the
functions in F and checks each one outside the timed region.  The report
gives the monotonic time at which set-up ended, so that the parent can
subtract its own spawn time; both read the same system-wide clock.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import spans

now = spans.now
T_START = now()

ROUND_TRIP_REL_TOL = 1e-9


def _install_tracing(args) -> spans.Recorder | None:
    if args.spans is None:
        return None
    recorder = spans.Recorder()
    recorder.add("import", T_START, now())
    recorder.install()
    return recorder


def _finish(args, report: dict, recorder: spans.Recorder | None) -> None:
    if recorder is not None:
        import rankmra.wavelets

        recorder.counters["wavelets.chain_cache.entries"] = len(rankmra.wavelets._chain_cache)
        report["span_cost_s"] = recorder.span_cost()
        recorder.write(Path(args.spans))
    report["start"] = T_START
    report["done"] = now()
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")


def run_cli(args, argv: list[str]) -> int:
    import rankmra.cli

    recorder = _install_tracing(args)
    report = {"ready": now()}
    if args.setup_only:
        _finish(args, report, recorder)
        return 0
    start = now()
    try:
        code = rankmra.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    report["ops"] = [{"start": start, "end": now(), "code": code}]
    _finish(args, report, recorder)
    return code


def _marginal(values: dict[tuple[int, ...], float], subset) -> dict[tuple[int, ...], float]:
    """Sum of values over full rankings, grouped by their restriction to subset."""
    out: dict[tuple[int, ...], float] = {}
    for letters, v in values.items():
        key = tuple(a for a in letters if a in subset)
        out[key] = out.get(key, 0.0) + v
    return out


def check_round_trip(f, g, h, subset) -> str | None:
    """None when g reproduces f and h keeps f's marginal on subset, else why not."""
    fv = {w.letters: c for w, c in f.terms.items()}
    gv = {w.letters: c for w, c in g.terms.items()}
    hv = {w.letters: c for w, c in h.terms.items()}
    sup = max(abs(v) for v in fv.values())
    err = max(abs(gv.get(k, 0.0) - fv.get(k, 0.0)) for k in fv.keys() | gv.keys())
    if not err <= ROUND_TRIP_REL_TOL * sup:
        return f"round trip error {err:.3g} exceeds {ROUND_TRIP_REL_TOL:g} * {sup:.3g}"
    fm, hm = _marginal(fv, set(subset)), _marginal(hv, set(subset))
    scale = max(abs(v) for v in fm.values())
    err = max(abs(hm.get(k, 0.0) - fm.get(k, 0.0)) for k in fm.keys() | hm.keys())
    if not err <= ROUND_TRIP_REL_TOL * scale:
        return f"dezoom changed the marginal on {subset} by {err:.3g}"
    return None


def load_cases(path: str) -> tuple[int, int, list]:
    """(n, dezoom scale, [(function as a Chain, check subset)]) from a functions file."""
    from itertools import permutations

    from rankmra.words import Chain, Word

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    n = payload["n"]
    rankings = [Word._make(letters, n) for letters in permutations(range(1, n + 1))]
    cases = [
        (Chain(dict(zip(rankings, case["values"])), n), case["subset"])
        for case in payload["cases"]
    ]
    return n, payload["scale"], cases


def run_lib(args) -> int:
    from rankmra import mra

    recorder = _install_tracing(args)
    load, check = load_cases, check_round_trip
    if recorder is not None:  # the benchmark's own work, kept apart from rankmra's
        load = recorder.wrap("bench.load_cases", load)
        check = recorder.wrap("bench.check", check)
    n, scale, cases = load(args.functions)
    basis = mra.build_basis(n)
    basis.lu()
    report = {"ready": now(), "ops": []}
    if args.setup_only:
        _finish(args, report, recorder)
        return 0
    for f, subset in cases:
        start = now()
        try:
            c = mra.decompose(f, basis, allow_large=True)
            g = mra.synthesize(c, basis)
            h = mra.dezoom(f, scale, basis, allow_large=True)
        except Exception as exc:  # a failed operation is counted, not fatal
            report["ops"].append({"start": start, "end": now(), "error": repr(exc)})
            continue
        end = now()
        report["ops"].append({"start": start, "end": end, "error": check(f, g, h, subset)})
    _finish(args, report, recorder)
    return 0


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[Path(path).name] = fn()
                    break
            else:
                continue
            break
    return out


def run_env(args) -> int:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    import rankmra.cli  # noqa: F401  (the probe fails when the sources are absent)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
    }
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    rest: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("cli", "lib", "env"))
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--functions", default=None)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        return run_cli(args, rest)
    if args.mode == "lib":
        return run_lib(args)
    return run_env(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
