"""The rankmra benchmark: one workload per invocation, each operation in a
fresh child interpreter with src/ on PYTHONPATH.

    python3 bench/run.py --workload basis_n8 --seed 0 --seconds 15 --trace 0

Untraced runs (--trace 0) report the end-to-end metrics of BENCHMARK.json;
traced runs (--trace 1) repeat each child once more under the span
recorder and report the per-layer metrics.  Every output is checked; the
last line of stdout is one JSON object with the verdict and the metrics,
and the whole run is appended to bench/results/runs.jsonl (see --results).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import gen
import spans

now = spans.now
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 3  # set-up probes top the op children up to this many

BASIS_N = 8
BASIS_CHAINS = math.factorial(BASIS_N) - 1
# sha256 of `rankmra basis --n 8` as written by the first version of rankmra.
BASIS_SHA256 = "54bb2c697c88028aab603f00746fea24e028518c4fcf039455d01e552e797020"
COEFF_ABS_TOL = 1e-9


@dataclass
class Child:
    """One finished child process, as the parent saw it."""

    code: int
    started: float
    ended: float
    setup_s: float | None
    rss_mb: float
    report: dict
    stderr: str
    spans_path: Path | None

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


@dataclass
class Op:
    latency_s: float
    error: str | None


@dataclass
class Job:
    """What one child did: its process facts and its checked operations."""

    child: Child
    ops: list[Op]
    units: int  # work units completed (chains, analyses or records)
    output_bytes: int = 0


@dataclass
class Context:
    seed: int
    work: Path
    deadline: float

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("RANKMRA_THREADS", None)  # the CLI's default: one worker
        return env

    def spawn(self, name: str, args: list[str], spans_path: Path | None = None) -> Child:
        report = self.work / f"{name}.report.json"
        errors = self.work / f"{name}.stderr"
        argv = [sys.executable, str(CHILD), *args[:1], "--report", str(report)]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        argv += args[1:]
        remaining = self.deadline - now()
        if remaining <= 0:
            raise TimeoutError("the run's time limit was reached before all children ran")
        with open(errors, "wb") as err_fh:
            start = now()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.child_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err_fh,
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            end = now()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        try:
            payload = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            payload = {}
        ready = payload.get("ready")
        return Child(
            code=code,
            started=start,
            ended=end,
            setup_s=None if ready is None else ready - start,
            rss_mb=usage.ru_maxrss / 1024.0,
            report=payload,
            stderr=errors.read_text(encoding="utf-8", errors="replace"),
            spans_path=spans_path,
        )


def _child_failure(child: Child) -> str | None:
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit {child.code}: {tail[0]}"
    return None


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    unit = ""  # what throughput_per_s counts

    def prepare(self, ctx: Context, job: int) -> dict:
        """Write the inputs of one job; returns what run() and check() need."""
        raise NotImplementedError

    def child_args(self, inputs: dict) -> list[str]:
        raise NotImplementedError

    def check(self, ctx: Context, job: int, inputs: dict, child: Child) -> Job:
        raise NotImplementedError

    def probe_args(self, inputs: dict) -> list[str]:
        return [*self.child_args(inputs)[:1], "--setup-only", *self.child_args(inputs)[1:]]

    def cleanup(self, inputs: dict) -> None:
        for path in inputs.get("outputs", []):
            Path(path).unlink(missing_ok=True)


class CliWorkload(Workload):
    """One rankmra command per child, writing inputs["output"]."""

    units_per_op = 0

    def check_output(self, ctx: Context, job: int, out: Path, child: Child) -> str | None:
        raise NotImplementedError

    def check(self, ctx, job, inputs, child):
        out = Path(inputs["output"])
        size = out.stat().st_size if out.exists() else 0
        ops = child.report.get("ops") or []
        error = _child_failure(child)
        if not ops:
            return Job(child, [Op(child.wall_s, error or "no report")], 0, size)
        if error is None:
            try:
                error = self.check_output(ctx, job, out, child)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc!r}"
        latency = ops[0]["end"] - ops[0]["start"]
        return Job(child, [Op(latency, error)], self.units_per_op if error is None else 0, size)


class BasisN8(CliWorkload):
    name = "basis_n8"
    unit = "chains"
    units_per_op = BASIS_CHAINS

    def prepare(self, ctx, job):
        out = ctx.work / f"basis-{job}.txt"
        return {"output": str(out), "outputs": [str(out)]}

    def child_args(self, inputs):
        return ["cli", "--", "basis", "--n", str(BASIS_N), "--output", inputs["output"]]

    def check_output(self, ctx, job, out, child):
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest != BASIS_SHA256:
            return f"output sha256 {digest} differs from the reference"
        return None


class FullAnalysisN7(Workload):
    name = "full_analysis_n7"
    unit = "analyses"

    def prepare(self, ctx, job):
        path = gen.write(ctx.work / f"functions-{job}.json", gen.functions_json(ctx.seed, job))
        return {"functions": str(path), "outputs": [str(path)]}

    def child_args(self, inputs):
        return ["lib", "--functions", inputs["functions"]]

    def check(self, ctx, job, inputs, child):
        ops = [Op(o["end"] - o["start"], o["error"]) for o in child.report.get("ops", [])]
        failure = _child_failure(child)
        if failure is not None or len(ops) != gen.FUNCTIONS_PER_CHILD:
            reason = failure or f"{len(ops)} of {gen.FUNCTIONS_PER_CHILD} round trips reported"
            ops = [Op(child.wall_s, reason)] * gen.FUNCTIONS_PER_CHILD
        return Job(child, ops, sum(op.error is None for op in ops))


class DesignDecomposeN8(CliWorkload):
    name = "design_decompose_n8"
    unit = "records"
    units_per_op = gen.DESIGN_RECORDS

    def prepare(self, ctx, job):
        data = gen.write(ctx.work / f"rankings-{job}.csv", gen.rankings_csv(ctx.seed, job))
        design = gen.write(ctx.work / f"design-{job}.json", gen.design_json(ctx.seed))
        out = ctx.work / f"coeffs-{job}.json"
        return {
            "data": str(data), "design": str(design), "output": str(out),
            "outputs": [str(data), str(design), str(out)],
        }

    def child_args(self, inputs):
        return ["cli", "--", "decompose", "--input", inputs["data"],
                "--design", inputs["design"], "--output", inputs["output"]]

    @staticmethod
    def reference_path(seed: int, job: int) -> Path:
        return REFERENCE / f"design_decompose_n8-seed{seed}-job{job}.json"

    def check_output(self, ctx, job, out, child):
        coeffs = {
            e["tau"]: e["value"]
            for e in json.loads(out.read_text(encoding="utf-8"))["coefficients"]
        }
        expected = gen.closure_key_count(gen.design_subsets(ctx.seed))
        if len(coeffs) != expected:
            return f"{len(coeffs)} observable keys, expected {expected}"
        residual = None
        for line in child.stderr.splitlines():
            if line.startswith("fit residual (sup norm):"):
                residual = float(line.split(":", 1)[1])
        # Sampling noise of a per-subset frequency is O(1/sqrt(records per
        # subset)); a least-squares misfit beyond that is a solver fault.
        per_subset = gen.DESIGN_RECORDS / len(gen.DESIGN_TEMPLATE)
        tolerance = 1.0 / math.sqrt(per_subset)
        if residual is None or not residual <= tolerance:
            return f"fit residual {residual} not within {tolerance:.3g}"
        ref_path = self.reference_path(ctx.seed, job)
        if ref_path.exists():
            ref = json.loads(ref_path.read_text(encoding="utf-8"))
            if ref.keys() != coeffs.keys():
                return "coefficient keys differ from the reference output"
            worst = max(abs(coeffs[k] - v) for k, v in ref.items())
            if not worst <= COEFF_ABS_TOL:
                return f"coefficients differ from the reference output by {worst:.3g}"
        return None


WORKLOADS = {w.name: w for w in (BasisN8(), FullAnalysisN7(), DesignDecomposeN8())}


# ---------------------------------------------------------------- statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload: Workload, jobs: list[Job], setups: list[float]) -> dict:
    latencies = [op.latency_s for job in jobs for op in job.ops]
    op_time = sum(latencies)
    units = sum(job.units for job in jobs)
    tail_s, tail_pct, count = tail(latencies)
    return {
        "wall_s": statistics.median(job.child.wall_s for job in jobs),
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_s,
        "op_tail_percentile": tail_pct,
        "op_samples": count,
        "throughput_per_s": units / op_time,
        f"{workload.unit}_per_s": units / op_time,
        "peak_rss_mb": max(job.child.rss_mb for job in jobs),
    }


def per_layer(traced: list[Job], plain: list[Job]) -> dict:
    rows = []
    for job in traced:
        names, name_idx, parent, start, end, counters = spans.read(job.child.spans_path)
        per_span = spans.self_times(names, name_idx, parent, start, end)
        # interpreter start-up and teardown, seen from the parent
        report = job.child.report
        per_span["process.start"] = (1, report["start"] - job.child.started)
        per_span["process.exit"] = (1, job.child.ended - report["done"])
        row = dict(counters)
        row["trace.spans"] = len(start)
        row["trace.span_cost_s"] = len(start) * report["span_cost_s"]
        for name, (calls, self_s) in per_span.items():
            row[f"{name}.calls"] = calls
            row[f"{name}.self_s"] = self_s
        modules = spans.module_self_times(per_span)
        for module, self_s in modules.items():
            row[f"{module}.self_s"] = self_s
        row["cli.output_bytes"] = job.output_bytes
        row["trace.wall_s"] = job.child.wall_s
        row["trace.unattributed_s"] = job.child.wall_s - sum(modules.values())
        rows.append(row)
    keys = {k for row in rows for k in row}
    out = {k: statistics.median(row.get(k, 0) for row in rows) for k in keys}
    out["trace.overhead_s"] = (
        statistics.median(j.child.wall_s for j in traced)
        - statistics.median(j.child.wall_s for j in plain)
    )
    return out


# ---------------------------------------------------------------- the run


def run_workload(workload: Workload, ctx: Context, seconds: float, traced: bool) -> dict:
    plain: list[Job] = []
    traced_jobs: list[Job] = []
    setups: list[float] = []
    measured = 0.0
    job = 0
    last_inputs = None
    while job == 0 or measured < seconds:
        inputs = workload.prepare(ctx, job)
        child = ctx.spawn(f"job{job}", workload.child_args(inputs))
        plain.append(workload.check(ctx, job, inputs, child))
        if child.setup_s is not None:
            setups.append(child.setup_s)
        if traced:
            spans_path = ctx.work / f"job{job}.spans"
            child = ctx.spawn(f"job{job}-traced", workload.child_args(inputs), spans_path)
            traced_jobs.append(workload.check(ctx, job, inputs, child))
            measured += sum(op.latency_s for op in traced_jobs[-1].ops)
        else:
            measured += sum(op.latency_s for op in plain[-1].ops)
        if last_inputs is not None:
            workload.cleanup(last_inputs)
        last_inputs = inputs
        job += 1
    probe = 0
    while len(setups) < SETUP_SAMPLES:
        child = ctx.spawn(f"probe{probe}", workload.probe_args(last_inputs))
        if child.code != 0 or child.setup_s is None:
            raise RuntimeError(f"set-up probe failed: {_child_failure(child) or 'no report'}")
        setups.append(child.setup_s)
        probe += 1
    workload.cleanup(last_inputs)

    jobs = plain + traced_jobs
    attempted = sum(len(j.ops) for j in jobs)
    failures = [op.error for j in jobs for op in j.ops if op.error is not None]
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures))[:10],
        "error_rate": len(failures) / attempted,
        "children": len(plain) + len(traced_jobs) + probe,
        "metrics": end_to_end(workload, plain, setups),
        "samples": {
            "op_s": [op.latency_s for j in plain for op in j.ops],
            "setup_s": setups,
            "wall_s": [j.child.wall_s for j in plain],
        },
    }
    if traced:
        result["layers"] = per_layer(traced_jobs, plain)
    return result


def environment(ctx: Context) -> dict:
    child = ctx.spawn("env", ["env"])
    if child.code != 0:
        raise RuntimeError(f"cannot import rankmra: {_child_failure(child)}")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **child.report,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH / "results" / "runs.jsonl"),
                        help="JSON-lines file the run is appended to")
    args = parser.parse_args(argv)

    if not (SRC / "rankmra" / "__init__.py").is_file():
        print(f"bench: no rankmra sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    work = BENCH / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, work, now() + RUN_DEADLINE_S)
    try:
        env = environment(ctx)
        result = run_workload(workload, ctx, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        names = spec["per_layer"]
        values = {m["name"]: result["layers"].get(m["name"], 0) for m in names}
    else:
        names = spec["end_to_end"]
        values = {m["name"]: result["metrics"][m["name"]] for m in names}
    record = {
        "workload": workload.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "generator": gen.PARAMETERS,
        **result,
    }
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {workload.name} seed {args.seed} ({why})")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"operations attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {result['error_rate']:.6g}")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    m = result["metrics"]
    print(f"op_tail_ms is p{m['op_tail_percentile']:.4g} of {m['op_samples']} samples; "
          f"throughput_per_s counts {workload.unit} ({workload.unit}_per_s)")
    for metric in names:
        print(f"{metric['name']} {values[metric['name']]:.6g} {metric['unit']}")
    if args.trace:
        layers = result["layers"]
        print(f"attribution: traced wall_s {layers['trace.wall_s']:.4g} s, not covered by "
              f"self times {layers['trace.unattributed_s']:.4g} s; tracing overhead "
              f"{layers['trace.overhead_s']:.4g} s measured, "
              f"{layers['trace.span_cost_s']:.4g} s from the cost of a span")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
