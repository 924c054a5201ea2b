#!/usr/bin/env python3
"""Benchmark for the subtreecount library: seeded workloads, checked outputs.

Run from the repository root (standard library only; the library is
imported from ``src/``):

    python3 perfbench/run.py --workload subtree-large --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all            # each workload in its own process
    python3 perfbench/run.py --workload bc-large --smoke --seconds 1

One process, one caller, a closed loop: each request starts when the
previous one returned.  A run repeats set-up ``SETUP_REPEATS`` times (fresh
import of the package plus generation of the first pass's inputs) and
reports the median, then runs whole passes of the workload's request list
until ``--seconds`` have elapsed, each pass on fresh inputs.  Outputs are
checked after the timed phase (see checks.py).

Times are speed-normalised.  The machine the baseline was measured on is
shared, and its speed switches between two levels (one about 1.7 times
slower) for stretches of seconds, which made raw medians of whole runs
bimodal.  A fixed pure-Python probe (``probe``, about 0.5 ms, no library
code) runs before the first request and after every request; each
request's raw latency is multiplied by ``REFERENCE_PROBE_S`` divided by
the mean of the probes on either side.  Times then read as seconds at the
probe speed of ``REFERENCE_PROBE_S``, an uncontended level on that
machine.  The library does not run during a probe, so a slower library
still shows in full.  Raw figures are printed in the human-readable lines.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then traces the first pass's requests twice with every
library callable wrapped (see tracing.py), and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
#: Probe time at which normalised times equal raw ones: the fast level of
#: the machine the baseline was measured on (2 vCPUs at 2.1 GHz).
REFERENCE_PROBE_S = 1.5e-4

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "small_p50_ms": "ms",
    "small_p90_ms": "ms",
    "large_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import ``subtreecount`` (and its CLI) afresh from ``<root>/src``."""
    src = ROOT / "src"
    if not (src / "subtreecount" / "__init__.py").is_file():
        raise LibraryMissing(f"no subtreecount package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "subtreecount" or n.startswith("subtreecount.")]:
        del sys.modules[name]
    lib = importlib.import_module("subtreecount")
    importlib.import_module("subtreecount.cli")
    if Path(lib.__file__).resolve().parent != src / "subtreecount":
        raise LibraryMissing(f"imported subtreecount from {lib.__file__}, not from {src}")
    return lib


def _probe_kernel() -> int:
    acc: dict[tuple[int, int], int] = {}
    for i in range(24):
        for j in range(24):
            key = (i + j, i ^ j)
            acc[key] = acc.get(key, 0) + (i * 1000003 + j) * (j + 7)
    return len(acc)


def probe() -> float:
    """Seconds for a fixed pure-Python kernel: best of three, to skip one-off stalls."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _probe_kernel()
        best = min(best, perf_counter() - t0)
    return best


@dataclass
class Pass:
    requests: list
    outputs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # normalised seconds, None when it raised
    raw: list = field(default_factory=list)  # measured seconds, None when it raised
    probes: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # request index -> reason

    @property
    def wall(self) -> float:
        """Normalised time to run the whole request list."""
        return sum(lat for lat in self.latencies if lat is not None)

    @property
    def raw_wall(self) -> float:
        return sum(lat for lat in self.raw if lat is not None)


def run_pass(lib, requests, tmp: Path, tracer=None) -> Pass:
    result = Pass(requests)
    before = probe()
    result.probes.append(before)
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        path = str(tmp / f"{i}.csv") if req.family == "ratio" else None
        t0 = perf_counter()
        try:
            out = workloads.run_request(lib, req, path)
            raw = perf_counter() - t0
        except Exception as exc:  # a failing request is counted, not fatal
            result.errors[i] = f"raised {type(exc).__name__}: {exc}"
            out = raw = None
        after = probe()
        result.probes.append(after)
        result.outputs.append(out)
        result.raw.append(raw)
        result.latencies.append(None if raw is None else raw * 2 * REFERENCE_PROBE_S / (before + after))
        before = after
    for i, req in enumerate(requests):
        if req.family != "ratio" or i in result.errors:
            continue
        if result.outputs[i] != 0:
            result.errors[i] = f"exit code {result.outputs[i]}"
            result.outputs[i] = None
            continue
        csv_path, mean_path = tmp / f"{i}.csv", tmp / f"{i}_mean.csv"
        result.outputs[i] = csv_path.read_bytes() + b"\0" + mean_path.read_bytes()
        csv_path.unlink()
        mean_path.unlink()
    return result


def verify(lib, passes: list[Pass], reference: dict | None) -> tuple[dict, float]:
    """Check every output; returns ({request id: reason}, seconds spent)."""
    failures = {}
    t0 = perf_counter()
    for p in passes:
        for i, req in enumerate(p.requests):
            if i in p.errors:
                failures[req.rid] = p.errors[i]
                continue
            out = p.outputs[i]
            try:
                reason = checks.check(lib, req, out)
            except Exception as exc:  # a check that cannot run is a failed check
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None and reference and req.rid in reference:
                if reference[req.rid] != checks.digest(out):
                    reason = "digest differs from the seed-commit reference"
            if reason is not None:
                failures[req.rid] = reason
    return failures, perf_counter() - t0


def e2e_metrics(passes: list[Pass], setup_s: float, peak_rss_mb: float, failed: int, attempted: int):
    def latencies(size):
        return [lat for p in passes for req, lat in zip(p.requests, p.latencies)
                if req.size == size and lat is not None]

    small, large = latencies("small"), latencies("large")
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "small_p50_ms": statistics.median(small) * 1e3,
        "small_p90_ms": statistics.quantiles(small, n=10)[8] * 1e3,
        "large_p50_s": statistics.median(large),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": 1.0 - failed / attempted,
    }
    samples = {"wall_s": len(passes), "small_p50_ms": len(small), "small_p90_ms": len(small),
               "large_p50_s": len(large), "setup_s": SETUP_REPEATS}
    return metrics, samples


def load_reference(seed: int, smoke: bool, workload: str) -> dict | None:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text())
    return data.get("smoke" if smoke else "full", {}).get(workload)


def traced_passes(lib, workload: str, first: Pass, tmp: Path, seed: int):
    """Trace the first pass's requests twice; returns (metrics, problems, attempted, failed)."""
    problems = []
    tracer = tracing.Tracer()
    own = [checks, workloads, sys.modules[__name__]]
    tracer.install(own)
    try:
        stale = tracer.stale_bindings(own)
        if stale:
            problems.append(f"unwrapped bindings remain: {', '.join(stale)}")
        runs = []
        vertices = sum(req.n * req.trees for req in first.requests)
        for _ in range(2):
            tracer.reset()
            traced = run_pass(lib, first.requests, tmp, tracer)
            runs.append((traced, tracer.layer_metrics(vertices)))
            if not tracer.spans:
                problems.append("traced pass recorded no spans")
            if len(runs) == 1:
                OUT.mkdir(exist_ok=True)
                tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.csv.gz")
        uncovered = tracer.uncovered(workload)
    finally:
        tracer.uninstall()
    if uncovered:
        problems.append(f"never called on {workload}: {', '.join(uncovered)}")
    if tracer.missing:
        print(f"note: not in the library, so not traced (their layer metrics read 0"
              f" without being measured): {', '.join(tracer.missing)}")
    (p1, m1), (p2, m2) = runs
    for name in tracing.EXACT_COUNTS:
        if m1[name] != m2[name]:
            problems.append(f"{name} differs between traced runs: {m1[name]} vs {m2[name]}")
    attempted = failed = 0
    for traced in (p1, p2):
        for i, req in enumerate(first.requests):
            attempted += 1
            if i in traced.errors or traced.outputs[i] != first.outputs[i]:
                failed += 1
                problems.append(f"{req.rid}: traced output differs from the untraced one")
    m1["trace.overhead_s"] = statistics.median([p1.wall, p2.wall]) - first.wall
    m1["probe_ms"] = statistics.median(p1.probes) * 1e3
    m1["trace.untraced_callables"] = len(tracer.missing)
    return m1, problems, attempted, failed


def run_workload(args) -> int:
    try:
        setup_times, raw_setup = [], []
        before = probe()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            lib = load_library()
            gen = workloads.Generator(args.workload, args.seed, args.smoke)
            requests = gen.pass_requests(0)
            raw_setup.append(perf_counter() - t0)
            after = probe()
            setup_times.append(raw_setup[-1] * 2 * REFERENCE_PROBE_S / (before + after))
            before = after
    except (LibraryMissing, ImportError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{args.workload}-{args.seed}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        passes = []
        start = perf_counter()
        while True:
            passes.append(run_pass(lib, requests, tmp))
            if len(passes) == 1:
                # Every pass runs the same request list at the same sizes.
                # Later passes only add the outputs kept for verify(), so a
                # faster library, fitting more passes in, would read as a
                # bigger one.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if perf_counter() - start >= args.seconds:
                break
            requests = gen.pass_requests(len(passes))
        reference = load_reference(args.seed, args.smoke, args.workload)
        failures, verify_s = verify(lib, passes, reference)
        attempted = sum(len(p.requests) for p in passes)
        problems = [f"{rid}: {reason}" for rid, reason in failures.items()]
        if args.trace:
            metrics, trace_problems, t_attempted, t_failed = traced_passes(
                lib, args.workload, passes[0], tmp, args.seed)
            metrics["verify_s"] = verify_s
            problems += trace_problems
            attempted += t_attempted
            failed = len(failures) + t_failed
            units = {name: tracing.unit(name) for name in metrics}
            samples = {}
        else:
            failed = len(failures)
            metrics, samples = e2e_metrics(passes, statistics.median(setup_times), peak_rss_mb,
                                           failed, attempted)
            units = E2E_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} requests={attempted}"
          f" trace={int(args.trace)}{' smoke' if args.smoke else ''}")
    for name, value in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:40s} {value:16.6f} {units.get(name, '')}{count}")
    if not args.trace:
        print(f"{'fail_rate':40s} {failed / attempted:16.6f} ratio  ({failed}/{attempted})")
        print(f"{'raw setup_s (not normalised)':40s} {statistics.median(raw_setup):16.6f} s")
        print(f"{'raw wall_s (not normalised)':40s} {statistics.median(p.raw_wall for p in passes):16.6f} s")
        probes = [x for p in passes for x in p.probes]
        print(f"{'probe_ms (median)':40s} {statistics.median(probes) * 1e3:16.6f} ms"
              f"  ({REFERENCE_PROBE_S * 1e3:.3f} ms reference)")
    for problem in problems:
        print(f"FAIL {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run each workload in a fresh process, one after another."""
    status = 0
    results = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=1800)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
