#!/usr/bin/env python3
"""Benchmark of the logfano engine: one workload, one seed, one JSON result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {scan,verify,cli} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run imports ``logfano`` from ``src`` several times
(``setup_s`` is the median import), then drives one closed-loop client
through whole seeded rounds of operations for at most ``--seconds`` seconds
and prints the end-to-end metrics.  With ``--trace 1`` it runs a fixed,
seeded list of rounds twice from a fresh import, once under the tracer and
once without, and prints the per-layer metrics.  Every
output is checked against ``oracle.py``; a wrong or raising operation counts
as failed and the run goes on.  The last line of standard output is the JSON
result; the lines before it (starting with ``#``) are the run metadata.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import load
import oracle
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
TAIL_LADDER = ("50", "90", "99")
TAIL_BEYOND = 10
TRACE_ROUNDS = {"scan": 10, "verify": 1, "cli": 1}
CLI_TIMEOUT_S = 60
CLI_MODULES = ("logfano", "logfano.exact", "logfano.surface", "logfano.catalog",
               "logfano.delta", "logfano.threefold", "logfano.verify", "logfano.cli")
_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)\s*$")


def rank(p: str, n: int) -> int:
    """0-based index of the p-th percentile of n sorted samples, by nearest rank."""
    return max(0, math.ceil(Fraction(p) * n / 100) - 1)


def tail_rank(n: int) -> tuple[str, int]:
    """(percentile, index) of the highest ladder percentile with at least
    TAIL_BEYOND samples above it; the median when no step qualifies."""
    best = (TAIL_LADDER[0], rank(TAIL_LADDER[0], n))
    for p in TAIL_LADDER:
        if n - 1 - rank(p, n) >= TAIL_BEYOND:
            best = (p, rank(p, n))
    return best


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def measure(rounds, workload, seconds: float = math.inf, tr: Tracer | None = None) -> SimpleNamespace:
    """Issue whole rounds of operations, one operation at a time, until
    ``rounds`` is exhausted or the next round, as long as the last one, would
    end after ``seconds``; at least one round runs.  Only the call into the
    program is timed."""
    latencies: list[float] = []
    kinds: Counter = Counter()
    failures: list[str] = []
    n_rounds = 0
    start = perf_counter()
    last_round = 0.0
    for batch in rounds:
        round_start = perf_counter()
        if latencies and round_start - start + last_round > seconds:
            break
        for op in batch:
            run_one(op, workload, tr, latencies, kinds, failures)
        n_rounds += 1
        last_round = perf_counter() - round_start
    return SimpleNamespace(latencies=latencies, kinds=kinds, failures=failures, rounds=n_rounds)


def run_one(op, workload, tr, latencies, kinds, failures) -> None:
    arg = workload.prepare(op)
    if tr is not None:
        tr.op = len(latencies)
    t0 = perf_counter()
    try:
        out = workload.run(arg, tr)
    except Exception as exc:  # a raising operation is a failed one
        out, error = None, f"{op}: {type(exc).__name__}: {exc}"
    else:
        error = None
    latencies.append(perf_counter() - t0)
    if error is None:
        try:
            error = workload.check(op, out)
            if tr is not None and workload.observe is not None:
                workload.observe(op, out, tr.counts)
        except Exception as exc:  # an output of the wrong shape is a wrong answer
            error = f"{op}: unreadable output: {type(exc).__name__}: {exc}"
    kinds[op[0]] += 1
    if error is not None:
        failures.append(error)


def end_to_end(result, setup: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    lat = sorted(result.latencies)
    n = len(lat)
    percentile, index = tail_rank(n)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (1000 * lat[rank("50", n)], "ms"),
        "op_tail_ms": (1000 * lat[index], "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    meta = {"rounds": result.rounds, "tail_percentile": f"p{percentile}", "tail_n": n,
            "fail_frac": len(result.failures) / n}
    return metrics, meta


# ---------------------------------------------------------------------------
# In-process workloads: scan and verify
# ---------------------------------------------------------------------------


def fresh_import() -> tuple[float, SimpleNamespace]:
    """Import logfano with no module of it loaded; (seconds, its modules)."""
    for name in [n for n in sys.modules if n == "logfano" or n.startswith("logfano.")]:
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("logfano")
    elapsed = perf_counter() - t0
    return elapsed, SimpleNamespace(**{m: sys.modules[f"logfano.{m}"] for m in ("catalog", "delta", "threefold", "verify")})


def scan_workload(api) -> SimpleNamespace:
    bound = {
        "smooth": lambda s, m, lam, d2: api.threefold.delta_bound_smooth(s, lam, d2),
        "blowup": lambda s, m, lam, d2: api.threefold.delta_bound_blowup(s, m, lam, d2),
        "quadric": lambda s, m, lam, d2: api.threefold.delta_bound_quadric(m, lam, d2),
    }

    def run(op, tr):
        if op[0] == "delta":
            return api.delta.delta_point(op[1], op[2], op[3])
        _, kind, s, m, lam, cone, degree, _ = oracle.COROLLARIES[op[1]]
        delta2d, exact2d = api.threefold.tangent_cone_delta(cone, degree, lam)
        return delta2d, exact2d, bound[kind](s, m, lam, delta2d)

    def check(op, out):
        return oracle.check_delta_report(op, out) if op[0] == "delta" else oracle.check_threefold(op, *out)

    return SimpleNamespace(prepare=lambda op: op, run=run, check=check, observe=None)


def verify_workload(api) -> SimpleNamespace:
    def prepare(op):
        if op[0] == "fault":  # the faulty catalog entry is built outside the timed call
            return op, {op[1]: load.apply_fault(api.catalog.CASES[op[1]], op[2])}
        return op, None

    def run(arg, tr):
        op, catalog = arg
        if op[0] == "case":
            return api.verify.verify_all(case_ids=[op[1]])
        if op[0] == "fault":
            return api.verify.verify_all(catalog=catalog, case_ids=[op[1]])
        if op[0] == "threefold_section":
            checks = api.verify.verify_threefold_section()
            return checks, all(c.ok for c in checks)
        return api.threefold.corollary_suite()

    def check(op, out):
        return oracle.check_corollary_suite(out) if op[0] == "corollary" else oracle.check_verify(op, *out)

    def observe(op, out, counts):
        if op[0] == "corollary":
            return
        checks, ok = out
        counts["verify.checks"] += len(checks)
        counts["verify.checks_failed"] += sum(not c.ok for c in checks)
        if op[0] == "fault":
            counts["verify.faults_injected"] += 1
            counts["verify.faults_detected"] += not ok

    return SimpleNamespace(prepare=prepare, run=run, check=check, observe=observe)


IN_PROCESS = {
    "scan": (scan_workload, lambda seed, api: load.scan_rounds(seed)),
    "verify": (verify_workload, lambda seed, api: load.verify_rounds(seed, load.fault_descriptors(api.catalog.CASES))),
}


def run_in_process(name: str, seed: int, seconds: int, trace: bool):
    make_workload, make_rounds = IN_PROCESS[name]
    if trace:
        _, api = fresh_import()
        rounds = list(itertools.islice(make_rounds(seed, api), TRACE_ROUNDS[name]))
        tr = Tracer()
        tr.install()
        try:
            traced = measure(rounds, make_workload(api), tr=tr)
        finally:
            tr.restore()
        _, api = fresh_import()
        plain = measure(rounds, make_workload(api))
        metrics = traced_metrics(tr, traced, plain)
        return metrics, {"load_digest": load.load_digest(rounds), "spans": len(tr.spans)}, combine(traced, plain), tr
    setup = []
    for _ in range(SETUP_REPEATS):
        elapsed, api = fresh_import()
        setup.append(elapsed)
    meta = {"load_digest": load.load_digest(make_rounds(seed, api))}
    result = measure(make_rounds(seed, api), make_workload(api), seconds)
    metrics, more = end_to_end(result, setup, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    meta.update(more, setup_runs=[round(s, 6) for s in setup])
    return metrics, meta, result, None


# ---------------------------------------------------------------------------
# The cli workload: one cold process per operation
# ---------------------------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_workload(tr_timings: dict | None = None) -> SimpleNamespace:
    env = child_env()

    def run(argv, tr):
        if tr is None:
            proc = subprocess.run([sys.executable, "-m", "logfano.cli", *argv], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *argv], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        wall = perf_counter() - t0
        record_child(proc.stderr, wall, tr, tr_timings)
        return proc.returncode, proc.stdout

    return SimpleNamespace(prepare=load.cli_argv, run=run, check=lambda op, out: oracle.check_cli(op, *out), observe=None)


def record_child(stderr: str, wall: float, tr: Tracer, timings: dict) -> None:
    """Fold one traced child's import times, phase times and spans into the run."""
    imports = {}
    for line in stderr.splitlines():
        if m := _IMPORTTIME.match(line):
            imports[m.group(2)] = int(m.group(1)) / 1000
        elif line.startswith("PERFBENCH "):
            report = json.loads(line[len("PERFBENCH "):])
            tr.merge(report, tr.op)
            timings["import_ms"].append(report["import_ms"])
            timings["command_ms"].append(report["command_ms"])
            timings["interp_ms"].append(1000 * wall - report["import_ms"] - report["command_ms"])
    for module in CLI_MODULES:
        timings[f"import.{module}_ms"].append(imports.get(module, 0.0))


def cold_import_s(env: dict) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import logfano.cli"], env=env, cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)
    return perf_counter() - t0


def run_cli(seed: int, seconds: int, trace: bool):
    if trace:
        rounds = list(itertools.islice(load.cli_rounds(seed), TRACE_ROUNDS["cli"]))
        timings: dict[str, list[float]] = {k: [] for k in ("interp_ms", "import_ms", "command_ms")}
        timings.update({f"import.{m}_ms": [] for m in CLI_MODULES})
        tr = Tracer()
        traced = measure(rounds, cli_workload(timings), tr=tr)
        plain = measure(rounds, cli_workload())
        metrics = traced_metrics(tr, traced, plain)
        for key, values in timings.items():
            metrics[f"cli.{key}"] = (statistics.median(values) if values else 0.0, "ms")
        return metrics, {"load_digest": load.load_digest(rounds), "spans": len(tr.spans)}, combine(traced, plain), tr
    env = child_env()
    setup = [cold_import_s(env) for _ in range(SETUP_REPEATS)]
    meta = {"load_digest": load.load_digest(load.cli_rounds(seed))}
    result = measure(load.cli_rounds(seed), cli_workload(), seconds)
    metrics, more = end_to_end(result, setup, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    meta.update(more, setup_runs=[round(s, 6) for s in setup])
    return metrics, meta, result, None


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def traced_metrics(tr: Tracer, traced, plain) -> dict:
    metrics = tr.layer_metrics()
    for key in ("verify.checks", "verify.checks_failed", "verify.faults_injected", "verify.faults_detected"):
        metrics[key] = (tr.counts[key], "count")
    for key in ("interp_ms", "import_ms", "command_ms", *(f"import.{m}_ms" for m in CLI_MODULES)):
        metrics[f"cli.{key}"] = (0.0, "ms")
    metrics["trace.ops"] = (len(traced.latencies), "count")
    metrics["trace.overhead_frac"] = (1 - sum(plain.latencies) / sum(traced.latencies), "ratio")
    return metrics


def combine(*results) -> SimpleNamespace:
    return SimpleNamespace(
        latencies=[x for r in results for x in r.latencies],
        kinds=sum((r.kinds for r in results), Counter()),
        failures=[f for r in results for f in r.failures],
    )


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_spans(tr: Tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    fields = ["name", "start", "end", "parent", "op"]
    path.write_text(json.dumps({"fields": fields, **tr.export()}))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "verify", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "logfano" / "__init__.py").is_file():
        print(f"error: no logfano sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "cli":
        metrics, meta, result, tr = run_cli(args.seed, args.seconds, bool(args.trace))
    else:
        metrics, meta, result, tr = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = len(result.latencies), len(result.failures)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "ops_by_kind": dict(sorted(result.kinds.items())),
        **meta,
    }
    if tr is not None:
        header["spans_file"] = str(write_spans(tr, args.workload, args.seed).relative_to(ROOT))
    for key, value in header.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for message in result.failures[:5]:
        print(f"# FAILED {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
