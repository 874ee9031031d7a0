#!/usr/bin/env python3
"""Alternated pairs of benchmark runs on two revisions, written to one JSON record.

Usage, from anywhere inside the repository:

    python3 tools/bench_pairs.py --base REV --head REV --workload W --pairs N --seed0 S \\
        [--prefix BENCH]

Each revision is exported with ``git archive`` into its own temporary
directory, a clean checkout of its committed files that leaves no worktree
registered in ``.git``.  Each side runs its own ``perfbench/run.py``,
unchanged, with ``--trace 0`` and the run length ``run_seconds`` of the base
revision's ``BENCHMARK.json``.  Pair i runs seed ``S + i`` on both sides,
base first when i is even and head first when it is odd, so a drift of the
machine's speed falls on both sides alike.  The record holds every run's
metrics and, per end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles, the pairs the head wins (ties count for neither) and whether
the median gain exceeds the base's interquartile range.  Each run keeps its
metadata, with ``setup_runs``, the seven import times behind its ``setup_s``.  It also holds the
seeds, both SHAs, the Python version and ``nproc``.  It is written to
``<prefix>_<workload>.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout.strip()


def export(sha: str, into: Path) -> None:
    """The committed files of sha, extracted into an empty directory."""
    argv = ["git", "-C", str(ROOT), "archive", "--format=tar", sha]
    tar = subprocess.run(argv, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # The "data" filter exists from Python 3.12 and in the 3.10.12 and 3.11.4 backports.
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in tree: its result line plus the '# key: value' metadata before it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """The record of one run from its output: the result line, and the metadata of the '# key: value'
    lines before it.  setup_runs, the import times behind setup_s, is kept as a list of floats, so that
    a record tells one slow process from a slower revision."""
    lines = stdout.strip().splitlines()
    meta = dict(line[2:].split(": ", 1) for line in lines[:-1] if line.startswith("# ") and ": " in line)
    result = json.loads(lines[-1])
    kept = {key: meta[key] for key in ("load_digest", "rounds", "tail_percentile", "tail_n") if key in meta}
    if "setup_runs" in meta:
        kept["setup_runs"] = [float(x) for x in json.loads(meta["setup_runs"])]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "meta": kept,
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: both sides' spread, the head's wins and whether its median gain beats the base IQR."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        b, h = spread(base), spread(head)
        gain = sign * (b["median"] - h["median"])  # > 0: the head is better
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "base": b,
            "head": h,
            "head_wins": sum(sign * (x - y) > 0 for x, y in zip(base, head)),
            "pairs": len(pairs),
            "median_change": h["median"] / b["median"] - 1 if b["median"] else None,
            "median_gain": gain,
            "base_iqr": b["q3"] - b["q1"],
            "gain_exceeds_base_iqr": gain > b["q3"] - b["q1"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision measured as the baseline")
    parser.add_argument("--head", required=True, help="revision measured against it")
    parser.add_argument("--workload", required=True, choices=("scan", "verify", "cli"))
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed0", required=True, type=int, help="pair i runs seed seed0 + i")
    parser.add_argument("--prefix", default="BENCH", help="the record goes to <prefix>_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revs = {"base": args.base, "head": args.head}
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in revs.items()}
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        for side, tree in trees.items():
            tree.mkdir()
            export(shas[side], tree)
        benchmark = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, seconds)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()), file=sys.stderr)
            pairs.append(pair)
    record = {
        "workload": args.workload,
        "seconds": seconds,
        "pairs": args.pairs,
        "seeds": [p["seed"] for p in pairs],
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head, "sha": shas["head"]},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "all_correct": all(p[side]["correct"] for p in pairs for side in ("base", "head")),
        "metrics": summarize(pairs, end_to_end),
        "runs": pairs,
    }
    path = ROOT / f"{args.prefix}_{args.workload}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
