#!/usr/bin/env python3
"""Alternating A/B runs of this benchmark against a base revision.

    python3 perf/ab.py BASE_REV [--workload W ...] [--pairs 10] [--seed N]
                       [--seconds S] [--smoke]

Checks BASE_REV out into a temporary ``git worktree``, then runs
``--pairs`` pairs per workload.  Both sides of a pair run this checkout's
``perf/`` code with the same seed, each against its own tree's ``src/``,
and the side that runs first alternates.  Pair *i* uses seed ``N + i``.
For each end-to-end metric the report gives each side's median and
quartiles, the share of pairs the candidate won (ties count for neither)
and a verdict, with the bound from ``BENCHMARK.json``:

* ``gain`` — the candidate won at least 9 of 10 pairs and the medians
  differ by more than the base's own quartile spread;
* ``regression`` — the candidate's median is worse by more than the bound;
* ``unresolved`` — the base's spread is wider than the bound, and not
  every candidate run beats every base run;
* ``no change`` — none of these.

The worktree is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List

import layers

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)


def run_side(src: str, out: str, workload: str, seed: int, args) -> Dict[str, float]:
    cmd = [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--src", src, "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab: {workload} failed on {src}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: entry["value"] for name, entry in json.loads(lines[-1])["metrics"].items()}


def verdict(base: List[float], cand: List[float], better: str, bound: float) -> tuple:
    """``(wins, verdict)`` for one metric, by the rule in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, cand) if sign * (c - b) > 0) / len(base)
    q1, base_median, q3 = layers.quartiles(base)
    cand_median = layers.median(cand)
    gap = sign * (cand_median - base_median)
    if wins >= 0.9 and gap > q3 - q1:
        return wins, "gain"
    if -gap > bound * abs(base_median):
        return wins, "regression"
    cand_worst = min(cand) if sign > 0 else max(cand)
    base_best = max(base) if sign > 0 else min(base)
    if (q3 - q1) > bound * abs(base_median) and not sign * (cand_worst - base_best) > 0:
        return wins, "unresolved"
    return wins, "no change"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev")
    parser.add_argument("--workload", action="append", help="repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    scratch = tempfile.mkdtemp(prefix="perf-ab-")
    tree = os.path.join(scratch, "base")
    subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", tree, args.base_rev],
                   check=True, capture_output=True)
    sides = {"base": os.path.join(tree, "src"), "cand": os.path.join(ROOT, "src")}
    try:
        for workload in workloads:
            runs: Dict[str, List[Dict[str, float]]] = {"base": [], "cand": []}
            for i in range(args.pairs):
                order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
                for side in order:
                    out = os.path.join(scratch, "out", side)
                    runs[side].append(run_side(sides[side], out, workload, args.seed + i, args))
            print(f"== {workload}: {args.pairs} pairs vs {args.base_rev}")
            print(f"  {'metric':<16} {'base q1/med/q3':>30} {'cand q1/med/q3':>30} {'wins':>5}  verdict")
            for name, meta in metrics.items():
                base = [r[name] for r in runs["base"]]
                cand = [r[name] for r in runs["cand"]]
                wins, word = verdict(base, cand, meta["better"], meta["bound"])
                cells = ["/".join(f"{x:.4g}" for x in layers.quartiles(side)) for side in (base, cand)]
                print(f"  {name:<16} {cells[0]:>30} {cells[1]:>30} {wins:>5.0%}  {word}")
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree],
                       check=False, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
