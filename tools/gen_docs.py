#!/usr/bin/env python
"""Render ``docs/reference/`` from the live registries.

The reference pages are *generated*, never hand-edited: the scenario
catalogue comes from the scenario registry, the component catalogue
from the stack-component registry (the same data ``repro compose
--list`` prints), the CLI verb table from the real argparse parser, and
the bench-entry table from the bench harness.  Because the pages are a
pure function of the registries, CI can prove docs and code agree:

    python tools/gen_docs.py            # (re)write docs/reference/
    python tools/gen_docs.py --check    # exit 1 + diff if stale

Output is deterministic — no timestamps, no environment-dependent
content — so the committed pages change only when the registries do.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import sys
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

HEADER = (
    "<!-- GENERATED by tools/gen_docs.py — do not edit by hand.\n"
    "     Re-render with: python tools/gen_docs.py -->\n\n"
)


def _fmt_default(value) -> str:
    if value is inspect.Parameter.empty:
        return "**required**"
    if isinstance(value, str):
        return f"`{value!r}`"
    return f"`{value}`"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


# ---------------------------------------------------------------------------
# pages


def render_scenarios() -> str:
    from repro.scenarios.registry import REGISTRY, load_builtin

    load_builtin()
    lines = [
        "# Scenario catalogue",
        "",
        "Registered scenarios (`repro <name>`, `repro list`), their seeds,",
        "workload families, and parameters.  Scale presets (`--scale",
        "quick|smoke|full`) override the listed defaults where noted.",
        "",
    ]
    for name, scenario in REGISTRY.items():
        seed = (
            scenario.seed_help or "scenario-derived default"
            if callable(scenario.seed)
            else str(scenario.seed)
        )
        lines.append(f"## `{name}`")
        lines.append("")
        lines.append(scenario.help)
        lines.append("")
        lines.append(f"- seed: {seed}")
        lines.append(f"- workload: {scenario.workload or '—'}")
        lines.append("")
        if scenario.params:
            rows = []
            for param in scenario.params:
                scales = ", ".join(
                    f"{preset} → `{value}`"
                    for preset, value in sorted(param.scale.items())
                )
                rows.append(
                    [
                        f"`--{param.name.replace('_', '-')}`",
                        param.type.__name__,
                        _fmt_default(param.default),
                        scales or "—",
                        param.help or "",
                    ]
                )
            lines.extend(
                _table(["parameter", "type", "default", "scales", "help"], rows)
            )
            lines.append("")
    return HEADER + "\n".join(lines).rstrip() + "\n"


def render_components() -> str:
    from repro.api.registry import COMPONENTS, KINDS, load_builtin_components

    load_builtin_components()
    lines = [
        "# Stack component catalogue",
        "",
        "Composable components for `repro run --config` stack configs and",
        "the `repro.api` Stack API — the same catalogue `repro compose",
        "--list` prints.  One component per layer (cluster / supply /",
        "middleware / router), any number of workloads and probes.",
        "",
    ]
    for kind in KINDS:
        lines.append(f"## {kind}")
        lines.append("")
        for comp in COMPONENTS.items(kind):
            lines.append(f"### `{comp.name}`")
            lines.append("")
            if comp.help:
                lines.append(comp.help)
                lines.append("")
            params = comp.parameters()
            if params:
                rows = [
                    [f"`{name}`", _fmt_default(default)]
                    for name, default in params
                ]
                lines.extend(_table(["option", "default"], rows))
                lines.append("")
    return HEADER + "\n".join(lines).rstrip() + "\n"


def render_cli() -> str:
    from repro.cli import build_parser

    parser = build_parser()
    subactions = [
        action
        for action in parser._subparsers._group_actions  # noqa: SLF001
        if hasattr(action, "choices")
    ]
    lines = [
        "# CLI verbs",
        "",
        "Every `repro` subcommand, from the live argparse tree.  Scenario",
        "subcommands (one per registered scenario) run a single scenario;",
        "the rest are the runners, the live mode pair, and the warehouse",
        "front door.  `repro <verb> --help` shows the full option set.",
        "",
    ]
    rows = []
    for action in subactions:
        helps = {
            choice.prog.split()[-1]: "" for choice in action.choices.values()
        }
        for choice_action in action._choices_actions:  # noqa: SLF001
            helps[choice_action.dest] = choice_action.help or ""
        for name in action.choices:
            rows.append([f"`repro {name}`", helps.get(name, "")])
    lines.extend(_table(["verb", "what it does"], rows))
    return HEADER + "\n".join(lines).rstrip() + "\n"


def render_bench() -> str:
    from repro.bench.harness import MICROBENCH_RUNNERS, bench_names
    from repro.scenarios.registry import REGISTRY, load_builtin

    load_builtin()
    lines = [
        "# Bench entries",
        "",
        "Benchmarks runnable via `repro bench [NAME ...]` (default: all).",
        "Each writes a `BENCH_<name>.json` with kernel throughput",
        "(events/sec) and can gate against `BENCH_baseline.json` with",
        "`--against`.  Microbenches stress the kernel directly; scenario",
        "entries run a registered scenario under the kernel probe.",
        "",
    ]
    rows = []
    for name in bench_names():
        if name in MICROBENCH_RUNNERS:
            kind = "microbench"
            help_text = {
                "kernel": "pure event-loop throughput: timeouts, processes, relays, cancels",
                "flood": "drain rate of a deep resident queue (20k+ pending timeouts)",
                "timeout-flood": "create+drain with the event freelist in steady state",
                "router": "federation router microbenchmark",
                "shards": "sharded federation scaling microbenchmark",
            }.get(name, "")
        else:
            kind = "scenario"
            help_text = REGISTRY.get(name).help
        rows.append([f"`{name}`", kind, help_text])
    lines.extend(_table(["entry", "kind", "what it measures"], rows))
    return HEADER + "\n".join(lines).rstrip() + "\n"


PAGES: Dict[str, Callable[[], str]] = {
    "scenarios.md": render_scenarios,
    "components.md": render_components,
    "cli.md": render_cli,
    "bench.md": render_bench,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/reference/ matches the registries; exit 1 on drift",
    )
    parser.add_argument(
        "--out-dir",
        default=str(ROOT / "docs" / "reference"),
        metavar="DIR",
        help="target directory (default: docs/reference/)",
    )
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)

    rendered = {name: render() for name, render in PAGES.items()}

    if args.check:
        stale = []
        for name, want in rendered.items():
            path = out_dir / name
            have = path.read_text() if path.exists() else ""
            if have != want:
                stale.append(name)
                sys.stdout.writelines(
                    difflib.unified_diff(
                        have.splitlines(keepends=True),
                        want.splitlines(keepends=True),
                        fromfile=f"docs/reference/{name} (committed)",
                        tofile=f"docs/reference/{name} (registries)",
                    )
                )
        if stale:
            print(
                f"\ndocs drift: {', '.join(stale)} out of date — "
                "run `python tools/gen_docs.py` and commit the result"
            )
            return 1
        print(f"docs/reference/ in sync ({len(rendered)} pages)")
        return 0

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in rendered.items():
        (out_dir / name).write_text(content)
        print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
