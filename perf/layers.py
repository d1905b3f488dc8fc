"""Per-layer attribution of a cProfile run, plus the benchmark's statistics.

A layer is a package under ``src/repro/``: ``sim``, ``faas``, ``cluster``,
``workloads``, ``hpcwhisk``, ``supply``, ``analysis``, ``api``,
``warehouse`` and ``live``.  Top-level modules and the entry packages
(``cli``, ``scenarios``, ``experiments``, ``provenance``, ``shard``,
``bench``) count as ``api``, the program's public surface.  The stdlib
``asyncio`` package counts as ``live``: live mode is the only part of the
program that runs an event loop, and the loop's own work is its cost.

Self time of a function in a layer belongs to that layer.  Self time of
other code (stdlib, C builtins, numpy, the benchmark's own wrappers) goes
to the layer that called it, split by the per-caller time pstats records;
a caller outside the layers passes its share further up the same way.
Three buckets are not layers: ``import`` (the import machinery, with the
module bodies and extension loading it runs outside ``src/repro``),
``other`` (time no layer called) and ``idle`` (blocked in the event
loop's poll).  A layer's ``share`` is its part of the layers' total.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import statistics
import sys
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LAYERS = (
    "sim",
    "faas",
    "cluster",
    "workloads",
    "hpcwhisk",
    "supply",
    "analysis",
    "api",
    "warehouse",
    "live",
)
IMPORT = "import"
OTHER = "other"
IDLE = "idle"
BUCKETS = LAYERS + (IMPORT, OTHER, IDLE)

#: builtins whose self time is waiting for I/O or a timer, not work
_IDLE_NAMES = (
    "of 'select.epoll' objects>",
    "of 'select.poll' objects>",
    "<built-in method select.select>",
    "<built-in method time.sleep>",
)
_ASYNCIO = os.sep + "asyncio" + os.sep

FuncKey = Tuple[str, int, str]


def layer_of_file(filename: str, package_dir: str) -> Optional[str]:
    """The layer owning *filename*, or None when it is outside the package."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in LAYERS else "api"


def owner_of_file(filename: str, package_dir: str) -> Optional[str]:
    """The bucket that owns code in *filename* outright, else None."""
    if filename.startswith("<frozen importlib"):
        return IMPORT
    layer = layer_of_file(filename, package_dir)
    if layer is None and _ASYNCIO in filename:
        return "live"
    return layer


def _is_idle(key: FuncKey) -> bool:
    return key[0] == "~" and any(name in key[2] for name in _IDLE_NAMES)


def empty_table() -> Dict[str, Dict[str, float]]:
    return {name: {"self_s": 0.0, "share": 0.0, "calls_in": 0.0} for name in BUCKETS}


def _set_shares(table: Dict[str, Dict[str, float]]) -> None:
    busy = sum(table[name]["self_s"] for name in LAYERS)
    for name in LAYERS:
        table[name]["share"] = table[name]["self_s"] / busy if busy > 0.0 else 0.0


def attribute(stats: Mapping[FuncKey, tuple], package_dir: str) -> Dict[str, Dict[str, float]]:
    """Self time, share and incoming calls per bucket of one profile.

    *stats* is ``pstats.Stats(...).stats``: ``key -> (cc, nc, tt, ct,
    callers)`` with ``callers`` mapping caller key to ``(nc, cc, tt, ct)``.
    Returns ``{bucket: {"self_s", "share", "calls_in"}}`` for every name in
    :data:`BUCKETS`.  ``calls_in`` counts calls into a layer from another
    bucket; a call made by code outside the buckets is charged to that
    code's callers in proportion to their call counts, so that it stays an
    exact count.
    """
    own: Dict[FuncKey, Optional[str]] = {key: owner_of_file(key[0], package_dir) for key in stats}
    by_time: Dict[FuncKey, Dict[str, float]] = {}
    by_count: Dict[FuncKey, Dict[str, float]] = {}

    def owners(key: FuncKey, weight_index: int, memo, active) -> Dict[str, float]:
        """Bucket mix of the code that runs *key*; empty when every caller
        path loops back into the search (such a result is not memoized)."""
        bucket = own.get(key)
        if bucket is not None:
            return {bucket: 1.0}
        if key in memo:
            return memo[key]
        callers = stats[key][4] if key in stats else {}
        active.add(key)
        mix: Dict[str, float] = {}
        total = 0.0
        looped = False
        for caller, edge in callers.items():
            weight = float(edge[weight_index])
            if weight <= 0.0:
                continue
            parts = {} if caller in active else owners(caller, weight_index, memo, active)
            if not parts:
                looped = True
                continue
            for name, part in parts.items():
                mix[name] = mix.get(name, 0.0) + weight * part
            total += weight
        active.discard(key)
        if total:
            result = {name: part / total for name, part in mix.items()}
        else:
            result = {} if looped else {OTHER: 1.0}
        if not looped:
            memo[key] = result
        return result

    table = empty_table()
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        bucket = own[key]
        if _is_idle(key):
            table[IDLE]["self_s"] += tt
        elif bucket is not None:
            table[bucket]["self_s"] += tt
        else:
            # Split this function's own time by the callers that incurred it.
            edges = [(caller, edge[2]) for caller, edge in callers.items() if edge[2] > 0]
            spent = sum(weight for _caller, weight in edges)
            if spent <= 0.0:
                table[OTHER]["self_s"] += tt
            for caller, weight in edges:
                for name, part in (owners(caller, 3, by_time, set()) or {OTHER: 1.0}).items():
                    table[name]["self_s"] += tt * (weight / spent) * part
        if bucket not in LAYERS:
            continue
        for caller, edge in callers.items():
            mix = owners(caller, 0, by_count, set())
            table[bucket]["calls_in"] += edge[0] * (1.0 - mix.get(bucket, 0.0))

    for row in table.values():
        row["calls_in"] = float(round(row["calls_in"]))
    _set_shares(table)
    return table


# ---------------------------------------------------------------------------
# named counters read from a profile


def resolve(target: str) -> Optional[FuncKey]:
    """The pstats key of ``"package.module:Qual.name"``, or None if gone.

    Later changes may delete the functions these counters watch; the
    counter then reads ``None`` and the run goes on.
    """
    module_name, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = inspect.unwrap(obj).__code__
    except (ImportError, AttributeError):
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def counter(
    stats: Mapping[FuncKey, tuple],
    target: str,
    field: str = "calls",
    caller_layer: Optional[str] = None,
    package_dir: str = "",
) -> Optional[float]:
    """Calls to (or cumulative seconds in) *target*; None when it no longer exists.

    With *caller_layer*, only calls made directly from that layer count.
    """
    key = resolve(target)
    if key is None:
        print(f"perf: counter target {target} not found; reporting null", file=sys.stderr)
        return None
    entry = stats.get(key)
    if entry is None:
        return 0.0
    if caller_layer is not None:
        return float(sum(
            edge[0] for caller, edge in entry[4].items()
            if layer_of_file(caller[0], package_dir) == caller_layer
        ))
    return float(entry[1] if field == "calls" else entry[3])


# ---------------------------------------------------------------------------
# statistics


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of already sorted values (numpy's default)."""
    if not sorted_values:
        return math.nan
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def percentiles(values: Iterable[float]) -> Dict[str, float]:
    """Median and the highest percentile with at least ten samples beyond it.

    Returns ``{"n", "p50", "tail_pct", "tail"}``.  The tail percentile is
    the largest of 90, 99 and 99.9 that leaves ten or more samples above
    it; with fewer than 100 samples there is none and ``tail_pct`` is None.
    """
    ordered = sorted(values)
    n = len(ordered)
    out: Dict[str, float] = {"n": n, "p50": quantile(ordered, 0.5), "tail_pct": None, "tail": None}
    for per_mille in (999, 990, 900):
        if n * (1000 - per_mille) >= 10 * 1000:
            out["tail_pct"] = per_mille / 10.0
            out["tail"] = quantile(ordered, per_mille / 1000.0)
            break
    return out


def median(values: Iterable[float]) -> float:
    return quantile(sorted(values), 0.5)


def quartiles(values: Iterable[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else math.nan
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def merge_tables(tables: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum several passes' tables; shares are recomputed over the sum."""
    merged = empty_table()
    for table in tables:
        for name, row in table.items():
            merged[name]["self_s"] += row["self_s"]
            merged[name]["calls_in"] += row["calls_in"]
    _set_shares(merged)
    return merged


def render_table(table: Mapping[str, Mapping[str, float]], passes: int = 1) -> str:
    """The human-readable layer table (self time per pass, share, calls in)."""
    lines = [f"{'layer':<10} {'self_s':>9} {'share':>7} {'calls_in':>12}"]
    order = sorted(table, key=lambda name: -table[name]["self_s"])
    for name in order:
        row = table[name]
        share = f"{row['share'] * 100:6.1f}%" if name in LAYERS else ""
        lines.append(
            f"{name:<10} {row['self_s'] / max(passes, 1):>9.3f} {share:>7} {row['calls_in'] / max(passes, 1):>12.0f}"
        )
    return "\n".join(lines)
