"""Compare two sets of benchmark results.

Each set is a directory of ``<workload>-s<seed>-t<trace>.json`` records
written by ``run.py``.  For every workload and metric present on both
sides it prints the median, first and third quartile and run count per
side.  For end-to-end metrics it also prints the change of B's median
against A's, as a share of A's, and whether that stays within the metric's
bound from BENCHMARK.json (``agree``), and flags a side whose spread (the
distance between the quartiles, as a share of the median) exceeds the
bound.  Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(directory) -> dict:
    """{(workload, traced): {metric: [values]}} over every record."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*-t[01].json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["environment"]["traced"])
        for name, entry in record["metrics"].items():
            out[key][name].append(entry["value"])
    return out


def _cell(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(dir_a, dir_b, manifest: dict) -> int:
    """Print the comparison; exit 0 when every end-to-end metric agrees."""
    side_a, side_b = load_results(dir_a), load_results(dir_b)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    all_agree = True
    for key in sorted(set(side_a) & set(side_b)):
        workload, traced = key
        print(f"== {workload} ({'per-layer, traced' if traced else 'end-to-end'})")
        print(f"{'metric':32s} {'A: median [q1, q3]':>34s} {'B: median [q1, q3]':>34s}")
        for name in side_a[key]:
            a, b = side_a[key][name], side_b[key].get(name)
            if not b:
                continue
            line = f"{name:32s} {_cell(a):>34s} {_cell(b):>34s} {units.get(name, '')}"
            if name in bounds:
                bound = bounds[name]
                med_a, med_b = quartiles(a)[1], quartiles(b)[1]
                change = (med_b - med_a) / med_a
                agree = abs(change) <= bound
                all_agree &= agree
                line += f"  change {change:+.1%} bound {bound:.0%} "
                line += "agree" if agree else "DIFFER"
                for side, values in (("A", a), ("B", b)):
                    q1, med, q3 = quartiles(values)
                    if (q3 - q1) / med > bound:
                        line += f" (spread {side} {(q3 - q1) / med:.0%} > bound)"
            print(line)
    return 0 if all_agree else 1
