"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the files ``run.py --out`` wrote, any mix of
workloads and seeds. For every workload x metric the table gives each
side's median, quartiles and spread (quartile distance over median).
With two sets it pairs runs by seed, which the two sets must share: run
the two commits seed by seed, alternating which one runs first, so a
drift in machine speed falls on both sides of a pair alike. It then
gives the paired worsening defined below (negative when the new side is
better) and a verdict:

* better: the new side wins at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the base's
  own quartile distance.
* unresolved: otherwise, when either side's spread exceeds the metric's
  bound (a per-layer metric has no bound, so it is unresolved unless
  both sides read exactly the same, or one side wins as above).
* not worse: a bounded metric that would be unresolved, but on which
  every new run beats every base run.
* worse: the median over pairs of the per-seed worsening, new against
  base as a share of base, exceeds the bound.
* unchanged: otherwise.

With one set it prints the spreads only, which shows run-to-run
steadiness; two sets of runs of the same code should read unchanged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[tuple[str, str], dict[int, float]]:
    """{(workload, metric): {seed: value}} from every result file."""
    runs: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        env = record["environment"]
        for name, metric in record["result"]["metrics"].items():
            runs.setdefault((env["workload"], name), {})[env["seed"]] = metric["value"]
    return runs


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def _pairs(base: dict[int, float], new: dict[int, float]) -> list[tuple[float, float]]:
    shared = sorted(set(base) & set(new))
    if not shared:
        raise ValueError("the two sets share no seed, so no run can be paired")
    return [(base[s], new[s]) for s in shared]


def paired_worsening(base: dict[int, float], new: dict[int, float], better: str) -> float:
    """Median over seeds of how much worse the new run is than the base
    run of the same seed, as a share of the base value."""
    sign = 1.0 if better == "higher" else -1.0
    return statistics.median(sign * (x - y) / abs(x) if x else 0.0
                             for x, y in _pairs(base, new))


def verdict(base: dict[int, float], new: dict[int, float], better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b, n = summary(list(base.values())), summary(list(new.values()))
    pairs = _pairs(base, new)
    new_wins = sum(sign * (y - x) > 0 for x, y in pairs)
    base_wins = sum(sign * (x - y) > 0 for x, y in pairs)
    gap = abs(n["median"] - b["median"])
    base_iqr = b["q3"] - b["q1"]
    if new_wins >= WIN_SHARE * len(pairs) and gap > base_iqr:
        return "better"
    if bound is None:
        if set(base.values()) == set(new.values()) and len(set(base.values())) == 1:
            return "unchanged"
        if base_wins >= WIN_SHARE * len(pairs) and gap > base_iqr:
            return "worse"
        return "unresolved"
    if max(b["spread"], n["spread"]) > bound:
        if min(sign * v for v in new.values()) > max(sign * v for v in base.values()):
            return "not worse"
        return "unresolved"
    return "worse" if paired_worsening(base, new, better) > bound else "unchanged"


def compare(base_dir: Path, new_dir: Path | None) -> list[dict]:
    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load_runs(base_dir)
    new = load_runs(new_dir) if new_dir else {}
    rows = []
    for (workload, name), values in sorted(base.items()):
        meta = metrics.get(name, {"unit": "?", "better": "lower"})
        row = {"workload": workload, "metric": name, "unit": meta["unit"],
               "bound": meta.get("bound"), "base": summary(list(values.values()))}
        if new_dir is not None and (workload, name) in new:
            other = new[(workload, name)]
            row["new"] = summary(list(other.values()))
            row["worsening"] = paired_worsening(values, other, meta["better"])
            row["verdict"] = verdict(values, other, meta["better"], meta.get("bound"))
        rows.append(row)
    return rows


def _fmt(s: dict) -> str:
    return f"{s['median']:11.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {100 * s['spread']:5.1f}%"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    try:
        rows = compare(args.base, args.new)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print(f"error: no result files in {args.base}", file=sys.stderr)
        return 2
    print(f"{'workload':20s} {'metric':40s} {'unit':>15s}  "
          f"{'median [q1, q3] spread':>38s}  (n; bound)")
    for row in rows:
        bound = "-" if row["bound"] is None else f"{100 * row['bound']:.0f}%"
        line = (f"{row['workload']:20s} {row['metric']:40s} {row['unit']:>15s}  "
                f"{_fmt(row['base'])}  ({row['base']['n']}; {bound})")
        if "new" in row:
            line += (f"  ->  {_fmt(row['new'])}  paired {100 * row['worsening']:+5.1f}%"
                     f"  {row['verdict']}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
