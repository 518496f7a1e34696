"""Alternating parent/change runs of the benchmark: whether a gain holds,
and whether any metric got worse.

    python3 tools/bench_pairs.py PARENT CHANGE --workload paper-infer \\
        --pairs 10 --seconds 40 --seed0 411

PARENT and CHANGE are two squadlab checkouts.  Pair p runs
``perfbench/run.py --workload W --seed K+p --seconds S --trace 0`` once in
each, the parent first in even pairs and the change first in odd ones, so
drift of the host falls on both sides alike.  A run whose last line is
missing, is not a JSON object or says ``"correct": false`` counts as
failed; its pair is no win for the change.

For every end-to-end metric of the change's ``BENCHMARK.json`` the script
prints each pair's values, each side's median and quartiles, and how many
pairs the change won.  A gain holds when the change wins at least nine
tenths of the pairs run (ties count for neither) and the medians differ,
in the better direction, by more than the parent's interquartile range.
Each metric also gets a verdict against its ``bound`` in ``BENCHMARK.json``:

- ``worse``: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
- ``unresolved``: the parent's IQR over its median exceeds ``bound``, and
  not every change run beats every parent run;
- ``ok``: otherwise.

A metric with no run left on the change's side is ``worse``; with none on
the parent's, ``unresolved``.  Next to each verdict the script prints the
parent's IQR over its median and the bound, so an ``unresolved`` shows
how far the parent's own spread exceeds the bound.  Standard library
only; run it from anywhere.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The metric values of one untraced run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if not isinstance(result, dict) or result.get("correct") is not True:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics):
    """One dict per (name, better) metric from ``pairs``, a list of
    (parent values, change values), either None for a failed run.

    Each dict holds the metric's name, each side's quartiles over its runs
    that did not fail, the change's wins, the pair count, ``separated``
    (every change run beats every parent run) and ``holds``: whether the
    change won at least ``WIN_SHARE`` of the pairs and its median is better
    than the parent's by more than the parent's IQR.
    """
    out = []
    for name, better in metrics:
        sign = 1 if better == "higher" else -1
        wins = sum(1 for p, c in pairs if p is not None and c is not None
                   and sign * (c[name] - p[name]) > 0)
        row = {"name": name, "better": better, "wins": wins,
               "pairs": len(pairs), "holds": False}
        values = [[pair[i][name] for pair in pairs if pair[i] is not None]
                  for i in range(len(SIDES))]
        for side, runs in zip(SIDES, values):
            row[side] = quartiles(runs) if runs else None
        row["separated"] = bool(all(values) and min(
            sign * v for v in values[1]) > max(sign * v for v in values[0]))
        if row["parent"] and row["change"]:
            q1, median, q3 = row["parent"]
            gap = sign * (row["change"][1] - median)
            row["holds"] = (wins >= WIN_SHARE * len(pairs)
                            and gap > q3 - q1)
        out.append(row)
    return out


def spread(row):
    """The parent's IQR over its median for one row of ``summarize``, the
    share that ``verdict`` holds against the bound (inf when the median
    is 0 and the IQR is not), or None without a parent run."""
    if row["parent"] is None:
        return None
    q1, median, q3 = row["parent"]
    if median == 0:
        return math.inf if q3 > q1 else 0.0
    return (q3 - q1) / abs(median)


def verdict(row, bound) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one row of ``summarize``,
    against the metric's relative ``bound`` (see the module docstring)."""
    if row["change"] is None:
        return "worse"
    if row["parent"] is None:
        return "unresolved"
    median = row["parent"][1]
    sign = 1 if row["better"] == "higher" else -1
    if sign * (row["change"][1] - median) < -bound * abs(median):
        return "worse"
    if spread(row) > bound and not row["separated"]:
        return "unresolved"
    return "ok"


def _fmt(q):
    return "failed" if q is None else f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def _share(v):
    return "-" if v is None else f"{v:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for p in range(args.pairs):
        seed = args.seed0 + p
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        got = {side: run_once(checkouts[side], args.workload, seed,
                              args.seconds) for side in order}
        pairs.append((got["parent"], got["change"]))
        print(f"pair {p + 1} seed {seed} ({order[0]} first)", flush=True)
        for name, _ in metrics:
            values = [("failed" if got[s] is None else f"{got[s][name]:.4g}")
                      for s in SIDES]
            print(f"  {name:20s} {values[0]:>10s} -> {values[1]:>10s}",
                  flush=True)
    failed = {s: sum(pair[i] is None for pair in pairs)
              for i, s in enumerate(SIDES)}
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed0}-"
          f"{args.seed0 + args.pairs - 1}; failed runs: parent "
          f"{failed['parent']}, change {failed['change']}")
    print(f"  {'metric':20s} {'better':6s} {'parent median [q1, q3]':>28s} "
          f"{'change median [q1, q3]':>28s} {'wins':>6s}  gain holds  "
          f"{'IQR/med':>7s} {'bound':>6s}  verdict")
    for row in summarize(pairs, metrics):
        bound = bounds[row['name']]
        print(f"  {row['name']:20s} {row['better']:6s} "
              f"{_fmt(row['parent']):>28s} {_fmt(row['change']):>28s} "
              f"{row['wins']:>3d}/{row['pairs']:<2d}  "
              f"{'yes' if row['holds'] else 'no':10s}  "
              f"{_share(spread(row)):>7s} {_share(bound):>6s}  "
              f"{verdict(row, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
